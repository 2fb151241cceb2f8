import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args, timeout=60):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          capture_output=True, text=True, env=env, timeout=timeout)


def test_falldown_direction_demo_prints_a_witness():
    proc = run_script("falldown_direction_demo.py", "-n", "4")
    assert proc.returncode == 0, proc.stderr
    assert "witness S (|S|=" in proc.stdout
    assert "boundary of T(S):" in proc.stdout


def test_falldown_direction_demo_filters_by_counts():
    proc = run_script("falldown_direction_demo.py", "-n", "4", "--counts", "3", "4")
    assert proc.returncode == 0, proc.stderr
    assert "boundary of T(S): 3 vertices in S_4, 4 in R_4" in proc.stdout.splitlines()
    proc = run_script("falldown_direction_demo.py", "-n", "4", "--counts", "9", "9")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["no witness found"]


def test_wall_sweep_demo_sweeps():
    proc = run_script("wall_sweep_demo.py", "-n", "3", "-l", "7")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "swept"  # not "NOT swept"


def test_min_lions_survey_exclusions_sit_below_the_minimum():
    """The Cheeger exclusion is strictly below the exact free minimum on every row."""
    proc = run_script("min_lions_survey.py", timeout=120)
    assert proc.returncode == 0, proc.stderr
    header, *rows = proc.stdout.splitlines()
    assert header.split()[-2:] == ["excl_free", "k*_free"]
    assert len(rows) == 18
    for row in rows:
        excluded, k_free = row.split()[-2:]
        assert int(excluded) < int(k_free), row  # int() fails on "?(unknown)"


def test_min_lions_survey_polite_exclusions_sit_below_the_minimum():
    """With --polite, the polite Cheeger exclusion is strictly below the exact
    polite minimum on every row."""
    proc = run_script("min_lions_survey.py", "--polite", timeout=120)
    assert proc.returncode == 0, proc.stderr
    header, *rows = proc.stdout.splitlines()
    assert header.split()[-2:] == ["excl_pol", "k*_pol"]
    assert len(rows) == 18
    for row in rows:
        excluded, k_polite = row.split()[-2:]
        assert int(excluded) < int(k_polite), row  # int() fails on "?(unknown)"
