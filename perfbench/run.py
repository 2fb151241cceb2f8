"""lionsweep benchmark: seeded CLI workloads in a closed loop, with checked outputs.

    python3 perfbench/run.py --workload search --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40

One client runs the workload's task list one task at a time; each task is a
`lionsweep.cli.main(argv)` call in this process, so argument parsing, graph
loading, the library call and the exit-code contract are all timed. The
list is repeated until --seconds are used (at least once). Every task's
output is checked; a failure is counted, never dropped, and makes the run
exit 1.

--trace 0 reports the end-to-end metrics. --trace 1 spends half the time
untraced and half with every public function wrapped in a span recorder,
reports the per-layer metrics, the tracing overhead, and fails the run if a
traced task's output differs from its untraced output. `--workload all`
runs each workload in a fresh process, untraced and traced.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.
"""
from __future__ import annotations

import argparse
import bisect
import contextlib
import gc
import hashlib
import importlib
import io
import json
import math
import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT))

from perfbench import checks, tracing, workloads  # noqa: E402

OUT_DIR = ROOT / ".perfbench-out"
SETUP_REPEATS = 7
# The calibration burst's duration at the reference speed the end-to-end
# times are scaled to.
REFERENCE_BURST_S = 1.5e-3
MIN_WINDOW_S = 0.02

# (name, unit, better) of every end-to-end metric.
END_TO_END = (
    ("wall_s", "s", "lower"),
    ("task_p50_s", "s", "lower"),
    ("task_p90_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("setup_s", "s", "lower"),
)


def import_lionsweep() -> SimpleNamespace:
    """Import lionsweep afresh from the checkout's src/, the way a new process would."""
    src = ROOT / "src"
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    for name in [m for m in sys.modules if m == "lionsweep" or m.startswith("lionsweep.")]:
        del sys.modules[name]
    pkg = importlib.import_module("lionsweep")
    if Path(pkg.__file__).resolve().parent != src / "lionsweep":
        raise ImportError(f"lionsweep was imported from {pkg.__file__}, not from {src}")
    mods = {m: importlib.import_module(f"lionsweep.{m}") for m in tracing.MODULES}
    return SimpleNamespace(root=str(ROOT), **mods)


def calibration_burst() -> float:
    """Time a fixed piece of interpreter work much like the program's own."""
    start = time.perf_counter()
    seen = {}
    mask = 0
    for i in range(4000):
        mask = (mask * 40503 + i) & 0xFFFF
        key = (mask & 0xF, mask >> 12)
        seen[key] = seen.get(key, 0) | (mask & -mask)
    return time.perf_counter() - start


class SpeedLog:
    """Calibration bursts run around every timed step, to scale the step to a fixed speed.

    On a shared machine other load changes how fast this process runs, by
    half or more over minutes. A step's time is multiplied by
    REFERENCE_BURST_S over the mean burst within one step length of it (at
    least MIN_WINDOW_S), which cancels that drift: a long step is compared
    with the speed around all of it, not only at its two ends. Unscaled
    times are printed as well.
    """

    def __init__(self):
        self.at = []  # burst midpoints, increasing
        self.took = []

    def burst(self) -> None:
        start = time.perf_counter()
        took = calibration_burst()
        self.at.append(start + took / 2)
        self.took.append(took)

    def scale(self, start: float, stop: float) -> float:
        reach = max(stop - start, MIN_WINDOW_S)
        lo = bisect.bisect_left(self.at, start - reach)
        hi = bisect.bisect_right(self.at, stop + reach)
        return (stop - start) * REFERENCE_BURST_S / statistics.fmean(self.took[lo:hi])


def set_up(workload: str, seed: int, workdir: Path) -> tuple:
    """Import, build the graphs and write the input files, SETUP_REPEATS times.

    Returns the library and tasks of the last set-up and the median scaled
    and unscaled set-up times.
    """
    log, spans = SpeedLog(), []
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        log.burst()
        start = time.perf_counter()
        lib = import_lionsweep()
        tasks = workloads.build(workload, seed, lib, str(workdir))
        spans.append((start, time.perf_counter()))
        log.burst()
    return (lib, tasks, statistics.median(log.scale(*span) for span in spans),
            statistics.median(stop - start for start, stop in spans))


def run_task(lib, task, tracer=None) -> checks.Result:
    for path in task.outputs:
        with contextlib.suppress(FileNotFoundError):
            os.remove(path)
    out, err = io.StringIO(), io.StringIO()
    error = ""
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        if tracer is not None:
            tracer.begin(task.id, start)
        try:
            rc = lib.cli.main(task.argv)
        except SystemExit as exc:  # argparse rejects bad usage this way
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # a crash is a failed task, reported with the others
            rc, error = None, f"{type(exc).__name__}: {exc}"
        stop = time.perf_counter()
        if tracer is not None:
            tracer.end(stop)
    return checks.Result(rc, out.getvalue(), err.getvalue(), stop - start, error, start)


def fingerprint(task, res) -> tuple:
    digest = hashlib.sha256()
    for path in task.outputs:
        try:
            digest.update(Path(path).read_bytes())
        except FileNotFoundError:
            digest.update(b"\0missing")
    return (res.rc, res.stdout, res.stderr, res.error, digest.hexdigest())


@dataclass
class Pass:
    raw: list = field(default_factory=list)  # seconds per task, as measured
    times: list = field(default_factory=list)  # the same, scaled to the reference speed
    prints: list = field(default_factory=list)  # fingerprint per task
    failures: list = field(default_factory=list)  # (task id, problems)
    counts: dict = field(default_factory=dict)  # exact counts, identical in every pass
    elapsed: float = 0.0  # clock time of the pass
    checking: float = 0.0  # the part of it spent checking outputs
    trace: tuple = ()  # (spans, kernel counters) of a traced pass

    @property
    def wall(self) -> float:
        return sum(self.raw)


class Runner:
    """Runs passes over one task list and checks every output."""

    def __init__(self, lib, tasks):
        self.lib = lib
        self.tasks = tasks
        self.ctx = checks.Context(lib)
        self.first = {}  # task id -> (fingerprint, problems) from the first pass

    def run_pass(self, tracer=None) -> Pass:
        gc.collect()
        p = Pass()
        start = time.perf_counter()
        same = True  # every output so far matches the first pass
        counts = {"search.states_reported": 0, "strategies.plan_steps": 0,
                  "dynamics.trace_bytes": 0, "cheeger.subsets": 0, "isoperimetry.subsets": 0}
        log, spans = SpeedLog(), []
        for task in self.tasks:
            log.burst()
            res = run_task(self.lib, task, tracer)
            log.burst()
            spans.append((res.start, res.start + res.seconds))
            p.raw.append(res.seconds)
            fp = fingerprint(task, res)
            seen = self.first.get(task.id)
            if same and seen is not None and seen[0] == fp:
                problems = seen[1]  # same output after the same earlier outputs: same verdict
            else:
                same = False
                began = time.perf_counter()
                try:
                    problems = task.check(res, self.ctx)
                except Exception as exc:  # a check that cannot read the output fails the task
                    problems = [f"check raised {type(exc).__name__}: {exc}"]
                p.checking += time.perf_counter() - began
                if seen is None:
                    self.first[task.id] = (fp, problems)
                elif seen[0] != fp:
                    problems = problems + ["output differs from the first pass"]
            if problems:
                p.failures.append((task.id, problems))
            p.prints.append(fp)
            m = re.search(r"states=(\d+)", res.stdout)
            counts["search.states_reported"] += int(m[1]) if m else 0
            m = re.match(r"(\d+) steps \(", res.stdout)
            counts["strategies.plan_steps"] += int(m[1]) if m else 0
            counts["dynamics.trace_bytes"] += sum(os.path.getsize(t) for t in task.traces
                                                  if os.path.exists(t))
            for layer, n in task.subsets.items():
                counts[f"{layer}.subsets"] += n
        p.times = [log.scale(*span) for span in spans]
        p.counts = counts
        p.elapsed = time.perf_counter() - start
        return p

    def measure(self, seconds: float, tracer=None) -> list:
        """Passes until the next one would end after `seconds` (at least one).

        Outputs already checked are not checked again, so the next pass is
        predicted to take as long as the last one without its checking.
        """
        passes = []
        start = time.perf_counter()
        while True:
            passes.append(self.run_pass(tracer))
            if tracer is not None:
                passes[-1].trace = tracer.take()
            last = passes[-1]
            if time.perf_counter() - start + last.elapsed - last.checking > seconds:
                return passes


def task_times(passes, attr="times") -> list:
    """Each task's median time over the passes."""
    return [statistics.median(t) for t in zip(*(getattr(p, attr) for p in passes))]


def p90(samples) -> float:
    """90th percentile, interpolated between the two nearest ranks."""
    return statistics.quantiles(samples, n=10, method="inclusive")[-1]


def summarize_failures(passes, tasks) -> list:
    lines = []
    for p in passes:
        for tid, problems in p.failures:
            lines.append(f"FAIL task {tid} {' '.join(tasks[tid].argv)}: {'; '.join(problems)}")
    return lines


def run_one(args) -> int:
    workdir = OUT_DIR / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    try:
        lib, tasks, setup_s, setup_raw = set_up(args.workload, args.seed, workdir)
    except ImportError as exc:
        shutil.rmtree(workdir, ignore_errors=True)
        print(f"cannot import lionsweep from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    try:
        return measure_and_report(args, lib, tasks, (setup_s, setup_raw), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure_and_report(args, lib, tasks, setup, workdir) -> int:
    accepted = checks.self_test(lib, str(workdir))
    runner = Runner(lib, tasks)
    gc.collect()
    gc.freeze()
    extra = []
    if args.trace:
        plain = runner.measure(args.seconds / 2)
        tracer = tracing.Tracer(lib)
        tracer.install()
        try:
            traced = runner.measure(args.seconds / 2, tracer)
        finally:
            tracer.uninstall()
        passes = plain + traced
        extra = trace_checks(plain, traced, tasks)
        tracing.write_spans(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl",
                            [p.trace for p in traced])
    else:
        passes = runner.measure(args.seconds)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    attempted = len(tasks) * len(passes)
    failed = sum(len(p.failures) for p in passes) + len(extra)
    counts = passes[0].counts
    if any(p.counts != counts for p in passes):
        extra.append("exact counts differ between passes")
        failed += 1
    lines = summarize_failures(passes, tasks) + [f"FAIL {e}" for e in extra]
    lines += [f"FAIL self-test: the checker accepted {label}" for label in accepted]

    beyond = len(tasks) - math.ceil(0.9 * len(tasks))
    raw = task_times(passes, "raw")
    print(f"# workload {args.workload}, seed {args.seed}: {len(tasks)} tasks per pass "
          f"({beyond} beyond p90), {len(passes)} passes, {attempted} task samples; a task's "
          f"time is its median over the passes; set-up repeated {SETUP_REPEATS} times")
    print("# unscaled: pass wall_s " + ", ".join(f"{p.wall:.4f}" for p in passes)
          + f"; wall_s {sum(raw):.4f}, task_p50_s {statistics.median(raw):.6f}, "
          f"task_p90_s {p90(raw):.6f}, setup_s {setup[1]:.6f}")
    print("# exact counts per pass: " + ", ".join(f"{k}={v}" for k, v in counts.items())
          + " (subsets computed from the input sizes)")
    print(f"# error_rate = {failed / attempted:.6f} ({failed} of {attempted} tasks)")
    for line in lines:
        print(line)

    if args.trace:
        metrics = per_layer(plain, traced, counts)
        declared = tracing.PER_LAYER
    else:
        per_task = task_times(passes)
        metrics = {"wall_s": sum(per_task),
                   "task_p50_s": statistics.median(per_task),
                   "task_p90_s": p90(per_task),
                   "peak_rss_mb": rss_mb,
                   "setup_s": setup[0]}
        declared = END_TO_END
    report = {}
    for name, unit, _better in declared:
        report[name] = {"value": metrics[name], "unit": unit}
        print(f"{name:50s} {metrics[name]:>16.6g} {unit}")
    correct = failed == 0 and not accepted
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": report}))
    return 0 if correct else 1


def trace_checks(plain, traced, tasks) -> list:
    """Problems that show tracing changed what a task did or what it counted."""
    problems = []
    for p in traced:
        for tid, (a, b) in enumerate(zip(plain[0].prints, p.prints)):
            if a != b:
                problems.append(f"task {tid} {' '.join(tasks[tid].argv)}: traced output differs")
        for tid, states in tracing.reported_states(p.trace[0]).items():
            m = re.search(r"states=(\d+)", p.prints[tid][1])
            if m and int(m[1]) != states:
                problems.append(f"task {tid}: printed states={m[1]}, can_clear returned {states}")
    first = tracing.layer_metrics(*traced[0].trace)
    for p in traced[1:]:
        again = tracing.layer_metrics(*p.trace)
        problems += [f"{name} differs between traced passes"
                     for name in tracing.EXACT if first.get(name) != again.get(name)]
    return problems


def per_layer(plain, traced, counts) -> dict:
    """Medians over the traced passes; counts come from the first one."""
    per_pass = [tracing.layer_metrics(*p.trace) for p in traced]
    out = {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
    out.update({name: per_pass[0][name] for name in tracing.EXACT if name in per_pass[0]})
    out.update({k: v for k, v in counts.items() if k != "search.states_reported"})
    cheeger_s = out["cheeger.cheeger_constant.s"]
    busy = out.pop("isoperimetry.busy_s")
    out["cheeger.subsets_per_s"] = counts["cheeger.subsets"] / cheeger_s if cheeger_s else 0.0
    out["isoperimetry.subsets_per_s"] = counts["isoperimetry.subsets"] / busy if busy else 0.0
    out["bench.trace_overhead_s"] = sum(task_times(traced)) - sum(task_times(plain))
    return out


def run_all(args) -> int:
    """Each workload in a fresh process (so peak memory is its own), untraced then traced."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.strip().splitlines()
            if not lines or not lines[-1].startswith("{"):
                print(f"# {workload} (trace {trace}) printed no result, exit {proc.returncode}")
                return 2
            result = json.loads(lines[-1])
            correct = correct and result["correct"]
            attempted += result["attempted"]
            failed += result["failed"]
            metrics.update({f"{workload}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    OUT_DIR.mkdir(exist_ok=True)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
