import argparse
import contextlib
import io
import json
import random
import re
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_connected_graph, row_sweep_14_48
from lionsweep import dynamics
from lionsweep.cli import build_parser, main
from lionsweep.dynamics import (MODELS, STAY, initial_state, read_trace, run, step, write_moves,
                                write_trace)
from lionsweep.graphs import build_tri_lattice, load_graph, make_graph, save_graph
from lionsweep.search import verify_lemma_bounds


@pytest.fixture
def r3_path(tmp_path):
    path = tmp_path / "r3.txt"
    assert main(["graph", "tri", "-n", "3", "-l", "3", "-o", str(path)]) == 0
    return path


def test_graph_triangle(tmp_path, capsys):
    out = tmp_path / "p5.txt"
    assert main(["graph", "triangle", "-n", "5", "-o", str(out)]) == 0
    assert "15 vertices, 30 edges" in capsys.readouterr().out
    g = load_graph(out)
    assert (g.n, g.edge_count) == (15, 30)


def test_graph_circulant_counts(capsys):
    assert main(["graph", "circulant", "-n", "6", "-k", "1"]) == 0
    assert "6 vertices, 6 edges" in capsys.readouterr().out


def test_graph_bad_params():
    assert main(["graph", "tri", "-n", "0", "-l", "3"]) == 2


@pytest.mark.parametrize("argv, message", [
    (["square", "-n", "2", "-l", "5"], "square takes no -l"),
    (["square", "-n", "2", "-k", "1"], "square takes no -k"),
    (["triangle", "-n", "3", "-l", "2"], "triangle takes no -l"),
    (["triangle", "-n", "3", "-k", "1"], "triangle takes no -k"),
    (["tri", "-n", "2", "-l", "2", "-k", "1"], "tri takes no -k"),
    (["circulant", "-n", "6", "-k", "1", "-l", "2"], "circulant takes no -l"),
    (["tri", "-n", "2"], "tri needs -l"),
    (["circulant", "-n", "6"], "circulant needs -k"),
])
def test_graph_refuses_flags_its_family_does_not_take(tmp_path, capsys, argv, message):
    out = tmp_path / "g.txt"
    assert main(["graph", *argv, "-o", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_simulate_row_sweep(tmp_path, r3_path, capsys):
    moves = tmp_path / "moves.txt"
    assert main(["strategy", "row-sweep", "-n", "3", "-l", "3", "-o", str(moves)]) == 0
    trace_out = tmp_path / "trace.jsonl"
    code = main(["simulate", str(r3_path), "--model", "free", "--lions", "0,3,6",
                 "--moves", str(moves), "--trace-out", str(trace_out)])
    assert code == 0
    assert "swept at t=" in capsys.readouterr().out
    assert main(["verify", str(r3_path), "--trace", str(trace_out)]) == 0
    assert "0 violations" in capsys.readouterr().out


def test_simulate_caffeinated_stay_rejected(tmp_path, r3_path, capsys):
    moves = tmp_path / "moves.txt"
    write_moves([(1, STAY, 7)], moves)
    code = main(["simulate", str(r3_path), "--model", "caffeinated",
                 "--lions", "0,3,6", "--moves", str(moves)])
    assert code == 2
    assert "invalid move at step 0" in capsys.readouterr().err


def test_simulate_names_the_step_of_wrong_length(tmp_path, capsys):
    r2 = tmp_path / "r2.txt"
    main(["graph", "tri", "-n", "2", "-l", "2", "-o", str(r2)])
    moves = tmp_path / "moves.txt"
    write_moves([(1,), (3, 2)], moves)
    capsys.readouterr()
    assert main(["simulate", str(r2), "--lions", "0", "--moves", str(moves)]) == 2
    assert "invalid move at step 1: 2 targets for 1 lions" in capsys.readouterr().err


def test_simulate_not_swept(tmp_path, r3_path, capsys):
    moves = tmp_path / "moves.txt"
    write_moves([(STAY, STAY, STAY)], moves)
    code = main(["simulate", str(r3_path), "--model", "free",
                 "--lions", "0,3,6", "--moves", str(moves)])
    assert code == 10
    assert "not swept" in capsys.readouterr().out


def test_search_exit_codes(tmp_path, capsys):
    r2 = tmp_path / "r2.txt"
    main(["graph", "tri", "-n", "2", "-l", "2", "-o", str(r2)])
    assert main(["search", str(r2), "--model", "free", "-k", "1"]) == 10
    # the search runs out of new states at the limit: impossible, proven
    assert main(["search", str(r2), "--model", "free", "-k", "1", "--max-states", "4"]) == 10
    witness = tmp_path / "witness.jsonl"
    assert main(["search", str(r2), "--model", "free", "-k", "2",
                 "--witness-out", str(witness)]) == 0
    assert witness.exists()
    capsys.readouterr()
    assert main(["search", str(r2), "--model", "free", "--min", "--kmax", "3"]) == 0
    assert capsys.readouterr().out == "k* = 2 (states=14, peak_frontier=9)\n"
    assert main(["search", str(r2), "--model", "free", "-k", "2",
                 "--max-states", "2"]) == 20


@pytest.mark.parametrize("flags, code, out", [
    (["-k", "1"], 10, "impossible (states="),
    (["-k", "2", "--max-states", "2"], 20, "unknown (states="),
    # R_{2,2} needs 2 free lions
    (["--min", "--kmax", "1"], 10, "no sweep with up to 1 lions\n"),
    # k=0 is impossible after one state, and k=1 would admit a third
    (["--min", "--max-states", "2"], 20, "unknown: search at k=1 hit its limits\n"),
], ids=["impossible", "unknown", "min-below-kstar", "min-unknown"])
def test_search_without_a_sweep_writes_no_witness(tmp_path, capsys, flags, code, out):
    r2 = tmp_path / "r2.txt"
    main(["graph", "tri", "-n", "2", "-l", "2", "-o", str(r2)])
    capsys.readouterr()
    witness = tmp_path / "witness.jsonl"
    assert main(["search", str(r2), *flags, "--witness-out", str(witness)]) == code
    assert capsys.readouterr().out.startswith(out)
    assert not witness.exists()


def test_search_disconnected_graph(tmp_path, capsys):
    path = tmp_path / "two_edges.txt"
    path.write_text("vertices 4\n0 1\n2 3\n")
    assert main(["search", str(path), "-k", "2"]) == 2
    assert main(["search", str(path), "--min"]) == 2
    capsys.readouterr()
    assert main(["search", str(path), "-k", "2", "--starts", "0,2"]) == 0
    assert capsys.readouterr().out.startswith("cleared")


def test_search_empty_starts_is_a_start_with_no_lions(tmp_path, capsys):
    """--starts "" is one start placing no lions, not a request for canonical
    starts (which this disconnected graph refuses)."""
    path = tmp_path / "edge_and_vertex.txt"
    path.write_text("vertices 3\n0 1\n")
    assert main(["search", str(path), "-k", "2", "--starts", ""]) == 2
    err = capsys.readouterr().err
    assert "start () does not place 2 lions" in err and "canonical" not in err


@pytest.mark.parametrize("flags", [["--starts", "0"], ["-k", "1"]])
def test_search_min_rejects_starts_and_k(tmp_path, capsys, flags):
    """--min searches every k from canonical starts, so it would drop either
    flag silently: on this disconnected graph given starts used to read as
    a refusal of canonical ones."""
    path = tmp_path / "edge_and_vertex.txt"
    path.write_text("vertices 3\n0 1\n")
    with pytest.raises(SystemExit) as err:
        main(["search", str(path), "--min", "--kmax", "2", *flags])
    assert err.value.code == 2
    assert "neither -k nor --starts" in capsys.readouterr().err


@pytest.mark.parametrize("model", ["free", "caffeinated", "polite"])
def test_search_empty_graph(tmp_path, capsys, model):
    path = tmp_path / "empty.txt"
    path.write_text("vertices 0\n")
    assert main(["search", str(path), "--model", model, "-k", "1"]) == 2
    capsys.readouterr()
    assert main(["search", str(path), "--model", model, "-k", "0"]) == 0
    assert capsys.readouterr().out.startswith("cleared")


def _write_records(path, records):
    path.write_text("".join(json.dumps(rec) + "\n" for rec in records))


def test_verify_rejects_forged_cleared_set(tmp_path, capsys):
    r2 = tmp_path / "r2.txt"
    main(["graph", "tri", "-n", "2", "-l", "2", "-o", str(r2)])
    trace = tmp_path / "forged.jsonl"
    # lion 0 -> 1 leaves vertex 0 open to vertex 2: the true cleared set is {1}
    _write_records(trace, [{"t": 0, "lions": [0], "cleared": [0], "move": None},
                           {"t": 1, "lions": [1], "cleared": [0, 1], "move": [1]}])
    capsys.readouterr()
    assert main(["verify", str(r2), "--trace", str(trace)]) == 10
    assert capsys.readouterr().out == "t=1 replay: cleared [0, 1], replay gives [1]\n"


def test_verify_rejects_lions_off_the_graph(tmp_path, capsys):
    r2 = tmp_path / "r2.txt"
    main(["graph", "tri", "-n", "2", "-l", "2", "-o", str(r2)])
    trace = tmp_path / "forged.jsonl"
    _write_records(trace, [{"t": 0, "lions": [7], "cleared": [7], "move": None}])
    assert main(["verify", str(r2), "--trace", str(trace)]) == 2
    # a later record's lion, with a move the replay alone would call not adjacent
    _write_records(trace, [{"t": 0, "lions": [0], "cleared": [0], "move": None},
                           {"t": 1, "lions": [9], "cleared": [0], "move": [9]}])
    capsys.readouterr()
    assert main(["verify", str(r2), "--trace", str(trace)]) == 2
    assert "vertex 9 not in graph with 4 vertices" in capsys.readouterr().err
    # a forged first cleared set stops the replay, so only the vertex check sees the lion
    _write_records(trace, [{"t": 0, "lions": [0], "cleared": [0, 1], "move": None},
                           {"t": 1, "lions": [-1], "cleared": [0], "move": [1]}])
    assert main(["verify", str(r2), "--trace", str(trace)]) == 2
    assert "vertex -1 not in graph with 4 vertices" in capsys.readouterr().err
    _write_records(trace, [{"t": 0, "lions": [0], "cleared": [0], "move": None},
                           {"t": 1, "lions": [1], "cleared": [1], "move": [1, 2]}])
    capsys.readouterr()
    assert main(["verify", str(r2), "--trace", str(trace)]) == 2  # a move for two lions
    assert "line 2" in capsys.readouterr().err
    _write_records(trace, [{"t": 0, "lions": [0], "cleared": [0], "move": None},
                           {"t": 1, "lions": [3], "cleared": [3], "move": [3]}])
    capsys.readouterr()
    assert main(["verify", str(r2), "--trace", str(trace)]) == 10
    assert "t=1 replay: move [3] is not a step to adjacent vertices" in capsys.readouterr().out


@pytest.mark.parametrize("target", [10 ** 12, -2])
def test_forged_move_targets_never_reach_the_kernel(tmp_path, capsys, target):
    """A move target off the graph is refused by validate_moves before the
    update kernel sees it: a verify replay names the move and exits 10, a
    simulate moves file exits 2."""
    r2 = tmp_path / "r2.txt"
    main(["graph", "tri", "-n", "2", "-l", "2", "-o", str(r2)])
    trace, moves = tmp_path / "forged.jsonl", tmp_path / "moves.txt"
    _write_records(trace, [{"t": 0, "lions": [0], "cleared": [0], "move": None},
                           {"t": 1, "lions": [1], "cleared": [1], "move": [target]}])
    capsys.readouterr()
    assert main(["verify", str(r2), "--trace", str(trace)]) == 10
    assert capsys.readouterr().out == \
        f"t=1 replay: move [{target}] is not a step to adjacent vertices\n"
    write_moves([(target,)], moves)
    assert main(["simulate", str(r2), "--lions", "0", "--moves", str(moves)]) == 2
    assert "invalid move at step 0" in capsys.readouterr().err


@pytest.mark.parametrize("cleared, vertex", [([1, 9], 9), ([1, 10 ** 12], 10 ** 12),
                                              ([1, 7, 9], 7), ([-1, 1, 4], -1)],
                         ids=["9", "1000000000000", "7_and_9", "-1_and_4"])
def test_verify_rejects_a_later_cleared_vertex_off_the_graph(tmp_path, capsys, cleared, vertex):
    """verify range-checks every record's cleared list, at its two ends as
    it increases, before its vertices become bits of a mask; of several
    vertices off the graph the error names the smallest."""
    r2 = tmp_path / "r2.txt"
    main(["graph", "tri", "-n", "2", "-l", "2", "-o", str(r2)])
    trace = tmp_path / "forged.jsonl"
    _write_records(trace, [{"t": 0, "lions": [0], "cleared": [0], "move": None},
                           {"t": 1, "lions": [1], "cleared": [1], "move": [1]},
                           {"t": 2, "lions": [1], "cleared": cleared, "move": [STAY]}])
    capsys.readouterr()
    assert main(["verify", str(r2), "--trace", str(trace)]) == 2
    assert f"vertex {vertex} not in graph with 4 vertices" in capsys.readouterr().err


@pytest.mark.parametrize("cleared", [[1, 0], [0, 0]])
def test_verify_refuses_a_cleared_list_not_strictly_increasing(tmp_path, capsys, cleared):
    """A record's cleared list must be strictly increasing: unsorted or with a
    repeat, the trace is refused at that line with exit 2."""
    r2 = tmp_path / "r2.txt"
    main(["graph", "tri", "-n", "2", "-l", "2", "-o", str(r2)])
    trace = tmp_path / "forged.jsonl"
    _write_records(trace, [{"t": 0, "lions": [0], "cleared": [0], "move": None},
                           {"t": 1, "lions": [1], "cleared": cleared, "move": [1]}])
    capsys.readouterr()
    assert main(["verify", str(r2), "--trace", str(trace)]) == 2
    assert "line 2: trace record cleared must be strictly increasing" in capsys.readouterr().err


@pytest.mark.parametrize("edit", ["drop", "add"])
def test_verify_reports_one_vertex_edited_mid_sweep(tmp_path, capsys, edit):
    """On the R_{14,48} row-sweep trace, one cleared vertex dropped from or
    added to a record halfway through the sweep is a replay violation at
    that record, and the only violation."""
    g, starts, plan = row_sweep_14_48()
    graph, trace = tmp_path / "r14_48.txt", tmp_path / "sweep.jsonl"
    save_graph(g, graph)
    write_trace(run(g, "free", starts, plan.moves), trace)
    records = [json.loads(line) for line in trace.read_text().splitlines()]
    t = plan.formation_steps + 329
    true_cleared = records[t]["cleared"]
    vertex = true_cleared[100] if edit == "drop" else max(set(range(g.n)) - set(true_cleared))
    records[t]["cleared"] = sorted(set(true_cleared) ^ {vertex})
    _write_records(trace, records)
    capsys.readouterr()
    assert main(["verify", str(graph), "--trace", str(trace)]) == 10
    assert capsys.readouterr().out == (f"t={t} replay: cleared {records[t]['cleared']}, "
                                       f"replay gives {true_cleared}\n")


@pytest.mark.parametrize("model, lions, move, detail", [
    ("polite", [0, 3], [1, 2], "moves more than one polite lion"),
    ("caffeinated", [0, 3], [1, STAY], "leaves a caffeinated lion in place"),
])
def test_verify_checks_the_motion_model(tmp_path, capsys, model, lions, move, detail):
    """A free trace replays under free, and its first step breaks the rules
    of the model it is verified under."""
    r2 = tmp_path / "r2.txt"
    main(["graph", "tri", "-n", "2", "-l", "2", "-o", str(r2)])
    moves, trace = tmp_path / "moves.txt", tmp_path / "trace.jsonl"
    write_moves([move], moves)
    assert main(["simulate", str(r2), "--lions", ",".join(map(str, lions)),
                 "--moves", str(moves), "--trace-out", str(trace)]) in (0, 10)
    capsys.readouterr()
    assert main(["verify", str(r2), "--trace", str(trace)]) == 0
    assert main(["verify", str(r2), "--trace", str(trace), "--model", "free"]) == 0
    assert capsys.readouterr().out == "0 violations over 1 steps\n" * 2
    assert main(["verify", str(r2), "--trace", str(trace), "--model", model]) == 10
    assert capsys.readouterr().out == f"t=1 replay: move {move} {detail}\n"


@pytest.mark.parametrize("record", [{"t": 0, "lions": [0], "cleared": [0], "move": 5},
                                    {"t": 0, "lions": ["a"], "cleared": [0], "move": None},
                                    {"t": 0, "lions": [0], "cleared": ["x"], "move": None},
                                    {"t": 0, "lions": [True], "cleared": [1], "move": None},
                                    {"t": 0, "lions": [1], "cleared": [True], "move": None},
                                    {"t": False, "lions": [0], "cleared": [0], "move": None}])
def test_verify_rejects_records_that_are_not_integer_lists(tmp_path, capsys, record):
    r2 = tmp_path / "r2.txt"
    main(["graph", "tri", "-n", "2", "-l", "2", "-o", str(r2)])
    trace = tmp_path / "bad.jsonl"
    _write_records(trace, [record])
    assert main(["verify", str(r2), "--trace", str(trace)]) == 2


@pytest.mark.parametrize("records", [
    # the move to the t=1 state written on the t=0 record
    [{"t": 0, "lions": [0], "cleared": [0], "move": [1]},
     {"t": 1, "lions": [1], "cleared": [1], "move": None}],
    # a trace that starts at t=5
    [{"t": 5, "lions": [0], "cleared": [0], "move": None},
     {"t": 6, "lions": [1], "cleared": [1], "move": [1]}]])
def test_verify_rejects_misplaced_moves_and_times(tmp_path, capsys, records):
    r2 = tmp_path / "r2.txt"
    main(["graph", "tri", "-n", "2", "-l", "2", "-o", str(r2)])
    trace = tmp_path / "bad.jsonl"
    _write_records(trace, records)
    capsys.readouterr()
    assert main(["verify", str(r2), "--trace", str(trace)]) == 2
    assert "line 1" in capsys.readouterr().err


@pytest.mark.parametrize("lines, message", [
    # a lion off the graph on line 2 and a malformed line 3: the parse error wins
    (['{"t": 1, "lions": [9], "cleared": [0], "move": [1]}', "not json"],
     "line 3: bad trace record: Expecting value: line 1 column 1 (char 0)"),
    # a move for two of the one lion
    (['{"t": 1, "lions": [1], "cleared": [1], "move": [1, 2]}'],
     "line 2: trace record has 1 lions and a move for 2, the first record has 1 lions"),
    # a replay violation on line 2, then a move for two lions
    (['{"t": 1, "lions": [1], "cleared": [0, 1], "move": [1]}',
      '{"t": 2, "lions": [1], "cleared": [1], "move": [-1, -1]}'],
     "line 3: trace record has 1 lions and a move for 2, the first record has 1 lions"),
    # a cleared vertex off the graph on line 2, a lion off it on line 3: the lion wins
    (['{"t": 1, "lions": [1], "cleared": [1, 7], "move": [1]}',
      '{"t": 2, "lions": [9], "cleared": [1], "move": [-1]}'],
     "vertex 9 not in graph with 4 vertices"),
    # a replay violation on line 2, a cleared vertex off the graph on line 3
    (['{"t": 1, "lions": [1], "cleared": [0, 1], "move": [1]}',
      '{"t": 2, "lions": [1], "cleared": [1, 7], "move": [-1]}'],
     "vertex 7 not in graph with 4 vertices"),
    # a cleared vertex below the graph's range on line 2 and a malformed line 3
    (['{"t": 1, "lions": [1], "cleared": [-2, 1], "move": [1]}', "not json"],
     "line 3: bad trace record: Expecting value: line 1 column 1 (char 0)"),
])
def test_verify_fault_precedence(tmp_path, capsys, lines, message):
    """A trace with two faults is refused for the one verify has always
    reported: a parse error anywhere, else a lion off the graph in any
    record, else a cleared vertex off it, each over a replay violation."""
    r2 = tmp_path / "r2.txt"
    main(["graph", "tri", "-n", "2", "-l", "2", "-o", str(r2)])
    trace = tmp_path / "two_faults.jsonl"
    trace.write_text("".join(line + "\n" for line in
                             ['{"t": 0, "lions": [0], "cleared": [0], "move": null}', *lines]))
    capsys.readouterr()
    assert main(["verify", str(r2), "--trace", str(trace)]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


def _verify_the_old_way(g, path, model):
    """cmd_verify's exit code, stdout and stderr with the whole trace read
    into a Trace by read_trace first."""
    try:
        report = verify_lemma_bounds(g, read_trace(path), model)
    except ValueError as exc:
        return 2, "", f"error: {exc}\n"
    if report.ok:
        return 0, f"0 violations over {report.steps_checked} steps\n", ""
    return 10, "".join(f"t={t} {lemma}: {detail}\n" for t, lemma, detail in report.violations), ""


# each a trace file's text from its records' JSON objects
_SPELLINGS = {
    "canonical": lambda recs: "".join(json.dumps(r) + "\n" for r in recs),
    "compact": lambda recs: "".join(json.dumps(r, separators=(",", ":")) + "\n" for r in recs),
    "reordered": lambda recs: "".join(json.dumps(dict(reversed(r.items()))) + "\n"
                                      for r in recs),
    "crlf": lambda recs: "".join(json.dumps(r) + "\r\n" for r in recs),
    "blank lines": lambda recs: "\n \n".join(json.dumps(r) for r in recs) + "\n\n",
    "no final newline": lambda recs: "\n".join(json.dumps(r) for r in recs),
}


# spellings of a move target v that write_trace never writes: for v >= 0
# int() reads the first four as v, and JSON refuses all but " v" (which it
# reads as v); both parses refuse v.0 and true as ints
_MOVE_SPELLINGS = {
    "+3": lambda v: f"+{v}",
    " 3": lambda v: f" {v}",
    "03": lambda v: f"-0{-v}" if v < 0 else f"0{v}",
    "1_0": lambda v: "{}_{}".format(*divmod(v, 10)),
    "3.0": lambda v: f"{v}.0",
    "true": lambda v: "true",
}


def _respell(text):
    """A trace's text with each placeholder "<spelling>" of a forged move
    target replaced by the bare spelling."""
    return re.sub(r'"<([^<>"]*)>"', r"\1", text)


def _forge(rng, g, records, forgery):
    """Edit one record at a random t in place."""
    rec = records[rng.randrange(len(records))]
    cleared = rec["cleared"]
    if forgery.startswith("move target as "):
        targets = [(r["move"], i) for r in records[1:] for i in range(len(r["move"]))]
        if targets:
            move, i = rng.choice([(m, i) for m, i in targets if m[i] != STAY] or targets)
            move[i] = f"<{_MOVE_SPELLINGS[forgery[len('move target as '):]](move[i])}>"
    if forgery == "flip a cleared vertex":
        rec["cleared"] = sorted(set(cleared) ^ {rng.randrange(g.n)})
    elif forgery == "move a lion":
        i = rng.randrange(len(rec["lions"]))
        rec["lions"][i] = rng.choice([v for v in range(g.n) if v != rec["lions"][i]])
    elif forgery == "true or 2.0 as a vertex":
        cleared[rng.randrange(len(cleared))] = rng.choice([True, 2.0])
    elif forgery == "unsorted cleared list":
        rec["cleared"] = cleared[::-1] if len(cleared) > 1 else cleared * 2


def _verify_both_ways(tmp_path_factory, g, text, model):
    """(cmd_verify's exit code, stdout and stderr on a trace file of the
    given text, the same read by read_trace and then verify_lemma_bounds)."""
    path = tmp_path_factory.mktemp("verify")
    graph, trace = path / "g.txt", path / "trace.jsonl"
    save_graph(g, graph)
    trace.write_bytes(text.encode())
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["verify", str(graph), "--trace", str(trace), "--model", model])
    return (code, out.getvalue(), err.getvalue()), _verify_the_old_way(g, trace, model)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32), st.sampled_from(sorted(_SPELLINGS)),
       st.sampled_from(["none", "flip a cleared vertex", "move a lion",
                        "true or 2.0 as a vertex", "unsorted cleared list",
                        *(f"move target as {s}" for s in _MOVE_SPELLINGS)]),
       st.sampled_from(MODELS))
def test_streamed_verify_matches_read_trace_then_verify(tmp_path_factory, seed, spelling,
                                                        forgery, model):
    """verify reads a trace line by line and parses only the lines that are
    not the replay's own rendering: on random graphs, for canonical and other
    spellings of the same records, clean or with one forged record (among
    them a move target that verify's int() parse of a move reads otherwise
    than JSON does), its exit code and output equal those of read_trace
    followed by verify_lemma_bounds."""
    rng = random.Random(seed)
    g = random_connected_graph(rng, 2, 9)
    lions = tuple(rng.randrange(g.n) for _ in range(rng.randint(1, 3)))
    state, moves = initial_state(g, lions), []
    for _ in range(rng.randint(0, 8)):
        moves.append(tuple(rng.choice([STAY] + sorted(g.adj[p])) for p in state.lions))
        state = step(g, state, moves[-1])
    tr = run(g, "free", lions, moves)
    records = [{"t": s.time, "lions": list(s.lions), "cleared": list(s.cleared),
                "move": list(tr.moves[s.time - 1]) if s.time else None} for s in tr.states]
    if forgery != "none":
        _forge(rng, g, records, forgery)
    streamed, old_way = _verify_both_ways(tmp_path_factory, g,
                                          _respell(_SPELLINGS[spelling](records)), model)
    assert streamed == old_way
    if forgery == "none" and model == "free":
        assert streamed[0] == 0


@pytest.mark.parametrize("spelling", sorted(_MOVE_SPELLINGS))
def test_verify_reads_respelled_moves_as_read_trace_does(tmp_path_factory, spelling):
    """verify reads a move by splitting it on ", " and calling int(), which
    takes [+3], [ 3], [03] and [1_0] (JSON reads [ 3] alone, as [3]) and
    refuses [3.0] and [true]; the replayed record's rendering spells each
    target as write_trace does, so a canonical line whose move is so spelled
    differs from it and is parsed, and the exit code and output are those of
    read_trace followed by verify_lemma_bounds.  On the path 0-...-11 one
    lion steps from 2 to 3, or, for 1_0, from 9 to 10."""
    g = make_graph(12, [(v, v + 1) for v in range(11)])
    start, target = (9, 10) if spelling == "1_0" else (2, 3)
    tr = run(g, "free", (start,), [(target,)])
    records = [{"t": s.time, "lions": list(s.lions), "cleared": list(s.cleared),
                "move": [f"<{_MOVE_SPELLINGS[spelling](target)}>"] if s.time else None}
               for s in tr.states]
    text = _respell(_SPELLINGS["canonical"](records))
    assert f'"move": [{spelling}]' in text
    streamed, old_way = _verify_both_ways(tmp_path_factory, g, text, "free")
    assert streamed == old_way
    assert streamed[0] == (0 if spelling == " 3" else 2)


def test_verify_takes_the_fast_path_with_no_lions(tmp_path_factory, monkeypatch):
    """A trace of k = 0 lions has "move": [] after record 0: _tail_move reads
    it as [], so verify replays it and parses record 0 alone."""
    g = make_graph(3, [(0, 1), (1, 2)])
    path = tmp_path_factory.mktemp("no-lions") / "trace.jsonl"
    write_trace(run(g, "free", (), [(), ()]), path)
    text = path.read_text(encoding="utf-8")
    assert text.count('"move": []') == 2
    assert dynamics._tail_move(text.splitlines()[1]) == []
    streamed, old_way = _verify_both_ways(tmp_path_factory, g, text, "caffeinated")
    assert streamed == old_way == (0, "0 violations over 2 steps\n", "")
    parsed = []
    parse_record = dynamics._parse_record

    def counted(line, lineno, t, k):
        parsed.append(t)
        return parse_record(line, lineno, t, k)

    monkeypatch.setattr(dynamics, "_parse_record", counted)
    assert verify_lemma_bounds(g, text.splitlines(keepends=True), "caffeinated").ok
    assert parsed == [0]


def test_verify_parses_only_record_0_of_the_largest_sweep(tmp_path, capsys, monkeypatch):
    """On the R_{14,48} row-sweep trace every line after record 0 is the
    replay's own rendering, so verify parses record 0 alone, and it holds a
    fraction of the 8 MiB that read_trace's whole Trace may take."""
    g, starts, plan = row_sweep_14_48()
    graph, trace = tmp_path / "r14_48.txt", tmp_path / "sweep.jsonl"
    save_graph(g, graph)
    write_trace(run(g, "free", starts, plan.moves), trace)
    parsed = []
    parse_record = dynamics._parse_record

    def counted(line, lineno, t, k):
        parsed.append(t)
        return parse_record(line, lineno, t, k)

    monkeypatch.setattr(dynamics, "_parse_record", counted)
    capsys.readouterr()
    tracemalloc.start()
    try:
        assert main(["verify", str(graph), "--trace", str(trace)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert capsys.readouterr().out == f"0 violations over {len(plan.moves)} steps\n"
    assert parsed == [0]
    assert peak < 2 * 2 ** 20


def test_simulate_rejects_boolean_moves(tmp_path):
    r2 = tmp_path / "r2.txt"
    main(["graph", "tri", "-n", "2", "-l", "2", "-o", str(r2)])
    moves = tmp_path / "moves.txt"
    moves.write_text("[false]\n")  # json reads a bool, which isinstance counts as 0
    assert main(["simulate", str(r2), "--lions", "1", "--moves", str(moves)]) == 2


@pytest.mark.parametrize("argv", [["search", "-k", "1", "--max-depth", "5"],
                                  ["cheeger", "--max-vertices", "30"],
                                  ["verify", "--trace", "t.jsonl", "-k", "1"]])
def test_removed_options_are_rejected(tmp_path, argv):
    with pytest.raises(SystemExit) as err:
        main([argv[0], str(tmp_path / "g.txt"), *argv[1:]])
    assert err.value.code == 2


def test_cheeger_output(tmp_path, capsys):
    k5 = tmp_path / "k5.txt"
    main(["graph", "circulant", "-n", "5", "-k", "2", "-o", str(k5)])
    capsys.readouterr()
    assert main(["cheeger", str(k5)]) == 0
    out = capsys.readouterr().out
    assert "g = 1/1" in out
    assert "excluded_polite <= " in out and "excluded_free <= " in out


def test_isoperimetry_falldown_check(capsys):
    assert main(["isoperimetry", "falldown-check", "-n", "3"]) == 0
    assert "0 violations over 512 subsets" in capsys.readouterr().out


def test_isoperimetry_falldown_witness(capsys):
    assert main(["isoperimetry", "falldown-witness", "-n", "4"]) == 0
    assert "witness = " in capsys.readouterr().out
    assert main(["isoperimetry", "falldown-witness", "-n", "1"]) == 10
    assert capsys.readouterr().out == "none\n"


@pytest.mark.parametrize("cmd", ["falldown-check", "falldown-witness"])
@pytest.mark.parametrize("n", ["0", "-3", "-5"])
def test_isoperimetry_falldown_refuses_n_below_1(capsys, cmd, n):
    assert main(["isoperimetry", cmd, "-n", n]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "fall-down" in captured.err and "n >= 1" in captured.err


def test_isoperimetry_profile(tmp_path, capsys):
    p3 = tmp_path / "p3.txt"
    main(["graph", "triangle", "-n", "3", "-o", str(p3)])
    out = tmp_path / "profile.csv"
    assert main(["isoperimetry", "profile", str(p3), "-o", str(out)]) == 0
    assert out.read_text() == ("size,min_boundary,witness\n0,0,\n1,1,0\n2,2,0 1\n"
                               "3,2,0 1 2\n4,3,0 1 2 3\n5,2,0 1 2 3 4\n6,0,0 1 2 3 4 5\n")


def test_parser_shared_across_calls_keeps_no_state(r3_path, capsys):
    """main() reuses one parser; options from one call must not leak into the next."""
    capsys.readouterr()
    assert main(["search", str(r3_path), "-k", "3", "--no-dominance"]) == 0
    assert "states=1223," in capsys.readouterr().out
    assert main(["search", str(r3_path), "-k", "3"]) == 0
    assert "states=926," in capsys.readouterr().out


# Every argument of every subcommand: a positional by its name, an option by
# its option strings.
PINNED_OPTIONS = {
    "graph": ["family", "-n", "-l", "-k", "-o/--out"],
    "simulate": ["graph", "--model", "--lions", "--moves", "--trace-out"],
    "strategy": ["kind", "-n", "-l", "--starts", "-o/--out"],
    "verify": ["graph", "--trace", "--model"],
    "search": ["graph", "--model", "-k", "--min", "--kmax", "--max-states",
               "--no-dominance", "--starts", "--witness-out"],
    "cheeger": ["graph"],
    "isoperimetry falldown-check": ["-n"],
    "isoperimetry falldown-witness": ["-n"],
    "isoperimetry profile": ["graph", "-o/--out"],
    "conjecture": ["-n", "-o/--out"],
}


def _parser_arguments(parser, command=""):
    table = {}
    own = []
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, subparser in action.choices.items():
                table.update(_parser_arguments(subparser, f"{command} {name}".strip()))
        elif not isinstance(action, argparse._HelpAction):
            own.append("/".join(action.option_strings) or action.dest)
    if own:
        table[command] = own
    return table


def test_cli_options_are_pinned():
    """The command line has exactly the arguments in PINNED_OPTIONS.

    Each independent option doubles the configurations that tests and the
    benchmark must cover, so a new option must edit this table, and
    CHANGES.md must name the two existing callers (tests not counted) that
    need different values of it.
    """
    assert _parser_arguments(build_parser()) == PINNED_OPTIONS


def test_conjecture_csv_and_exit(tmp_path):
    out = tmp_path / "report.csv"
    code = main(["conjecture", "-n", "4", "-o", str(out)])
    assert code in (0, 30)
    lines = out.read_text().splitlines()
    assert lines[0] == "size,min_boundary,row_packing_boundary,icecream_boundary,conjecture_holds"
    assert len(lines) == 12  # header + sizes 0..10


def test_conjecture_resource_limit(capsys):
    assert main(["conjecture", "-n", "10"]) == 40
    err = capsys.readouterr().err
    assert re.search(r"active width \d+, a layer of up to \d+ entries, over the budget of 2\^20",
                     err)


@pytest.mark.parametrize("kind, need", [("row-sweep", 2), ("wall", 3)])
def test_strategy_empty_starts_places_no_lions(tmp_path, capsys, kind, need):
    """--starts "" is an empty start list, not a request for the default one."""
    out = tmp_path / "moves.txt"
    assert main(["strategy", kind, "-n", "2", "-l", "3", "--starts", "", "-o", str(out)]) == 2
    assert f"needs exactly {need} lions" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("n", range(2, 7))
def test_wall_strategy_refuses_one_column(tmp_path, capsys, n):
    """R_{n,1} has no room for the wall: exit 2 with the reason, not a KeyError."""
    out = tmp_path / "m.txt"
    assert main(["strategy", "wall", "-n", str(n), "-l", "1", "-o", str(out)]) == 2
    assert "R_{n,1} has one" in capsys.readouterr().err
    assert not out.exists()


def test_wall_strategy_roundtrip(tmp_path, capsys):
    moves = tmp_path / "wall.txt"
    assert main(["strategy", "wall", "-n", "2", "-l", "3", "-o", str(moves)]) == 0
    g_path = tmp_path / "r23.txt"
    main(["graph", "tri", "-n", "2", "-l", "3", "-o", str(g_path)])
    g = build_tri_lattice(2, 3)
    from lionsweep.strategies import wall_positions
    starts = ",".join(str(v) for v in wall_positions(2, 3))
    capsys.readouterr()
    code = main(["simulate", str(g_path), "--model", "caffeinated",
                 "--lions", starts, "--moves", str(moves)])
    assert code == 0
    assert "swept at t=" in capsys.readouterr().out
