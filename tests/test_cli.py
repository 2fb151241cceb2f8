import argparse
import json
import re

import pytest

from conftest import row_sweep_14_48
from lionsweep.cli import build_parser, main
from lionsweep.dynamics import STAY, run, write_moves, write_trace
from lionsweep.graphs import build_tri_lattice, load_graph, save_graph


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


@pytest.mark.parametrize("vertex", [9, 10 ** 12])
def test_verify_rejects_a_later_cleared_vertex_off_the_graph(tmp_path, capsys, vertex):
    """verify range-checks record 0 in full and every later vertex where it
    first enters a record, before it becomes a bit of a mask."""
    r2 = tmp_path / "r2.txt"
    main(["graph", "tri", "-n", "2", "-l", "2", "-o", str(r2)])
    trace = tmp_path / "forged.jsonl"
    _write_records(trace, [{"t": 0, "lions": [0], "cleared": [0], "move": None},
                           {"t": 1, "lions": [1], "cleared": [1], "move": [1]},
                           {"t": 2, "lions": [1], "cleared": [1, vertex], "move": [STAY]}])
    capsys.readouterr()
    assert main(["verify", str(r2), "--trace", str(trace)]) == 2
    assert f"vertex {vertex} not in graph with 4 vertices" in capsys.readouterr().err


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
