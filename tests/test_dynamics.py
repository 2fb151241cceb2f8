import contextlib
import hashlib
import io
import json
import random
import tempfile
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (WIDE_GRAPHS, random_connected_graph, row_sweep_14_48, small_graphs,
                      wide_graph, wide_masks)
from lionsweep import cli, dynamics
from lionsweep.dynamics import (MODELS, STAY, InvalidMoveError, SimState, Trace,
                                initial_state, is_monotone, is_swept, read_moves, read_trace,
                                run, step, step_cleared_mask, validate_moves, write_moves,
                                write_trace)
from lionsweep.errors import ParseError
from lionsweep.graphs import (_interior_mask, boundary, build_tri_lattice, make_graph,
                              mask_vertices, save_graph, vertex_mask)

PATH3 = make_graph(3, [(0, 1), (1, 2)])
PATH2 = make_graph(2, [(0, 1)])


def test_initial_state():
    one = make_graph(1, [])
    st0 = initial_state(one, (0,))
    assert st0.cleared == (0,)

    r3 = build_tri_lattice(3, 3)
    col = tuple(r3.vertex_at(r, 1) for r in (1, 2, 3))
    assert len(initial_state(r3, col).cleared) == 3

    assert initial_state(r3, ()).cleared == ()
    with pytest.raises(ValueError):
        initial_state(r3, (99,))


def test_validate_moves_models():
    r3 = build_tri_lattice(3, 3)
    st0 = initial_state(r3, (0, 1, 2))
    assert validate_moves(r3, "free", st0, (STAY, STAY, STAY)) == []
    caffeinated = validate_moves(r3, "caffeinated", st0, (1, STAY, 1))
    assert (1, "must-move") in caffeinated
    polite = validate_moves(r3, "polite", st0, (1, 0, STAY))
    assert any(reason == "politeness" for _, reason in polite)
    assert validate_moves(r3, "free", st0, (3, STAY, STAY)) == []
    assert (0, "not-adjacent") in validate_moves(r3, "free", st0, (8, STAY, STAY))
    with pytest.raises(ValueError):
        validate_moves(r3, "free", st0, (STAY,))
    with pytest.raises(ValueError):
        validate_moves(r3, "lazy", st0, (STAY, STAY, STAY))


def test_validate_moves_names_the_step_of_a_short_move():
    st1 = step(PATH3, initial_state(PATH3, (0, 2)), (1, STAY))
    with pytest.raises(InvalidMoveError) as exc:
        validate_moves(PATH3, "free", st1, (0,))
    assert (exc.value.step_index, exc.value.violations) == (1, "1 targets for 2 lions")


def test_step_vacated_vertex_recontaminates():
    # lion walks b->a on the path a-b-c: b is lost to c, a is gained
    st1 = step(PATH3, initial_state(PATH3, (1,)), (0,))
    assert st1.cleared == (0,)


def test_step_crossing_blocks_recontamination():
    # lion walks a->b on the path a-b: crossing ab blocks it; swept by 1 lion
    st1 = step(PATH2, initial_state(PATH2, (0,)), (1,))
    assert st1.cleared == (0, 1)


def test_step_caffeinated_column_leaks_on_diagonal():
    # a bare column stepping right on R_{3,4} loses a vacated vertex to a diagonal
    g = build_tri_lattice(3, 4)
    col = tuple(g.vertex_at(r, 1) for r in (1, 2, 3))
    st0 = initial_state(g, col)
    st1 = step(g, st0, tuple(g.vertex_at(r, 2) for r in (1, 2, 3)))
    lost = set(st0.cleared) - set(st1.cleared)
    assert lost  # at least one just-vacated vertex recontaminated
    for v in lost:
        r, c = g.coord_of(v)
        assert (r - 1, c + 1) in [g.coord_of(u) for u in g.adj[v]]


def test_step_swap_blocks_edge():
    st0 = initial_state(PATH2, (0, 1))
    st1 = step(PATH2, st0, (1, 0))
    assert st1.lions == (1, 0)
    assert st1.cleared == (0, 1)


def test_step_rejects_non_adjacent():
    with pytest.raises(InvalidMoveError) as exc:
        step(PATH3, initial_state(PATH3, (0,)), (2,))
    assert (exc.value.step_index, exc.value.violations) == (0, [(0, "not-adjacent")])
    later = step(PATH3, step(PATH3, initial_state(PATH3, (0,)), (1,)), (2,))
    with pytest.raises(InvalidMoveError) as exc:
        step(PATH3, later, (0,))
    assert exc.value.step_index == later.time == 2
    with pytest.raises(InvalidMoveError) as exc:  # raised by validate_moves
        step(PATH3, later, (0, 2))
    assert (exc.value.step_index, exc.value.violations) == (2, "2 targets for 1 lions")


def test_run_and_is_swept():
    tr = run(PATH2, "free", (0,), [(1,)])
    assert is_swept(tr, PATH2) == 1
    tr = run(PATH3, "free", (1,), [])
    assert is_swept(tr, PATH3) is None

    one = make_graph(1, [])
    tr = run(one, "free", (0,), [])
    assert is_swept(tr, one) == 0

    with pytest.raises(InvalidMoveError) as exc:
        run(PATH3, "caffeinated", (1,), [(0,), (STAY,)])
    assert exc.value.step_index == 1
    with pytest.raises(InvalidMoveError) as exc:  # raised by validate_moves
        run(PATH3, "free", (1,), [(0,), (1, 2)])
    assert exc.value.step_index == 1


def test_is_monotone():
    tr = run(PATH3, "free", (1,), [(0,)])
    assert not is_monotone(tr)
    tr = run(PATH3, "free", (0,), [(1,), (2,)])
    assert is_monotone(tr)


@given(st.integers(0, 2 ** 9 - 1), st.integers(0, 2 ** 9 - 1), st.integers(0, 3))
def test_update_is_monotone_in_cleared(mask_a, mask_extra, seed):
    """If C is enlarged (lions and moves fixed), the next cleared set only grows."""
    g = build_tri_lattice(3, 3)
    rng = random.Random(seed)
    lions = tuple(rng.randrange(9) for _ in range(2))
    mv = tuple(rng.choice([STAY] + sorted(g.adj[p])) for p in lions)
    occupied = frozenset(lions)
    small = frozenset(v for v in range(9) if mask_a >> v & 1) | occupied
    large = small | frozenset(v for v in range(9) if mask_extra >> v & 1)
    from lionsweep.dynamics import SimState
    out_small = step(g, SimState(0, lions, tuple(sorted(small))), mv)
    out_large = step(g, SimState(0, lions, tuple(sorted(large))), mv)
    assert set(out_small.cleared) <= set(out_large.cleared)


def reference_cleared_update(g, cleared, positions, targets):
    """Direct transliteration of the recontamination rule, kept independent
    of the bitmask implementation the package uses."""
    cleared = frozenset(cleared)  # a state's cleared tuple, looked up per neighbour
    occupied_after = {p if t == STAY else t for p, t in zip(positions, targets)}
    blocked = {frozenset((p, t)) for p, t in zip(positions, targets)
               if t != STAY and t != p}
    survivors = set()
    for v in cleared:
        if v in occupied_after:
            survivors.add(v)
            continue
        attacked = any(u not in cleared and frozenset((u, v)) not in blocked
                       for u in g.adj[v])
        if not attacked:
            survivors.add(v)
    return frozenset(survivors | occupied_after)


def test_step_matches_reference_rule(rng):
    for _ in range(300):
        g = random_connected_graph(rng, 2, 10)
        k = rng.randint(1, 3)
        lions = tuple(rng.randrange(g.n) for _ in range(k))
        state = initial_state(g, lions)
        for _ in range(8):
            mv = tuple(rng.choice([STAY] + sorted(g.adj[p])) for p in state.lions)
            expected = reference_cleared_update(g, state.cleared, state.lions, mv)
            state = step(g, state, mv)
            assert state.cleared == tuple(sorted(expected))


def draw_move(pick, g, model, positions) -> tuple:
    """One move step of the motion model for lions at positions; pick(seq)
    chooses one element of a sequence (a Hypothesis draw or rng.choice)."""
    if model == "caffeinated":
        return tuple(pick(g.adj[p]) for p in positions)
    if model == "free":
        return tuple(pick((STAY,) + g.adj[p]) for p in positions)
    mv = [STAY] * len(positions)  # polite: everyone stays, or one lion moves
    i = pick(range(-1, len(positions)))
    if i >= 0:
        mv[i] = pick(g.adj[positions[i]])
    return tuple(mv)


def sampled(draw):
    """draw_move's pick for a Hypothesis draw."""
    return lambda seq: draw(st.sampled_from(seq))


def draw_connected_graph(draw, n):
    """A random spanning tree on n vertices plus up to n more edges."""
    edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges |= set(draw(st.lists(st.sampled_from(pairs), max_size=n)))
    return make_graph(n, edges)


@st.composite
def move_lists(draw):
    """A connected graph, a motion model, lion starts and a list of move
    steps that are valid under the model."""
    g = draw_connected_graph(draw, draw(st.integers(2, 7)))
    model = draw(st.sampled_from(MODELS))
    lions = tuple(draw(st.lists(st.integers(0, g.n - 1), max_size=3)))
    positions, moves = lions, []
    for _ in range(draw(st.integers(0, 8))):
        mv = draw_move(sampled(draw), g, model, positions)
        moves.append(mv)
        positions = tuple(p if t == STAY else t for p, t in zip(positions, mv))
    return g, model, lions, moves


@st.composite
def kernel_cases(draw):
    """A connected graph, a cleared set (mostly holding the lions), lions in
    any order, often several on one vertex, and one move step of a drawn
    motion model."""
    n = draw(st.integers(2, 9))
    g = draw_connected_graph(draw, n)
    spots = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=3, unique=True))
    lions = draw(st.permutations(draw(st.lists(st.sampled_from(spots), min_size=1,
                                               max_size=4))))
    cleared = frozenset(draw(st.sets(st.integers(0, n - 1))))
    if draw(st.booleans()):  # as in every reachable state; else some may stand uncleared
        cleared |= frozenset(lions)
    mv = draw_move(sampled(draw), g, draw(st.sampled_from(MODELS)), lions)
    return g, cleared, tuple(lions), mv


def kernel_mask(g, cleared, lions, mv):
    """The update's two parts for a validated move step: Safe, the cleared
    set's interior, then step_cleared_mask; returns the new cleared mask,
    having checked the positions it gives against the moves."""
    mask = vertex_mask(cleared, g.n)
    positions, new = step_cleared_mask(g.neighbor_masks, lions, mask,
                                       _interior_mask(g.neighbor_masks, mask), mv)
    assert positions == tuple(p if t == STAY else t for p, t in zip(lions, mv))
    return new


# two lions on vertex 1, apart in the tuple, block both of its contaminated neighbors
@example((make_graph(4, [(0, 1), (1, 2), (1, 3)]), frozenset({0, 1}), (1, 0, 1), (2, STAY, 3)))
# two lions on vertex 1: one stays and one leaves, so 1 stays occupied
@example((make_graph(4, [(0, 1), (1, 2), (1, 3)]), frozenset({0, 1}), (1, 1), (2, STAY)))
# two lions leave vertex 1 and cover its two contaminated neighbors, joined to each other
@example((make_graph(4, [(0, 1), (1, 2), (1, 3), (2, 3)]), frozenset({0, 1}), (1, 1), (2, 3)))
# a lone lion leaves uncleared vertex 1 for its one contaminated neighbor: 1 is not cleared
@example((make_graph(3, [(0, 1), (1, 2)]), frozenset({2}), (1,), (0,)))
@settings(max_examples=300, deadline=None)
@given(kernel_cases())
def test_two_part_kernel_matches_reference_rule(case):
    g, cleared, lions, mv = case
    expected = reference_cleared_update(g, cleared, lions, mv)
    assert kernel_mask(g, cleared, lions, mv) == vertex_mask(expected, g.n)


@pytest.mark.parametrize("spec", WIDE_GRAPHS)
def test_two_part_kernel_matches_reference_rule_on_wide_graphs(spec, rng):
    """step_cleared_mask on masks of several machine words, with lions
    stacked or alone at the word edges 63 and 64, at |V| - 1 and elsewhere,
    standing on cleared vertices or, once in a while, not."""
    g = wide_graph(spec)
    for mask in wide_masks(g, rng):
        for _ in range(6):
            spots = rng.sample((63, 64, g.n - 1, rng.randrange(g.n)), rng.randint(1, 3))
            lions = tuple(rng.choice(spots) for _ in range(rng.randint(1, 4)))
            cleared = frozenset(mask_vertices(mask))
            if rng.random() < 0.8:
                cleared |= frozenset(lions)
            mv = tuple(rng.choice((STAY,) + g.adj[p]) for p in lions)
            expected = reference_cleared_update(g, cleared, lions, mv)
            assert kernel_mask(g, cleared, lions, mv) == vertex_mask(expected, g.n)


def assert_run_is_the_fold_of_step_and_of_the_reference_rule(g, model, lions, moves):
    state = initial_state(g, lions)
    states = [state]
    for mv in moves:
        expected = reference_cleared_update(g, state.cleared, state.lions, mv)
        state = step(g, state, mv)
        assert state.lions == tuple(p if t == STAY else t for p, t in zip(states[-1].lions, mv))
        assert state.cleared == tuple(sorted(expected))
        states.append(state)
    tr = run(g, model, lions, moves)
    assert tr.states == tuple(states)
    assert tr.moves == tuple(moves)


@settings(max_examples=200, deadline=None)
@given(move_lists())
def test_run_is_the_fold_of_step_and_of_the_reference_rule(case):
    assert_run_is_the_fold_of_step_and_of_the_reference_rule(*case)


@pytest.mark.parametrize("spec", WIDE_GRAPHS)
def test_run_is_the_fold_of_step_and_of_the_reference_rule_on_wide_graphs(spec, rng):
    """run carries each record over from the one before by the step's
    difference: on masks of several machine words, 150 valid steps under each
    model, the lions starting alone or stacked at the word edges 63 and 64,
    at |V| - 1 and elsewhere."""
    g = wide_graph(spec)
    for model in MODELS:
        spots = rng.sample((63, 64, g.n - 1, rng.randrange(g.n)), rng.randint(1, 3))
        lions = tuple(rng.choice(spots) for _ in range(rng.randint(1, 5)))
        positions, moves = lions, []
        for _ in range(150):
            moves.append(draw_move(rng.choice, g, model, positions))
            positions = tuple(p if t == STAY else t for p, t in zip(positions, moves[-1]))
        assert_run_is_the_fold_of_step_and_of_the_reference_rule(g, model, lions, moves)


def test_run_folds_the_largest_sweep_and_a_step_that_loses_a_column():
    """The R_{14,48} row sweep grows the cleared set a vertex a step; cut
    where the lions hold column 24, then every lion steps back to column 23
    at once, and column 24 is lost in one step."""
    g, starts, plan = row_sweep_14_48()
    moves = list(plan.moves[:plan.formation_steps + 14 * 23])
    moves.append(tuple(g.vertex_at(r, 23) for r in range(1, 15)))
    assert_run_is_the_fold_of_step_and_of_the_reference_rule(g, "free", starts, moves)
    *_, before, after = run(g, "free", starts, moves).states
    assert set(before.cleared) - set(after.cleared) == {g.vertex_at(r, 24) for r in range(1, 15)}
    assert set(after.cleared) < set(before.cleared)
    tr = run(g, "free", starts, plan.moves)
    assert [len(s.cleared) for s in tr.states[plan.formation_steps:]] == list(range(14, 673))


def test_lemma_bounds_on_random_traces(rng):
    """Growth is at most k per step; a 2k-vertex boundary freezes growth."""
    for _ in range(200):
        g = random_connected_graph(rng, 2, 10)
        k = rng.randint(0, 3)
        lions = tuple(rng.randrange(g.n) for _ in range(k))
        state = initial_state(g, lions)
        for _ in range(15):
            mv = tuple(rng.choice([STAY] + sorted(g.adj[p])) for p in state.lions)
            nxt = step(g, state, mv)
            growth = len(nxt.cleared) - len(state.cleared)
            assert growth <= k
            if len(boundary(g, state.cleared)) >= 2 * k and k > 0:
                assert growth <= 0
            assert set(nxt.lions) <= set(nxt.cleared)
            state = nxt


def test_polite_growth_is_at_most_one(rng):
    for _ in range(50):
        g = random_connected_graph(rng, 2, 8)
        k = rng.randint(1, 3)
        lions = tuple(rng.randrange(g.n) for _ in range(k))
        state = initial_state(g, lions)
        for _ in range(10):
            mv = [STAY] * k
            i = rng.randrange(k)
            mv[i] = rng.choice(sorted(g.adj[state.lions[i]]))
            nxt = step(g, state, tuple(mv))
            assert len(nxt.cleared) - len(state.cleared) <= 1
            state = nxt


def test_trace_serialization_round_trip(tmp_path):
    g = build_tri_lattice(2, 3)
    moves = [(g.vertex_at(1, 2), STAY), (g.vertex_at(1, 3), g.vertex_at(2, 2))]
    tr = run(g, "free", (g.vertex_at(1, 1), g.vertex_at(2, 1)), moves)
    path = tmp_path / "trace.jsonl"
    write_trace(tr, path)
    back = read_trace(path)
    assert back == tr
    first, *rest = path.read_text().splitlines(keepends=True)
    assert '"move": null' in first
    # empty and whitespace-only lines between and after the records are skipped
    path.write_text(first + "  \t\n\n" + "".join(rest) + " \n\n")
    assert read_trace(path) == tr


@pytest.mark.parametrize("other", [True, 1.0])
def test_write_trace_writes_an_int_as_itself_beside_an_equal_value(tmp_path, other):
    """True and 1.0 equal the int 1 and would share its slot in the text
    cache, so it holds the texts of ints alone: whichever of the two values
    a record renders first (its cleared list comes before its lions), the
    int 1 is written as 1."""
    path = tmp_path / "trace.jsonl"
    write_trace(Trace((SimState(0, (1,), (other,)),), ()), path)
    assert path.read_text() == f'{{"t": 0, "lions": [1], "cleared": [{other}], "move": null}}\n'
    write_trace(Trace((SimState(0, (other,), (1,)),), ()), path)
    assert '"cleared": [1]' in path.read_text()


@pytest.mark.parametrize("field, value", [("t", 5), ("lions", [0]), ("move", 5),
                                          ("lions", ["a", 0]), ("cleared", ["x"]),
                                          ("lions", [True, 0]), ("cleared", [False]),
                                          ("move", [False, STAY]), ("move", None),
                                          ("move", [1]), ("cleared", [1, 0]),
                                          ("cleared", [0, 0])])
def test_read_trace_rejects_inconsistent_records(tmp_path, field, value):
    g = build_tri_lattice(2, 3)
    tr = run(g, "free", (0, 3), [(1, STAY), (2, 4)])
    path = tmp_path / "trace.jsonl"
    write_trace(tr, path)
    lines = path.read_text().splitlines()
    rec = json.loads(lines[2])
    rec[field] = value  # t no longer follows t=1, a lion vanished, not integer lists
    # (json reads true and false as bools, which isinstance counts as integers),
    # a null move after t=0, a move for one of the two lions, or a cleared list
    # that is not strictly increasing
    lines[2] = json.dumps(rec)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError) as err:
        read_trace(path)
    assert err.value.line == 3


def test_moves_serialization_round_trip(tmp_path):
    moves = [(1, STAY), (2, 3)]
    path = tmp_path / "moves.txt"
    write_moves(moves, path)
    assert read_moves(path) == moves


@pytest.mark.parametrize("index, value", [(0, False), (1, True)])
def test_read_trace_rejects_boolean_times(tmp_path, index, value):
    """A bool t is refused even where it equals the expected time."""
    tr = run(PATH2, "free", (1,), [(0,)])
    path = tmp_path / "trace.jsonl"
    write_trace(tr, path)
    lines = path.read_text().splitlines()
    rec = json.loads(lines[index])
    rec["t"] = value
    lines[index] = json.dumps(rec)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError) as err:
        read_trace(path)
    assert err.value.line == index + 1


def test_read_moves_rejects_booleans(tmp_path):
    path = tmp_path / "moves.txt"
    path.write_text("[1, -1]\n[true, 0]\n")
    with pytest.raises(ParseError) as err:
        read_moves(path)
    assert err.value.line == 2


@pytest.mark.parametrize("bad", ["[1, 2", "{\"t\": 0}", "[1, 2.5]"])
def test_read_moves_skips_blank_and_comment_lines(tmp_path, bad):
    """Blank and '#' lines are skipped but still counted, so a malformed line
    after them is reported with its own line number."""
    path = tmp_path / "moves.txt"
    good = "# moves\n\n[1, -1]\n   \n  # indented comment\n[2, 3]\n"
    path.write_text(good)
    assert read_moves(path) == [(1, STAY), (2, 3)]
    path.write_text(f"{good}\n{bad}\n")
    with pytest.raises(ParseError) as err:
        read_moves(path)
    assert err.value.line == 8


def json_trace_bytes(tr) -> bytes:
    """A trace rendered record by record with json.dumps, the layout write_trace keeps."""
    return "".join(json.dumps({"t": s.time, "lions": list(s.lions), "cleared": sorted(s.cleared),
                               "move": list(tr.moves[i - 1]) if i else None}) + "\n"
                   for i, s in enumerate(tr.states)).encode()


def json_moves_bytes(moves) -> bytes:
    """A move list rendered step by step with json.dumps, the layout write_moves keeps."""
    return "".join(json.dumps(list(mv)) + "\n" for mv in moves).encode()


def assert_written_as_json(tr) -> None:
    """write_trace and write_moves write the bytes of the json.dumps rendering,
    and read_trace and read_moves give back the trace and its moves."""
    with tempfile.TemporaryDirectory() as tmp:
        trace, moves = Path(tmp) / "trace.jsonl", Path(tmp) / "moves.txt"
        write_trace(tr, trace)
        write_moves(tr.moves, moves)
        assert trace.read_bytes() == json_trace_bytes(tr)
        assert moves.read_bytes() == json_moves_bytes(tr.moves)
        assert read_trace(trace) == tr
        assert read_moves(moves) == list(tr.moves)


@st.composite
def small_graph_runs(draw, models=MODELS):
    """run's arguments (g, model, lions, moves) on a small_graphs graph under
    a model drawn from models: up to 3 lions, none on the empty graph, and up
    to 8 valid steps, STAY included. Free lions may stand on isolated
    vertices; caffeinated and polite lions stand where they can move."""
    g = draw(small_graphs())
    model = draw(st.sampled_from(models))
    spots = [v for v in range(g.n) if model == "free" or g.adj[v]]
    lions = tuple(draw(st.lists(st.sampled_from(spots), max_size=3))) if spots else ()
    positions, moves = lions, []
    for _ in range(draw(st.integers(0, 8))):
        moves.append(draw_move(sampled(draw), g, model, positions))
        positions = tuple(p if t == STAY else t for p, t in zip(positions, moves[-1]))
    return g, model, lions, moves


def small_graph_traces():
    """The run trace of a small_graph_runs case."""
    return small_graph_runs().map(lambda case: run(*case))


PATH150 = make_graph(150, [(v, v + 1) for v in range(149)])


@example(run(PATH3, "free", (), [(), ()]))  # no lions: "lions": [], "cleared": [], a [] move
@example(run(PATH3, "free", (1,), []))  # a single record, whose move is null
@example(run(PATH3, "free", (0, 2), [(STAY, STAY), (1, STAY)]))  # an all-STAY step
@example(run(PATH3, "polite", (0, 2), [(STAY, STAY)]))
# vertices of 1, 2 and 3 digits among the lions, cleared vertices and moves
@example(run(PATH150, "free", (9, 10, 99, 100, 149),
             [(8, 11, STAY, 101, 148), (9, 12, 98, 102, STAY)]))
@settings(max_examples=200, deadline=None)
@given(small_graph_traces())
def test_trace_and_moves_files_are_their_json_rendering(tr):
    assert_written_as_json(tr)


@pytest.mark.parametrize("model", MODELS)
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_every_cleared_set_is_the_increasing_tuple_of_the_reference_rule(model, data):
    """Every state from initial_state, step, run and read_trace of write_trace
    holds its cleared set as the strictly increasing tuple of the set the
    reference rule folds to."""
    g, model, lions, moves = data.draw(small_graph_runs((model,)))
    expected, positions = [frozenset(lions)], lions
    for mv in moves:
        expected.append(reference_cleared_update(g, expected[-1], positions, mv))
        positions = tuple(p if t == STAY else t for p, t in zip(positions, mv))
    stepped = [initial_state(g, lions)]
    for mv in moves:
        stepped.append(step(g, stepped[-1], mv))
    tr = run(g, model, lions, moves)
    with tempfile.TemporaryDirectory() as tmp:
        write_trace(tr, Path(tmp) / "trace.jsonl")
        back = read_trace(Path(tmp) / "trace.jsonl")
    want = [tuple(sorted(c)) for c in expected]
    for states in (stepped, tr.states, back.states):
        assert [s.cleared for s in states] == want
        assert all(type(s.cleared) is tuple for s in states)


def test_largest_sweep_trace_is_its_json_rendering(tmp_path):
    """The R_{14,48} row-sweep trace, 1,317 records of up to 672 vertices."""
    g, starts, plan = row_sweep_14_48()
    tr = run(g, "free", starts, plan.moves)
    path = tmp_path / "trace.jsonl"
    write_trace(tr, path)
    assert (hashlib.sha256(path.read_bytes()).hexdigest()
            == hashlib.sha256(json_trace_bytes(tr)).hexdigest())


def simulate_cli(g, model, lions, moves) -> tuple:
    """lionsweep simulate on files of g and moves, with --trace-out: its exit
    code, its standard output and the trace file's bytes (None if it made none)."""
    with tempfile.TemporaryDirectory() as tmp:
        graph, moves_file, trace = (Path(tmp) / name for name in ("g.txt", "m.txt", "t.jsonl"))
        save_graph(g, graph)
        write_moves(moves, moves_file)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(["simulate", str(graph), "--model", model,
                             "--lions", ",".join(map(str, lions)), "--moves", str(moves_file),
                             "--trace-out", str(trace)])
        return code, out.getvalue(), trace.read_bytes() if trace.exists() else None


@example((PATH3, "free", (), [(), ()]))  # k = 0: nothing is ever cleared
@example((make_graph(0, []), "free", (), []))  # swept at t=0, a single record
@example((PATH3, "free", (0,), [(1,), (STAY,)]))  # never swept
@example((PATH3, "caffeinated", (0,), [(1,), (2,)]))  # swept at the last step
@example((PATH3, "polite", (0, 2), [(STAY, STAY), (1, STAY), (STAY, 1)]))  # swept before it
@settings(max_examples=200, deadline=None)
@given(small_graph_runs())
def test_simulate_writes_the_bytes_of_write_trace_of_run(case):
    """simulate's one pass writes write_trace's file of run's trace, and
    prints the sweep time is_swept finds, exit 0, or exit 10 without one."""
    g, model, lions, moves = case
    tr = run(g, model, lions, moves)
    swept = is_swept(tr, g)
    with tempfile.TemporaryDirectory() as tmp:
        write_trace(tr, Path(tmp) / "trace.jsonl")
        written = (Path(tmp) / "trace.jsonl").read_bytes()
    if swept is None:
        assert simulate_cli(*case) == (10, f"not swept within {len(moves)} steps\n", written)
    else:
        assert simulate_cli(*case) == (0, f"swept at t={swept}\n", written)


def test_simulate_writes_the_largest_sweep_trace_as_its_json_rendering():
    g, starts, plan = row_sweep_14_48()
    tr = run(g, "free", starts, plan.moves)
    code, out, written = simulate_cli(g, "free", starts, plan.moves)
    assert (code, out) == (0, f"swept at t={len(plan.moves)}\n")
    assert (hashlib.sha256(written).hexdigest()
            == hashlib.sha256(json_trace_bytes(tr)).hexdigest())


def test_simulate_renders_the_largest_sweep_from_the_running_text_list(monkeypatch, tmp_path):
    """simulate --trace-out on the R_{14,48} row sweep renders each record as
    the fold makes it, joining the fold's running list of cleared-vertex
    texts: it looks up the text of the |C(0)| start vertices and of the 1,316
    vertices that enter a record, plus the k lions of the t=0 record and the
    k lions and k move targets of every later one, not the text of all
    235,249 cleared vertices in the records.  It calls neither run nor
    write_trace and holds lines, not records: under 2 MiB at its peak by
    tracemalloc, where run and write_trace took 2.38 MiB."""
    g, starts, plan = row_sweep_14_48()
    graph, moves, trace = tmp_path / "g.txt", tmp_path / "m.txt", tmp_path / "t.jsonl"
    save_graph(g, graph)
    write_moves(plan.moves, moves)
    argv = ["simulate", str(graph), "--lions", ",".join(map(str, starts)),
            "--moves", str(moves), "--trace-out", str(trace)]
    looked_up = [0]

    class CountedText(dynamics._VertexText):
        def __getitem__(self, v):
            looked_up[0] += 1
            return super().__getitem__(v)

    def not_called(*args):
        raise AssertionError("simulate renders from the fold, not from a Trace")

    monkeypatch.setattr(dynamics, "_VertexText", CountedText)
    for name in ("run", "write_trace", "is_swept"):
        monkeypatch.setattr(dynamics, name, not_called)
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    k = len(starts)
    assert looked_up[0] == k + 1316 + k + 2 * k * len(plan.moves)
    assert peak < 2 * 2 ** 20
    monkeypatch.undo()
    assert trace.read_bytes() == json_trace_bytes(run(g, "free", starts, plan.moves))


def _held_by(build):
    """build()'s result and the bytes tracemalloc counts as allocated by it and still held."""
    tracemalloc.start()
    try:
        out = build()
        return out, tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()


def test_largest_sweep_trace_memory(tmp_path):
    """A record holds its cleared set as a tuple, which shares run's int
    objects across records: on the R_{14,48} row sweep (235,249 cleared
    vertices in all) run's trace holds under 4 MiB and read_trace's under
    8 MiB, where a frozenset per record held 14.4 and 18.4 MiB."""
    g, starts, plan = row_sweep_14_48()
    g.neighbor_masks  # built once per graph; not part of the trace
    tr, held = _held_by(lambda: run(g, "free", starts, plan.moves))
    assert held < 4 * 2 ** 20
    path = tmp_path / "trace.jsonl"
    write_trace(tr, path)
    back, held = _held_by(lambda: read_trace(path))
    assert held < 8 * 2 ** 20
    assert back == tr


def test_read_trace_shares_one_int_per_cleared_vertex_of_the_largest_sweep(tmp_path):
    """read_trace takes each cleared vertex's int from one per-call table, so
    the records of the R_{14,48} row sweep share one object per vertex: its
    trace equals run's and holds under 3.5 MiB, where an int per cleared
    entry held 6.5 MiB, and its 235,249 cleared entries are at most
    g.n = 672 objects."""
    g, starts, plan = row_sweep_14_48()
    tr = run(g, "free", starts, plan.moves)
    path = tmp_path / "trace.jsonl"
    write_trace(tr, path)
    back, held = _held_by(lambda: read_trace(path))
    assert back == tr
    assert held < 3.5 * 2 ** 20
    assert len({id(v) for s in back.states for v in s.cleared}) <= g.n


PATH300 = make_graph(300, [(v, v + 1) for v in range(299)])


# vertices past 256, which CPython does not cache, cleared in several records
@example(run(PATH300, "free", (270, 280, 299), [(271, STAY, 298), (272, 281, STAY)]))
@settings(max_examples=200, deadline=None)
@given(small_graph_traces())
def test_read_trace_shares_equal_cleared_vertices_across_records(tr):
    """read_trace gives back the trace write_trace wrote, and equal cleared
    vertices in different records are one int object."""
    with tempfile.TemporaryDirectory() as tmp:
        write_trace(tr, Path(tmp) / "trace.jsonl")
        back = read_trace(Path(tmp) / "trace.jsonl")
    assert back == tr
    first = {}
    assert all(first.setdefault(v, v) is v for s in back.states for v in s.cleared)
