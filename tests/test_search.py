import hashlib
import itertools
import json
import math
import random
from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import random_connected_graph, row_sweep_14_48, small_graphs
from lionsweep import dynamics, search
from lionsweep.dynamics import (STAY, SimState, Trace, initial_state, is_swept, run, step,
                                step_cleared_mask, validate_moves, write_trace)
from lionsweep.graphs import (_interior_mask, boundary_size_mask, build_circulant,
                              build_square_grid, build_tri_lattice, build_triangle, is_connected,
                              make_graph, mask_vertices, vertex_mask)
from lionsweep.search import (SearchLimits, _KeyCodes, _successor_keys, can_clear,
                              min_lions, verify_lemma_bounds)

R2 = build_tri_lattice(2, 2)
R3 = build_tri_lattice(3, 3)
PATH2 = make_graph(2, [(0, 1)])


def test_one_vertex_one_lion():
    one = make_graph(1, [])
    verdict = can_clear(one, 1)
    assert verdict.status == "cleared"
    assert is_swept(verdict.trace, one) == 0


def test_zero_lions_never_clear():
    assert can_clear(PATH2, 0).status == "impossible"


def test_two_vertex_path_needs_one():
    result = min_lions(PATH2, "free", 2)
    assert (result.verdict.status, result.k) == ("cleared", 1)


def test_four_cycle_needs_two():
    c4 = build_circulant(4, 1)
    assert can_clear(c4, 1).status == "impossible"
    result = min_lions(c4, "free", 3)
    assert (result.verdict.status, result.k) == ("cleared", 2)


def test_half_n_lions_insufficient_on_triangulated_square():
    assert can_clear(R2, 1).status == "impossible"
    assert can_clear(R3, 1).status == "impossible"
    verdict = can_clear(R2, 2)
    assert verdict.status == "cleared"
    result = min_lions(R2, "free", 3)
    assert (result.verdict.status, result.k) == ("cleared", 2)


def test_witness_replays_with_model_validation():
    for model in ("free", "polite", "caffeinated"):
        verdict = can_clear(R2, 2, model=model)
        if verdict.status != "cleared":
            continue
        tr = verdict.trace
        start = tr.states[0].lions
        replay = run(R2, model, start, tr.moves)  # run() re-validates every step
        assert replay.states[-1].cleared == tuple(range(R2.n))


R4 = build_tri_lattice(4, 4)
P4 = build_triangle(4)
C82 = build_circulant(8, 2)
SQ3 = build_square_grid(3)


# (status, states_explored, peak_frontier, witness steps, witness digest),
# with dominance pruning on and, where that search takes under a second, off:
# any change to the update kernel or the successor order that alters
# exploration or the witness shows here. The digest is the first 12 hex
# digits of the sha256 of the JSON of [start lions, moves], None without one
@pytest.mark.parametrize("g, model, k, starts, dominance, expected", [
    (R3, "free", 3, "canonical", True, ("cleared", 926, 513, 5, "cbcbe33ad576")),
    (R3, "free", 3, "canonical", False, ("cleared", 1223, 680, 5, "cbcbe33ad576")),
    (R3, "caffeinated", 3, "canonical", True, ("cleared", 1554, 488, 7, "afc99f70bb64")),
    (R3, "caffeinated", 3, "canonical", False, ("cleared", 1988, 707, 7, "afc99f70bb64")),
    (R4, "free", 3, "canonical", True, ("impossible", 4241, 876, None, None)),
    (R4, "free", 3, "canonical", False, ("impossible", 4766, 1007, None, None)),
    (R4, "polite", 4, "canonical", True, ("cleared", 14847, 3154, 18, "ba6bc1060b8c")),
    (P4, "free", 3, "canonical", True, ("cleared", 3069, 507, 12, "86d2e38697dc")),
    (P4, "free", 3, "canonical", False, ("cleared", 4002, 685, 12, "86d2e38697dc")),
    (C82, "polite", "min", "canonical", True, ("cleared", 417, 141, 7, "35a2d656f4ba")),
    (C82, "polite", "min", "canonical", False, ("cleared", 444, 157, 7, "35a2d656f4ba")),
    # a repeated vertex, and two start tuples that sort to one
    (R3, "free", 3, [(4, 0, 4), (4, 4, 0)], True, ("cleared", 1084, 446, 5, "3dd14c4774b7")),
    # bipartite: one start tuple per split of the lions between the colour classes
    (SQ3, "caffeinated", 4, "canonical", True, ("cleared", 661, 483, 3, "4fff1d2ec3f8")),
    (R3, "free", 0, "canonical", True, ("impossible", 1, 1, None, None)),
    # the second start clears; the first was admitted before it and is counted
    (PATH2, "caffeinated", 2, "canonical", True, ("cleared", 2, 1, 0, "1bf3309e5448")),
], ids=["R3-free", "R3-free-nodom", "R3-caffeinated", "R3-caffeinated-nodom", "R4-free",
        "R4-free-nodom", "R4-polite", "P4-free", "P4-free-nodom", "C82-polite-min",
        "C82-polite-min-nodom", "R3-free-repeated-starts", "SQ3-caffeinated-bipartite",
        "R3-no-lions", "PATH2-caffeinated-second-start"])
def test_search_counts_are_pinned(g, model, k, starts, dominance, expected):
    limits = SearchLimits(dominance_pruning=dominance)
    if k == "min":
        result = min_lions(g, model, 4, limits)
        assert result.k == 4
        verdict = result.verdict
    else:
        verdict = can_clear(g, k, model, starts, limits)
    trace = verdict.trace
    steps = digest = None
    if trace:
        steps = len(trace.moves)
        text = json.dumps([list(trace.states[0].lions), [list(mv) for mv in trace.moves]])
        digest = hashlib.sha256(text.encode()).hexdigest()[:12]
    assert (verdict.status, verdict.states_explored, verdict.peak_frontier, steps,
            digest) == expected


# (status, states_explored, peak_frontier) at state limits around the
# unlimited count S: the search is unknown only when it would admit a state
# past the limit. Repeats, dominated keys and a clearing successor never end
# it, so a cleared search is cleared at S - 1 (its clearing key is counted,
# not admitted), and one that runs out of new states at the limit is
# impossible, as on R2 and R3 with one lion. Start states count toward the
# limit like any other state, as SQ3 caffeinated with its three starts shows
@pytest.mark.parametrize("g, model, k, dominance, max_states, expected", [
    (R3, "free", 3, True, 1, ("unknown", 1, 1)),
    (R3, "free", 3, True, 2, ("unknown", 2, 1)),
    (R3, "free", 3, True, 925, ("cleared", 926, 513)),
    (R3, "free", 3, True, 926, ("cleared", 926, 513)),
    (R3, "free", 3, True, 927, ("cleared", 926, 513)),
    (R3, "free", 3, False, 1, ("unknown", 1, 1)),
    (R3, "free", 3, False, 2, ("unknown", 2, 1)),
    (R3, "free", 3, False, 1222, ("cleared", 1223, 680)),
    (R3, "free", 3, False, 1223, ("cleared", 1223, 680)),
    (R3, "free", 3, False, 1224, ("cleared", 1223, 680)),
    (C82, "polite", 4, True, 1, ("unknown", 1, 1)),
    (C82, "polite", 4, True, 2, ("unknown", 2, 1)),
    (C82, "polite", 4, True, 416, ("cleared", 417, 141)),
    (C82, "polite", 4, True, 417, ("cleared", 417, 141)),
    (C82, "polite", 4, True, 418, ("cleared", 417, 141)),
    (C82, "polite", 4, False, 1, ("unknown", 1, 1)),
    (C82, "polite", 4, False, 2, ("unknown", 2, 1)),
    (C82, "polite", 4, False, 443, ("cleared", 444, 157)),
    (C82, "polite", 4, False, 444, ("cleared", 444, 157)),
    (C82, "polite", 4, False, 445, ("cleared", 444, 157)),
    (R2, "free", 1, True, 4, ("impossible", 4, 2)),
    (R3, "free", 1, True, 9, ("impossible", 9, 3)),
    (SQ3, "caffeinated", 4, True, 1, ("unknown", 1, 1)),
    (SQ3, "caffeinated", 4, True, 2, ("unknown", 2, 1)),
    (SQ3, "caffeinated", 4, False, 1, ("unknown", 1, 1)),
    (SQ3, "caffeinated", 4, False, 2, ("unknown", 2, 1)),
])
def test_state_limit_edges_are_pinned(g, model, k, dominance, max_states, expected):
    verdict = can_clear(g, k, model, limits=SearchLimits(max_states, dominance))
    assert (verdict.status, verdict.states_explored, verdict.peak_frontier) == expected


@settings(max_examples=100, deadline=None)
@given(small_graphs(max_n=8), st.sampled_from(("free", "caffeinated", "polite")), st.data())
def test_state_limit_is_never_exceeded(g, model, data):
    """At every limit the search admits no more states than the limit, start
    states included (a cleared verdict also counts its clearing state, which
    is not admitted); it is unknown only at the limit, and from the unlimited
    count S on it gives the unlimited verdict. The limits are 1, 2, S - 1, S,
    S + 1 and up to four more drawn from 1..S + 1."""
    k = data.draw(st.integers(0, 3))
    if data.draw(st.booleans()) and is_connected(g) and (g.n or not k):
        starts = "canonical"
    elif g.n:
        tup = st.lists(st.integers(0, g.n - 1), min_size=k, max_size=k)
        starts = data.draw(st.lists(tup, min_size=2, max_size=3))
    else:
        return
    dominance = data.draw(st.booleans())
    unlimited = can_clear(g, k, model, starts, SearchLimits(dominance_pruning=dominance))
    s = unlimited.states_explored
    drawn = data.draw(st.lists(st.integers(1, s + 1), max_size=4))
    for max_states in sorted({1, 2, s - 1, s, s + 1, *drawn} - {0}):
        verdict = can_clear(g, k, model, starts, SearchLimits(max_states, dominance))
        assert verdict.states_explored - (verdict.status == "cleared") <= max_states
        assert verdict.status != "unknown" or verdict.states_explored == max_states
        if max_states >= s:
            assert verdict == unlimited


def _kernel_mask(g, positions, cleared, safe, targets):
    """step_cleared_mask's mask after the lions at positions move to targets
    aligned with them, a lion whose target is its position staying."""
    mv = tuple(STAY if t == p else t for p, t in zip(positions, targets))
    moved, mask = step_cleared_mask(g.neighbor_masks, positions, cleared, safe, mv)
    assert moved == tuple(targets)
    return mask


def _key(codes, positions, cleared):
    """The search's key of the state: cleared plus the lions' position codes."""
    return cleared | sum(map(codes.code.__getitem__, positions))


def _assert_keys_match_the_kernel(g, model, positions, cleared):
    """Every key is step_cleared_mask's cleared mask, on Safe from
    _interior_mask, plus the position codes of the targets codes.move gives
    at its index. Returns the moves and the keys."""
    sorted_adj = tuple(tuple(sorted(g.adj[v])) for v in range(g.n))
    codes = _KeyCodes(sorted_adj, len(positions))
    safe = _interior_mask(g.neighbor_masks, cleared)
    keys = list(_successor_keys(g.neighbor_masks, model, _key(codes, positions, cleared), codes))
    moves = [codes.move(model, positions, i) for i in range(len(keys))]
    assert keys == [_kernel_mask(g, positions, cleared, safe, t) | sum(codes.code[v] for v in t)
                    for t in moves]
    assert [codes.positions(key) for key in keys] == [tuple(sorted(t)) for t in moves]
    return moves, keys


@st.composite
def lion_states(draw):
    """A small_graphs graph with at least one vertex, the sorted positions of
    up to four lions, and a cleared mask holding them; in half the draws the
    lions share at most two vertices, so that vacancies hold several lions."""
    g = draw(small_graphs().filter(lambda g: g.n))
    k = draw(st.integers(0, 4))
    pool = st.integers(0, g.n - 1)
    if draw(st.booleans()):
        pool = st.sampled_from(sorted(draw(st.sets(pool, min_size=1, max_size=2))))
    positions = tuple(sorted(draw(st.lists(pool, min_size=k, max_size=k))))
    return g, positions, vertex_mask(positions, g.n) | draw(st.integers(0, (1 << g.n) - 1))


# vertex 0 with two lions, cleared, and its neighbours 1 and 2 contaminated;
# vertex 3 with one lion, cleared, and its neighbour 4 contaminated
STAR = make_graph(5, [(0, 1), (0, 2), (0, 3), (3, 4)])
# _successor_keys joins the keys with Safe only when Safe is non-empty: Safe
# is empty in STAR_NO_SAFE and {1} in STAR_SAFE_1, where 1's one neighbour is cleared
STAR_NO_SAFE = (STAR, (0,), 0b1)
STAR_SAFE_1 = (STAR, (3,), 0b01011)
assert _interior_mask(STAR.neighbor_masks, STAR_NO_SAFE[2]) == 0
assert _interior_mask(STAR.neighbor_masks, STAR_SAFE_1[2]) == 0b10


@settings(max_examples=150, deadline=None)
@given(lion_states())
# one lion on vertex 0, whose exposed mask {1, 2, 3} has more bits than it has lions
@example(STAR_NO_SAFE)
# two lions on vertex 3, whose exposed mask is one neighbour, 4: a polite
# step leaves one of them there
@example((STAR, (3, 3), 0b1001))
# one lion on vertex 3 with vertex 1 safe
@example(STAR_SAFE_1)
def test_successor_keys_match_the_kernel(case):
    """The kernel is the oracle for every key, under every motion model."""
    g, positions, cleared = case
    for model in dynamics.MODELS:
        _assert_keys_match_the_kernel(g, model, positions, cleared)


@pytest.mark.parametrize("model", ["free", "caffeinated", "polite"])
def test_vacancies_of_two_lions_and_of_one(model):
    """Vertex 0 is a vacancy of two lions whose exposed mask is {1, 2}, and 3
    one of a lion whose exposed mask is {4}: once its lions leave, each
    stays cleared exactly when they cover its exposed mask."""
    positions, cleared = (0, 0, 3), 0b1001
    moves, keys = _assert_keys_match_the_kernel(STAR, model, positions, cleared)
    kept_0 = [t for t, key in zip(moves, keys) if key & 1 and 0 not in t]
    kept_3 = [t for t, key in zip(moves, keys) if key >> 3 & 1 and 3 not in t]
    assert kept_0 == [t for t in moves if sorted(t[:2]) == [1, 2] and 0 not in t]
    assert kept_3 == [t for t in moves if t[2] == 4 and 3 not in t]
    # distinct target multisets: a polite step moves one lion, so it keeps 3
    # once and never 0
    multisets = [{tuple(sorted(t)) for t in kept} for kept in (kept_0, kept_3)]
    assert tuple(map(len, multisets)) == {"free": (2, 6), "caffeinated": (1, 3),
                                          "polite": (0, 1)}[model]


def _per_lion_moves(model, positions, adj):
    """The reference stream: every ordered target tuple, one factor per lion."""
    if model == "polite":
        return itertools.chain([positions], (positions[:i] + (t,) + positions[i + 1:]
                                             for i, p in enumerate(positions) for t in adj[p]))
    return itertools.product(*(((p,) if model == "free" else ()) + adj[p] for p in positions))


@settings(max_examples=150, deadline=None)
@given(small_graphs(), st.sampled_from(("free", "caffeinated", "polite")), st.data())
def test_multiset_moves_keep_every_first_occurrence(g, model, data):
    """One move per target multiset of stacked lions loses no key: against the
    full per-lion stream, with the kernel as the oracle for its keys, every
    key first occurs in the same order and by the same move, so the search
    offers the same states and the witness walk picks the same moves; and
    both streams reach the same target multisets."""
    if g.n == 0:
        return
    k = data.draw(st.integers(0, 4))
    pool = st.sampled_from(sorted(data.draw(st.sets(st.integers(0, g.n - 1),
                                                    min_size=1, max_size=2))))
    positions = tuple(sorted(data.draw(st.lists(pool, min_size=k, max_size=k))))
    cleared = vertex_mask(positions, g.n) | data.draw(st.integers(0, (1 << g.n) - 1))
    codes = _KeyCodes(g.adj, k)
    safe = _interior_mask(g.neighbor_masks, cleared)
    reference = list(_per_lion_moves(model, positions, g.adj))
    keys = list(_successor_keys(g.neighbor_masks, model, _key(codes, positions, cleared), codes))
    moves = [codes.move(model, positions, i) for i in range(len(keys))]
    first, first_reference = {}, {}
    for t, key in zip(moves, keys):
        first.setdefault(key, t)
    for t in reference:
        key = _kernel_mask(g, positions, cleared, safe, t) | \
            sum(map(codes.code.__getitem__, t))
        first_reference.setdefault(key, t)
    assert list(first.items()) == list(first_reference.items())
    assert set(map(tuple, map(sorted, moves))) == set(map(tuple, map(sorted, reference)))


@settings(max_examples=100, deadline=None)
@given(small_graphs(max_n=8), st.integers(1, 4), st.data())
def test_one_key_table_serves_many_states(g, k, data):
    """A search keeps one _KeyCodes, so its decoded positions and its factors
    must be keyed completely: over several drawn states in turn, with stacked
    lions and vacancies, each key from one shared _KeyCodes equals the key
    from a fresh one and the kernel's."""
    if g.n == 0:
        return
    shared = _KeyCodes(g.adj, k)
    for _ in range(data.draw(st.integers(2, 6))):
        model = data.draw(st.sampled_from(("free", "caffeinated", "polite")))
        pool = st.integers(0, g.n - 1)
        if data.draw(st.booleans()):
            pool = st.sampled_from(sorted(data.draw(st.sets(pool, min_size=1, max_size=2))))
        positions = tuple(sorted(data.draw(st.lists(pool, min_size=k, max_size=k))))
        cleared = vertex_mask(positions, g.n) | data.draw(st.integers(0, (1 << g.n) - 1))
        safe, key = _interior_mask(g.neighbor_masks, cleared), _key(shared, positions, cleared)
        keys = list(_successor_keys(g.neighbor_masks, model, key, shared))
        moves = [shared.move(model, positions, i) for i in range(len(keys))]
        assert keys == list(_successor_keys(g.neighbor_masks, model, key, _KeyCodes(g.adj, k)))
        assert keys == [_kernel_mask(g, positions, cleared, safe, t) |
                        sum(map(shared.code.__getitem__, t)) for t in moves]
        assert [shared.positions(key) for key in keys] == [tuple(sorted(t)) for t in moves]


@pytest.mark.parametrize("model", ["free", "caffeinated", "polite"])
def test_key_tables_grow_with_configurations_not_states(monkeypatch, model):
    """After a search, decoded holds at most one entry per multiset of k
    positions, targets at most one per vertex p and count m of lions on it,
    1 <= m <= k, or m = 1 for polite lions, which move one at a time, and
    each factor is keyed by such a p and m and an exposed mask of at most m
    of p's neighbours (0 if p is no vacancy), so no table can grow with the
    states explored."""
    made = []

    class Recorded(_KeyCodes):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    monkeypatch.setattr(search, "_KeyCodes", Recorded)
    k = 3
    counts = (1,) if model == "polite" else range(1, k + 1)
    verdict = can_clear(R3, k, model, limits=SearchLimits(dominance_pruning=False))
    (codes,) = made
    assert len(codes.decoded) <= math.comb(R3.n + k - 1, k) < verdict.states_explored
    for stay, p, m in codes.targets:
        assert stay == (model == "free") and 0 <= p < R3.n and m in counts
    assert len(codes.targets) <= R3.n * len(counts) < verdict.states_explored
    assert {m for _, _, m, _ in codes.factors} == set(counts)  # every model reads the tables
    masks = R3.neighbor_masks
    for stay, p, m, exposed in codes.factors:
        assert stay == (model == "free") and m in counts
        assert exposed & masks[p] == exposed and exposed.bit_count() <= m
    bound = sum(1 + sum(math.comb(len(R3.adj[p]), j) for j in range(1, m + 1))
                for p in range(R3.n) for m in counts)
    assert len(codes.factors) <= bound < verdict.states_explored


# successors generated per search, witness walk included: one per target
# multiset of stacked lions (55,905, 59,582, 3,116, 9,830 and 4,895 with one
# per ordered target tuple); states and peak frontiers are pinned above
@pytest.mark.parametrize("g, model, k, expected", [
    (R3, "free", 3, 42632),
    (R3, "caffeinated", 3, 46502),
    (R3, "polite", 3, 2588),
    (SQ3, "caffeinated", 4, 5575),
    (C82, "polite", 4, 3799),
], ids=["R3-free", "R3-caffeinated", "R3-polite", "SQ3-caffeinated", "C82-polite"])
def test_successors_generated_are_pinned(monkeypatch, g, model, k, expected):
    generated = 0
    successor_keys = search._successor_keys

    def counted(*args):
        nonlocal generated
        for key in successor_keys(*args):
            generated += 1
            yield key

    monkeypatch.setattr(search, "_successor_keys", counted)
    assert can_clear(g, k, model).status == "cleared"
    assert generated == expected


@pytest.mark.parametrize("model", ["free", "caffeinated", "polite"])
def test_search_never_calls_the_kernel(monkeypatch, model):
    """The search derives every key from its move tables: an impossible
    search, which builds no witness, makes no step_cleared_mask call, though
    two lions on R_{3,3} meet vacancies under every model."""
    calls = []

    def counted(*args):
        calls.append(args)
        return step_cleared_mask(*args)

    monkeypatch.setattr(dynamics, "step_cleared_mask", counted)
    monkeypatch.setattr(search, "step_cleared_mask", counted, raising=False)
    assert can_clear(R3, 2, model).status == "impossible"
    assert calls == []


def test_trajectories_never_call_successor_keys(monkeypatch):
    """run and verify_lemma_bounds step with step_cleared_mask alone: on the
    R_{14,48} row sweep neither calls the search's batch kernel."""
    calls = []
    successor_keys = search._successor_keys

    def counted(*args):
        calls.append(args)
        return successor_keys(*args)

    monkeypatch.setattr(search, "_successor_keys", counted)
    g, starts, plan = row_sweep_14_48()
    trace = run(g, "free", starts, plan.moves)
    assert is_swept(trace, g) is not None
    assert verify_lemma_bounds(g, trace).ok
    assert calls == []


def test_dominance_pruning_does_not_change_verdicts(rng):
    graphs = [R2, build_circulant(4, 1), build_circulant(5, 1), PATH2,
              random_connected_graph(rng, 3, 6), random_connected_graph(rng, 3, 6)]
    for g in graphs:
        for k in (1, 2):
            on = can_clear(g, k, limits=SearchLimits(dominance_pruning=True))
            off = can_clear(g, k, limits=SearchLimits(dominance_pruning=False))
            assert on.status == off.status


def test_impossible_is_stable_under_larger_limits():
    small = SearchLimits(max_states=100_000)
    big = SearchLimits(max_states=200_000)
    for g, k in [(R2, 1), (R3, 1), (build_circulant(4, 1), 1)]:
        assert can_clear(g, k, limits=small).status == "impossible"
        assert can_clear(g, k, limits=big).status == "impossible"


def test_state_limit_returns_unknown():
    verdict = can_clear(build_square_grid(3), 2, limits=SearchLimits(max_states=10))
    assert verdict.status == "unknown"
    result = min_lions(build_square_grid(3), "free", 3, SearchLimits(max_states=10))
    assert (result.verdict.status, result.k) == ("unknown", 2)


def test_monotone_in_lion_count(rng):
    for g in [R2, build_circulant(5, 1), random_connected_graph(rng, 3, 6)]:
        cleared_at = None
        for k in range(4):
            if can_clear(g, k).status == "cleared":
                cleared_at = k
                break
        if cleared_at is not None and cleared_at < 3:
            assert can_clear(g, cleared_at + 1).status == "cleared"


def test_caffeinated_bipartite_start_policy():
    # a 4-cycle is bipartite: the search must consider split starting parities
    c4 = build_circulant(4, 1)
    verdict = can_clear(c4, 2, model="caffeinated")
    assert verdict.status in ("cleared", "impossible")
    if verdict.status == "cleared":
        tr = verdict.trace
        st = tr.states[0]
        for mv, nxt in zip(tr.moves, tr.states[1:]):
            assert validate_moves(c4, "caffeinated", st, mv) == []
            st = nxt


def test_explicit_starts():
    verdict = can_clear(R2, 2, starts=[(0, 3)])
    assert verdict.status in ("cleared", "impossible")
    with pytest.raises(ValueError):
        can_clear(R2, 2, starts=[(0,)])


def test_empty_start_list_is_refused():
    """A search from no start would report impossible, though 2 lions clear R_{2,2}."""
    with pytest.raises(ValueError, match="start list is empty"):
        can_clear(R2, 2, starts=[])


def test_verify_lemma_bounds_on_witness():
    verdict = can_clear(R2, 2)
    report = verify_lemma_bounds(R2, verdict.trace)
    assert report.ok
    assert report.steps_checked == len(verdict.trace.moves)


def test_verify_lemma_bounds_rejects_an_unknown_model():
    # a trace with no move never reaches validate_moves, which checks the model too
    with pytest.raises(ValueError, match="unknown motion model"):
        verify_lemma_bounds(R2, run(R2, "free", (0,), []), "Polite")


def test_verify_lemma_bounds_on_row_sweep_trace():
    from lionsweep.strategies import column_positions, row_sweep_moves
    starts = column_positions(3, 3)
    plan = row_sweep_moves(3, 3, starts)
    tr = run(R3, "free", starts, plan.moves)
    assert verify_lemma_bounds(R3, tr).ok


def test_run_and_verify_convert_only_each_step_difference(monkeypatch):
    """run builds each record from the one before and the step's symmetric
    difference, and verify's replay likewise: on the R_{14,48} row sweep,
    run's mask_vertices calls convert sum_t |C(t) ^ C(t+1)| bits, and verify
    converts record 0 with vertex_mask and then each step's difference with
    mask_vertices, |C(0)| + sum_t |C(t) ^ C(t+1)| vertices, not sum_t |C(t)|.
    step from a mid-sweep record converts |C(t) ^ C(t+1)| bits out, not all
    of C(t+1)."""
    g, starts, plan = row_sweep_14_48()
    converted = {"run": 0, "verify": 0}

    def counted_mask_vertices(mask, caller="run"):
        converted[caller] += mask.bit_count()
        return mask_vertices(mask)

    def counted_vertex_mask(vertices, n):
        vertices = tuple(vertices)
        converted["verify"] += len(vertices)
        return vertex_mask(vertices, n)

    monkeypatch.setattr(dynamics, "mask_vertices", counted_mask_vertices)
    monkeypatch.setattr(search, "mask_vertices",
                        lambda mask: counted_mask_vertices(mask, "verify"))
    monkeypatch.setattr(search, "vertex_mask", counted_vertex_mask)
    tr = run(g, "free", starts, plan.moves)
    assert verify_lemma_bounds(g, tr).ok
    differences = sum(len(set(a.cleared) ^ set(b.cleared))
                      for a, b in zip(tr.states, tr.states[1:]))
    assert converted == {"run": differences, "verify": len(starts) + differences}
    assert differences * 50 < sum(len(s.cleared) for s in tr.states)
    a, b = tr.states[1000], tr.states[1001]
    converted["run"] = 0
    assert step(g, a, tr.moves[1000]) == b
    assert 0 < converted["run"] == len(set(a.cleared) ^ set(b.cleared)) < len(b.cleared) // 50


def test_run_and_verify_sort_no_record_and_render_only_each_step_difference(monkeypatch,
                                                                          tmp_path):
    """run and verify edit one increasing list of the cleared vertices at
    each step's difference, and verify keeps their texts beside it: on the
    R_{14,48} row sweep nothing sorts more than the lions that
    initial_state sorts, and verify on the trace file's lines looks up the
    text of the |C(0)| + sum_t |C(t+1) - C(t)| cleared vertices that enter a
    record (of the |C(0)| + sum_t |C(t) ^ C(t+1)| that it converts), plus
    the k lions and k move targets of each replayed record, not the text of
    all sum_t |C(t)| = 235,249 cleared vertices in the records."""
    g, starts, plan = row_sweep_14_48()
    tr = run(g, "free", starts, plan.moves)
    write_trace(tr, tmp_path / "sweep.jsonl")
    sorted_lengths, looked_up = [], [0]

    def counted_sorted(iterable, **kwargs):
        items = list(iterable)
        sorted_lengths.append(len(items))
        return sorted(items, **kwargs)

    class CountedText(dynamics._VertexText):
        def __getitem__(self, v):
            looked_up[0] += 1
            return super().__getitem__(v)

    for module in (dynamics, search):
        monkeypatch.setattr(module, "sorted", counted_sorted, raising=False)
    monkeypatch.setattr(dynamics, "_VertexText", CountedText)
    assert run(g, "free", starts, plan.moves) == tr
    with open(tmp_path / "sweep.jsonl", encoding="utf-8") as lines:
        assert verify_lemma_bounds(g, lines).ok
    assert sorted_lengths and max(sorted_lengths) <= len(starts)
    pairs = list(zip(tr.states, tr.states[1:]))
    entering = sum(len(set(b.cleared) - set(a.cleared)) for a, b in pairs)
    leaving = sum(len(set(a.cleared) - set(b.cleared)) for a, b in pairs)
    assert (len(tr.states[0].cleared), entering, leaving) == (len(starts), 1316, 658)
    assert looked_up[0] == len(starts) + entering + 2 * len(starts) * len(tr.moves)
    assert sum(len(s.cleared) for s in tr.states) == 235_249


def test_verify_lemma_bounds_flags_corrupted_trace():
    verdict = can_clear(R2, 2)
    tr = verdict.trace
    # inflate one cleared set by hand: growth must exceed k
    states = list(tr.states)
    states[1] = SimState(states[1].time, states[1].lions, tuple(range(R2.n)))
    bad = Trace(tuple(states), tr.moves)
    report = verify_lemma_bounds(R2, bad)
    assert not report.ok
    assert any(lemma == "growth-bound" for _, lemma, _ in report.violations)


def test_verify_flags_a_boundary_stall():
    """On R_{3,3}, C(0) = {0, 1} has the boundary {0, 1} of size 2k for k = 1,
    yet the forged next record grows it: a boundary-stall at t=0, next to the
    replay violation of a t=0 cleared set that is not the lions'."""
    forged = Trace((SimState(0, (0,), (0, 1)), SimState(1, (1,), (0, 1, 2))), ((1,),))
    report = verify_lemma_bounds(R3, forged)
    assert [(t, lemma) for t, lemma, _ in report.violations] == [(0, "replay"),
                                                                 (0, "boundary-stall")]


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2 ** 32), st.sampled_from(dynamics.MODELS))
def test_verify_boundary_stall_times_on_forged_traces(seed, model):
    """On random records, the boundary-stall times are exactly the t with
    growth and |boundary(C(t))| >= 2k, boundary_size_mask the reference."""
    rng = random.Random(seed)
    g = random_connected_graph(rng, 2, 10)
    k = rng.randint(1, 3)
    states = [SimState(t, tuple(rng.randrange(g.n) for _ in range(k)),
                       tuple(v for v in range(g.n) if rng.random() < 0.5))
              for t in range(rng.randint(1, 8))]
    moves = tuple(tuple(rng.choice([STAY] + list(g.adj[p])) for p in a.lions) for a in states[1:])
    report = verify_lemma_bounds(g, Trace(tuple(states), moves), model)
    expected = [a.time for a, b in zip(states, states[1:])
                if len(b.cleared) > len(a.cleared)
                and boundary_size_mask(g.neighbor_masks, vertex_mask(a.cleared, g.n)) >= 2 * k]
    assert [t for t, lemma, _ in report.violations if lemma == "boundary-stall"] == expected


def _replace_state(trace, t, **fields):
    states = list(trace.states)
    states[t] = replace(states[t], **fields)
    return Trace(tuple(states), trace.moves)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32), st.booleans())
def test_verify_replay_reports_the_forged_record(seed, flip_lion):
    """A clean run trace replays with no violation; one flipped cleared vertex
    or lion position at a random t is a replay violation at that t."""
    rng = random.Random(seed)
    g = random_connected_graph(rng, 2, 9)
    lions = tuple(rng.randrange(g.n) for _ in range(rng.randint(1, 3)))
    state = initial_state(g, lions)
    moves = []
    for _ in range(rng.randint(1, 8)):
        moves.append(tuple(rng.choice([STAY] + sorted(g.adj[p])) for p in state.lions))
        state = step(g, state, moves[-1])
    tr = run(g, "free", lions, moves)
    assert verify_lemma_bounds(g, tr).violations == ()
    if flip_lion:
        # from t = 1 on: the t = 0 record is the start the replay begins from
        t = rng.randint(1, len(moves))
        moved = list(tr.states[t].lions)
        i = rng.randrange(len(moved))
        moved[i] = rng.choice([v for v in range(g.n) if v != moved[i]])
        forged = _replace_state(tr, t, lions=tuple(moved))
    else:
        t = rng.randint(0, len(moves))
        flipped = set(tr.states[t].cleared) ^ {rng.randrange(g.n)}
        forged = _replace_state(tr, t, cleared=tuple(sorted(flipped)))
    report = verify_lemma_bounds(g, forged)
    assert [vt for vt, lemma, _ in report.violations if lemma == "replay"] == [t]


def test_canonical_starts_rejected_on_disconnected_graph():
    two_edges = make_graph(4, [(0, 1), (2, 3)])
    with pytest.raises(ValueError):
        can_clear(two_edges, 2)
    with pytest.raises(ValueError):
        min_lions(two_edges, "free", 4)
    # explicit starts are still searched: one lion per component clears it
    assert can_clear(two_edges, 2, starts=[(0, 2)]).status == "cleared"


def test_search_refuses_an_unknown_model():
    """An unknown model is refused before any work: read as polite by the move
    enumeration and as caffeinated by the successor keys, it gave a verdict."""
    for k in (1, 3):
        with pytest.raises(ValueError, match="unknown motion model"):
            can_clear(R3, k, "bogus")
    with pytest.raises(ValueError, match="unknown motion model"):
        min_lions(R3, "bogus", 3)


def test_limits_validation():
    with pytest.raises(ValueError):
        SearchLimits(max_states=0)
    with pytest.raises(ValueError):
        can_clear(R2, -1)
