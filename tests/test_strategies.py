import hashlib
import json
import random
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_connected_graph
from lionsweep import strategies
from lionsweep.dynamics import (STAY, Trace, initial_state, is_monotone, is_swept,
                                run, step, validate_moves)
from lionsweep.errors import InfeasibleWalkError, WalkParityError, WalkTooShortError
from lionsweep.graphs import build_square_grid, build_tri_lattice, build_triangle, make_graph
from lionsweep.strategies import (caffeinated_wall_moves, column_positions,
                                  exact_length_walk, naive_column_sweep_moves,
                                  row_sweep_moves,
                                  simultaneous_repositioning, wall_positions)


def bfs_parity_oracle(g, u):
    """Independent parity-reachability oracle: plain BFS on (vertex, parity)."""
    dist = {}
    queue = deque([(u, 0)])
    dist[(u, 0)] = 0
    while queue:
        v, p = queue.popleft()
        for w in g.adj[v]:
            key = (w, p ^ 1)
            if key not in dist:
                dist[key] = dist[(v, p)] + 1
                queue.append(key)
    return dist


def assert_valid_walk(g, walk, u, v, m):
    assert walk[0] == u and walk[-1] == v
    assert len(walk) - 1 == m
    for a, b in zip(walk, walk[1:]):
        assert b in g.adj[a]


def test_exact_walk_trivial():
    g = build_tri_lattice(2, 3)
    assert exact_length_walk(g, 0, 0, 0) == (0,)


def test_exact_walk_adjacent_even_via_triangle():
    g = build_tri_lattice(2, 3)
    u, v = g.vertex_at(1, 1), g.vertex_at(1, 2)
    walk = exact_length_walk(g, u, v, 2)
    assert_valid_walk(g, walk, u, v, 2)


def test_exact_walk_bipartite_parity_error():
    s3 = build_square_grid(3)
    u, v = s3.vertex_at(1, 1), s3.vertex_at(1, 2)
    with pytest.raises(WalkParityError):
        exact_length_walk(s3, u, v, 2)


def test_exact_walk_too_short():
    g = build_tri_lattice(3, 3)
    with pytest.raises(WalkTooShortError):
        exact_length_walk(g, g.vertex_at(1, 1), g.vertex_at(3, 3), 1)


def test_walks_from_an_isolated_vertex_cannot_be_padded():
    """A closed walk of positive length needs a neighbour to bounce off."""
    for plan in (lambda: exact_length_walk(build_tri_lattice(1, 1), 0, 0, 2),
                 lambda: simultaneous_repositioning(make_graph(2, []), (0,), (0,))):
        with pytest.raises(InfeasibleWalkError,
                           match="vertex 0 has no neighbors to pad a walk with"):
            plan()


def test_exact_walk_matches_parity_oracle(rng):
    """Feasibility of (u, v, m) agrees with a BFS parity oracle, including on
    random connected graphs of up to 12 vertices."""
    graphs = [build_tri_lattice(3, 3), build_square_grid(3)]
    graphs += [random_connected_graph(rng, 2, 12) for _ in range(6)]
    for g in graphs:
        oracle = {}
        for u in range(g.n):
            oracle[u] = bfs_parity_oracle(g, u)
        for _ in range(150):
            u, v = rng.randrange(g.n), rng.randrange(g.n)
            m = rng.randrange(0, 10)
            d = oracle[u].get((v, m % 2))
            if d is not None and d <= m:
                assert_valid_walk(g, exact_length_walk(g, u, v, m), u, v, m)
            else:
                with pytest.raises((WalkParityError, WalkTooShortError)):
                    exact_length_walk(g, u, v, m)


# R_{2,4}, S_3 (bipartite), P_3, one vertex, and a disconnected graph: a
# triangle, an edge and an isolated vertex.
WALK_GRAPHS = (build_tri_lattice(2, 4), build_square_grid(3), build_triangle(3), make_graph(1, []),
               make_graph(6, [(0, 1), (1, 2), (0, 2), (3, 4)]))


def _parent_chain(parent, v, p):
    """The vertices on the parent chain of (v, parity p), v first."""
    chain = [v]
    while parent[p][v] is not None:
        v = parent[p][v]
        p ^= 1
        chain.append(v)
    return chain


def test_parity_distances_match_oracle():
    """The full tables match a plain (vertex, parity) BFS, and the search that
    stops at a target leaves that target's two distances and both parent
    chains as the full tables have them."""
    for g in WALK_GRAPHS:
        for u in range(g.n):
            dist, parent = strategies._parity_bfs(g, u, None)
            oracle = bfs_parity_oracle(g, u)
            for t in range(g.n):
                assert [dist[0][t], dist[1][t]] == [oracle.get((t, 0)), oracle.get((t, 1))]
                dist_t, parent_t = strategies._parity_bfs(g, u, t)
                for p in (0, 1):
                    assert dist_t[p][t] == dist[p][t], (g, u, t, p)
                    if dist[p][t] is not None:
                        assert _parent_chain(parent_t, t, p) == _parent_chain(parent, t, p)


def test_targeted_search_stops_at_its_target():
    g = build_tri_lattice(4, 10)
    far = g.vertex_at(4, 10)
    dist, _ = strategies._parity_bfs(g, 0, 1)  # 1 is reached at lengths 1 and 2
    assert (dist[0][1], dist[1][1]) == (2, 1)
    assert (dist[0][far], dist[1][far]) == (None, None)


def test_exact_length_walks_are_pinned():
    # every walk or refusal for m = 0..6 on WALK_GRAPHS, as generated by the
    # full two-parity search
    rows = []
    for g in WALK_GRAPHS:
        for u in range(g.n):
            for v in range(g.n):
                for m in range(7):
                    try:
                        rows.append(exact_length_walk(g, u, v, m))
                    except ValueError as exc:
                        rows.append(f"{type(exc).__name__}: {exc}")
    digest = hashlib.sha256(json.dumps(rows).encode()).hexdigest()
    assert digest == "55789ed13cc8fb3799fe8faf8be9fbc0a47d51ab1941c3929d2834de38a8463c"


def test_repositioning_single_lion_adjacent():
    g = build_tri_lattice(2, 3)
    steps = simultaneous_repositioning(g, (0,), (g.vertex_at(1, 2),))
    assert len(steps) == 1


def test_repositioning_bounce_when_already_in_place():
    g = build_tri_lattice(2, 2)
    pos = (0, 1, 2)
    steps = simultaneous_repositioning(g, pos, pos)
    assert len(steps) == 2
    tr = run(g, "caffeinated", pos, steps)
    assert tr.final().lions == pos


def test_repositioning_crossing_paths_arrive_together(rng):
    g = build_tri_lattice(3, 3)
    for _ in range(25):
        k = rng.randint(1, 4)
        starts = tuple(rng.randrange(g.n) for _ in range(k))
        targets = tuple(rng.randrange(g.n) for _ in range(k))
        steps = simultaneous_repositioning(g, starts, targets)
        tr = run(g, "caffeinated", starts, steps)  # run() validates caffeination
        assert tr.final().lions == targets


def random_bipartite_graph(rng):
    """Random connected bipartite graph: a random tree (two-colored by depth)
    plus extra edges between the color classes."""
    n = rng.randint(2, 10)
    color = [0] * n
    edges = set()
    for v in range(1, n):
        u = rng.randrange(v)
        color[v] = color[u] ^ 1
        edges.add((u, v))
    for _ in range(rng.randint(0, n)):
        u, v = rng.randrange(n), rng.randrange(n)
        if color[u] != color[v]:
            edges.add((min(u, v), max(u, v)))
    return make_graph(n, sorted(edges))


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2 ** 32), st.booleans())
def test_repositioning_length_is_least_common_walk_length(seed, bipartite):
    """The plan length is the least m at which the parity oracle gives every
    lion a walk of length exactly m (2 when no lion has to move); with no
    such m the lions' parities conflict."""
    rng = random.Random(seed)
    g = random_bipartite_graph(rng) if bipartite else random_connected_graph(rng, 2, 10)
    k = rng.randint(1, 4)
    starts = tuple(rng.randrange(g.n) for _ in range(k))
    targets = tuple(rng.randrange(g.n) for _ in range(k))
    oracles = [bfs_parity_oracle(g, s) for s in starts]

    def all_walk(m):
        return all(o.get((t, m % 2), m + 1) <= m for o, t in zip(oracles, targets))

    least = next((m for m in range(2 * g.n + 2) if all_walk(m)), None)
    if least is None:
        with pytest.raises(WalkParityError):
            simultaneous_repositioning(g, starts, targets)
        return
    steps = simultaneous_repositioning(g, starts, targets)
    assert len(steps) == (least or 2)
    assert run(g, "caffeinated", starts, steps).final().lions == targets


def test_repositioning_runs_one_bfs_per_lion(monkeypatch):
    calls = []
    real = strategies._parity_bfs

    def counting(g, u, target):
        calls.append(u)
        return real(g, u, target)

    monkeypatch.setattr(strategies, "_parity_bfs", counting)
    g = build_tri_lattice(3, 4)
    starts = (0, 5, 11, 7)
    simultaneous_repositioning(g, starts, wall_positions(3, 4))
    assert calls == list(starts)


@pytest.mark.parametrize("bad", [-1, 12])
def test_repositioning_rejects_vertices_off_the_graph(bad):
    g = build_tri_lattice(3, 4)  # vertices 0..11
    with pytest.raises(ValueError, match="not in graph"):
        simultaneous_repositioning(g, (0, bad), (1, 2))
    with pytest.raises(ValueError, match="not in graph"):
        simultaneous_repositioning(g, (0, 1), (bad, 2))


def test_repositioning_bipartite_parity_conflict():
    s2 = build_square_grid(2)  # a 4-cycle
    with pytest.raises(WalkParityError):
        # one lion needs an odd walk, the other an even one, forever
        simultaneous_repositioning(s2, (0, 0), (s2.vertex_at(1, 2), 0))


# Plans as generated while walks still came from a separate plain BFS, pinned:
# (n, l, starts, len(moves), formation_steps, formation moves).
PINNED_ROW_SWEEPS = [
    (1, 5, (3,), 7, 3, ((2,), (1,), (0,))),
    (3, 4, (11, 2, 6), 18, 9,
     ((7, -1, -1), (3, -1, -1), (2, -1, -1), (1, -1, -1), (0, -1, -1), (-1, 1, -1),
      (-1, 4, -1), (-1, -1, 5), (-1, -1, 8))),
    (4, 6, (23, 8, 17, 0), 38, 18,
     ((17, -1, -1, -1), (11, -1, -1, -1), (5, -1, -1, -1), (4, -1, -1, -1), (3, -1, -1, -1),
      (2, -1, -1, -1), (1, -1, -1, -1), (0, -1, -1, -1), (-1, 7, -1, -1), (-1, 6, -1, -1),
      (-1, -1, 16, -1), (-1, -1, 15, -1), (-1, -1, 14, -1), (-1, -1, 13, -1),
      (-1, -1, 12, -1), (-1, -1, -1, 6), (-1, -1, -1, 12), (-1, -1, -1, 18))),
]
PINNED_WALLS = [
    (1, 5, (4,), 8, 4, ((3,), (2,), (1,), (0,))),
    (3, 4, (11, 0, 7, 5), 12, 4,
     ((7, 1, 3, 1), (3, 0, 7, 5), (2, 1, 3, 6), (1, 5, 6, 9))),
    (4, 6, (23, 5, 12, 0, 18, 9), 17, 6,
     ((17, 4, 6, 1, 12, 3), (11, 5, 12, 0, 18, 9), (5, 4, 6, 1, 12, 3),
      (4, 5, 12, 2, 13, 9), (3, 4, 7, 8, 14, 14), (2, 3, 8, 14, 15, 20))),
]


@pytest.mark.parametrize("plan_fn, case", [(row_sweep_moves, c) for c in PINNED_ROW_SWEEPS]
                         + [(caffeinated_wall_moves, c) for c in PINNED_WALLS])
def test_plans_are_pinned(plan_fn, case):
    n, l, starts, total, formation_steps, formation = case
    plan = plan_fn(n, l, starts)
    assert (len(plan.moves), plan.formation_steps) == (total, formation_steps)
    assert plan.moves[:formation_steps] == formation


def _wall_grid():
    """Wall plans (or refusals) over a grid covering n = 1, even n, n = 1 mod 4
    (no extra substep) and n = 3 mod 4 (one extra), at l = 1, 2, 3 and more."""
    for n in (1, 2, 3, 4, 5, 6, 7, 9):
        for l in (1, 2, 3, 4, 7):
            rng = random.Random(100 * n + l)
            for _ in range(2):
                starts = tuple(rng.randrange(n * l) for _ in range((3 * n) // 2))
                try:
                    plan = caffeinated_wall_moves(n, l, starts)
                except ValueError as exc:
                    yield n, l, starts, None, str(exc)
                else:
                    yield n, l, starts, plan, None


def test_wall_plans_are_pinned_in_full():
    # one digest over every move of every plan, so a changed sweep move shows
    rows = [(n, l, starts, plan and (plan.formation_steps, plan.moves), err)
            for n, l, starts, plan, err in _wall_grid()]
    digest = hashlib.sha256(json.dumps(rows).encode()).hexdigest()
    assert digest == "472c3e0c7fc34aac37d4469dcd1f8ea47a4fcb01164a9e25e33c9978e0f84e53"


def test_planners_are_pinned_on_simulate_sized_grids():
    # row sweeps and wall plans (or refusals) on the R_{n,l} sizes of the
    # simulate benchmark, where the walks' searches stop furthest from
    # exhausting the grid; one digest over every move of every plan
    rows = []
    for n in (2, 5, 8, 11, 14):
        for l in (8, 20, 33, 44):
            rng = random.Random(100 * n + l)
            for plan_fn, lions in ((row_sweep_moves, n), (caffeinated_wall_moves, (3 * n) // 2)):
                for _ in range(2):
                    starts = tuple(rng.randrange(n * l) for _ in range(lions))
                    try:
                        plan = plan_fn(n, l, starts)
                    except ValueError as exc:
                        rows.append((n, l, starts, None, str(exc)))
                    else:
                        rows.append((n, l, starts, (plan.formation_steps, plan.moves), None))
    digest = hashlib.sha256(json.dumps(rows).encode()).hexdigest()
    assert digest == "2860a9d8a19739cebd3fa372d7a42455e6d5cdfbe9b337b40b44578cfea09b31"


def test_wall_lions_stay_on_distinct_vertices_after_formation():
    for n, l, starts, plan, _ in _wall_grid():
        if plan is not None:
            records = (starts, *plan.moves)
            for t in range(plan.formation_steps, len(records)):
                assert len(set(records[t])) == len(records[t]), (n, l, starts, t)


def test_row_sweep_requires_n_lions():
    with pytest.raises(ValueError):
        row_sweep_moves(3, 3, (0, 1))


def test_row_sweep_single_row():
    g = build_tri_lattice(1, 4)
    plan = row_sweep_moves(1, 4, (g.vertex_at(1, 1),))
    assert plan.formation_steps == 0
    assert len(plan.moves) == 3
    tr = run(g, "free", (0,), plan.moves)
    assert is_swept(tr, g) is not None


def test_row_sweep_from_formation_is_monotone_and_polite():
    g = build_tri_lattice(3, 3)
    starts = column_positions(3, 3)
    plan = row_sweep_moves(3, 3, starts)
    tr = run(g, "polite", starts, plan.moves)  # one lion moves at a time
    assert is_swept(tr, g) is not None
    assert is_monotone(tr)


def test_row_sweep_holds_until_the_gathering_debris_recontaminates():
    """On R_{2,3} from (5, 4) the gathering leaves vertex 5 cleared, so the
    formation ends with one hold step, after which the sweep is monotone."""
    g = build_tri_lattice(2, 3)
    plan = row_sweep_moves(2, 3, (5, 4))
    assert plan.formation_steps == 5
    assert plan.moves[4] == (STAY, STAY)
    tr = run(g, "free", (5, 4), plan.moves)
    assert 5 in tr.states[4].cleared
    suffix = Trace(tr.states[plan.formation_steps:], tr.moves[plan.formation_steps:])
    assert is_monotone(suffix)
    assert is_swept(tr, g) is not None


def test_row_sweep_arbitrary_starts(rng):
    g = build_tri_lattice(2, 5)
    for _ in range(10):
        starts = tuple(rng.randrange(g.n) for _ in range(2))
        plan = row_sweep_moves(2, 5, starts)
        tr = run(g, "free", starts, plan.moves)
        assert is_swept(tr, g) is not None
        suffix = Trace(tr.states[plan.formation_steps:], tr.moves[plan.formation_steps:])
        assert is_monotone(suffix)


def test_wall_lion_count_precondition():
    with pytest.raises(ValueError):
        caffeinated_wall_moves(3, 4, tuple(range(5)))  # needs exactly 4
    with pytest.raises(ValueError):
        caffeinated_wall_moves(2, 3, (0, 1))  # needs exactly 3


def test_wall_positions_shape():
    pos = wall_positions(5, 8)
    assert len(pos) == 7  # floor(15/2)
    g = build_tri_lattice(5, 8)
    cols = sorted(g.coord_of(v)[1] for v in pos)
    assert cols == [4, 4, 4, 4, 4, 5, 5]


def test_wall_positions_one_column():
    with pytest.raises(ValueError, match=r"R_\{n,1\} has one"):
        wall_positions(3, 1)
    assert wall_positions(1, 1) == (0,)


@pytest.mark.parametrize("n,l", [(2, 2), (2, 3), (3, 3), (3, 4), (4, 5), (5, 6)])
def test_wall_sweeps_and_stays_caffeinated(n, l, rng):
    g = build_tri_lattice(n, l)
    k = (3 * n) // 2
    starts = tuple(rng.randrange(g.n) for _ in range(k))
    plan = caffeinated_wall_moves(n, l, starts)
    state = initial_state(g, starts)
    for mv in plan.moves:
        assert validate_moves(g, "caffeinated", state, mv) == []
        state = step(g, state, mv)
    assert state.cleared == tuple(range(g.n))


def test_wall_single_row_is_a_walk():
    g = build_tri_lattice(1, 5)
    plan = caffeinated_wall_moves(1, 5, (g.vertex_at(1, 3),))
    tr = run(g, "caffeinated", (g.vertex_at(1, 3),), plan.moves)
    assert is_swept(tr, g) is not None


def test_naive_column_sweep_fails_with_recontamination():
    n, l = 3, 4
    g = build_tri_lattice(n, l)
    starts = column_positions(n, l)
    moves = naive_column_sweep_moves(n, l, 4 * n * l)
    tr = run(g, "caffeinated", starts, moves)
    assert is_swept(tr, g) is None
    assert any(not set(a.cleared) <= set(b.cleared) for a, b in zip(tr.states, tr.states[1:]))
