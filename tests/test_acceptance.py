"""Acceptance suite: one test per criterion, each printing a PASS line.

Run as:  pytest tests/test_acceptance.py -v -s
"""
import random
import time
from collections import deque
from pathlib import Path

from lionsweep.cheeger import cheeger_constant, lion_bound, polite_lion_bound
from lionsweep.dynamics import (Trace, initial_state, is_monotone, is_swept, run,
                                step, validate_moves)
from lionsweep.errors import WalkParityError
from lionsweep.graphs import (boundary, build_circulant, build_square_grid,
                              build_tri_lattice, build_triangle)
from lionsweep.isoperimetry import (conjecture_report, falldown_check,
                                    falldown_mismatches, iso_profile)
from lionsweep.search import SearchLimits, can_clear, min_lions
from lionsweep.strategies import (caffeinated_wall_moves, column_positions,
                                  exact_length_walk, naive_column_sweep_moves,
                                  row_sweep_moves)

from conftest import random_connected_graph

DATA = Path(__file__).parent / "data"


def _passed(num, label, elapsed=None):
    suffix = f" [{elapsed:.1f}s]" if elapsed is not None else ""
    print(f"ACCEPTANCE {num} ({label}): PASS{suffix}")


def test_criterion_01_row_sweep_sufficiency():
    rng = random.Random(41)
    t0 = time.monotonic()
    for n in range(2, 9):
        for l in range(2, 9):
            g = build_tri_lattice(n, l)
            starts = tuple(rng.randrange(g.n) for _ in range(n))
            plan = row_sweep_moves(n, l, starts)
            tr = run(g, "free", starts, plan.moves)
            assert is_swept(tr, g) is not None, (n, l)
            suffix = Trace(tr.states[plan.formation_steps:],
                           tr.moves[plan.formation_steps:])
            assert is_monotone(suffix), (n, l)
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    _passed(1, "n lions sweep R_{n,l}, monotone after formation", elapsed)


def test_criterion_02_caffeinated_wall_sufficiency():
    rng = random.Random(42)
    t0 = time.monotonic()
    for n in (2, 3, 4, 5):
        for l in range(n, 9):
            g = build_tri_lattice(n, l)
            k = (3 * n) // 2
            starts = tuple(rng.randrange(g.n) for _ in range(k))
            plan = caffeinated_wall_moves(n, l, starts)
            state = initial_state(g, starts)
            for mv in plan.moves:
                assert validate_moves(g, "caffeinated", state, mv) == [], (n, l)
                state = step(g, state, mv)
            assert state.cleared == frozenset(range(g.n)), (n, l)
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0
    _passed(2, "floor(3n/2) caffeinated lions sweep R_{n,l}", elapsed)


def test_criterion_03_naive_caffeinated_column_fails():
    for n in (2, 3):
        for l in (3, 4, 5):
            g = build_tri_lattice(n, l)
            starts = column_positions(n, l)
            moves = naive_column_sweep_moves(n, l, 4 * n * l)
            tr = run(g, "caffeinated", starts, moves)
            assert is_swept(tr, g) is None, (n, l)
            recontaminated = any(not a.cleared <= b.cleared
                                 for a, b in zip(tr.states, tr.states[1:]))
            assert recontaminated, (n, l)
    _passed(3, "naive caffeinated column never sweeps and recontaminates")


def test_criterion_04_exact_search_half_n_insufficient():
    t0 = time.monotonic()
    limits = SearchLimits(max_states=10 ** 7)
    r2 = build_tri_lattice(2, 2)
    r3 = build_tri_lattice(3, 3)
    v = can_clear(r2, 1, "free", "canonical", limits)
    assert v.status == "impossible" and v.states_explored <= 10 ** 7
    v = can_clear(r3, 1, "free", "canonical", limits)
    assert v.status == "impossible" and v.states_explored <= 10 ** 7
    v = can_clear(r2, 2, "free", "canonical", limits)
    assert v.status == "cleared"
    assert is_swept(v.trace, r2) is not None
    result = min_lions(r2, "free", 3, limits)
    assert (result.verdict.status, result.k) == ("cleared", 2)
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    _passed(4, "floor(n/2) lions provably insufficient on R_2, R_3", elapsed)


def test_criterion_05_growth_lemmas_on_random_traces():
    rng = random.Random(43)
    t0 = time.monotonic()
    checked = 0
    for _ in range(1000):
        g = random_connected_graph(rng, 2, 12)
        k = rng.randint(0, 3)
        lions = tuple(rng.randrange(g.n) for _ in range(k))
        state = initial_state(g, lions)
        for _ in range(rng.randint(1, 30)):
            mv = tuple(rng.choice([-1] + sorted(g.adj[p])) for p in state.lions)
            nxt = step(g, state, mv)
            growth = len(nxt.cleared) - len(state.cleared)
            assert growth <= k
            if k > 0 and len(boundary(g, state.cleared)) >= 2 * k:
                assert growth <= 0
            state = nxt
            checked += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    _passed(5, f"growth lemmas hold over 1000 traces ({checked} steps)", elapsed)


def test_criterion_06_falldown_suite():
    t0 = time.monotonic()
    for n in (3, 4):
        report = falldown_check(n)
        assert report.subsets_checked == 1 << (n * n)
        assert report.monotone_violations == ()
        assert report.boundary_match_violations == ()
    found_3v4_witness = False
    for _s, _img, b_sq, b_tri in falldown_mismatches(4):
        if len(b_sq) == 3 and len(b_tri) == 4:
            found_3v4_witness = True
            break
    assert found_3v4_witness
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    _passed(6, "fall-down lemmas exhaustive; down-right 3-vs-4 witness", elapsed)


def test_criterion_07_lemma5_exhaustive():
    for n in (3, 4):
        g = build_tri_lattice(n, n)
        # window: n^2/2 - n/2 < |S| < n^2/2 + n/2; both ends are integers
        lo = n * (n - 1) // 2 + 1
        hi = n * (n + 1) // 2 - 1
        profile = iso_profile(g)
        for size in range(lo, hi + 1):
            assert profile.min_boundary[size] >= n, (n, size)
    _passed(7, "mid-size subsets of R_n have >= n boundary vertices")


def test_criterion_08_cheeger_and_bound_cross_check():
    t0 = time.monotonic()
    assert cheeger_constant(build_circulant(5, 2)).value == 1

    from lionsweep.graphs import make_graph
    disconnected = make_graph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
    assert cheeger_constant(disconnected).value == 0

    # independent second brute force for C_6
    import itertools
    from fractions import Fraction
    c6 = build_circulant(6, 1)
    oracle = min(Fraction(len(boundary(c6, frozenset(c))), min(s, 6 - s))
                 for s in range(1, 6)
                 for c in itertools.combinations(range(6), s))
    assert cheeger_constant(c6).value == oracle == Fraction(2, 3)

    corpus = [build_square_grid(2), build_square_grid(3),
              build_tri_lattice(2, 2), build_tri_lattice(2, 3),
              build_tri_lattice(2, 4), build_tri_lattice(3, 3),
              build_tri_lattice(3, 2), build_tri_lattice(1, 5),
              build_tri_lattice(1, 8),
              build_triangle(2), build_triangle(3), build_triangle(4),
              build_circulant(4, 1), build_circulant(4, 2),
              build_circulant(5, 1), build_circulant(5, 2),
              build_circulant(6, 1), build_circulant(6, 2),
              build_circulant(6, 3), build_circulant(7, 1),
              build_circulant(7, 2), build_circulant(8, 1)]
    assert len(corpus) >= 20
    assert all(g.n <= 10 for g in corpus)
    checked_free = checked_polite = 0
    for g in corpus:
        g_val = cheeger_constant(g).value
        result = min_lions(g, "free", 6)
        if result.verdict.status == "cleared":
            assert result.k > lion_bound(g_val, g.n), g.adj
            checked_free += 1
        if g.n <= 6:
            result = min_lions(g, "polite", 6)
            if result.verdict.status == "cleared":
                assert result.k > polite_lion_bound(g_val, g.n), g.adj
                checked_polite += 1
    assert checked_free >= 20
    assert checked_polite >= 10
    elapsed = time.monotonic() - t0
    _passed(8, f"bounds never contradicted ({checked_free} free, "
               f"{checked_polite} polite searches)", elapsed)


def test_criterion_09_conjecture_reports_match_fixtures():
    t0 = time.monotonic()
    for n in (2, 3, 4, 5):
        report = conjecture_report(n)
        assert len(report.rows) == n * (n + 1) // 2 + 1  # every cardinality
        fixture = (DATA / f"conjecture_n{n}.csv").read_text()
        assert report.to_csv() == fixture
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    _passed(9, "conjecture reports complete and match committed fixtures", elapsed)


def test_criterion_10_walk_planner():
    rng = random.Random(44)
    r3 = build_tri_lattice(3, 3)

    def bfs_parity(g, u):
        dist = {(u, 0): 0}
        queue = deque([(u, 0)])
        while queue:
            v, p = queue.popleft()
            for w in g.adj[v]:
                if (w, p ^ 1) not in dist:
                    dist[(w, p ^ 1)] = dist[(v, p)] + 1
                    queue.append((w, p ^ 1))
        return dist

    shortest = {u: bfs_parity(r3, u) for u in range(r3.n)}
    cases = 0
    while cases < 200:
        u, v = rng.randrange(9), rng.randrange(9)
        if u == v:
            continue
        m_min = min(d for (w, _p), d in shortest[u].items() if w == v)
        m = m_min + rng.randrange(0, 8)
        walk = exact_length_walk(r3, u, v, m)
        assert walk[0] == u and walk[-1] == v and len(walk) - 1 == m
        assert all(b in r3.adj[a] for a, b in zip(walk, walk[1:]))
        cases += 1

    s3 = build_square_grid(3)
    oracle = {u: bfs_parity(s3, u) for u in range(s3.n)}
    parity_rejections = 0
    for _ in range(200):
        u, v = rng.randrange(9), rng.randrange(9)
        m = rng.randrange(0, 8)
        d = oracle[u].get((v, m % 2))
        if d is not None and d <= m:
            walk = exact_length_walk(s3, u, v, m)
            assert len(walk) - 1 == m
        elif d is None:  # bipartite parity mismatch
            try:
                exact_length_walk(s3, u, v, m)
                raise AssertionError("parity-infeasible request succeeded")
            except WalkParityError:
                parity_rejections += 1
    assert parity_rejections > 0
    _passed(10, "exact-length walks match the parity oracle")
