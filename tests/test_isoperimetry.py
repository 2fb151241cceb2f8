import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from lionsweep import isoperimetry
from lionsweep.cheeger import cheeger_constant
from lionsweep.errors import ResourceLimitError
from lionsweep.graphs import boundary, build_tri_lattice, build_triangle
from lionsweep.isoperimetry import (boundary_in_both, conjecture_report, fall_down,
                                    falldown_check, falldown_counterexample_search,
                                    falldown_mismatches, iso_profile, packing,
                                    triangular)


def coords_set(n, pairs):
    return frozenset((r - 1) * n + (c - 1) for r, c in pairs)


def test_triangular_numbers():
    assert triangular(0) == 0
    assert triangular(5) == 15
    assert triangular(6) == 21


def test_fall_down_examples():
    full = frozenset(range(9))
    assert fall_down(3, full) == full
    assert fall_down(3, coords_set(3, [(2, 2)])) == coords_set(3, [(1, 1)])
    col3 = coords_set(3, [(1, 3), (2, 3), (3, 3)])
    assert fall_down(3, col3) == coords_set(3, [(1, 1), (2, 1), (3, 1)])
    with pytest.raises(ValueError):
        fall_down(3, {81})


@given(st.integers(0, 2 ** 9 - 1))
def test_fall_down_preserves_cardinality_3x3(mask):
    s = frozenset(v for v in range(9) if mask >> v & 1)
    assert len(fall_down(3, s)) == len(s)


@given(st.integers(0, 2 ** 25 - 1))
def test_fall_down_preserves_cardinality_5x5(mask):
    s = frozenset(v for v in range(25) if mask >> v & 1)
    assert len(fall_down(5, s)) == len(s)


def test_boundary_in_both_examples():
    assert boundary_in_both(3, frozenset()) == (frozenset(), frozenset())
    full = frozenset(range(9))
    assert boundary_in_both(3, full) == (frozenset(), frozenset())
    # R_n has strictly more edges, so its boundary can only be larger
    for mask in range(2 ** 9):
        s = frozenset(v for v in range(9) if mask >> v & 1)
        b_sq, b_tri = boundary_in_both(3, s)
        assert b_sq <= b_tri


def test_falldown_check_n3():
    report = falldown_check(3)
    assert report.subsets_checked == 512
    assert report.ok


def test_falldown_counterexample_down_left_none():
    assert falldown_counterexample_search(3, "down-left") is None


def test_falldown_counterexample_down_right_degenerate():
    assert falldown_counterexample_search(1, "down-right") is None


def test_falldown_down_right_witness_exists_n4():
    witness = falldown_counterexample_search(4, "down-right")
    assert witness is not None


def test_falldown_limits():
    with pytest.raises(ResourceLimitError):
        falldown_check(5)
    with pytest.raises(ResourceLimitError):
        next(falldown_mismatches(5, "down-right"))
    with pytest.raises(ValueError):
        next(falldown_mismatches(3, "sideways"))


def test_iso_profile_singleton():
    g = build_triangle(3)
    prof = iso_profile(g, 1, 1)
    assert prof.min_boundary[1] == 1
    w = prof.witness[1]
    assert len(boundary(g, w)) == 1


def test_iso_profile_matches_combination_oracle():
    g = build_triangle(3)  # 6 vertices
    prof = iso_profile(g, 0, 6)
    for size in range(7):
        combos = list(itertools.combinations(range(6), size))  # lexicographic order
        sizes = [len(boundary(g, frozenset(c))) for c in combos]
        best = min(sizes)
        assert prof.min_boundary[size] == best
        # the witness is the first minimal tuple, i.e. the lexicographically smallest
        assert tuple(sorted(prof.witness[size])) == combos[sizes.index(best)]


def test_iso_profile_limit():
    with pytest.raises(ResourceLimitError):
        iso_profile(build_triangle(7), 0, 1)  # 28 vertices


def test_one_subset_budget_edges(monkeypatch):
    """Every enumeration may visit 2^20 subsets and no more: |V| <= 20 for the
    profile and Cheeger, n <= 4 for fall-down (2^16 and 2^25 subsets), n <= 5
    for the conjecture report (T_5 = 15, T_6 = 21).  Over-budget calls are
    refused before a single subset is visited."""
    def visited(*args):
        raise AssertionError("a subset was enumerated past the budget")

    monkeypatch.setattr(isoperimetry, "boundary_size_mask", visited)
    with pytest.raises(ResourceLimitError):
        falldown_check(5)
    with pytest.raises(ResourceLimitError):
        next(falldown_mismatches(5))
    with pytest.raises(ResourceLimitError):
        conjecture_report(6)
    r37 = build_tri_lattice(3, 7)  # 21 vertices
    with pytest.raises(ResourceLimitError):
        iso_profile(r37, 0, 0)
    with pytest.raises(ResourceLimitError):
        cheeger_constant(r37)
    monkeypatch.undo()
    assert iso_profile(build_tri_lattice(4, 5), 0, 0).min_boundary == {0: 0}  # 20 vertices


def test_packing_examples():
    tri = build_triangle(6)
    row13 = {tri.coord_of(v) for v in packing(6, "row", 13)}
    assert row13 == {(6, i) for i in range(1, 7)} | {(5, i) for i in range(1, 6)} \
        | {(4, 1), (4, 2)}
    ice13 = {tri.coord_of(v) for v in packing(6, "ice_cream", 13)}
    d1_to_d4 = {(r, i) for r in range(1, 7) for i in range(1, r + 1) if r - i >= 2}
    assert ice13 == d1_to_d4 | {(6, 5), (5, 4), (4, 3)}
    assert packing(4, "row", 0) == frozenset()
    assert len(packing(4, "ice_cream", 10)) == 10
    with pytest.raises(ValueError):
        packing(4, "row", 11)
    with pytest.raises(ValueError):
        packing(4, "spiral", 3)


def test_packing_prefixes_nest():
    for kind in ("row", "ice_cream"):
        prev = frozenset()
        for count in range(triangular(5) + 1):
            cur = packing(5, kind, count)
            assert prev < cur or count == 0
            prev = cur


@pytest.mark.parametrize("n", range(2, 7))
def test_icecream_boundary_nondecreasing_until_last_diagonal(n):
    """Proof-sketch check: while the final diagonal of P_n is still empty,
    adding vertices never shrinks the ice-cream packing boundary."""
    tri = build_triangle(n)
    for s in range(triangular(n - 1)):
        b0 = len(boundary(tri, packing(n, "ice_cream", s)))
        b1 = len(boundary(tri, packing(n, "ice_cream", s + 1)))
        assert b1 >= b0


@pytest.mark.parametrize("n", range(2, 7))
def test_icecream_boundary_of_full_diagonals(n):
    """An ice-cream packing of T_t vertices has boundary about t: exactly the
    still-exposed vertices of its last diagonal."""
    tri = build_triangle(n)
    for t in range(1, n):
        b = len(boundary(tri, packing(n, "ice_cream", triangular(t))))
        assert t - 1 <= b <= t


@pytest.mark.parametrize("n", range(2, 7))
def test_row_boundary_nonincreasing_after_bottom_row(n):
    tri = build_triangle(n)
    total = triangular(n)
    for s in range(n, total):
        b0 = len(boundary(tri, packing(n, "row", s)))
        b1 = len(boundary(tri, packing(n, "row", s + 1)))
        assert b1 <= b0


def test_conjecture_report_small():
    rep = conjecture_report(2)
    assert len(rep.rows) == 4  # sizes 0..3
    assert not rep.violations
    csv = rep.to_csv()
    assert csv.splitlines()[0] == \
        "size,min_boundary,row_packing_boundary,icecream_boundary,conjecture_holds"


def test_conjecture_thresholds():
    assert conjecture_report(4).lion_threshold == 1  # floor(4 / (2*sqrt(2)))
    rep5 = conjecture_report(5)
    assert rep5.window_size == 6  # T_floor(sqrt(15)) = T_3
    assert rep5.window_threshold == 3  # floor(5/sqrt(2))
    with pytest.raises(ResourceLimitError):
        conjecture_report(6)
