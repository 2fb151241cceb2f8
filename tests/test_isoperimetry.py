import functools
import hashlib
import itertools
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import dense_shuffled_graph, small_graphs
from lionsweep import isoperimetry
from lionsweep.cheeger import cheeger_constant
from lionsweep.errors import ResourceLimitError
from lionsweep.graphs import (boundary, build_circulant, build_tri_lattice, build_triangle,
                              make_graph)
from lionsweep.isoperimetry import (conjecture_report, fall_down, falldown_check,
                                    falldown_mismatches, iso_profile, packing, triangular)


def grid_pair_boundaries(n, s):
    """The boundary of s in S_n and in R_n, as a pair of sets."""
    sq, tri = isoperimetry._grid_pair(n)
    return boundary(sq, s), boundary(tri, s)


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
    assert grid_pair_boundaries(3, frozenset()) == (frozenset(), frozenset())
    full = frozenset(range(9))
    assert grid_pair_boundaries(3, full) == (frozenset(), frozenset())
    # R_n has strictly more edges, so its boundary can only be larger
    for mask in range(2 ** 9):
        s = frozenset(v for v in range(9) if mask >> v & 1)
        b_sq, b_tri = grid_pair_boundaries(3, s)
        assert b_sq <= b_tri


def test_falldown_check_n3():
    report = falldown_check(3)
    assert report.subsets_checked == 512
    assert report.ok


def test_falldown_counterexample_down_right_degenerate():
    assert next(falldown_mismatches(1), None) is None


def test_falldown_down_right_witness_n2():
    # S = {0, 1, 2} falls to {0, 1, 3}; R_2's diagonal (1, 2) puts 1 on its boundary
    assert next(falldown_mismatches(2)) == (frozenset({0, 1, 2}), frozenset({0, 1, 3}),
                                            frozenset({0, 3}), frozenset({0, 1, 3}))


def test_falldown_down_right_witness_exists_n4():
    assert next(falldown_mismatches(4), None) is not None


def two_phase_fall_down(n, s, push_left=True):
    """The fall-down as defined: drop each column of s to the bottom, then
    push each row to the left (or to the right)."""
    cells = {(v // n + 1, v % n + 1) for v in s}
    dropped = set()
    for c in range(1, n + 1):
        height = sum(1 for _, col in cells if col == c)
        dropped |= {(r, c) for r in range(1, height + 1)}
    out = set()
    for r in range(1, n + 1):
        width = sum(1 for row, _ in dropped if row == r)
        cols = range(1, width + 1) if push_left else range(n - width + 1, n + 1)
        out |= {(r, c) for c in cols}
    return coords_set(n, out)


def subsets(n):
    return [frozenset(v for v in range(n * n) if mask >> v & 1) for mask in range(1 << (n * n))]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_fall_down_images_match_the_two_phase_definition(n):
    """Every subset for n <= 3: fall_down is the down-left image, and the
    mismatch stream is every subset, in mask order, whose down-right image
    has different boundaries in S_n and R_n."""
    want = []
    for s in subsets(n):
        assert fall_down(n, s) == two_phase_fall_down(n, s)
        image = two_phase_fall_down(n, s, push_left=False)
        b_sq, b_tri = grid_pair_boundaries(n, image)
        if b_sq != b_tri:
            want.append((s, image, b_sq, b_tri))
    assert list(falldown_mismatches(n)) == want


@functools.lru_cache(maxsize=None)
def mismatch_images(n):
    return {s: image for s, image, _, _ in falldown_mismatches(n)}


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([4, 5]).flatmap(
    lambda n: st.tuples(st.just(n), st.integers(0, 2 ** (n * n) - 1))))
def test_fall_down_images_match_the_two_phase_definition_n4_n5(case):
    n, mask = case
    s = frozenset(v for v in range(n * n) if mask >> v & 1)
    assert fall_down(n, s) == two_phase_fall_down(n, s)
    if n == 4:
        image = two_phase_fall_down(n, s, push_left=False)
        b_sq, b_tri = grid_pair_boundaries(n, image)
        assert mismatch_images(n).get(s) == (image if b_sq != b_tri else None)


def digest(rows):
    h = hashlib.sha256()
    for row in rows:
        h.update(repr(row).encode() + b"\n")
    return h.hexdigest()


def report_digest(report):
    return digest([report.subsets_checked,
                   [sorted(s) for s in report.monotone_violations],
                   [sorted(s) for s in report.boundary_match_violations]])


@pytest.mark.parametrize("n, mismatches, images, check_sha, stream_sha", [
    (1, 0, 0, "5c5d81fd368ef67761cfc60d04577bfdbdf571dd45819daa3349912bab8f3f53",
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (2, 4, 1, "074e94773d70202c32c4facd4f0e7c11c24fa29157b3cfccd17590ae6f740be9",
     "7ec01bbfeac56f8b65f73133dfc993d09a3f06bf415a640e749f71313d92bd08"),
    (3, 378, 10, "2e3eb6f2a749e71e57210fd68d9c6266eaffb0be5f3ea37e6d86d851aeeaef15",
     "eb7e621330b10e44accfd09d6a908cddebf021a362b57eca7ff65e56cb4a93b5"),
    (4, 61872, 53, "cc333f935f19a16b56eb6e32b10f66959f3efdcaf7b6d06c8224c561d0a5b5fb",
     "6da48a410dbbe3b88467fc53b1d7e52885815b24bcb671b8dbb0397d103f89b4"),
])
def test_falldown_outputs_are_pinned(n, mismatches, images, check_sha, stream_sha):
    """sha256 of falldown_check(n) and of the whole falldown_mismatches(n)
    stream, in order, for n = 1-4."""
    assert report_digest(falldown_check(n)) == check_sha
    stream = list(falldown_mismatches(n))
    assert (len(stream), len({image for _, image, _, _ in stream})) == (mismatches, images)
    assert digest([sorted(x) for x in row] for row in stream) == stream_sha


@pytest.mark.parametrize("n, monotone, match, sha", [
    (2, 2, 4, "5c546aea5d81c0008100e7f2ec2586344462ba78be3d30b2bd8144e35557ea2f"),
    (3, 34, 378, "83ad4eea769d2e9021eb6b5df83232126117ce0a918bf42c4a1aa2685dc711e1"),
    (4, 739, 61872, "289a1d9773d37dab2c3a249111c19cd3a3193e092f32556e780d006ee45b86e3"),
])
def test_falldown_check_reports_the_down_right_violations(monkeypatch, n, monotone, match, sha):
    """With the down-right image forced in, falldown_check lists violations:
    every down-right mismatch, and the subsets whose image gained boundary."""
    image = isoperimetry._fall_down_image
    monkeypatch.setattr(isoperimetry, "_fall_down_image",
                        lambda n, counts, push_left: image(n, counts, False))
    report = falldown_check(n)
    assert not report.ok
    assert (len(report.monotone_violations), len(report.boundary_match_violations)) == \
        (monotone, match)
    assert report_digest(report) == sha
    assert report.boundary_match_violations == tuple(s for s, *_ in falldown_mismatches(n))


@pytest.mark.parametrize("n", [0, -3, -5])
def test_fall_down_refuses_n_below_1(n):
    with pytest.raises(ValueError, match="fall-down needs n >= 1"):
        fall_down(n, {0, 1})
    with pytest.raises(ValueError, match="fall-down check needs n >= 1"):
        falldown_check(n)
    with pytest.raises(ValueError, match="fall-down scan needs n >= 1"):
        next(falldown_mismatches(n))


def test_falldown_limits():
    with pytest.raises(ResourceLimitError):
        falldown_check(5)
    with pytest.raises(ResourceLimitError):
        next(falldown_mismatches(5))


def test_iso_profile_singleton():
    g = build_triangle(3)
    prof = iso_profile(g)
    assert prof.min_boundary[1] == 1
    w = prof.witness[1]
    assert len(boundary(g, w)) == 1


def test_iso_profile_matches_combination_oracle():
    g = build_triangle(3)  # 6 vertices
    prof = iso_profile(g)
    for size in range(7):
        combos = list(itertools.combinations(range(6), size))  # lexicographic order
        sizes = [len(boundary(g, frozenset(c))) for c in combos]
        best = min(sizes)
        assert prof.min_boundary[size] == best
        # the witness is the first minimal tuple, i.e. the lexicographically smallest
        assert tuple(sorted(prof.witness[size])) == combos[sizes.index(best)]


@settings(max_examples=80, deadline=None)
@given(small_graphs())
def test_iso_profile_matches_combination_oracle_on_random_graphs(g):
    prof = iso_profile(g)
    assert sorted(prof.min_boundary) == sorted(prof.witness) == list(range(g.n + 1))
    for size in range(g.n + 1):
        combos = list(itertools.combinations(range(g.n), size))
        sizes = [len(boundary(g, frozenset(c))) for c in combos]
        best = min(sizes)
        assert prof.min_boundary[size] == best
        assert tuple(sorted(prof.witness[size])) == combos[sizes.index(best)]


@settings(max_examples=60, deadline=None)
@given(small_graphs(max_n=16), st.randoms(use_true_random=False))
def test_iso_profile_values_do_not_depend_on_labels(g, rnd):
    """Relabelling changes the decision order, not the minimum boundaries."""
    perm = list(range(g.n))
    rnd.shuffle(perm)
    relabelled = make_graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])
    prof = iso_profile(g)
    prof2 = iso_profile(relabelled)
    assert prof2.min_boundary == prof.min_boundary
    for size, w in prof2.witness.items():
        assert len(w) == size and len(boundary(relabelled, w)) == prof.min_boundary[size]


@pytest.mark.parametrize("n, value", [(5, Fraction(2, 5)), (6, Fraction(1, 3))])
def test_cheeger_of_large_tri_lattices(n, value):
    """Graphs with more than 2^20 subsets: R_{5,5} (25 vertices) and R_{6,6} (36)."""
    g = build_tri_lattice(n, n)
    res = cheeger_constant(g)
    assert res.value == value
    size = len(res.witness)
    assert Fraction(len(boundary(g, res.witness)), min(size, g.n - size)) == value


def test_conjecture_report_n6_matches_brute_force_fixture():
    """tests/data/conjecture_n6.csv was written once by a full enumeration of
    the 2^21 subsets of P_6."""
    fixture = Path(__file__).parent / "data" / "conjecture_n6.csv"
    assert conjecture_report(6).to_csv() == fixture.read_text()


def test_iso_profile_limit():
    g = dense_shuffled_graph(seed=1)
    with pytest.raises(ResourceLimitError, match=r"active width \d+, a layer of up to \d+ entries"):
        iso_profile(g)


def test_one_subset_budget_edges(monkeypatch):
    """Fall-down may visit 2^20 subsets and no more: n <= 4 (2^16; n = 5 is
    2^25).  A profile DP layer may hold 2^20 entries: every graph of at most
    20 vertices, R_{8,8} and P_9 fit; R_{9,9}, P_10 and a dense 24-vertex
    graph do not.  Over-budget calls are refused before a single subset is
    visited or a DP layer is built."""
    def worked(*args):
        raise AssertionError("work was done past the budget")

    monkeypatch.setattr(isoperimetry, "boundary_size_mask", worked)
    monkeypatch.setattr(isoperimetry, "_profile_layer", worked)
    with pytest.raises(ResourceLimitError):
        falldown_check(5)
    with pytest.raises(ResourceLimitError):
        next(falldown_mismatches(5))
    with pytest.raises(ResourceLimitError):
        conjecture_report(10)  # P_10, 55 vertices
    dense = dense_shuffled_graph(seed=2)
    with pytest.raises(ResourceLimitError):
        iso_profile(dense)
    with pytest.raises(ResourceLimitError):
        cheeger_constant(dense)
    with pytest.raises(ResourceLimitError):
        iso_profile(build_tri_lattice(9, 9))
    monkeypatch.undo()
    isoperimetry._profile_plan(build_tri_lattice(8, 8))
    isoperimetry._profile_plan(build_triangle(9))
    k20 = build_circulant(20, 10)  # the complete graph K_20
    assert iso_profile(k20).min_boundary == {s: s if 0 < s < 20 else 0 for s in range(21)}
    for g in (dense_shuffled_graph(seed=3, n=20), build_tri_lattice(4, 5)):  # 20 vertices
        prof = iso_profile(g)
        assert sorted(prof.min_boundary) == list(range(21))
        assert prof.min_boundary[0] == prof.min_boundary[20] == 0


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
        conjecture_report(10)
