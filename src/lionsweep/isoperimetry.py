"""Fall-down transformation on the n x n vertex grid, exhaustive boundary
profiles, and the triangle packings with their conjecture reports.

The square grid S_n and the triangulated square R_n share one vertex set
here: index (r-1)*n + (c-1) for coordinate (r, c), row 1 at the bottom.
"Down" decreases the row, "left" decreases the column.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import isqrt
from typing import Iterator, Optional

from .errors import ResourceLimitError
from .graphs import (Graph, boundary, boundary_size_mask, build_square_grid,
                     build_tri_lattice, build_triangle, mask_vertices, vertex_mask)

SUBSET_BUDGET_BITS = 20  # every exhaustive enumeration visits at most 2^20 subsets


def _check_budget(what: str, bits: int) -> None:
    """Refuse an enumeration of 2^bits subsets over the budget, before it starts."""
    if bits > SUBSET_BUDGET_BITS:
        raise ResourceLimitError(f"{what} enumerates 2^{bits} subsets, "
                                 f"over the budget of 2^{SUBSET_BUDGET_BITS}")


def triangular(n: int) -> int:
    """The n-th triangular number n(n+1)/2."""
    if n < 0:
        raise ValueError("triangular numbers start at n = 0")
    return n * (n + 1) // 2


@lru_cache(maxsize=None)
def _grid_pair(n: int) -> tuple:
    """(S_n, R_n) on the shared vertex indexing."""
    return build_square_grid(n), build_tri_lattice(n, n)


@lru_cache(maxsize=None)
def _fill_tables(n: int):
    """Bitmask tables for the fall-down phases on the n x n grid."""
    def cells(rows, cols):
        return vertex_mask([(r - 1) * n + (c - 1) for r in rows for c in cols], n * n)

    sides = range(1, n + 1)
    col_mask = [cells(sides, [c]) for c in sides]
    row_mask = [cells([r], sides) for r in sides]
    col_fill = [[cells(range(1, cnt + 1), [c]) for cnt in range(n + 1)] for c in sides]
    row_fill_left = [[cells([r], range(1, cnt + 1)) for cnt in range(n + 1)] for r in sides]
    row_fill_right = [[cells([r], range(n - cnt + 1, n + 1)) for cnt in range(n + 1)]
                      for r in sides]
    return col_mask, row_mask, col_fill, row_fill_left, row_fill_right


def _fall_down_mask(n: int, mask: int, push_left: bool = True) -> int:
    col_mask, row_mask, col_fill, row_fill_left, row_fill_right = _fill_tables(n)
    dropped = 0
    for c in range(n):
        dropped |= col_fill[c][(mask & col_mask[c]).bit_count()]
    row_fill = row_fill_left if push_left else row_fill_right
    out = 0
    for r in range(n):
        out |= row_fill[r][(dropped & row_mask[r]).bit_count()]
    return out


def fall_down(n: int, s) -> frozenset:
    """Drop the subset down each column, then push each row to the left.

    Column counts are preserved by the first phase and row counts by the
    second, so the image has the same cardinality as s.
    """
    out = _fall_down_mask(n, vertex_mask(s, n * n), push_left=True)
    return frozenset(mask_vertices(out))


def boundary_in_both(n: int, s) -> tuple:
    """The boundary of s computed in S_n and in R_n, as a pair of sets."""
    sq, tri = _grid_pair(n)
    fs = frozenset(s)
    return boundary(sq, fs), boundary(tri, fs)


@dataclass(frozen=True)
class FallDownReport:
    """Exhaustive check of the two fall-down lemmas over every subset."""

    n: int
    subsets_checked: int
    monotone_violations: tuple  # subsets whose image gained boundary vertices
    boundary_match_violations: tuple  # images whose S_n and R_n boundaries differ

    @property
    def ok(self) -> bool:
        return not self.monotone_violations and not self.boundary_match_violations


def falldown_check(n: int) -> FallDownReport:
    """Check, over all 2^(n^2) subsets, that the down-left fall-down never
    increases the boundary count (in S_n nor in R_n) and that its image has
    identical boundary sets in the two graphs.

    Boundary counts suffice for the match: S_n's edges are a subset of
    R_n's on the shared indexing, so the S_n boundary is a subset of the R_n
    boundary, and the two sets are equal exactly when their sizes are.
    """
    _check_budget("fall-down check", n * n)
    sq, tri = _grid_pair(n)
    sq_adj, tri_adj = sq.neighbor_masks, tri.neighbor_masks
    mono_bad = []
    match_bad = []
    for mask in range(1 << (n * n)):
        image = _fall_down_mask(n, mask, push_left=True)
        b_sq = boundary_size_mask(sq_adj, image)
        b_tri = boundary_size_mask(tri_adj, image)
        if b_sq != b_tri:
            match_bad.append(mask)
        if b_sq > boundary_size_mask(sq_adj, mask) or b_tri > boundary_size_mask(tri_adj, mask):
            mono_bad.append(mask)
    return FallDownReport(n, 1 << (n * n),
                          tuple(frozenset(mask_vertices(m)) for m in mono_bad),
                          tuple(frozenset(mask_vertices(m)) for m in match_bad))


def falldown_mismatches(n: int, direction: str = "down-right") -> Iterator[tuple]:
    """Yield (s, image, boundary_in_Sn, boundary_in_Rn) for every subset whose
    transformed image has different boundary sets in S_n and R_n.  Compares
    boundary counts (see falldown_check); sets are built only for the yield."""
    if direction not in ("down-left", "down-right"):
        raise ValueError(f"unknown fall-down direction {direction!r}")
    _check_budget("fall-down scan", n * n)
    sq, tri = _grid_pair(n)
    sq_adj, tri_adj = sq.neighbor_masks, tri.neighbor_masks
    push_left = direction == "down-left"
    for mask in range(1 << (n * n)):
        image = _fall_down_mask(n, mask, push_left=push_left)
        if boundary_size_mask(sq_adj, image) != boundary_size_mask(tri_adj, image):
            image_set = frozenset(mask_vertices(image))
            yield (frozenset(mask_vertices(mask)), image_set, *boundary_in_both(n, image_set))


def falldown_counterexample_search(n: int, direction: str = "down-right") -> Optional[frozenset]:
    """First subset whose transformed image tells S_n and R_n apart, or None.

    Down-left finds nothing (the boundary-match lemma holds); down-right has
    witnesses from n = 4 on.
    """
    return next((s for s, *_ in falldown_mismatches(n, direction)), None)


@dataclass(frozen=True)
class IsoProfile:
    """Exact minimum boundary size per subset cardinality, with witnesses;
    witness[s] is the lexicographically smallest sorted minimizer of size s."""

    size_lo: int
    size_hi: int
    min_boundary: dict
    witness: dict


def iso_profile(g: Graph, size_lo: int, size_hi: int) -> IsoProfile:
    """Minimum |boundary(S)| over all S of each cardinality in [size_lo, size_hi],
    by full subset enumeration: the one enumeration cheeger_constant reduces over.

    Witnesses stay masks until the end.  Of two equal-size masks A and B, A is
    the lexicographically smaller sorted subset exactly when the lowest bit of
    A ^ B is in A, so the witness does not depend on the enumeration order.
    """
    _check_budget("profile", g.n)
    if not (0 <= size_lo <= size_hi <= g.n):
        raise ValueError("size range must satisfy 0 <= lo <= hi <= |V|")
    adj = g.neighbor_masks
    best: dict = {}
    witness_mask: dict = {}
    for mask in range(1 << g.n):
        s = mask.bit_count()
        if s < size_lo or s > size_hi:
            continue
        b = boundary_size_mask(adj, mask)
        cur = best.get(s)
        if cur is None or b < cur:
            best[s] = b
            witness_mask[s] = mask
        elif b == cur:
            diff = mask ^ witness_mask[s]
            if mask & diff & -diff:
                witness_mask[s] = mask
    witness = {s: frozenset(mask_vertices(m)) for s, m in witness_mask.items()}
    return IsoProfile(size_lo, size_hi, best, witness)


def packing(n: int, kind: str, count: int) -> frozenset:
    """The first `count` vertices of the canonical packing order on P_n.

    row: fill rows n, n-1, ... (bottom up), left to right within each row.
    ice_cream: fill the diagonals parallel to the right side, starting from
    the lower-left corner, lowest vertex of each diagonal first.
    """
    if kind not in ("row", "ice_cream"):
        raise ValueError(f"unknown packing kind {kind!r}")
    total = triangular(n)
    if not (0 <= count <= total):
        raise ValueError(f"packing size must be in 0..{total}")
    tri = build_triangle(n)
    order = []
    if kind == "row":
        for r in range(n, 0, -1):
            for i in range(1, r + 1):
                order.append(tri.vertex_at(r, i))
    else:
        for t in range(1, n + 1):
            # diagonal D_t = {(r, i) : r - i = n - t}, taken bottom-up
            for i in range(t, 0, -1):
                order.append(tri.vertex_at(n - t + i, i))
    return frozenset(order[:count])


@dataclass(frozen=True)
class ConjectureReport:
    """Per-cardinality comparison of the exhaustive minimum boundary against
    the two packings, plus the derived thresholds.  Reported, not asserted."""

    n: int
    rows: tuple  # (size, min_boundary, row_boundary, ice_boundary, holds)
    lion_threshold: int  # floor(n / (2*sqrt(2)))
    window_size: int  # T_{floor(sqrt(T_n))}
    window_threshold: int  # floor(n / sqrt(2))
    window_min_boundary: int

    @property
    def violations(self) -> tuple:
        return tuple(row for row in self.rows if not row[4])

    def to_csv(self) -> str:
        lines = ["size,min_boundary,row_packing_boundary,icecream_boundary,conjecture_holds"]
        for size, mb, rb, ib, holds in self.rows:
            lines.append(f"{size},{mb},{rb},{ib},{str(holds).lower()}")
        return "\n".join(lines) + "\n"


def conjecture_report(n: int) -> ConjectureReport:
    """Exhaustively compare min |boundary| on P_n against the packings for
    every cardinality, and evaluate the conjectured thresholds."""
    if n < 1:
        raise ValueError("conjecture report needs n >= 1")
    _check_budget("conjecture report", triangular(n))
    tri = build_triangle(n)
    total = triangular(n)
    profile = iso_profile(tri, 0, total)
    rows = []
    for size in range(total + 1):
        mb = profile.min_boundary[size]
        rb = len(boundary(tri, packing(n, "row", size)))
        ib = len(boundary(tri, packing(n, "ice_cream", size)))
        rows.append((size, mb, rb, ib, mb >= min(rb, ib)))
    # floor(n/sqrt(2)) = isqrt(n^2/2) and floor(n/(2 sqrt 2)) = isqrt(n^2/8), exactly
    window_size = triangular(isqrt(total))
    return ConjectureReport(
        n=n,
        rows=tuple(rows),
        lion_threshold=isqrt(n * n // 8),
        window_size=window_size,
        window_threshold=isqrt(n * n // 2),
        window_min_boundary=profile.min_boundary[window_size],
    )

