"""Fall-down transformation on the n x n vertex grid, exact boundary
profiles, and the triangle packings with their conjecture reports.

The square grid S_n and the triangulated square R_n share one vertex set
here: index (r-1)*n + (c-1) for coordinate (r, c), row 1 at the bottom.
"Down" decreases the row, "left" decreases the column.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import isqrt
from typing import Iterator

from .errors import ResourceLimitError
from .graphs import (Graph, boundary, boundary_size_mask, build_square_grid,
                     build_tri_lattice, build_triangle, mask_vertices, vertex_mask)

# Fall-down visits at most 2^20 subsets; a profile DP layer holds at most 2^20 entries.
# The budget counts entries, not bytes: a layer of 2^20 entries costs about 100 MB of RSS.
SUBSET_BUDGET_BITS = 20


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


def _fall_down_mask(n: int, mask: int, push_left: bool) -> int:
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

    subsets_checked: int
    monotone_violations: tuple  # subsets whose image gained boundary vertices
    boundary_match_violations: tuple  # subsets whose image has differing S_n and R_n boundaries

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
    image_counts = {}  # image -> its boundary counts in S_n and R_n; 70 images for n = 4
    for mask in range(1 << (n * n)):
        image = _fall_down_mask(n, mask, push_left=True)
        counts = image_counts.get(image)
        if counts is None:
            counts = image_counts[image] = (boundary_size_mask(sq_adj, image),
                                            boundary_size_mask(tri_adj, image))
        b_sq, b_tri = counts
        if b_sq != b_tri:
            match_bad.append(mask)
        if b_sq > boundary_size_mask(sq_adj, mask) or b_tri > boundary_size_mask(tri_adj, mask):
            mono_bad.append(mask)
    return FallDownReport(1 << (n * n),
                          tuple(frozenset(mask_vertices(m)) for m in mono_bad),
                          tuple(frozenset(mask_vertices(m)) for m in match_bad))


def falldown_mismatches(n: int) -> Iterator[tuple]:
    """Yield (s, image, boundary_in_Sn, boundary_in_Rn) for every subset whose
    down-right image (columns dropped, rows pushed right) has different
    boundary sets in S_n and R_n.  There are some from n = 2 on: in R_2,
    S = {0, 1, 2} maps to {0, 1, 3}, whose boundary is {0, 3} in S_2 and
    {0, 1, 3} in R_2.  The down-left fall-down has none (falldown_check).
    Compares boundary counts (see falldown_check) once per image, and builds
    sets once per mismatching image."""
    _check_budget("fall-down scan", n * n)
    sq, tri = _grid_pair(n)
    sq_adj, tri_adj = sq.neighbor_masks, tri.neighbor_masks
    mismatch = {}  # image -> None, or (image, boundary_in_Sn, boundary_in_Rn) as sets
    for mask in range(1 << (n * n)):
        image = _fall_down_mask(n, mask, push_left=False)
        if image not in mismatch:
            mismatch[image] = None
            if boundary_size_mask(sq_adj, image) != boundary_size_mask(tri_adj, image):
                image_set = frozenset(mask_vertices(image))
                mismatch[image] = (image_set, *boundary_in_both(n, image_set))
        if mismatch[image] is not None:
            yield (frozenset(mask_vertices(mask)), *mismatch[image])


@dataclass(frozen=True)
class IsoProfile:
    """Exact minimum boundary size per cardinality 0..|V|, with witnesses;
    witness[s] is the lexicographically smallest sorted minimizer of size s."""

    min_boundary: dict
    witness: dict


def _decision_order(nbrs: tuple) -> list:
    """The order in which iso_profile decides the vertices.

    A decided vertex is active while it has an undecided neighbour; the DP's
    layers grow as 3^(active).  A greedy run starts at one vertex and then
    decides, among the undecided neighbours of decided vertices (any undecided
    vertex when there is none), the one that leaves the fewest active
    vertices, lowest index first.  Of the runs from every start, the one with
    the least sum over steps of 3^(active) wins; a run stops as soon as its
    partial sum reaches the best so far.
    """
    n = len(nbrs)
    best, best_score = list(range(n)), None
    for start in range(n):
        undecided_deg = [len(x) for x in nbrs]
        retires = [0] * n  # decided neighbours whose last undecided neighbour this is
        decided = [False] * n
        frontier = set()
        order = []
        active = score = 0
        v = start
        while True:
            order.append(v)
            decided[v] = True
            frontier.discard(v)
            for u in nbrs[v]:
                undecided_deg[u] -= 1
                if not decided[u]:
                    frontier.add(u)
                elif undecided_deg[u] == 0:
                    active -= 1
                elif undecided_deg[u] == 1:
                    for w in nbrs[u]:
                        if not decided[w]:
                            retires[w] += 1
            if undecided_deg[v]:
                active += 1
                if undecided_deg[v] == 1:
                    for w in nbrs[v]:
                        if not decided[w]:
                            retires[w] += 1
            score += 3 ** active
            if best_score is not None and score >= best_score:
                break
            if len(order) == n:
                best, best_score = order, score
                break
            v = min(frontier or (u for u in range(n) if not decided[u]),
                    key=lambda c: ((undecided_deg[c] > 0) - retires[c], c))
    return best


def _profile_plan(g: Graph) -> tuple:
    """The DP's steps in decision order, and its slot count.

    An active vertex holds a slot, a bit position in the DP's keys, from the
    step it is decided until the step it leaves; a vertex takes the lowest
    slot that is free before its step.  Each step is (v, v's slot, the slots
    of v's decided neighbours, the slots held after the step).  An order whose
    layer bound is over the budget is refused here, before any layer is built.
    """
    adj = g.neighbor_masks
    slot_of = [0] * g.n
    decided = held = 0
    plan = []
    bound, width = 1, 0
    for d, v in enumerate(_decision_order(g.adj), 1):
        slot = (~held & (held + 1)).bit_length() - 1
        slot_of[v] = slot
        nbrs = mask_vertices(adj[v] & decided)
        decided |= 1 << v
        for u in nbrs:
            if not adj[u] & ~decided:
                held &= ~(1 << slot_of[u])
        if adj[v] & ~decided:
            held |= 1 << slot
        plan.append((v, slot, sum(1 << slot_of[u] for u in nbrs), held))
        a = held.bit_count()
        width = max(width, a)
        bound = max(bound, min(3 ** a * (d + 1), 1 << d))
    if bound > 1 << SUBSET_BUDGET_BITS:
        raise ResourceLimitError(
            f"profile DP on {g.n} vertices reaches active width {width}, a layer of up to "
            f"{bound} entries, over the budget of 2^{SUBSET_BUDGET_BITS}")
    return plan, width + 1


def _profile_layer(layer: dict, step: tuple, n: int, slots: int, size_bits: int) -> dict:
    """Decide one vertex in every entry of a DP layer; return the next layer.

    A key is (pending << slots | in_s) << size_bits | size, with one bit per
    slot; a value is boundary << n | (full ^ bitreverse(witness)), so a plain
    < prefers the smaller boundary, then the lexicographically smaller
    witness.  Out of S, v makes each pending neighbour a boundary vertex; in
    S, v is on the boundary at once if a decided neighbour is out of S, and
    pending otherwise.
    """
    v, slot, nbrs, keep = step
    in_v = 1 << (size_bits + slot)
    pend_v = in_v << slots
    nbr_pend = nbrs << (size_bits + slots)
    nbr_in = nbrs << size_bits
    size_mask = (1 << size_bits) - 1
    keep_key = (keep << (size_bits + slots)) | (keep << size_bits) | size_mask
    w_v = 1 << (n - 1 - v)
    in_boundary = (1 << n) - w_v
    nxt: dict = {}
    get = nxt.get
    for key, code in layer.items():
        hit = key & nbr_pend
        k = (key ^ hit) & keep_key
        c = code + (hit.bit_count() << n)
        old = get(k)
        if old is None or c < old:
            nxt[k] = c
        if key & nbr_in == nbr_in:
            k = ((key | in_v | pend_v) & keep_key) + 1
            c = code - w_v
        else:
            k = ((key | in_v) & keep_key) + 1
            c = code + in_boundary
        old = get(k)
        if old is None or c < old:
            nxt[k] = c
    return nxt


def iso_profile(g: Graph) -> IsoProfile:
    """Minimum |boundary(S)| over all S of each cardinality 0..|V|, by a
    dynamic program over the vertices: the one kernel cheeger_constant and
    conjecture_report reduce over.

    The vertices are decided one at a time, in the order _decision_order
    picks.  A decided vertex is active while it has an undecided neighbour.
    A state records, per active vertex, whether it is in S and, if so,
    whether it is still pending: no decided neighbour is out of S.  A pending
    vertex that leaves the state (its last neighbour decided) is not on the
    boundary.  Each state keeps, per size, the least boundary so far and its
    witness.

    Of two equal-size masks A and B, A is the lexicographically smaller sorted
    subset exactly when the lowest bit of A ^ B is in A.  Two partial masks
    that reach the same state share every completion f, and
    (A | f) ^ (B | f) = A ^ B, so keeping the partial mask that holds the
    lowest differing bit keeps the lexicographically smallest minimizer,
    whatever the decision order.

    Budget: the layer after d decisions with a active vertices has at most
    min(3^a (d + 1), 2^d) entries.  An order whose bound is over
    2^SUBSET_BUDGET_BITS for some layer is refused before the first layer is
    built.  2^d <= 2^|V|, so every graph of at most 20 vertices is accepted.
    The budget counts entries, not bytes: a layer of 2^20 entries costs about
    100 MB of RSS, as on K_20 (build_circulant(20, 10)), which takes about 1 s
    and peaks at 104 MB on Python 3.11.
    """
    n = g.n
    plan, slots = _profile_plan(g)
    size_bits = n.bit_length()
    full = (1 << n) - 1
    layer = {0: full}
    for step in plan:
        layer = _profile_layer(layer, step, n, slots, size_bits)
    best = {s: layer[s] >> n for s in range(n + 1)}
    witness = {s: frozenset(n - 1 - u for u in mask_vertices(full ^ (layer[s] & full)))
               for s in range(n + 1)}
    return IsoProfile(best, witness)


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
    """Compare the exact min |boundary| on P_n (from iso_profile) against the
    packings for every cardinality, and evaluate the conjectured thresholds."""
    if n < 1:
        raise ValueError("conjecture report needs n >= 1")
    tri = build_triangle(n)
    total = triangular(n)
    profile = iso_profile(tri)
    rows = []
    for size in range(total + 1):
        mb = profile.min_boundary[size]
        rb = len(boundary(tri, packing(n, "row", size)))
        ib = len(boundary(tri, packing(n, "ice_cream", size)))
        rows.append((size, mb, rb, ib, mb >= min(rb, ib)))
    # floor(n/sqrt(2)) = isqrt(n^2/2) and floor(n/(2 sqrt 2)) = isqrt(n^2/8), exactly
    window_size = triangular(isqrt(total))
    return ConjectureReport(
        rows=tuple(rows),
        lion_threshold=isqrt(n * n // 8),
        window_size=window_size,
        window_threshold=isqrt(n * n // 2),
        window_min_boundary=profile.min_boundary[window_size],
    )

