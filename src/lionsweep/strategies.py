"""Constructive move-sequence generators for the sweeps that provably work.

* row sweep: n free lions clear the parallelogram R_{n,l} by gathering on the
  leftmost column and advancing one lion at a time, bottom row first.
* caffeinated wall sweep: floor(3n/2) always-moving lions clear R_{n,l} with a
  vertical wall of lion triangles that crosses the grid.
* the row sweep gathers along shortest walks and the wall forms by
  simultaneous repositioning; exact_length_walk is a standalone planner.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Sequence

from .dynamics import STAY, run, step
from .errors import InfeasibleWalkError, WalkParityError, WalkTooShortError
from .graphs import Graph, build_tri_lattice, check_vertices

Walk = tuple  # ordered vertex list; length of the walk = len - 1


@dataclass(frozen=True)
class MovePlan:
    """A generated move sequence plus the index where the formation phase ends."""

    moves: tuple
    formation_steps: int


def parity_distances(g: Graph, u: int):
    """Shortest even- and odd-length walk distances from u to every vertex.

    Returns (dist, parent) where dist[p][v] is the least length of a u-v walk
    of parity p (None if no such walk) and parent[p][v] is the vertex before
    v on one such shortest walk, reached by a walk of parity p ^ 1 (None for
    the empty walk at u and where dist[p][v] is None).  Neighbors are visited
    in Graph.adj's increasing order, so the walks are deterministic.
    """
    dist = [[None] * g.n, [None] * g.n]
    parent = [[None] * g.n, [None] * g.n]
    dist[0][u] = 0
    queue = deque([(u, 0)])
    while queue:
        v, p = queue.popleft()
        q = p ^ 1
        for w in g.adj[v]:
            if dist[q][w] is None:
                dist[q][w] = dist[p][v] + 1
                parent[q][w] = v
                queue.append((w, q))
    return dist, parent


def _read_walk(g: Graph, parent, v: int, m: int) -> list:
    """The length-m walk to v off a parity_distances parent table: the
    shortest walk of m's parity, after bounces between its start u and u's
    smallest neighbor.  The caller checks that that walk exists and is no
    longer than m.
    """
    walk = [v]
    p = m % 2
    while parent[p][v] is not None:
        v = parent[p][v]
        p ^= 1
        walk.append(v)
    pad = (m + 1 - len(walk)) // 2
    if pad:
        if not g.adj[v]:
            raise InfeasibleWalkError(f"vertex {v} has no neighbors to pad a walk with")
        walk += [g.adj[v][0], v] * pad
    walk.reverse()
    return walk


def _shortest_walk(g: Graph, u: int, v: int) -> list:
    """One shortest u-v walk (vertex list); v must be reachable from u."""
    dist, parent = parity_distances(g, u)
    return _read_walk(g, parent, v, min(d for d in (dist[0][v], dist[1][v]) if d is not None))


def exact_length_walk(g: Graph, u: int, v: int, m: int) -> Walk:
    """A walk from u to v of length exactly m, when one exists.

    Feasibility is exact: a length-m walk exists iff m is at least the
    shortest u-v walk of m's parity.  On graphs where every edge lies in a
    triangle (such as R_{n,l} with n, l >= 2) that reduces to m >= dist(u, v)
    for u != v; on bipartite graphs only the parity of dist(u, v) is ever
    feasible.
    """
    check_vertices(g, (u, v))
    if m < 0:
        raise ValueError("walk length must be >= 0")
    dist, parent = parity_distances(g, u)
    p = m % 2
    d_same = dist[p][v]
    d_other = dist[p ^ 1][v]
    if d_same is None and d_other is None:
        raise ValueError(f"vertex {v} unreachable from {u}")
    shortest = min(d for d in (d_same, d_other) if d is not None)
    if d_same is None:
        raise WalkParityError(
            f"every {u}-{v} walk has parity {shortest % 2}, but length {m} was requested")
    if m < d_same:
        if m < shortest:
            raise WalkTooShortError(f"shortest {u}-{v} walk has length {shortest}")
        raise WalkParityError(
            f"shortest {u}-{v} walk of parity {p} has length {d_same}, but {m} was requested")
    return tuple(_read_walk(g, parent, v, m))


def simultaneous_repositioning(g: Graph, starts: Sequence, targets: Sequence) -> tuple:
    """Caffeinated-valid steps moving lion i from starts[i] to targets[i],
    all arriving at the same time.

    The common length is the smallest m for which every lion has a walk of
    length exactly m; with zero net motion requested the plan is a minimal
    even-length bounce (an always-moving lion cannot execute an empty plan).
    """
    if len(starts) != len(targets):
        raise ValueError("starts and targets must pair up")
    check_vertices(g, (*starts, *targets))
    if not starts:
        return ()
    ends, parents = [], []
    for s, t in zip(starts, targets):
        dist, parent = parity_distances(g, s)
        if dist[0][t] is None and dist[1][t] is None:
            raise ValueError(f"target {t} unreachable from {s}")
        ends.append((dist[0][t], dist[1][t]))
        parents.append(parent)
    # dist[p][t] has parity p, so the least common length of parity p is the largest
    lengths = [max(d) for d in zip(*ends) if None not in d]
    if not lengths:
        raise WalkParityError("lions require walks of conflicting parities")
    m = min(lengths) or 2
    walks = [_read_walk(g, parent, t, m) for parent, t in zip(parents, targets)]
    return tuple(zip(*(w[1:] for w in walks)))


def column_positions(n: int, l: int) -> tuple:
    """Vertices of the leftmost column of R_{n,l}, rows 1..n."""
    g = build_tri_lattice(n, l)
    return tuple(g.vertex_at(r, 1) for r in range(1, n + 1))


def row_sweep_moves(n: int, l: int, starts: Sequence) -> MovePlan:
    """The n-lion free sweep of R_{n,l}: gather on the leftmost column, then
    advance one lion per step, bottom row first, column by column.

    The formation phase walks lions one at a time to (row, 1) and then holds
    everyone in place until the cleared set stops shrinking, so the sweep
    suffix starting at formation_steps is monotone.
    """
    if len(starts) != n:
        raise ValueError(f"row sweep of R_{{{n},{l}}} needs exactly {n} lions")
    g = build_tri_lattice(n, l)
    check_vertices(g, starts)

    moves = []
    for i in range(n):
        for nxt in _shortest_walk(g, starts[i], g.vertex_at(i + 1, 1))[1:]:
            mv = [STAY] * n
            mv[i] = nxt
            moves.append(tuple(mv))

    # Hold until leftover cleared debris from the gathering walk has
    # recontaminated; the sweep's monotonicity argument starts from a state
    # where only the occupied column is cleared.
    state = run(g, "free", starts, moves).final()
    stay = tuple([STAY] * n)
    for _ in range(g.n + 1):
        nxt = step(g, state, stay)
        if nxt.cleared == state.cleared:
            break
        moves.append(stay)
        state = nxt
    formation_steps = len(moves)

    for c in range(1, l):
        for r in range(1, n + 1):
            mv = [STAY] * n
            mv[r - 1] = g.vertex_at(r, c + 1)
            moves.append(tuple(mv))
    return MovePlan(tuple(moves), formation_steps)


def wall_positions(n: int, l: int) -> tuple:
    """Wall-formation vertices of R_{n,l} at base column ceil(l/2), in slot
    order: for odd n the loner on row 1, then per unit, bottom-up, its rear,
    front and single lion.  A unit is a double row d in range(1 + n % 2, n, 2)
    with its single row d + 1 directly above, so the unit's three lions form a
    triangle of the lattice."""
    return _wall_slots(build_tri_lattice(n, l), n, l)


def _wall_slots(g: Graph, n: int, l: int) -> tuple:
    """wall_positions(n, l) read off g, the R_{n,l} its caller has built."""
    if n > 1 and l == 1:
        raise ValueError("the wall formation needs two columns; R_{n,1} has one")
    col = (l + 1) // 2
    v = g.vertex_at
    out = [v(1, col)] * (n % 2)
    for d in range(1 + n % 2, n, 2):
        out.extend((v(d, col), v(d, col + 1), v(d + 1, col)))
    return tuple(out)


def caffeinated_wall_moves(n: int, l: int, starts: Sequence) -> MovePlan:
    """The floor(3n/2)-lion caffeinated sweep of R_{n,l}.

    Phases: (1) simultaneous repositioning into the wall of triangles at
    column ceil(l/2); (2) transport to the left edge; (3) rightward sweep
    from base column b = 1 to l - 2, in substeps j: the unit in slot s
    (n % 2 plus its index, bottom-up) stands at column b + (j > s), advances
    one column when j == s and rotates its triangle in place otherwise,
    while the unpaired bottom lion (odd n) steps from column
    b + (j > 0) + (j > 0 and j even) to b + 1 + j % 2, one column ahead and
    back; (4) a final step that pushes the single-lion rows onto the last
    column while the doubles swap.  Every step moves every lion.
    """
    need = (3 * n) // 2
    if len(starts) != need:
        raise ValueError(f"caffeinated wall sweep of R_{{{n},{l}}} needs exactly {need} lions")
    g = build_tri_lattice(n, l)
    check_vertices(g, starts)

    if n == 1:
        if l == 1:
            return MovePlan((), 0)
        moves = [(x,) for x in _shortest_walk(g, starts[0], g.vertex_at(1, 1))[1:]]
        formation_steps = len(moves)
        moves.extend((g.vertex_at(1, c + 1),) for c in range(1, l))
        return MovePlan(tuple(moves), formation_steps)

    targets = _wall_slots(g, n, l)
    c0 = g.coord_of(targets[0])[1]  # the wall's base column
    moves = list(simultaneous_repositioning(g, starts, targets))
    formation_steps = len(moves)
    pos = list(targets)  # lion i sits at slot i after the formation

    def emit(vmap: dict) -> None:
        # vmap sends each occupied vertex to its target; positions stay
        # distinct during the wall phases, so the lookup is unambiguous.
        mv = tuple(vmap[p] for p in pos)
        moves.append(mv)
        pos[:] = mv

    v = g.vertex_at

    # Transport: everyone slides left until the wall rests on column 1.
    for _ in range(c0 - 1):
        emit({p: v(r, c - 1) for p, (r, c) in zip(pos, map(g.coord_of, pos))})

    # Sweep: each move follows from (b, j, slot) alone, so pos is the only state.
    units = range(1 + n % 2, n, 2)
    substeps = len(units) + n % 2
    if n % 2 and substeps % 2 == 0:
        substeps += 1  # the loner's bounce needs an even number of substeps after its advance
    for b in range(1, l - 1):
        for j in range(substeps):
            vmap = {}
            if n % 2:
                vmap[v(1, b + (j > 0) + (j > 0 and j % 2 == 0))] = v(1, b + 1 + j % 2)
            for s, d in enumerate(units, n % 2):
                x = b + (j > s)
                vmap[v(d, x)] = v(d, x + 1)
                if j == s:  # advance one column
                    vmap[v(d + 1, x)] = v(d + 1, x + 1)
                    vmap[v(d, x + 1)] = v(d, x + 2)
                else:  # rotate the triangle in place
                    vmap[v(d + 1, x)] = v(d, x)
                    vmap[v(d, x + 1)] = v(d + 1, x)
            emit(vmap)

    # Final step: single rows take the last column, doubles swap in place.
    vmap = {}
    if n % 2:
        vmap[v(1, l - 1)] = v(1, l)
    for d in units:
        vmap[v(d + 1, l - 1)] = v(d + 1, l)
        vmap[v(d, l - 1)] = v(d, l)
        vmap[v(d, l)] = v(d, l - 1)
    emit(vmap)

    return MovePlan(tuple(moves), formation_steps)


def naive_column_sweep_moves(n: int, l: int, steps: int) -> tuple:
    """The caffeinated column sweep that fails: n lions on the leftmost
    column all stepping right together, bouncing off the grid's sides.

    Contamination travels down the diagonals into the just-vacated column,
    so this never sweeps (for n >= 2); the generator exists as the negative
    control.  Lions are assumed to start at column_positions(n, l).
    """
    if l < 2:
        raise ValueError("the bouncing column needs l >= 2")
    g = build_tri_lattice(n, l)
    moves = []
    col = 1
    direction = 1
    for _ in range(steps):
        if col + direction < 1 or col + direction > l:
            direction = -direction
        col += direction
        moves.append(tuple(g.vertex_at(r, col) for r in range(1, n + 1)))
    return tuple(moves)
