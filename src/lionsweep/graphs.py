"""Immutable simple graphs, the grid families, and the vertex boundary operator.

Vertices are dense integers 0..n-1.  Grid families additionally carry a
(row, col) coordinate per vertex; coordinates are 1-based and row 1 is the
bottom row for the parallelogram/square families and the apex row for the
triangle family.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Optional

from .errors import ParseError

Coord = tuple[int, int]  # (row, col), 1-based
VertexSet = frozenset  # subset of a graph's vertex indices


class NeighborMasks(tuple):
    """Graph.neighbor_masks: entry v is the mask of v's neighbours.  It also
    carries full, the mask of every vertex, and shifts, the shift table: one
    pair (d, low) for each index difference d > 0 of some edge, low being the
    mask of the vertices u joined to u + d."""


@dataclass(frozen=True)
class Graph:
    """Finite simple undirected graph with optional grid coordinates."""

    n: int
    adj: tuple[tuple[int, ...], ...]  # v's neighbours in increasing order: the neighbour order
    coords: Optional[tuple[Coord, ...]] = None

    def __post_init__(self):
        if self.n < 0 or len(self.adj) != self.n:
            raise ValueError("adjacency length must equal vertex count")
        for v, nbrs in enumerate(self.adj):
            if type(nbrs) is not tuple:
                raise ValueError(f"adjacency of vertex {v} is not a tuple")
            for prev, u in zip((-1,) + nbrs, nbrs):
                if not (prev < u < self.n):
                    raise ValueError(f"vertex {v}: adjacency not increasing in 0..{self.n - 1}")
                if u == v:
                    raise ValueError(f"self-loop at vertex {v}")
                if v not in self.adj[u]:
                    raise ValueError(f"asymmetric adjacency {v}-{u}")
        if self.coords is not None and len(self.coords) != self.n:
            raise ValueError("coords length must equal vertex count")

    def edges(self) -> Iterator[tuple[int, int]]:
        """Yield each undirected edge once, as (u, v) with u < v, in increasing order."""
        for v in range(self.n):
            for u in self.adj[v]:
                if v < u:
                    yield (v, u)

    @property
    def edge_count(self) -> int:
        return sum(len(nbrs) for nbrs in self.adj) // 2

    @cached_property
    def _coord_index(self) -> dict:
        if self.coords is None:
            raise ValueError("graph has no grid coordinates")
        return {rc: v for v, rc in enumerate(self.coords)}

    def vertex_at(self, row: int, col: int) -> int:
        """Vertex index at grid coordinate (row, col)."""
        return self._coord_index[(row, col)]

    def coord_of(self, v: int) -> Coord:
        if self.coords is None:
            raise ValueError("graph has no grid coordinates")
        return self.coords[v]

    @cached_property
    def neighbor_masks(self) -> NeighborMasks:
        """Per-vertex adjacency as bitmasks, bit u of entry v set iff uv is an
        edge, carrying the graph's shift table (see NeighborMasks)."""
        bit = (1).__lshift__
        masks = NeighborMasks(sum(map(bit, nbrs)) for nbrs in self.adj)
        lows: dict = {}  # index difference -> the low ends of its edges, in edges() order
        for u, nbrs in enumerate(self.adj):
            for v in nbrs:
                if v > u:
                    lows.setdefault(v - u, []).append(u)
        masks.shifts = tuple((d, sum(map(bit, us))) for d, us in lows.items())
        masks.full = (1 << self.n) - 1
        return masks


def make_graph(n: int, edges: Iterable[tuple[int, int]],
               coords: Optional[tuple[Coord, ...]] = None) -> Graph:
    """Build a Graph from an edge list, validating the simple-graph invariants."""
    nbrs: list = [set() for _ in range(n)]
    for u, v in edges:
        if u == v:
            raise ValueError(f"self-loop {u}-{v}")
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge {u}-{v} out of range 0..{n - 1}")
        nbrs[u].add(v)
        nbrs[v].add(u)
    return Graph(n, tuple(tuple(sorted(s)) for s in nbrs), coords)


def _lattice(coords: tuple, offsets) -> Graph:
    """The graph on the grid coordinates joining each (r, c) to every
    (r + dr, c + dc) among them, for (dr, dc) in offsets."""
    idx = {rc: i for i, rc in enumerate(coords)}
    edges = []
    for dr, dc in offsets:
        for (r, c), i in idx.items():
            j = idx.get((r + dr, c + dc))
            if j is not None:
                edges.append((i, j))
    return make_graph(len(coords), edges, coords)


def build_square_grid(n: int) -> Graph:
    """The n x n square grid graph S_n, n vertices per side."""
    if n < 1:
        raise ValueError("square grid needs n >= 1")
    coords = tuple((r, c) for r in range(1, n + 1) for c in range(1, n + 1))
    return _lattice(coords, ((0, 1), (1, 0)))


def build_tri_lattice(n: int, l: int) -> Graph:
    """The triangulated parallelogram R_{n,l}: n rows, l columns, row 1 at the bottom.

    Edges go right, up, and along the (r, c)-(r-1, c+1) diagonal.  With that
    diagonal choice, drawing the grid as a square subdivides each unit cell
    from its top-left corner to its bottom-right corner.
    """
    if n < 1 or l < 1:
        raise ValueError("triangulated parallelogram needs n, l >= 1")
    coords = tuple((r, c) for r in range(1, n + 1) for c in range(1, l + 1))
    return _lattice(coords, ((0, 1), (1, 0), (-1, 1)))


def build_triangle(n: int) -> Graph:
    """The triangular grid P_n: rows 1 (apex) .. n (base), row r holding r vertices.

    P_n has n(n+1)/2 vertices and 3n(n-1)/2 edges.
    """
    if n < 1:
        raise ValueError("triangular grid needs n >= 1")
    coords = tuple((r, i) for r in range(1, n + 1) for i in range(1, r + 1))
    return _lattice(coords, ((0, 1), (1, 0), (1, 1)))


def build_circulant(n: int, k: int) -> Graph:
    """The circulant graph C(n, k): n vertices on a circle, edges between
    vertices at circular distance 1..k."""
    if n < 3:
        raise ValueError("circulant needs n >= 3")
    if k < 0 or k > n // 2:
        raise ValueError("circulant needs 0 <= k <= n//2")
    edges = []
    for i in range(n):
        for d in range(1, k + 1):
            edges.append((i, (i + d) % n))  # set-based adjacency dedups the wraparounds
    return make_graph(n, edges)


def check_vertices(g: Graph, vertices) -> None:
    """Raise ValueError unless every one of the vertices is a vertex of g."""
    for v in vertices:
        if not (0 <= v < g.n):
            raise ValueError(f"vertex {v} not in graph with {g.n} vertices")


def boundary(g: Graph, s: VertexSet) -> VertexSet:
    """Vertices of s that share an edge with some vertex outside s."""
    check_vertices(g, s)
    return frozenset(v for v in s if any(u not in s for u in g.adj[v]))


def vertex_mask(vertices, n: int) -> int:
    """Bitmask of a set of vertices of an n-vertex graph: bit v set iff v is in it."""
    mask = 0
    for v in vertices:
        if not (0 <= v < n):
            raise ValueError(f"vertex {v} not in graph with {n} vertices")
        mask |= 1 << v
    return mask


def mask_vertices(mask: int) -> tuple:
    """The vertices of a bitmask, in increasing order: one step per set bit."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def boundary_size_mask(adj_masks, s_mask: int) -> int:
    """|boundary of the bitmask subset s_mask| in the graph of adj_masks, a
    Graph.neighbor_masks."""
    return s_mask.bit_count() - _interior_mask(adj_masks, s_mask).bit_count()


def _interior_mask(adj_masks, s: int) -> int:
    """The vertices of the bitmask s, a subset of V, with no neighbor outside s.

    Read off the shift table of adj_masks (see NeighborMasks): an edge
    u ~ u + d takes a vertex of X at its low end up by d and one at its high
    end down by d, so the neighbourhood of a mask X is

        N(X) = union over d of ((X & low_d) << d) | ((X >> d) & low_d)

    and interior(S) = S & ~N(V \\ S).  That is a few whole-mask operations
    per index difference, whatever |V|: R_{n,l} has the differences 1, l - 1
    and l, S_n has 1 and n.
    """
    outside = adj_masks.full ^ s
    reached = 0
    for d, low in adj_masks.shifts:
        reached |= (outside & low) << d | (outside >> d) & low
    return s & ~reached


def is_connected(g: Graph) -> bool:
    """True iff g has at most one component (the empty graph counts as connected)."""
    return _two_coloring(g)[0] <= 1


def has_odd_cycle(g: Graph) -> bool:
    """True iff g is not 2-colorable (checked per connected component)."""
    return _two_coloring(g)[1]


def _two_coloring(g: Graph) -> tuple:
    """Breadth-first 2-coloring of every component: (component count, odd cycle found)."""
    color = [-1] * g.n
    components = 0
    odd = False
    for s in range(g.n):
        if color[s] != -1:
            continue
        components += 1
        color[s] = 0
        queue = deque([s])
        while queue:
            v = queue.popleft()
            for u in g.adj[v]:
                if color[u] == -1:
                    color[u] = color[v] ^ 1
                    queue.append(u)
                elif color[u] == color[v]:
                    odd = True
    return components, odd


def save_graph(g: Graph, path) -> None:
    """Write the edge-list text format: header 'vertices N', then 'u v' per edge."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"vertices {g.n}\n")
        for u, v in g.edges():
            fh.write(f"{u} {v}\n")


def load_graph(path) -> Graph:
    """Read the edge-list text format written by save_graph.

    Lines whose first non-blank character is '#' are comments, and blank
    lines are skipped.  Rejects self-loops, duplicate edges (in either
    orientation), and out-of-range endpoints, reporting the offending line
    number.
    """
    nbrs = None
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            parts = raw.split()
            if not parts or parts[0].startswith("#"):
                continue
            if nbrs is None:
                if len(parts) != 2 or parts[0] != "vertices":
                    raise ParseError("expected header 'vertices <N>'", lineno)
                try:
                    n = int(parts[1])
                except ValueError:
                    raise ParseError("vertex count is not an integer", lineno) from None
                if n < 0:
                    raise ParseError("negative vertex count", lineno)
                nbrs = [set() for _ in range(n)]
                continue
            if len(parts) != 2:
                raise ParseError("expected 'u v' edge line", lineno)
            try:
                u, v = int(parts[0]), int(parts[1])
            except ValueError:
                raise ParseError("edge endpoints are not integers", lineno) from None
            if u == v:
                raise ParseError(f"self-loop {u} {v}", lineno)
            if not (0 <= u < n and 0 <= v < n):
                raise ParseError(f"edge endpoint out of range 0..{n - 1}", lineno)
            if v in nbrs[u]:
                raise ParseError(f"duplicate edge {min(u, v)} {max(u, v)}", lineno)
            nbrs[u].add(v)
            nbrs[v].add(u)
    if nbrs is None:
        raise ParseError("missing 'vertices <N>' header", 1)
    return Graph(n, tuple(tuple(sorted(s)) for s in nbrs))
