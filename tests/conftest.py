import random
import tempfile
from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import strategies as st

from lionsweep.graphs import (build_circulant, build_square_grid, build_tri_lattice,
                              build_triangle, load_graph, make_graph, save_graph, vertex_mask)
from lionsweep.strategies import row_sweep_moves


def random_connected_graph(rng: random.Random, n_min=2, n_max=12):
    """Random connected simple graph: a random spanning tree plus extra edges."""
    n = rng.randint(n_min, n_max)
    order = list(range(n))
    rng.shuffle(order)
    edges = set()
    for i in range(1, n):
        u, v = order[i], order[rng.randrange(i)]
        edges.add((min(u, v), max(u, v)))
    extra = rng.randint(0, n)
    for _ in range(extra):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.add((min(u, v), max(u, v)))
    return make_graph(n, edges)


@st.composite
def small_graphs(draw, max_n=12):
    """Graphs of 0..max_n vertices, sparse to complete, so often disconnected
    or with isolated vertices."""
    n = draw(st.integers(0, max_n))
    density = draw(st.sampled_from((0.0, 0.15, 0.3, 0.6, 1.0)))
    rnd = draw(st.randoms(use_true_random=False))
    return make_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                          if rnd.random() < density])


def dense_shuffled_graph(seed: int, n: int = 24, density: float = 0.6):
    """Random graph of edge density about `density`, its labels shuffled. At
    24 vertices and density 0.6 the profile DP's layer bound is 4 to 8 times
    its budget of 2^20 entries."""
    rng = random.Random(seed)
    labels = list(range(n))
    rng.shuffle(labels)
    edges = [(labels[u], labels[v]) for u in range(n) for v in range(u + 1, n)
             if rng.random() < density]
    return make_graph(n, edges)


# Graphs of more than 64 vertices, so a mask spans several machine words: the
# grids (index differences 1, l - 1 and l on R_{n,l}; 1 and n on S_n), the
# triangle, circulants whose wraparound edges give the differences n-k..n-1,
# and sparse graphs with shuffled labels, which have differences of every size.
WIDE_GRAPHS = (("tri", 14, 48), ("tri", 6, 20), ("tri", 9, 9), ("square", 9), ("square", 14),
               ("triangle", 12), ("circulant", 65, 1), ("circulant", 70, 3),
               ("circulant", 130, 5), ("sparse", 1, 65), ("sparse", 2, 130), ("sparse", 3, 200))


@lru_cache(maxsize=None)
def wide_graph(spec: tuple):
    """The graph of a WIDE_GRAPHS entry; a sparse one (a spanning tree on
    shuffled labels plus n/4 more edges) is saved and read back with load_graph."""
    kind, *args = spec
    if kind != "sparse":
        build = {"tri": build_tri_lattice, "square": build_square_grid,
                 "triangle": build_triangle, "circulant": build_circulant}[kind]
        return build(*args)
    seed, n = args
    rng = random.Random(seed)
    labels = list(range(n))
    rng.shuffle(labels)
    edges = {(labels[rng.randrange(v)], labels[v]) for v in range(1, n)}
    edges |= {tuple(rng.sample(range(n), 2)) for _ in range(n // 4)}
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "sparse.txt"
        save_graph(make_graph(n, edges), path)
        return load_graph(path)


def wide_masks(g, rng: random.Random) -> list:
    """Subset masks of g: empty, V, a random half, the lower half of the
    indices, random subsets, and the single vertices 63, 64 and |V| - 1,
    where a mask crosses a machine word."""
    full = (1 << g.n) - 1
    return [0, full, vertex_mask(rng.sample(range(g.n), g.n // 2), g.n), (1 << (g.n // 2)) - 1,
            *(rng.getrandbits(g.n) for _ in range(4)), 1 << 63, 1 << 64, 1 << (g.n - 1)]


@lru_cache(maxsize=None)
def row_sweep_14_48():
    """R_{14,48}, row-sweep starts on its rightmost column and the sweep's
    MovePlan: 658 gathering steps, then 658 steps that each clear a vertex,
    up to all 672. The largest trace of the simulate benchmark."""
    g = build_tri_lattice(14, 48)
    starts = tuple(g.vertex_at(r, 48) for r in range(1, 15))
    return g, starts, row_sweep_moves(14, 48, starts)


@pytest.fixture
def rng():
    return random.Random(20240517)
