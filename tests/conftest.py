import random

import pytest
from hypothesis import strategies as st

from lionsweep.graphs import make_graph


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


@pytest.fixture
def rng():
    return random.Random(20240517)
