import itertools
from fractions import Fraction

import pytest

from conftest import dense_shuffled_graph, random_connected_graph
from lionsweep.cheeger import cheeger_constant, lion_bound, polite_lion_bound
from lionsweep.errors import ResourceLimitError
from lionsweep.graphs import (boundary, build_circulant, build_square_grid,
                              build_tri_lattice, build_triangle, make_graph)


def cheeger_oracle(g):
    """Independent brute force over itertools.combinations, all subset sizes.

    Returns the value and the lexicographically smallest sorted witness.
    """
    best = None
    for size in range(1, g.n):
        for combo in itertools.combinations(range(g.n), size):
            ratio = Fraction(len(boundary(g, frozenset(combo))), min(size, g.n - size))
            if best is None or (ratio, combo) < best:
                best = (ratio, combo)
    return best


def test_complete_graph_is_one():
    assert cheeger_constant(build_circulant(5, 2)).value == 1


def test_disconnected_is_zero():
    g = make_graph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
    res = cheeger_constant(g)
    assert res.value == 0
    assert boundary(g, res.witness) == frozenset()


def test_c6_value_and_witness():
    res = cheeger_constant(build_circulant(6, 1))
    assert res.value == Fraction(2, 3)
    assert sorted(res.witness) == [0, 1, 2]  # lexicographically smallest witness


def test_matches_independent_oracle_on_corpus(rng):
    corpus = [build_circulant(6, 1), build_circulant(5, 2), build_square_grid(2),
              build_tri_lattice(2, 3), build_triangle(3)]
    corpus += [random_connected_graph(rng, 3, 8) for _ in range(8)]
    for g in corpus:
        res = cheeger_constant(g)
        assert (res.value, tuple(sorted(res.witness))) == cheeger_oracle(g)


def test_witness_reproduces_value(rng):
    for _ in range(10):
        g = random_connected_graph(rng, 2, 9)
        res = cheeger_constant(g)
        s = res.witness
        assert Fraction(len(boundary(g, s)), min(len(s), g.n - len(s))) == res.value


def test_connected_range(rng):
    for _ in range(20):
        g = random_connected_graph(rng, 2, 9)
        val = cheeger_constant(g).value
        assert 0 < val <= 1


def test_adding_an_edge_never_decreases(rng):
    for _ in range(10):
        g = random_connected_graph(rng, 3, 8)
        non_edges = [(u, v) for u in range(g.n) for v in range(u + 1, g.n)
                     if v not in g.adj[u]]
        if not non_edges:
            continue
        before = cheeger_constant(g).value
        extra = rng.choice(non_edges)
        g2 = make_graph(g.n, list(g.edges()) + [extra])
        assert cheeger_constant(g2).value >= before


def test_bound_examples():
    assert polite_lion_bound(Fraction(1), 10) == 2      # bound 2.5 -> k <= 2 excluded
    assert polite_lion_bound(Fraction(1, 2), 16) == 2
    assert polite_lion_bound(Fraction(1), 2) == 0       # nothing excluded
    assert lion_bound(Fraction(1), 10) == 2             # floor(10/5)
    assert lion_bound(Fraction(1, 2), 18) == 2          # floor(9/4.5)
    assert lion_bound(Fraction(0), 12) == 0


def test_errors():
    with pytest.raises(ValueError):
        cheeger_constant(make_graph(1, []))
    with pytest.raises(ResourceLimitError):
        cheeger_constant(dense_shuffled_graph(seed=4))  # a DP layer over 2^20 entries
