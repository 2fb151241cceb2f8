import ast
import random
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import WIDE_GRAPHS, small_graphs, wide_graph, wide_masks
from lionsweep.errors import ParseError
from lionsweep.graphs import (Graph, _interior_mask, boundary, boundary_size_mask,
                              build_circulant, build_square_grid, build_tri_lattice,
                              build_triangle, check_vertices, has_odd_cycle, is_connected,
                              load_graph, make_graph, mask_vertices, save_graph, vertex_mask)

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "lionsweep"


def test_square_grid_counts():
    assert build_square_grid(1).n == 1
    assert build_square_grid(1).edge_count == 0
    g2 = build_square_grid(2)
    assert (g2.n, g2.edge_count) == (4, 4)
    g6 = build_square_grid(6)
    # 2*n*(n-1) axis edges, cross-checked against the edge iterator
    assert g6.edge_count == 2 * 6 * 5 == len(list(g6.edges()))


def test_square_grid_rejects_bad_n():
    with pytest.raises(ValueError):
        build_square_grid(0)


def test_tri_lattice_counts():
    g = build_tri_lattice(1, 3)
    assert (g.n, g.edge_count) == (3, 2)
    r2 = build_tri_lattice(2, 2)
    assert (r2.n, r2.edge_count) == (4, 5)
    r3 = build_tri_lattice(3, 3)
    # 12 axis edges plus 4 diagonals
    assert (r3.n, r3.edge_count) == (9, 16)
    with pytest.raises(ValueError):
        build_tri_lattice(0, 3)
    with pytest.raises(ValueError):
        build_tri_lattice(3, 0)


def test_tri_lattice_diagonal_direction():
    r3 = build_tri_lattice(3, 3)
    # chosen diagonal: (r, c) -- (r-1, c+1); the opposite one must be absent
    assert r3.vertex_at(1, 2) in r3.adj[r3.vertex_at(2, 1)]
    assert r3.vertex_at(2, 2) not in r3.adj[r3.vertex_at(1, 1)]


@pytest.mark.parametrize("n", range(1, 13))
def test_triangle_counts(n):
    g = build_triangle(n)
    assert g.n == n * (n + 1) // 2
    assert g.edge_count == 3 * n * (n - 1) // 2


def test_triangle_examples():
    assert (build_triangle(1).n, build_triangle(1).edge_count) == (1, 0)
    assert (build_triangle(5).n, build_triangle(5).edge_count) == (15, 30)
    assert (build_triangle(6).n, build_triangle(6).edge_count) == (21, 45)


def test_degree_bounds():
    for g, cap in [(build_tri_lattice(5, 7), 6), (build_triangle(7), 6),
                   (build_square_grid(5), 4)]:
        assert all(len(nbrs) <= cap for nbrs in g.adj)


def test_circulant():
    assert build_circulant(6, 0).edge_count == 0
    c6 = build_circulant(6, 1)
    assert c6.edge_count == 6
    assert all(len(nbrs) == 2 for nbrs in c6.adj)
    k5 = build_circulant(5, 2)
    assert k5.edge_count == 10  # complete graph
    with pytest.raises(ValueError):
        build_circulant(6, 4)
    with pytest.raises(ValueError):
        build_circulant(2, 1)


def test_tri_lattice_restricted_to_axis_edges_is_square_grid():
    n = 5
    r = build_tri_lattice(n, n)
    s = build_square_grid(n)
    axis = {e for e in r.edges()
            if abs(sum(r.coord_of(e[0])) - sum(r.coord_of(e[1]))) == 1
            and (r.coord_of(e[0])[0] == r.coord_of(e[1])[0]
                 or r.coord_of(e[0])[1] == r.coord_of(e[1])[1])}
    assert axis == set(s.edges())


def test_boundary_examples():
    r3 = build_tri_lattice(3, 3)
    assert boundary(r3, frozenset()) == frozenset()
    assert boundary(r3, frozenset(range(9))) == frozenset()
    v = r3.vertex_at(1, 1)
    assert boundary(r3, frozenset({v})) == frozenset({v})
    with pytest.raises(ValueError):
        boundary(r3, frozenset({42}))


@given(st.integers(0, 2 ** 9 - 1))
def test_boundary_subset_property(mask):
    r3 = build_tri_lattice(3, 3)
    s = frozenset(v for v in range(9) if mask >> v & 1)
    b = boundary(r3, s)
    assert b <= s
    # empty boundary iff s is a union of components (R_3 is connected)
    assert (b == frozenset()) == (s == frozenset() or s == frozenset(range(9)))


def test_boundary_empty_iff_component_union():
    g = make_graph(5, [(0, 1), (1, 2), (3, 4)])  # two components
    assert boundary(g, frozenset({0, 1, 2})) == frozenset()
    assert boundary(g, frozenset({3, 4})) == frozenset()
    assert boundary(g, frozenset({0, 1})) != frozenset()


def test_connectivity_predicates():
    assert is_connected(build_square_grid(3))
    assert not has_odd_cycle(build_square_grid(3))
    assert is_connected(build_tri_lattice(2, 2))
    assert has_odd_cycle(build_tri_lattice(2, 2))
    g = make_graph(2, [])
    assert not is_connected(g)
    assert not has_odd_cycle(g)
    # the odd cycle is only in the last component, after a path
    g = make_graph(6, [(0, 1), (1, 2), (3, 4), (4, 5), (3, 5)])
    assert not is_connected(g)
    assert has_odd_cycle(g)
    g = make_graph(4, [(1, 2), (2, 3), (1, 3)])  # isolated vertex 0, then a triangle
    assert not is_connected(g)
    assert has_odd_cycle(g)
    g = make_graph(5, [(1, 2), (2, 3)])  # isolated vertices 0 and 4
    assert not is_connected(g)
    assert not has_odd_cycle(g)
    for g in (make_graph(0, []), make_graph(1, [])):
        assert is_connected(g)
        assert not has_odd_cycle(g)


@st.composite
def graphs_with_masks(draw, max_n=12):
    """A small_graphs graph and a subset mask: the empty set, V, half of V (a
    subset as large as its complement, for even n) or any subset."""
    g = draw(small_graphs(max_n))
    full = (1 << g.n) - 1
    half = vertex_mask(draw(st.permutations(range(g.n)))[: g.n // 2], g.n)
    mask = draw(st.sampled_from((0, full, half)) | st.integers(0, full))
    return g, mask


def _assert_mask_kernels_match(g, mask):
    s = frozenset(mask_vertices(mask))
    b = boundary(g, s)
    assert boundary_size_mask(g.neighbor_masks, mask) == len(b)
    assert _interior_mask(g.neighbor_masks, mask) == vertex_mask(s - b, g.n)


@given(graphs_with_masks())
def test_mask_kernels_match_set_boundary(case):
    """boundary_size_mask and the update rule's Safe share one shift-table
    neighbourhood, _interior_mask; both must agree with the set-based boundary."""
    _assert_mask_kernels_match(*case)


@pytest.mark.parametrize("spec", WIDE_GRAPHS)
def test_mask_kernels_match_set_boundary_on_wide_graphs(spec, rng):
    """The shift table on masks of several machine words, shifts across the
    word edges at bits 63 and 64 included."""
    g = wide_graph(spec)
    assert g.n > 64
    for mask in wide_masks(g, rng):
        _assert_mask_kernels_match(g, mask)


def test_neighbor_masks_shift_table():
    """One (d, low) pair per index difference d of an edge, low holding the
    lower end u of every edge u ~ u + d."""
    g = build_tri_lattice(3, 4)  # differences 1 (right), 3 (diagonal) and 4 (up)
    masks = g.neighbor_masks
    assert masks.full == (1 << 12) - 1
    assert sorted(d for d, _ in masks.shifts) == [1, 3, 4]
    for d, low in masks.shifts:
        assert mask_vertices(low) == tuple(u for u, v in g.edges() if v - u == d)
    empty = make_graph(3, []).neighbor_masks
    assert (empty, empty.shifts, empty.full) == ((0, 0, 0), (), 7)


def _assert_masks_match_edges(g):
    """neighbor_masks against a direct per-edge construction."""
    masks, lows = [0] * g.n, {}
    for u, v in g.edges():
        masks[u] |= 1 << v
        masks[v] |= 1 << u
        lows[v - u] = lows.get(v - u, 0) | 1 << u
    got = g.neighbor_masks
    assert (list(got), dict(got.shifts), got.full) == (masks, lows, (1 << g.n) - 1)


@given(small_graphs())
def test_neighbor_masks_match_edges(g):
    _assert_masks_match_edges(g)


@pytest.mark.parametrize("spec", WIDE_GRAPHS)
def test_neighbor_masks_match_edges_on_wide_graphs(spec):
    _assert_masks_match_edges(wide_graph(spec))


@pytest.mark.parametrize("g", [make_graph(0, []), make_graph(5, []), make_graph(3, [(0, 1)]),
                               make_graph(6, [(0, 1), (1, 2), (3, 4), (4, 5), (3, 5)]),
                               build_tri_lattice(2, 3), build_circulant(7, 3)])
def test_mask_kernels_match_set_boundary_on_every_subset(g):
    for mask in range(1 << g.n):
        _assert_mask_kernels_match(g, mask)


def test_check_vertices():
    g = build_tri_lattice(2, 2)
    check_vertices(g, ())
    check_vertices(g, [0, 3, 3])
    for bad in ([4], [0, -1], iter([1, 9])):
        with pytest.raises(ValueError, match="not in graph with 4 vertices"):
            check_vertices(g, bad)


def test_save_load_round_trip(tmp_path):
    r3 = build_tri_lattice(3, 3)
    path = tmp_path / "r3.txt"
    save_graph(r3, path)
    g = load_graph(path)
    assert g.n == r3.n
    assert set(g.edges()) == set(r3.edges())


def test_load_rejects_self_loop(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("vertices 2\n0 0\n")
    with pytest.raises(ParseError) as exc:
        load_graph(path)
    assert exc.value.line == 2


def test_load_header_only(tmp_path):
    path = tmp_path / "one.txt"
    path.write_text("# a single vertex\nvertices 1\n")
    g = load_graph(path)
    assert (g.n, g.edge_count) == (1, 0)


def test_load_rejects_duplicates_and_garbage(tmp_path):
    path = tmp_path / "dup.txt"
    path.write_text("vertices 3\n0 1\n1 0\n")
    with pytest.raises(ParseError, match="^line 3: duplicate edge 0 1$") as exc:
        load_graph(path)
    assert exc.value.line == 3
    path.write_text("vertices 3\n0 1\n# 1 3\n1 2\n2 3\n")
    with pytest.raises(ParseError, match=r"^line 5: edge endpoint out of range 0\.\.2$"):
        load_graph(path)
    path.write_text("vertices 3\n0 x\n")
    with pytest.raises(ParseError):
        load_graph(path)
    path.write_text("0 1\n")
    with pytest.raises(ParseError):
        load_graph(path)


def test_load_skips_blank_and_indented_comment_lines(tmp_path):
    path = tmp_path / "commented.txt"
    path.write_text("  # a path\n\nvertices 3\n \t\n0 1\n    # 0 1 again\n1 2\n   \n")
    g = load_graph(path)
    assert (g.n, list(g.edges())) == (3, [(0, 1), (1, 2)])


def _assert_increasing_adjacency(g):
    for nbrs in g.adj:
        assert type(nbrs) is tuple
        assert all(a < b for a, b in zip(nbrs, nbrs[1:]))


def test_builders_and_load_give_increasing_adjacency(tmp_path):
    """Graph.adj is the one neighbour order: strictly increasing tuples."""
    for g in (build_square_grid(4), build_tri_lattice(3, 5), build_triangle(5),
              build_circulant(9, 3), build_circulant(4, 2), make_graph(3, [(2, 0), (1, 0)])):
        _assert_increasing_adjacency(g)
    edges = list(build_tri_lattice(3, 4).edges())
    random.Random(7).shuffle(edges)
    path = tmp_path / "shuffled.txt"
    path.write_text("vertices 12\n" + "".join(f"{v} {u}\n" for u, v in edges))
    _assert_increasing_adjacency(load_graph(path))


@pytest.mark.parametrize("adj", [((2, 1), (0,), (0,)),  # unsorted
                                 ((1, 1), (0,)),  # duplicated
                                 ((1, 5), (0,)),  # out of range
                                 ((-1,), ()),  # negative
                                 (frozenset({1}), (0,)),  # not a tuple
                                 ([1], [0])])
def test_graph_refuses_other_adjacency(adj):
    with pytest.raises(ValueError):
        Graph(len(adj), adj)


def test_save_graph_writes_sorted_edges(tmp_path):
    edges = [(3, 4), (0, 4), (1, 2), (0, 3), (2, 4), (0, 1)]
    path = tmp_path / "g.txt"
    save_graph(make_graph(5, edges), path)
    assert path.read_text().splitlines() == ["vertices 5"] + [f"{u} {v}" for u, v in sorted(edges)]


def test_only_graphs_orders_adjacency():
    """No module but graphs.py re-derives the neighbour order: nothing calls
    sorted or min on a ....adj[...] expression."""
    offenders = []
    for path in sorted(PACKAGE.rglob("*.py")):
        if path.name == "graphs.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id in ("sorted", "min")
                    and any(isinstance(arg, ast.Subscript) and isinstance(arg.value, ast.Attribute)
                            and arg.value.attr == "adj" for arg in node.args)):
                offenders.append(f"{path.name}:{node.lineno}")
    assert not offenders


def test_one_place_enumerates_stacked_moves():
    """The search lists the target multisets of stacked lions once, in one
    table that both the successor keys and the witness read: the package
    calls combinations_with_replacement in exactly one place."""
    calls = []
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Call) and "combinations_with_replacement" in (
                    getattr(node.func, "attr", None), getattr(node.func, "id", None)):
                calls.append(f"{path.name}:{node.lineno}")
    assert len(calls) == 1, calls


def test_two_places_call_the_update_kernel():
    """Trajectories step through step_cleared_mask in two places, the fold
    behind step, run and simulate, and verify's one local step: the package
    calls it nowhere else."""
    callers = []
    for path in sorted(PACKAGE.rglob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8"), str(path)).body:
            for node in ast.walk(top):
                if isinstance(node, ast.Call) and "step_cleared_mask" in (
                        getattr(node.func, "attr", None), getattr(node.func, "id", None)):
                    callers.append(f"{path.stem}.{getattr(top, 'name', '<module>')}")
    assert callers == ["dynamics._fold", "search.verify_lemma_bounds"]


def test_make_graph_validates():
    with pytest.raises(ValueError):
        make_graph(2, [(0, 0)])
    with pytest.raises(ValueError):
        make_graph(2, [(0, 5)])


def test_mask_vertices_round_trip_up_to_700_bits(rng):
    """Every width from 0 to 700 bits, with vertices at the byte and word
    edges 7, 8, 63, 64 and 671 and at the top bit; the result increases."""
    assert mask_vertices(0) == ()
    for width in range(701):
        byte_edges = [v for v in (7, 8, 63, 64, 671, width - 1) if 0 <= v < width]
        for vertices in (byte_edges, rng.sample(range(width), rng.randint(0, width)),
                         range(width)):
            mask = vertex_mask(vertices, width)
            got = mask_vertices(mask)
            assert got == tuple(sorted(set(vertices)))
            assert all(a < b for a, b in zip(got, got[1:]))
            assert vertex_mask(got, width) == mask


@given(st.sets(st.integers(0, 39)))
def test_mask_helpers_round_trip(vertices):
    mask = vertex_mask(vertices, 40)
    assert mask.bit_count() == len(vertices)
    assert mask_vertices(mask) == tuple(sorted(vertices))
    assert vertex_mask(mask_vertices(mask), 40) == mask


def test_vertex_mask_rejects_out_of_range():
    with pytest.raises(ValueError):
        vertex_mask([0, 4], 4)
    with pytest.raises(ValueError):
        vertex_mask([-1], 4)
