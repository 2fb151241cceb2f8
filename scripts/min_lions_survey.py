#!/usr/bin/env python3
"""Survey exact minimum lion counts against the Cheeger lower bounds.

Runs the exhaustive solver on a corpus of small graphs from every family and
prints one row per graph: the exact minimum under free (and optionally
polite) motion next to the largest k the Cheeger bounds exclude.  The
exclusions must always sit strictly below the found minimum.
"""
import argparse

from lionsweep.cheeger import cheeger_constant, lion_bound, polite_lion_bound
from lionsweep.graphs import (build_circulant, build_square_grid, build_tri_lattice,
                              build_triangle)
from lionsweep.search import min_lions


def corpus():
    yield "S_2", build_square_grid(2)
    yield "S_3", build_square_grid(3)
    yield "R_2", build_tri_lattice(2, 2)
    yield "R_{2,3}", build_tri_lattice(2, 3)
    yield "R_{2,4}", build_tri_lattice(2, 4)
    yield "R_3", build_tri_lattice(3, 3)
    yield "path_5", build_tri_lattice(1, 5)
    yield "P_2", build_triangle(2)
    yield "P_3", build_triangle(3)
    yield "P_4", build_triangle(4)
    yield "C(4,1)", build_circulant(4, 1)
    yield "C(5,1)", build_circulant(5, 1)
    yield "C(6,1)", build_circulant(6, 1)
    yield "C(6,2)", build_circulant(6, 2)
    yield "C(7,2)", build_circulant(7, 2)
    yield "K_4", build_circulant(4, 2)
    yield "K_5", build_circulant(5, 2)
    yield "K_6", build_circulant(6, 3)


def minimum(result) -> str:
    """k* if the last search cleared, else ?(its status)."""
    status = result.verdict.status
    return str(result.k) if status == "cleared" else f"?({status})"


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--kmax", type=int, default=6)
    parser.add_argument("--polite", action="store_true", help="also search polite motion")
    args = parser.parse_args()

    header = f"{'graph':10} {'|V|':>4} {'g':>6} {'excl_free':>9} {'k*_free':>8}"
    if args.polite:
        header += f" {'excl_pol':>9} {'k*_pol':>7}"
    print(header)
    for name, g in corpus():
        cheeger = cheeger_constant(g)
        excluded = lion_bound(cheeger.value, g.n)
        k_free = minimum(min_lions(g, "free", args.kmax))
        row = f"{name:10} {g.n:>4} {str(cheeger.value):>6} {excluded:>9} {k_free:>8}"
        if args.polite:
            excluded_p = polite_lion_bound(cheeger.value, g.n)
            k_pol = minimum(min_lions(g, "polite", args.kmax))
            row += f" {excluded_p:>9} {k_pol:>7}"
        print(row)


if __name__ == "__main__":
    main()
