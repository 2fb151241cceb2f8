#!/usr/bin/env python3
"""Frame-by-frame view of the caffeinated wall sweep on R_{n,l}.

Prints the grid after every step: 'L' lion, '#' cleared, '.' contaminated.
Rows are printed top (row n) to bottom (row 1).
"""
import argparse

from lionsweep.dynamics import run
from lionsweep.graphs import build_tri_lattice
from lionsweep.strategies import caffeinated_wall_moves, wall_positions


def render(g, n, l, state):
    lions, cleared = set(state.lions), set(state.cleared)
    lines = []
    for r in range(n, 0, -1):
        cells = []
        for c in range(1, l + 1):
            v = g.vertex_at(r, c)
            cells.append("L" if v in lions else "#" if v in cleared else ".")
        lines.append(" ".join(cells))
    return "\n".join(lines)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("-n", type=int, default=3)
    parser.add_argument("-l", type=int, default=7)
    parser.add_argument("--from-wall", action="store_true",
                        help="start in formation instead of random-ish corners")
    args = parser.parse_args()

    n, l = args.n, args.l
    g = build_tri_lattice(n, l)
    k = (3 * n) // 2
    if args.from_wall:
        starts = wall_positions(n, l)
    else:
        starts = tuple(i % g.n for i in range(0, 3 * k, 3))
    plan = caffeinated_wall_moves(n, l, starts)
    print(f"R_{{{n},{l}}} with {k} caffeinated lions, "
          f"{len(plan.moves)} steps ({plan.formation_steps} formation)\n")
    trace = run(g, "caffeinated", starts, plan.moves)
    for state in trace.states:
        tag = " (formation)" if 0 < state.time <= plan.formation_steps else ""
        print(f"t={state.time}{tag}\n{render(g, n, l, state)}\n")
    swept = trace.final().cleared == tuple(range(g.n))
    print("swept" if swept else "NOT swept")


if __name__ == "__main__":
    main()
