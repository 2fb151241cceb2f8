#!/usr/bin/env python3
"""Show why the fall-down direction matters on the triangulated square.

Scans all subsets of the n x n grid under the down-right variant and prints
the first witness whose transformed image has more boundary vertices in R_n
(diagonals added) than in S_n, then renders the sets.  The down-left
transformation admits no such witness.
"""
import argparse

from lionsweep.isoperimetry import falldown_mismatches


def render(n, s, mark="S"):
    lines = []
    for r in range(n, 0, -1):
        row = []
        for c in range(1, n + 1):
            v = (r - 1) * n + (c - 1)
            row.append(mark if v in s else ".")
        lines.append(" ".join(row))
    return "\n".join(lines)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("-n", type=int, default=4)
    parser.add_argument("--counts", type=int, nargs=2, metavar=("SQ", "TRI"),
                        help="only report witnesses with these boundary sizes")
    args = parser.parse_args()

    for s, image, b_sq, b_tri in falldown_mismatches(args.n):
        if args.counts and (len(b_sq), len(b_tri)) != tuple(args.counts):
            continue
        print(f"witness S (|S|={len(s)}):")
        print(render(args.n, s))
        print(f"\ndown-right image T(S):")
        print(render(args.n, image, "T"))
        print(f"\nboundary of T(S): {len(b_sq)} vertices in S_{args.n}, "
              f"{len(b_tri)} in R_{args.n}")
        print(f"  S_n boundary: {sorted(b_sq)}")
        print(f"  R_n boundary: {sorted(b_tri)}")
        return
    print("no witness found")


if __name__ == "__main__":
    main()
