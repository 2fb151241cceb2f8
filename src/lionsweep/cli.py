"""Command-line front door.

Exit codes are a stable contract: 0 success/cleared, 10 negative result
(not swept, impossible, violations found, nothing found), 20 unknown,
30 conjecture violation found, 40 resource limit, 1-2 usage/validation.
"""
from __future__ import annotations

import argparse
import functools
import sys

from . import cheeger as cheeger_mod
from . import dynamics, graphs, isoperimetry, search, strategies
from .errors import ResourceLimitError

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NEGATIVE = 10
EXIT_UNKNOWN = 20
EXIT_CONJECTURE_VIOLATION = 30
EXIT_RESOURCE = 40


def _parse_ints(text: str) -> tuple:
    return tuple(int(x) for x in text.replace(",", " ").split())


# each graph family's builder in graphs, named so that it is looked up per
# call (the benchmark's tracer rebinds it), and the size flags it takes after -n
_FAMILIES = {"square": ("build_square_grid", ""), "tri": ("build_tri_lattice", "l"),
             "triangle": ("build_triangle", ""), "circulant": ("build_circulant", "k")}


def _build_family(args) -> graphs.Graph:
    builder, flags = _FAMILIES[args.family]
    for flag in "lk":
        given = getattr(args, flag) is not None
        if given != (flag in flags):
            raise ValueError(f"{args.family} {'takes no' if given else 'needs'} -{flag}")
    return getattr(graphs, builder)(args.n, *(getattr(args, flag) for flag in flags))


def cmd_graph(args) -> int:
    g = _build_family(args)
    if args.out:
        graphs.save_graph(g, args.out)
    print(f"{g.n} vertices, {g.edge_count} edges")
    return EXIT_OK


def cmd_simulate(args) -> int:
    g = graphs.load_graph(args.graph)
    lions = _parse_ints(args.lions)
    moves = dynamics.read_moves(args.moves)
    t = dynamics._simulate(g, args.model, lions, moves, args.trace_out)
    if t is None:
        print(f"not swept within {len(moves)} steps")
        return EXIT_NEGATIVE
    print(f"swept at t={t}")
    return EXIT_OK


def cmd_strategy(args) -> int:
    # looked up per call, not at import: the benchmark's tracer rebinds these names
    default_starts, planner = {
        "row-sweep": (strategies.column_positions, strategies.row_sweep_moves),
        "wall": (strategies.wall_positions, strategies.caffeinated_wall_moves)}[args.kind]
    starts = default_starts(args.n, args.l) if args.starts is None else _parse_ints(args.starts)
    plan = planner(args.n, args.l, starts)
    dynamics.write_moves(plan.moves, args.out)
    print(f"{len(plan.moves)} steps ({plan.formation_steps} formation) for lions at {list(starts)}")
    return EXIT_OK


def cmd_verify(args) -> int:
    g = graphs.load_graph(args.graph)
    with open(args.trace, encoding="utf-8") as fh:  # streamed: no whole Trace is held
        report = search.verify_lemma_bounds(g, fh, args.model)
    if report.ok:
        print(f"0 violations over {report.steps_checked} steps")
        return EXIT_OK
    for t, lemma, detail in report.violations:
        print(f"t={t} {lemma}: {detail}")
    return EXIT_NEGATIVE


def cmd_search(args) -> int:
    g = graphs.load_graph(args.graph)
    limits = search.SearchLimits(args.max_states, not args.no_dominance)
    starts = [_parse_ints(args.starts)] if args.starts is not None else "canonical"
    if args.min:
        result = search.min_lions(g, args.model, args.kmax, limits)
        verdict = result.verdict
        if verdict.status == "cleared":
            print(f"k* = {result.k} (states={verdict.states_explored}, "
                  f"peak_frontier={verdict.peak_frontier})")
        elif verdict.status == "unknown":
            print(f"unknown: search at k={result.k} hit its limits")
        else:
            print(f"no sweep with up to {result.k} lions")
    else:
        verdict = search.can_clear(g, args.k, args.model, starts, limits)
        print(f"{verdict.status} (states={verdict.states_explored}, "
              f"peak_frontier={verdict.peak_frontier})")
    if verdict.status == "cleared" and args.witness_out:
        dynamics.write_trace(verdict.trace, args.witness_out)
    return {"cleared": EXIT_OK, "unknown": EXIT_UNKNOWN}.get(verdict.status, EXIT_NEGATIVE)


def cmd_cheeger(args) -> int:
    g = graphs.load_graph(args.graph)
    result = cheeger_mod.cheeger_constant(g)
    gval = result.value
    polite = cheeger_mod.polite_lion_bound(gval, g.n)
    free = cheeger_mod.lion_bound(gval, g.n)
    print(f"g = {gval.numerator}/{gval.denominator}, witness = {sorted(result.witness)}, "
          f"excluded_polite <= {polite}, excluded_free <= {free}")
    return EXIT_OK


def cmd_isoperimetry(args) -> int:
    if args.iso_cmd == "falldown-check":
        report = isoperimetry.falldown_check(args.n)
        bad = len(report.monotone_violations) + len(report.boundary_match_violations)
        print(f"{bad} violations over {report.subsets_checked} subsets")
        return EXIT_OK if report.ok else EXIT_NEGATIVE
    if args.iso_cmd == "falldown-witness":
        mismatch = next(isoperimetry.falldown_mismatches(args.n), None)
        if mismatch is None:
            print("none")
            return EXIT_NEGATIVE
        print(f"witness = {sorted(mismatch[0])}")
        return EXIT_OK
    # profile
    g = graphs.load_graph(args.graph)
    profile = isoperimetry.iso_profile(g)
    lines = ["size,min_boundary,witness"]
    for size in range(g.n + 1):
        w = " ".join(str(v) for v in sorted(profile.witness[size]))
        lines.append(f"{size},{profile.min_boundary[size]},{w}")
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def cmd_conjecture(args) -> int:
    report = isoperimetry.conjecture_report(args.n)
    _emit(report.to_csv(), args.out)
    print(f"# window |C| = {report.window_size}: min boundary {report.window_min_boundary}, "
          f"conjectured threshold {report.window_threshold}; "
          f"lion threshold {report.lion_threshold}", file=sys.stderr)
    return EXIT_CONJECTURE_VIOLATION if report.violations else EXIT_OK


def _emit(text: str, out) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process.

    Building it takes about 3 ms and leaves an 80 KB reference cycle that only
    the cycle collector frees, so a process that calls main() many times would
    spend most of a short command there and keep dead parsers resident.
    Parsing does not change the parser, so the calls share one.
    """
    parser = argparse.ArgumentParser(prog="lionsweep",
                                     description="lions-and-contamination toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("graph", help="build a graph family and write its edge list")
    p.add_argument("family", choices=list(_FAMILIES))
    p.add_argument("-n", type=int, required=True)
    p.add_argument("-l", type=int)
    p.add_argument("-k", type=int)
    p.add_argument("-o", "--out")
    p.set_defaults(func=cmd_graph)

    p = sub.add_parser("simulate", help="run a moves file and report the sweep time")
    p.add_argument("graph")
    p.add_argument("--model", choices=dynamics.MODELS, default="free")
    p.add_argument("--lions", required=True, help="comma-separated start vertices")
    p.add_argument("--moves", required=True)
    p.add_argument("--trace-out")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("strategy", help="generate a sweep move sequence")
    p.add_argument("kind", choices=["row-sweep", "wall"])
    p.add_argument("-n", type=int, required=True)
    p.add_argument("-l", type=int, required=True)
    p.add_argument("--starts", help="comma-separated start vertices")
    p.add_argument("-o", "--out", required=True)
    p.set_defaults(func=cmd_strategy)

    p = sub.add_parser("verify", help="replay a trace and check the growth lemmas on it")
    p.add_argument("graph")
    p.add_argument("--trace", required=True)
    p.add_argument("--model", choices=dynamics.MODELS, default="free",
                   help="motion model the replay checks each move against")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("search", help="exhaustive sweepability search")
    p.add_argument("graph")
    p.add_argument("--model", choices=dynamics.MODELS, default="free")
    p.add_argument("-k", type=int)
    p.add_argument("--min", action="store_true")
    p.add_argument("--kmax", type=int, default=4)
    p.add_argument("--max-states", type=int, default=search.SearchLimits().max_states)
    p.add_argument("--no-dominance", action="store_true")
    p.add_argument("--starts", help="comma-separated start vertices")
    p.add_argument("--witness-out")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("cheeger", help="exact Cheeger constant and lion bounds")
    p.add_argument("graph")
    p.set_defaults(func=cmd_cheeger)

    p = sub.add_parser("isoperimetry", help="fall-down checks and boundary profiles")
    isub = p.add_subparsers(dest="iso_cmd", required=True)
    q = isub.add_parser("falldown-check")
    q.add_argument("-n", type=int, required=True)
    q = isub.add_parser("falldown-witness")
    q.add_argument("-n", type=int, required=True)
    q = isub.add_parser("profile")
    q.add_argument("graph")
    q.add_argument("-o", "--out")
    p.set_defaults(func=cmd_isoperimetry)

    p = sub.add_parser("conjecture", help="packing-vs-exhaustive boundary report on P_n")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("-o", "--out")
    p.set_defaults(func=cmd_conjecture)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "search" and not args.min and args.k is None:
        parser.error("search needs -k or --min")
    if args.command == "search" and args.min and (args.k is not None or args.starts is not None):
        parser.error("--min searches k = 0..--kmax from canonical starts; "
                     "it takes neither -k nor --starts")
    try:
        return args.func(args)
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
