"""Output checks for benchmark tasks, and a self-test that feeds them forgeries.

Every check takes the task's Result and a Context of facts earlier tasks of
the same pass established (k* per graph and model, the profile per graph,
the plan length per instance), and returns a list of problems; an empty list
means the output is correct. The checks parse files with their own code and
replay traces through `dynamics.run`, so a wrong verdict, a forged witness
or a trace that does not survive a write and read shows as a problem.
"""
from __future__ import annotations

import json
import os
import re
from dataclasses import dataclass, field
from fractions import Fraction
from math import floor


@dataclass
class Result:
    """What one task did: exit code, captured output and the time it took."""

    rc: object  # int exit code, or None when main() raised
    stdout: str
    stderr: str
    seconds: float
    error: str = ""
    start: float = 0.0  # perf_counter() when the task began


@dataclass
class Context:
    """Facts established by earlier tasks, read by later cross-checks."""

    lib: object
    kstar: dict = field(default_factory=dict)  # (graph key, model) -> k*
    profile: dict = field(default_factory=dict)  # graph key -> {size: min boundary}
    plans: dict = field(default_factory=dict)  # instance key -> (steps, formation steps)
    cheeger: dict = field(default_factory=dict)  # graph key -> reference Cheeger constant
    verdicts: dict = field(default_factory=dict)  # (graph key, model, k) -> first -k verdict


STATES_RE = r"\(states=(\d+), peak_frontier=(\d+)\)"


def _unexpected(res: Result, want: str) -> list:
    detail = res.error or (res.stdout + res.stderr).strip()[:200]
    return [f"expected {want}, got exit {res.rc}: {detail!r}"]


def own_boundary(g, subset) -> int:
    """|boundary(subset)| from the adjacency sets, independent of the library's kernels."""
    s = set(subset)
    return sum(1 for v in s if any(u not in s for u in g.adj[v]))


def parse_record(line: str) -> tuple:
    """One trace line as (t, lions, cleared, move), parsed here."""
    rec = json.loads(line)
    move = None if rec["move"] is None else tuple(rec["move"])
    return rec["t"], tuple(rec["lions"]), tuple(rec["cleared"]), move


def state_record(state, move) -> tuple:
    return state.time, tuple(state.lions), tuple(sorted(state.cleared)), move


@dataclass
class Replay:
    """What replaying a trace file's moves showed."""

    problems: list
    records: int = 0
    lions: tuple = ()
    swept_at: object = None  # first time every vertex is cleared, or None
    shrinks_after: object = None  # first time after `steady` that the cleared set shrank


def replay(lib, g, model: str, path, lions: int, steady=None) -> Replay:
    """Replay the moves recorded in a trace file, as `dynamics.run` does, line by line.

    Every recorded state must equal the replayed one. Streaming keeps the
    checker's memory below the program's own, so it does not set peak_rss_mb.
    """
    dyn = lib.dynamics
    out = Replay([])
    state = prev = None
    try:
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                if not line.strip():
                    continue
                rec = parse_record(line)
                if state is None:
                    if len(rec[1]) != lions:
                        out.problems.append(f"trace has {len(rec[1])} lions, expected {lions}")
                        return out
                    out.lions = rec[1]
                    state = dyn.initial_state(g, rec[1])
                else:
                    bad = dyn.validate_moves(g, model, state, rec[3])
                    if bad:
                        out.problems.append(f"move at t={state.time} breaks {model} motion: {bad}")
                        return out
                    state = dyn.step(g, state, rec[3])
                if state_record(state, rec[3]) != rec:
                    out.problems.append(f"replay disagrees with the recorded trace at t={rec[0]}")
                    return out
                if out.swept_at is None and len(rec[2]) == g.n:
                    out.swept_at = rec[0]
                if steady is not None and out.shrinks_after is None and \
                        out.records > steady and not prev <= set(rec[2]):
                    out.shrinks_after = rec[0]
                prev = set(rec[2])
                out.records += 1
    except FileNotFoundError:
        out.problems.append(f"trace file {os.path.basename(path)} was not written")
    except (OSError, ValueError, KeyError, TypeError) as exc:
        out.problems.append(f"unreadable trace: {exc}")
    if not out.problems and not out.records:
        out.problems.append("empty trace")
    return out


def exclusion(ctx: Context, gkey: str, g, model: str) -> int:
    """Largest k the Cheeger bounds exclude under the model (polite lions get both bounds)."""
    if gkey not in ctx.cheeger:
        ctx.cheeger[gkey] = ctx.lib.cheeger.cheeger_constant(g).value
    gval = ctx.cheeger[gkey]
    free = floor(gval * g.n / (4 + gval))
    if model == "polite":
        return max(free, floor(Fraction(1, 2) * (g.n // 2) * gval))
    return free


# ---- search -----------------------------------------------------------------

def search_min(res, ctx, *, g, gkey, model, witness, expect_k=None) -> list:
    m = re.fullmatch(r"k\* = (\d+) " + STATES_RE + r"\n", res.stdout)
    if res.rc != 0 or not m:
        return _unexpected(res, "'k* = ...' and exit 0")
    k = int(m[1])
    problems = []
    if expect_k is not None and k != expect_k:
        problems.append(f"k* = {k}, paper instance has k* = {expect_k}")
    excl = exclusion(ctx, gkey, g, model)
    if not excl < k:
        problems.append(f"Cheeger exclusion {excl} is not below k* = {k}")
    rep = replay(ctx.lib, g, model, witness, k)
    problems += rep.problems
    if not rep.problems and rep.swept_at is None:
        problems.append("witness replay does not sweep")
    ctx.kstar[(gkey, model)] = k
    return problems


def search_k(res, ctx, *, g, gkey, model, k, witness, starts=None, expect=None,
             expect_states=None) -> list:
    m = re.fullmatch(r"(cleared|impossible) " + STATES_RE + r"\n", res.stdout)
    if not m or res.rc != {"cleared": 0, "impossible": 10}[m[1]]:
        return _unexpected(res, "'cleared' with exit 0 or 'impossible' with exit 10")
    status, states = m[1], int(m[2])
    problems = []
    if expect is not None and status != expect:
        problems.append(f"{status}, paper instance is {expect}")
    if expect_states is not None and states != expect_states:
        problems.append(f"explored {states} states, the exhaustive search explores {expect_states}")
    kstar = ctx.kstar.get((gkey, model))
    if kstar is not None and status != ("cleared" if k >= kstar else "impossible"):
        problems.append(f"{status} with k={k}, but --min found k* = {kstar}")
    # On a connected graph the verdict does not depend on the starts, except
    # for caffeinated lions on a bipartite graph.
    if model != "caffeinated" or ctx.lib.graphs.has_odd_cycle(g):
        first = ctx.verdicts.setdefault((gkey, model, k), status)
        if status != first:
            problems.append(f"{status} with k={k}, but {first} from other starts")
    if status == "cleared":
        if k <= exclusion(ctx, gkey, g, model):
            problems.append(f"cleared with k={k}, which the Cheeger bound excludes")
        rep = replay(ctx.lib, g, model, witness, k)
        problems += rep.problems
        if not rep.problems:
            if rep.swept_at is None:
                problems.append("witness replay does not sweep")
            if starts is not None and sorted(rep.lions) != sorted(starts):
                problems.append(f"witness starts at {rep.lions}, not at {starts}")
    elif os.path.exists(witness):
        problems.append("an impossible verdict wrote a witness")
    return problems


# ---- enumerate --------------------------------------------------------------

def profile(res, ctx, *, g, gkey) -> list:
    lines = res.stdout.splitlines()
    if res.rc != 0 or not lines or lines[0] != "size,min_boundary,witness":
        return _unexpected(res, "a profile CSV and exit 0")
    table = {}
    problems = []
    for line in lines[1:]:
        size, mb, wit = line.split(",")
        size, mb = int(size), int(mb)
        w = [int(x) for x in wit.split()]
        if len(set(w)) != size or not all(0 <= v < g.n for v in w):
            problems.append(f"size {size}: witness {w} has the wrong size")
        elif own_boundary(g, w) != mb:
            problems.append(f"size {size}: witness boundary {own_boundary(g, w)} != {mb}")
        table[size] = mb
    if sorted(table) != list(range(g.n + 1)):
        problems.append(f"profile covers sizes {sorted(table)}, not 0..{g.n}")
    elif table[0] != 0 or table[g.n] != 0:
        problems.append("the empty set and the whole graph must have empty boundary")
    ctx.profile[gkey] = table
    return problems


def cheeger(res, ctx, *, g, gkey) -> list:
    m = re.fullmatch(r"g = (\d+)/(\d+), witness = \[([\d, ]*)\], "
                     r"excluded_polite <= (\d+), excluded_free <= (\d+)\n", res.stdout)
    if res.rc != 0 or not m:
        return _unexpected(res, "'g = ...' and exit 0")
    gval = Fraction(int(m[1]), int(m[2]))
    witness = [int(x) for x in m[3].split(",") if x.strip()]
    problems = []
    table = ctx.profile.get(gkey)
    if table is None or sorted(table) != list(range(g.n + 1)):
        problems.append("no complete profile of the same graph to compare with")
    else:
        want = min(Fraction(table[s], min(s, g.n - s)) for s in range(1, g.n))
        if gval != want:
            problems.append(f"g = {gval}, but min over s of profile[s]/min(s, n-s) = {want}")
    size = len(set(witness))
    if not 0 < size < g.n or Fraction(own_boundary(g, witness), min(size, g.n - size)) != gval:
        problems.append(f"witness {witness} does not attain g = {gval}")
    polite = floor(Fraction(1, 2) * (g.n // 2) * gval)
    free = floor(gval * g.n / (4 + gval))
    if (int(m[4]), int(m[5])) != (polite, free):
        problems.append(f"exclusions {m[4]}, {m[5]} != {polite}, {free} from g")
    return problems


def falldown(res, ctx, *, n) -> list:
    want = f"0 violations over {1 << (n * n)} subsets\n"
    if res.rc != 0 or res.stdout != want:
        return _unexpected(res, repr(want.strip()))
    return []


def conjecture(res, ctx, *, out, fixture) -> list:
    if res.rc != 0:
        return _unexpected(res, "exit 0")
    try:
        with open(out, encoding="utf-8") as a, open(fixture, encoding="utf-8") as b:
            if a.read() != b.read():
                return [f"report differs from {os.path.basename(fixture)}"]
    except OSError as exc:
        return [f"cannot compare report: {exc}"]
    return []


# ---- simulate ---------------------------------------------------------------

def strategy(res, ctx, *, key, moves, lions) -> list:
    m = re.match(r"(\d+) steps \((\d+) formation\) for lions at ", res.stdout)
    if res.rc != 0 or not m:
        return _unexpected(res, "'N steps (F formation)' and exit 0")
    steps, formation = int(m[1]), int(m[2])
    try:
        with open(moves, encoding="utf-8") as fh:
            rows = [json.loads(line) for line in fh if line.strip()]
    except (OSError, ValueError) as exc:
        return [f"unreadable moves file: {exc}"]
    ctx.plans[key] = (steps, formation)
    if len(rows) != steps or any(len(r) != lions for r in rows):
        return [f"moves file has {len(rows)} steps, expected {steps} of {lions} lions"]
    return []


def simulate(res, ctx, *, g, key, model, lions, trace, monotone_suffix) -> list:
    m = re.fullmatch(r"swept at t=(\d+)\n", res.stdout)
    if res.rc != 0 or not m:
        return _unexpected(res, "'swept at t=...' and exit 0")
    formation = ctx.plans.get(key, (None, None))[1] if monotone_suffix else None
    if monotone_suffix and formation is None:
        return ["no plan to find the sweep suffix in"]
    rep = replay(ctx.lib, g, model, trace, len(lions), steady=formation)
    if rep.problems:
        return rep.problems
    problems = []
    if rep.lions != tuple(lions):
        problems.append(f"trace starts at {rep.lions}, not at {tuple(lions)}")
    if rep.swept_at != int(m[1]):
        problems.append(f"reported t={m[1]}, replay sweeps at t={rep.swept_at}")
    if rep.shrinks_after is not None:
        problems.append(f"cleared set shrinks at t={rep.shrinks_after}, "
                        f"after formation step {formation}")
    back = ctx.lib.dynamics.read_trace(trace)
    with open(trace, encoding="utf-8") as fh:
        lines = (line for line in fh if line.strip())
        moves = (None,) + back.moves
        if len(back.states) != rep.records or any(
                state_record(s, mv) != parse_record(line)
                for s, mv, line in zip(back.states, moves, lines)):
            problems.append("read_trace does not return the trace that was written")
    return problems


def verify(res, ctx, *, trace) -> list:
    try:
        with open(trace, encoding="utf-8") as fh:
            steps = sum(1 for line in fh if line.strip()) - 1
    except OSError as exc:
        return [f"unreadable trace: {exc}"]
    want = f"0 violations over {steps} steps\n"
    if res.rc != 0 or res.stdout != want:
        return _unexpected(res, repr(want.strip()))
    return []


def not_swept(res, ctx, *, g, lions, trace) -> list:
    m = re.fullmatch(r"not swept within (\d+) steps\n", res.stdout)
    if res.rc != 10 or not m:
        return _unexpected(res, "'not swept' and exit 10")
    rep = replay(ctx.lib, g, "caffeinated", trace, len(lions))
    if not rep.problems and rep.swept_at is not None:
        rep.problems.append("the negative control sweeps on replay")
    return rep.problems


# ---- self-test --------------------------------------------------------------

def self_test(lib, workdir) -> list:
    """Feed each kind of check a forged output; return the forgeries it accepted."""
    ctx = Context(lib)
    r22 = lib.graphs.build_tri_lattice(2, 2)
    r44 = lib.graphs.build_tri_lattice(4, 4)
    forged = os.path.join(workdir, "forged.jsonl")
    accepted = []

    def expect_reject(label, problems):
        if not problems:
            accepted.append(label)

    # One lion on R_{2,2} "clears" everything in one step; replay disproves it.
    with open(forged, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"t": 0, "lions": [0], "cleared": [0], "move": None}) + "\n")
        fh.write(json.dumps({"t": 1, "lions": [1], "cleared": [0, 1, 2, 3], "move": [1]}) + "\n")
    ok = Result(0, "cleared (states=2, peak_frontier=1)\n", "", 0.0)
    expect_reject("forged R_{2,2} witness",
                  search_k(ok, ctx, g=r22, gkey="R22", model="free", k=1, witness=forged))
    expect_reject("R_{4,4} free k=3 reported cleared",
                  search_k(Result(0, "cleared (states=4241, peak_frontier=876)\n", "", 0.0), ctx,
                           g=r44, gkey="R44", model="free", k=3, witness=forged,
                           expect="impossible", expect_states=4241))
    expect_reject("forged simulate trace",
                  simulate(Result(0, "swept at t=1\n", "", 0.0), ctx, g=r22, key="R22",
                           model="free", lions=(0,), trace=forged, monotone_suffix=False))

    # A genuine trace with one cleared vertex dropped from the last record.
    plan = lib.strategies.row_sweep_moves(2, 2, (0, 1))
    lib.dynamics.write_trace(lib.dynamics.run(r22, "free", (0, 1), plan.moves), forged)
    with open(forged, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    last = json.loads(lines[-1])
    last["cleared"] = last["cleared"][1:]
    lines[-1] = json.dumps(last)
    with open(forged, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    expect_reject("trace with a cleared vertex dropped",
                  simulate(Result(0, f"swept at t={len(plan.moves)}\n", "", 0.0), ctx, g=r22,
                           key="R22", model="free", lions=(0, 1), trace=forged,
                           monotone_suffix=False))

    ctx.profile["R22"] = {0: 0, 1: 1, 2: 2, 3: 1, 4: 0}
    expect_reject("Cheeger value that disagrees with the profile",
                  cheeger(Result(0, "g = 1/2, witness = [0], excluded_polite <= 0, "
                                    "excluded_free <= 0\n", "", 0.0), ctx, g=r22, gkey="R22"))
    with open(forged, "w", encoding="utf-8") as fh:
        fh.write("size,min_boundary,row_packing_boundary,icecream_boundary,conjecture_holds\n"
                 "0,0,0,0,true\n1,1,1,1,true\n2,1,2,2,false\n3,0,0,0,true\n")
    fixture = os.path.join(lib.root, "tests", "data", "conjecture_n2.csv")
    expect_reject("forged conjecture report",
                  conjecture(Result(0, "", "", 0.0), ctx, out=forged, fixture=fixture))
    os.remove(forged)
    return accepted
