"""Seeded task lists for the three benchmark workloads.

Set-up builds every graph with the library's builders (random graphs come
from this file's own generator), writes the graph and moves files into the
run's work directory, and returns the task list. The program under test
receives only those files and each task's argv.

Costs are kept nearly independent of the seed, so that runs with different
seeds measure the same amount of work: the seed draws the structure of the
random graphs, the lion starts and jitter around fixed sizes, while the
sizes, edge counts and motion models follow a fixed schedule.
"""
from __future__ import annotations

import os
import random
from dataclasses import dataclass, field
from functools import partial
from typing import Callable

from . import checks

WORKLOADS = ("search", "enumerate", "simulate")


@dataclass
class Task:
    id: int
    argv: list
    check: Callable  # (Result, Context) -> list of problems
    outputs: tuple = ()  # files the task writes; removed before it runs
    traces: tuple = ()  # the outputs that are trace files
    subsets: dict = field(default_factory=dict)  # layer -> subsets it enumerates (computed)


def random_connected_graph(lib, rng: random.Random, n: int, extra: int):
    """A random spanning tree plus `extra` further edges: connected by construction."""
    order = list(range(n))
    rng.shuffle(order)
    edges = set()
    for i in range(1, n):
        u, v = order[i], order[rng.randrange(i)]
        edges.add((min(u, v), max(u, v)))
    rest = [(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in edges]
    edges.update(rng.sample(rest, min(extra, len(rest))))
    return lib.graphs.make_graph(n, sorted(edges))


class Builder:
    """Accumulates graph files and tasks for one workload."""

    def __init__(self, lib, workdir):
        self.lib = lib
        self.workdir = workdir
        self.tasks = []
        self.graphs = {}

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def graph(self, key: str, g) -> str:
        path = self.path(f"{key}.txt")
        self.lib.graphs.save_graph(g, path)
        self.graphs[key] = g
        return path

    def add(self, argv, check, outputs=(), traces=(), subsets=None) -> None:
        self.tasks.append(Task(len(self.tasks), [str(a) for a in argv], check,
                               tuple(outputs), tuple(traces), subsets or {}))


# Paper instances: (graph, model, "min" or k, extra flags, expected verdict).
# The verdicts with an expectation are fixed results; R_{4,4} free --min and
# caffeinated k=4 are left out as too long for one task (minutes). These
# are the longest tasks of the list, so task_p90_s is one of them.
PAPER_SEARCH = (
    ("R33", "free", "min", (), {"expect_k": 3}),
    ("R33", "free", 3, ("--no-dominance",), {}),
    ("R33", "caffeinated", 3, (), {"expect": "cleared"}),
    ("R33", "polite", "min", (), {}),
    ("R34", "polite", "min", (), {}),
    ("R34", "caffeinated", 3, (), {}),
    ("R44", "free", 3, (), {"expect": "impossible", "expect_states": 4241}),
    ("R44", "polite", 4, (), {"expect": "cleared"}),
    ("P4", "free", "min", (), {"expect_k": 3}),
    ("P4", "polite", "min", (), {}),
    ("P4", "caffeinated", 3, (), {}),
    ("S3", "free", "min", (), {}),
    ("S3", "caffeinated", "min", (), {}),
    ("C7_2", "free", "min", (), {}),
    ("C7_2", "caffeinated", "min", (), {}),
    ("C8_2", "polite", "min", (), {}),
    ("C8_2", "caffeinated", "min", (), {}),
    ("C10_2", "polite", "min", (), {}),
)

# Impossible verdicts from seeded random starts on the paper instances, as
# (graph, model, k, expected verdict, how many). An impossible search
# exhausts the reachable states, so its cost hardly depends on the starts.
# The many S_3 and R_{4,4} tasks cost about the same and straddle the
# median, which keeps task_p50_s steady from seed to seed. Each (graph,
# model) has k* from a --min task above, or, for R_{4,4} free, follows from
# k=3 being impossible.
PAPER_STARTS = (
    ("R33", "polite", 2, {}, 4), ("R34", "polite", 2, {}, 4), ("R33", "free", 2, {}, 4),
    ("P4", "free", 2, {}, 4), ("S3", "free", 2, {}, 15),
    ("R44", "free", 2, {"expect": "impossible"}, 15),
    ("C10_2", "polite", 3, {}, 4), ("C7_2", "free", 3, {}, 4), ("P4", "polite", 3, {}, 4),
)

# Random search graphs: vertex counts 6..12 in turn, each a spanning tree
# plus at most two edges, searched with --min and with -k 2. The model
# follows the vertex count so that no draw outlasts the paper instances:
# free motion has (deg+1)^k successors per state, polite only about k*deg.
SEARCH_RANDOM = 14
SEARCH_MODELS = {6: ("free", "caffeinated", "polite"), 7: ("free", "caffeinated", "polite"),
                 8: ("free", "caffeinated", "polite"), 9: ("polite",), 10: ("polite",),
                 11: ("polite",), 12: ("polite",)}


def build_search(b: Builder, rng: random.Random) -> None:
    gl = b.lib.graphs
    paper = {"R33": gl.build_tri_lattice(3, 3), "R34": gl.build_tri_lattice(3, 4),
             "R44": gl.build_tri_lattice(4, 4), "P4": gl.build_triangle(4),
             "S3": gl.build_square_grid(3), "C7_2": gl.build_circulant(7, 2),
             "C8_2": gl.build_circulant(8, 2), "C10_2": gl.build_circulant(10, 2)}
    files = {key: b.graph(key, g) for key, g in paper.items()}
    for key, model, k, flags, expect in PAPER_SEARCH:
        search_task(b, key, files[key], model, k, flags, expect)
    for key, model, k, expect, count in PAPER_STARTS:
        for _ in range(count):
            starts = [rng.randrange(paper[key].n) for _ in range(k)]
            search_task(b, key, files[key], model, k, (), expect, starts)
    for i in range(SEARCH_RANDOM):
        n = 6 + i % 7
        models = SEARCH_MODELS[n]
        model = models[(i // 7) % len(models)]
        key = f"rand{i}"
        g = random_connected_graph(b.lib, rng, n, rng.randint(0, 2))
        path = b.graph(key, g)
        search_task(b, key, path, model, "min", (), {})
        starts = None if model == "caffeinated" else [rng.randrange(n) for _ in range(2)]
        search_task(b, key, path, model, 2, (), {}, starts)


def search_task(b, key, path, model, k, flags, expect, starts=None) -> None:
    g = b.graphs[key]
    witness = b.path(f"w{len(b.tasks)}.jsonl")
    argv = ["search", path, "--model", model, "--witness-out", witness, *flags]
    if k == "min":
        check = partial(checks.search_min, g=g, gkey=key, model=model, witness=witness, **expect)
        argv += ["--min", "--kmax", 4]
    else:
        check = partial(checks.search_k, g=g, gkey=key, model=model, k=k, witness=witness,
                        starts=starts, **expect)
        argv += ["-k", k]
        if starts is not None:
            argv += ["--starts", ",".join(map(str, starts))]
    b.add(argv, check, outputs=[witness], traces=[witness])


# Random enumeration graphs: how many of each vertex count (2^n subsets
# each). A Cheeger task's cost depends on the vertex count alone, so the
# five 16-vertex graphs with R_{4,4} and S_4 make seven equal tasks around
# the 90th percentile, which keeps task_p90_s steady from seed to seed.
ENUMERATE_RANDOM = {12: 25, 13: 10, 14: 2, 16: 5, 18: 1}


def build_enumerate(b: Builder, rng: random.Random) -> None:
    gl = b.lib.graphs
    graphs = [("R44", gl.build_tri_lattice(4, 4)), ("R36", gl.build_tri_lattice(3, 6)),
              ("P5", gl.build_triangle(5)), ("S4", gl.build_square_grid(4)),
              ("R45", gl.build_tri_lattice(4, 5))]
    for n, count in ENUMERATE_RANDOM.items():
        for _ in range(count):
            graphs.append((f"rand{len(graphs)}", random_connected_graph(b.lib, rng, n,
                                                                        rng.randint(n // 2, n))))
    for key, g in graphs:
        path = b.graph(key, g)
        # The profile runs first: the Cheeger check compares against it.
        b.add(["isoperimetry", "profile", path], partial(checks.profile, g=g, gkey=key),
              subsets={"isoperimetry": 1 << g.n})
        b.add(["cheeger", path], partial(checks.cheeger, g=g, gkey=key),
              subsets={"cheeger": (1 << g.n) - 2})
    b.add(["isoperimetry", "falldown-check", "-n", 4], partial(checks.falldown, n=4),
          subsets={"isoperimetry": 1 << 16})
    for n in range(2, 6):
        out = b.path(f"conjecture_n{n}.csv")
        fixture = os.path.join(b.lib.root, "tests", "data", f"conjecture_n{n}.csv")
        b.add(["conjecture", "-n", n, "-o", out],
              partial(checks.conjecture, out=out, fixture=fixture), outputs=[out],
              subsets={"isoperimetry": 1 << (n * (n + 1) // 2)})


# Simulated instances: every n in 4..14 against each base length, jittered by
# the seed; each instance runs both constructive strategies. The largest
# instance, R_{14,48} swept from its rightmost column, is fixed: its trace
# sets the workload's peak memory, so the peak does not vary with the seed.
SIMULATE_LENGTHS = (8, 20, 32, 44)
SIMULATE_JITTER = 2
LARGEST = (14, 48)
NEGATIVE_CONTROLS = 4


def build_simulate(b: Builder, rng: random.Random) -> None:
    lib = b.lib
    for n in range(4, 15):
        for base in SIMULATE_LENGTHS:
            l = base + rng.randint(-SIMULATE_JITTER, SIMULATE_JITTER)
            key = f"R{n}_{l}_{len(b.tasks)}"
            g = lib.graphs.build_tri_lattice(n, l)
            path = b.graph(key, g)
            for kind, model, lions in (("row-sweep", "free", n),
                                       ("wall", "caffeinated", 3 * n // 2)):
                starts = [rng.randrange(g.n) for _ in range(lions)]
                pipeline(b, key, path, g, kind, model, starts)
    n, l = LARGEST
    g = lib.graphs.build_tri_lattice(n, l)
    pipeline(b, f"R{n}_{l}", b.graph(f"R{n}_{l}", g), g, "row-sweep", "free",
             [g.vertex_at(r, l) for r in range(1, n + 1)])
    for _ in range(NEGATIVE_CONTROLS):
        n, l = rng.randint(4, 7), rng.randint(6, 16)
        key = f"naive{len(b.tasks)}"
        g = lib.graphs.build_tri_lattice(n, l)
        path = b.graph(key, g)
        lions = lib.strategies.column_positions(n, l)
        moves = b.path(f"{key}.moves")
        lib.dynamics.write_moves(lib.strategies.naive_column_sweep_moves(n, l, 2 * l), moves)
        trace = b.path(f"{key}.jsonl")
        b.add(["simulate", path, "--model", "caffeinated", "--lions", ",".join(map(str, lions)),
               "--moves", moves, "--trace-out", trace],
              partial(checks.not_swept, g=g, lions=lions, trace=trace),
              outputs=[trace], traces=[trace])


def pipeline(b, key, path, g, kind, model, starts) -> None:
    """strategy -> simulate --trace-out -> verify on one instance."""
    n, l = g.coords[-1]
    tag = f"{key}_{kind}"
    moves, trace = b.path(f"{tag}.moves"), b.path(f"{tag}.jsonl")
    lions = ",".join(map(str, starts))
    b.add(["strategy", kind, "-n", n, "-l", l, "--starts", lions, "-o", moves],
          partial(checks.strategy, key=tag, moves=moves, lions=len(starts)), outputs=[moves])
    b.add(["simulate", path, "--model", model, "--lions", lions, "--moves", moves,
           "--trace-out", trace],
          partial(checks.simulate, g=g, key=tag, model=model, lions=starts, trace=trace,
                  monotone_suffix=kind == "row-sweep"),
          outputs=[trace], traces=[trace])
    b.add(["verify", path, "--trace", trace], partial(checks.verify, trace=trace))


BUILDERS = {"search": build_search, "enumerate": build_enumerate, "simulate": build_simulate}


def build(workload: str, seed: int, lib, workdir: str) -> list:
    """Generate the workload's inputs from the seed into workdir; return its tasks."""
    b = Builder(lib, workdir)
    BUILDERS[workload](b, random.Random(f"{workload}:{seed}"))
    return b.tasks
