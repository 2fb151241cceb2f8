"""Exhaustive solver: can k lions under a motion model sweep the graph?

Breadth-first reachability over Markov states (sorted lion multiset, cleared
set as a bitmask), deduplicating visited states and optionally discarding
states whose cleared set is dominated by an already-seen state with the same
lion positions (sound because the update rule is monotone in the cleared set).
Single-threaded and deterministic: moves are enumerated in sorted order.
"""
from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from typing import Iterator, Optional

from . import dynamics
from .dynamics import STAY, Trace, exposure, initial_state, run, step_cleared_mask
from .graphs import (Graph, boundary_size_mask, check_vertices, has_odd_cycle, is_connected,
                     mask_vertices, vertex_mask)


@dataclass(frozen=True)
class SearchLimits:
    max_states: int = 1_000_000  # bounds the depth too: d + 1 states lead to depth d
    dominance_pruning: bool = True

    def __post_init__(self):
        if self.max_states < 1:
            raise ValueError("the state limit must be positive")


@dataclass(frozen=True)
class SearchVerdict:
    status: str  # "cleared" | "impossible" | "unknown"
    trace: Optional[Trace] = None
    states_explored: int = 0
    peak_frontier: int = 0
    detail: str = ""


def _start_tuples(g: Graph, k: int, model: str, starts) -> list:
    """Resolve the start policy into concrete sorted position tuples.

    Sweepability is start-independent on connected graphs (and for
    caffeinated lions on connected graphs with an odd cycle), so "canonical"
    uses all lions on vertex 0; caffeinated motion on a bipartite graph
    conserves the two-coloring split up to global flips, so there one start
    per parity class of the position vector is searched.  Canonical starts
    are refused on a disconnected graph, where they are not sound, and for
    k >= 1 on the empty graph, which has no vertex to place lions on.
    """
    if starts == "canonical":
        if not is_connected(g):
            raise ValueError("canonical starts need a connected graph; give explicit starts")
        if k == 0:
            return [()]
        if g.n == 0:
            raise ValueError(f"the empty graph has no vertex to place {k} lions on")
        if model == "caffeinated" and not has_odd_cycle(g):
            nbr = min(g.adj[0]) if g.adj[0] else None
            if nbr is None:
                return [(0,) * k]
            # j lions on the other color class; j and k-j are one flip apart
            return [tuple(sorted([0] * (k - j) + [nbr] * j)) for j in range(k // 2 + 1)]
        return [(0,) * k]
    if starts and isinstance(starts[0], int):
        starts = [starts]
    out = []
    for tup in starts:
        if len(tup) != k:
            raise ValueError(f"start {tup} does not place {k} lions")
        check_vertices(g, tup)
        out.append(tuple(sorted(tup)))
    return out


def _move_choices(model: str, positions, sorted_adj) -> Iterator[tuple]:
    """Deterministic enumeration of target tuples aligned with the sorted positions."""
    if model == "caffeinated":
        return itertools.product(*(sorted_adj[p] for p in positions))
    if model == "free":
        return itertools.product(*((p,) + sorted_adj[p] for p in positions))
    # polite: everyone stays, or exactly one lion moves
    def gen():
        yield tuple(positions)
        for i, p in enumerate(positions):
            for t in sorted_adj[p]:
                yield tuple(positions[:i]) + (t,) + tuple(positions[i + 1:])
    return gen()


def can_clear(g: Graph, k: int, model: str = "free", starts="canonical",
              limits: Optional[SearchLimits] = None) -> SearchVerdict:
    """Decide whether k lions under the model can sweep g, exhaustively.

    Returns Cleared with a witness trace, Impossible after exhausting the
    reachable deduplicated state space, or Unknown when a limit is hit
    (never misreported as Impossible).  Raises ValueError on unsound starts.
    """
    if k < 0:
        raise ValueError("lion count must be >= 0")
    limits = limits or SearchLimits()
    adj_masks = g.neighbor_masks
    sorted_adj = tuple(tuple(sorted(g.adj[v])) for v in range(g.n))
    full = (1 << g.n) - 1

    start_list = _start_tuples(g, k, model, starts)
    visited: dict = {}
    parents: dict = {}  # every admitted state, so len(parents) counts them
    frontier: deque = deque()
    peak = 0

    def admit(key, parent_key, targets) -> bool:
        pos, cl = key
        if limits.dominance_pruning:
            lst = visited.get(pos)
            if lst is None:
                visited[pos] = [cl]
            else:
                for m in lst:
                    if cl | m == m:  # cl subset of an explored cleared set
                        return False
                visited[pos] = [m for m in lst if m | cl != cl] + [cl]
        elif key in parents:
            return False
        parents[key] = (parent_key, targets)
        return True

    def witness(key) -> Trace:
        hops = []
        while parents[key][0] is not None:
            parent_key, targets = parents[key]
            hops.append((parent_key[0], targets))
            key = parent_key
        hops.reverse()
        start_positions = key[0]
        actual = list(start_positions)
        steps = []
        for prev_sorted, targets in hops:
            order = sorted(range(k), key=lambda i: (actual[i], i))
            mv = [STAY] * k
            for rank, lion in enumerate(order):
                assert actual[lion] == prev_sorted[rank]
                mv[lion] = STAY if targets[rank] == actual[lion] else targets[rank]
                if mv[lion] != STAY:
                    actual[lion] = mv[lion]
            steps.append(tuple(mv))
        return run(g, model, start_positions, steps)

    for spos in start_list:
        cl0 = vertex_mask(spos, g.n)
        key = (spos, cl0)
        if cl0 == full:
            return SearchVerdict("cleared", run(g, model, spos, []), 1, 1)
        if admit(key, None, None):
            frontier.append(key)

    while frontier:
        peak = max(peak, len(frontier))
        positions, cleared = frontier.popleft()
        frame = exposure(adj_masks, positions, cleared)
        for targets in _move_choices(model, positions, sorted_adj):
            new_cleared = step_cleared_mask(frame, targets)
            new_key = (tuple(sorted(targets)), new_cleared)
            if new_cleared == full:
                parents[new_key] = ((positions, cleared), targets)
                return SearchVerdict("cleared", witness(new_key), len(parents), peak)
            if len(parents) >= limits.max_states:
                return SearchVerdict("unknown", None, len(parents), peak,
                                     f"state limit {limits.max_states} reached")
            if admit(new_key, (positions, cleared), targets):
                frontier.append(new_key)

    return SearchVerdict("impossible", None, len(parents), peak)


@dataclass(frozen=True)
class MinLionsResult:
    status: str  # "found" | "unknown" | "not_found"
    k: Optional[int] = None
    verdict: Optional[SearchVerdict] = None
    detail: str = ""


def min_lions(g: Graph, model: str = "free", k_max: int = 4,
              limits: Optional[SearchLimits] = None) -> MinLionsResult:
    """Smallest k in 0..k_max that sweeps g, with the witness verdict.

    Returns unknown as soon as an intermediate search hits its limits, since
    a larger k being cleared would not certify minimality.
    """
    if k_max < 0:
        raise ValueError("k_max must be >= 0")
    for k in range(k_max + 1):
        verdict = can_clear(g, k, model, "canonical", limits)
        if verdict.status == "cleared":
            return MinLionsResult("found", k, verdict)
        if verdict.status == "unknown":
            return MinLionsResult("unknown", None, verdict,
                                  f"search at k={k} hit its limits")
    return MinLionsResult("not_found", None, None,
                          f"no sweep with up to {k_max} lions")


@dataclass(frozen=True)
class LemmaReport:
    """Per-step check of a trace: its replay and the two cleared-set growth lemmas."""

    violations: tuple  # (time, lemma, detail)
    steps_checked: int

    @property
    def ok(self) -> bool:
        return not self.violations


def verify_lemma_bounds(g: Graph, trace: Trace) -> LemmaReport:
    """Replay the trace from initial_state (a lion off the graph in any
    record, or a move for another number of lions, raises ValueError): the
    first record whose move is not adjacent, or whose lions or cleared set
    differ from the replay, is a "replay" violation.  Also
    check, with k the lion count, |C(t+1)| - |C(t)| <= k and that
    |boundary(C(t))| >= 2k forces |C(t+1)| <= |C(t)|: proved facts, so a
    violation means an engine bug or an edited trace.
    """
    states = trace.states
    check_vertices(g, itertools.chain.from_iterable(s.lions for s in states))
    start = initial_state(g, states[0].lions)
    k = len(start.lions)
    replaying = states[0].cleared == start.cleared
    violations = [] if replaying else [(states[0].time, "replay", "cleared set is not the lions'")]
    cleared = vertex_mask(states[0].cleared, g.n)
    for mv, a, b in zip(trace.moves, states, states[1:]):
        next_cleared = vertex_mask(b.cleared, g.n)
        growth = next_cleared.bit_count() - cleared.bit_count()
        if growth > k:
            violations.append((a.time, "growth-bound", f"|C| grew by {growth} > k={k}"))
        if growth > 0 and boundary_size_mask(g.neighbor_masks, cleared) >= 2 * k:
            violations.append((a.time, "boundary-stall",
                               f"boundary >= 2k={2 * k} yet |C| grew by {growth}"))
        if replaying:  # until the first divergence, record a is the replayed state
            if dynamics.validate_moves(g, "free", a, mv):
                detail = f"move {list(mv)} is not a step to adjacent vertices"
            else:
                positions, replayed = dynamics._advance(g.neighbor_masks, a.lions, cleared, mv)
                if positions != b.lions:
                    detail = f"lions {list(b.lions)}, replay gives {list(positions)}"
                elif replayed != next_cleared:
                    detail = f"cleared {sorted(b.cleared)}, " \
                             f"replay gives {list(mask_vertices(replayed))}"
                else:
                    detail = ""
            if detail:
                violations.append((b.time, "replay", detail))
                replaying = False
        cleared = next_cleared
    return LemmaReport(tuple(violations), len(states) - 1)
