"""Exhaustive solver: can k lions under a motion model sweep the graph?

Breadth-first reachability over Markov states (lion multiset, cleared set),
deduplicating visited states and optionally discarding states whose cleared
set is dominated by an already-seen state with the same lion positions
(sound because the update rule is monotone in the cleared set).
Single-threaded and deterministic: moves follow Graph.adj's neighbour order.

A state is one int, cleared | the sum of code[p] over the lion positions p,
with code[v] = 1 << (n + v * k.bit_length()): the cleared mask in the low n
bits, and above them a count of the lions on each vertex, so the key does
not depend on the lions' order (_KeyCodes). A key offered once is never
admitted again, so one table of offered keys, each mapped to the key that
first offered it, rejects repeats before any dominance work and holds the
parent links. The frontier and the per-position antichains hold the
admitted keys: keys with one position code compare as their cleared masks,
a | b == b iff the masks do. A state's positions are decoded on expansion.

Expanding a state runs dynamics.exposure once and derives every successor
key from its frame (_successor_keys), without a step_cleared_mask call per
move: a vacancy v stays cleared iff the targets of the lions on v cover its
exposed mask. The work per move is one addition and one lookup, in tables
of the search's _KeyCodes that fill on first use and are bounded by the lion
configurations, not by the states: each position code is decoded once, and
each vertex's free or caffeinated move factor is built once per lion count
and exposed mask, then summed factor by factor into the move's code sums.

Lions on one vertex are interchangeable, so a move is enumerated once per
target multiset of each vertex's lions, not once per ordered target tuple:
the first tuple of the per-lion product giving a key is sorted within each
vertex's lions, so every key is first offered in the same order, by the
same move, and the explored states and witnesses are those of the full
product.
"""
from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from typing import Iterator, Optional

from . import dynamics
from .dynamics import STAY, Trace, exposure, initial_state, run
from .graphs import Graph, check_vertices, has_odd_cycle, is_connected, mask_vertices, vertex_mask


@dataclass(frozen=True)
class SearchLimits:
    # the search returns unknown only when it would admit a state past this
    # many; it bounds the depth too: d + 1 states lead to depth d
    max_states: int = 1_000_000
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
    """Resolve "canonical" or a list of start tuples into sorted position tuples.

    Sweepability is start-independent on connected graphs (and for
    caffeinated lions on connected graphs with an odd cycle), so "canonical"
    uses all lions on vertex 0; caffeinated motion on a bipartite graph
    conserves the two-coloring split up to global flips, so there one start
    per parity class of the position vector is searched.  Canonical starts
    are refused on a disconnected graph, where they are not sound, and for
    k >= 1 on the empty graph, which has no vertex to place lions on.  An
    empty list is refused: searching from no start would read as impossible.
    """
    if starts == "canonical":
        if not is_connected(g):
            raise ValueError("canonical starts need a connected graph; give explicit starts")
        if k == 0:
            return [()]
        if g.n == 0:
            raise ValueError(f"the empty graph has no vertex to place {k} lions on")
        if model == "caffeinated" and not has_odd_cycle(g) and g.adj[0]:
            nbr = g.adj[0][0]
            # j lions on the other color class; j and k-j are one flip apart
            return [tuple(sorted([0] * (k - j) + [nbr] * j)) for j in range(k // 2 + 1)]
        return [(0,) * k]
    if not starts:
        raise ValueError("the start list is empty; give at least one start tuple")
    out = []
    for tup in starts:
        if len(tup) != k:
            raise ValueError(f"start {tup} does not place {k} lions")
        check_vertices(g, tup)
        out.append(tuple(sorted(tup)))
    return out


class _KeyCodes(dict):
    """The codes and move tables behind the state keys of one search with k
    lions on the graph with adjacency adj = g.adj: code[v], and, as a dict,
    each sum s of codes, vacancy bits below n included, -> s | the mask of
    the vertices s occupies, worked out on its first lookup from the bits of
    s above n only. Counts of at most k lions fit the b = k.bit_length()
    bits per vertex.

    Three more tables fill on first use, each bounded by the lion
    configurations, not by the states: decoded, each position code (a key's
    bits above n) -> its sorted positions, at most C(n+k-1, k) entries;
    targets, (stay, p, m) -> the target multisets of m <= k lions on p, at
    most n*k entries; and factors, (stay, p, m, exposed) -> their code sums
    (factor), exposed being 0 or a set of at most m of p's neighbours. A
    memo of successor-key lists per configuration and vacancies would grow
    with the states, and triple the peak RSS of a R_{4,4} free k=4 search."""

    def __init__(self, adj, k: int):
        super().__init__()
        self.adj = adj
        self.n = len(adj)
        self.b = k.bit_length()
        self.code = tuple(1 << (self.n + v * self.b) for v in range(self.n))
        self.adj_steps = tuple(tuple(self.code[u] | 1 << u for u in nbrs) for nbrs in adj)
        self.decoded = {}
        self.targets = {}
        self.factors = {}

    def positions(self, key: int) -> tuple:
        """The sorted lion positions of a key."""
        pc = key >> self.n
        out = self.decoded.get(pc)
        if out is None:
            b, x, out = self.b, pc, ()
            while x:
                shift = (x & -x).bit_length() - 1
                shift -= shift % b
                lions = x >> shift & ((1 << b) - 1)
                out += (shift // b,) * lions
                x ^= lions << shift
            self.decoded[pc] = out
        return out

    def _targets(self, stay: bool, p: int, m: int) -> list:
        """The target multisets of m lions on p: p first if they may stay, then adj[p]."""
        if (stay, p, m) not in self.targets:
            self.targets[stay, p, m] = list(itertools.combinations_with_replacement(
                ((p,) + self.adj[p]) if stay else self.adj[p], m))
        return self.targets[stay, p, m]

    def factor(self, stay: bool, p: int, m: int, exposed: int) -> list:
        """The code sums of the moves of m lions on p (_targets), each plus
        bit p if its targets cover exposed: p's exposed mask if p is a
        vacancy, else 0."""
        key = (stay, p, m, exposed)
        sums = self.factors.get(key)
        if sums is None:
            sums = self.factors[key] = []
            for ts in self._targets(stay, p, m):
                covered = 0
                for t in ts:
                    covered |= 1 << t
                s = sum(map(self.code.__getitem__, ts))
                sums.append(s + (1 << p) if exposed and exposed & covered == exposed else s)
        return sums

    def move(self, model: str, positions: tuple, i: int) -> tuple:
        """The targets, aligned with the sorted positions, of the move behind
        the i-th key _successor_keys yields from them. Polite: 0 is the stay,
        then one block of adj[p] per distinct p, moving p's first lion. Free
        and caffeinated: one digit of i per factor, the last the fastest."""
        if model == "polite":
            for p in dict.fromkeys(positions):
                if 0 < i <= len(self.adj[p]):
                    j = positions.index(p)
                    return positions[:j] + (self.adj[p][i - 1],) + positions[j + 1:]
                i -= len(self.adj[p])
            return positions
        targets = ()
        for p in reversed(dict.fromkeys(positions)):
            table = self._targets(model == "free", p, positions.count(p))
            i, digit = divmod(i, len(table))
            targets = table[digit] + targets
        return targets

    def __missing__(self, s: int) -> int:
        key = s | vertex_mask(set(self.positions(s)), self.n)
        self[s] = key
        return key


def _successor_keys(frame, model: str, positions: tuple, codes: _KeyCodes) -> Iterator[int]:
    """The keys after each move from the state at the sorted positions whose
    exposure frame is given; codes.move gives the targets of the i-th move.

    A move clears Safe | Occ' and each vacancy v whose exposed mask the
    targets of the lions on v cover. Bit v is one of the low n bits, so
    adding it to a sum of position codes never carries into the counts, and
    distinct vacancies are distinct bits.

    Polite: the lion on p moving to t gives safe | Occ, less p if it held
    p's only lion, | t, and the code sum less code[p] plus code[t]; if p is
    a vacancy, bit p comes back on the one t with exposed == 1 << t.

    Stacked lions are interchangeable, so a polite step moves only the first
    lion of each vertex, and the free and caffeinated sums are the product
    of one factor per occupied vertex, codes.factor of its m lions, summed
    factor by factor with the first factor outermost, as in
    itertools.product. The key of a sum s is safe | codes[s].
    """
    safe, vacancies = frame
    exposed_at = {v_bit.bit_length() - 1: exposed for v_bit, exposed, _ in vacancies}
    if model == "polite":
        code, adj = codes.code, codes.adj
        occ = 0
        for p in positions:
            occ |= 1 << p
        pc = sum(map(code.__getitem__, positions))
        moves = []
        for p in dict.fromkeys(positions):
            low, steps = safe | occ, codes.adj_steps[p]
            if positions.count(p) == 1:
                low = safe | occ & ~(1 << p)
                if p in exposed_at:  # one lion: exposed is one neighbour's bit
                    i = adj[p].index(exposed_at[p].bit_length() - 1)
                    steps = steps[:i] + (steps[i] | 1 << p,) + steps[i + 1:]
            moves.append(map(low.__or__, map((pc - code[p]).__add__, steps)))
        return itertools.chain((safe | occ | pc,), *moves)
    stay = model == "free"
    sums = [0]
    for p in dict.fromkeys(positions):
        f = codes.factor(stay, p, positions.count(p), exposed_at.get(p, 0))
        sums = [x + y for x in sums for y in f]
    return map(safe.__or__, map(codes.__getitem__, sums))


def can_clear(g: Graph, k: int, model: str = "free", starts="canonical",
              limits: Optional[SearchLimits] = None) -> SearchVerdict:
    """Decide whether k lions under the model can sweep g, exhaustively.

    Returns Cleared with a witness trace, Impossible after exhausting the
    reachable deduplicated state space, or Unknown only when it would admit
    a state past limits.max_states: repeats, dominated states and a clearing
    successor never end the search, so a search that runs out of new states
    at the limit is Impossible, proven, as every reachable state was admitted
    or dominated.  The start states are the successors of a root, None,
    the frontier's first entry: they are offered, admitted and counted as
    every other state is, so no more states than the limit are admitted.
    Raises ValueError on an unknown model or unsound starts.
    """
    if model not in dynamics.MODELS:
        raise ValueError(f"unknown motion model {model!r}")
    if k < 0:
        raise ValueError("lion count must be >= 0")
    limits = limits or SearchLimits()
    max_states, dominance = limits.max_states, limits.dominance_pruning
    adj_masks = g.neighbor_masks
    full = adj_masks.full
    codes = _KeyCodes(g.adj, k)

    start_keys = [codes[sum(map(codes.code.__getitem__, spos))]
                  for spos in _start_tuples(g, k, model, starts)]
    parents: dict = {}  # every offered key -> the key that first offered it
    antichains: dict = {}  # position code -> the maximal keys admitted there
    frontier: deque = deque([None])  # the root, whose successors are the start keys
    peak = admitted = 0

    def expand(key: int):
        positions = codes.positions(key)
        frame = exposure(adj_masks, positions, key & full)
        return positions, _successor_keys(frame, model, positions, codes)

    def witness(key: int) -> Trace:
        # a key is admitted at its first offer, so its first index among its
        # parent's successor keys is the move that was searched
        chain = [key]
        while parents[chain[-1]] is not None:
            chain.append(parents[chain[-1]])
        actual = list(codes.positions(chain[-1]))
        steps = []
        for parent, child in itertools.pairwise(reversed(chain)):
            positions, keys = expand(parent)
            i = next(i for i, key in enumerate(keys) if key == child)
            order = sorted(range(k), key=actual.__getitem__)  # stable: ties keep lion order
            assert [actual[lion] for lion in order] == list(positions)
            mv = [STAY] * k
            for lion, t in zip(order, codes.move(model, positions, i)):
                if t != actual[lion]:
                    mv[lion] = actual[lion] = t
            steps.append(tuple(mv))
        return run(g, model, codes.positions(chain[-1]), steps)

    while frontier:
        peak = max(peak, len(frontier))
        key = frontier.popleft()
        for new_key in itertools.filterfalse(parents.__contains__,
                                             start_keys if key is None else expand(key)[1]):
            parents[new_key] = key
            new_cleared = new_key & full
            if new_cleared == full:
                return SearchVerdict("cleared", witness(new_key), admitted + 1, peak)
            if dominance:  # keys with one position code compare as their cleared masks
                pc = new_key ^ new_cleared
                keys = antichains.get(pc, ())
                if any(new_key | m == m for m in keys):
                    continue
                antichains[pc] = [m for m in keys if m | new_key != new_key] + [new_key]
            if admitted >= max_states:
                return SearchVerdict("unknown", None, admitted, peak,
                                     f"state limit {max_states} reached")
            admitted += 1
            frontier.append(new_key)

    return SearchVerdict("impossible", None, admitted, peak)


@dataclass(frozen=True)
class MinLionsResult:
    """The last lion count min_lions searched and its verdict: if cleared, k
    is the minimum; if unknown, the search at k hit its limits; if
    impossible, k is k_max and no count up to it sweeps."""

    k: int
    verdict: SearchVerdict


def min_lions(g: Graph, model: str = "free", k_max: int = 4,
              limits: Optional[SearchLimits] = None) -> MinLionsResult:
    """Search k = 0..k_max and stop at the first verdict that is not impossible.

    Cleared gives the minimum k with its witness. Unknown stops too, since a
    larger k being cleared would not certify minimality. Impossible at every
    k returns k = k_max with its verdict.
    """
    if k_max < 0:
        raise ValueError("k_max must be >= 0")
    for k in range(k_max + 1):
        verdict = can_clear(g, k, model, "canonical", limits)
        if verdict.status != "impossible":
            break
    return MinLionsResult(k, verdict)


@dataclass(frozen=True)
class LemmaReport:
    """Per-step check of a trace: its replay and the two cleared-set growth lemmas."""

    violations: tuple  # (time, lemma, detail)
    steps_checked: int

    @property
    def ok(self) -> bool:
        return not self.violations


# what a move breaks, for each reason validate_moves gives
_BROKEN_RULES = {"not-adjacent": "is not a step to adjacent vertices",
                 "must-move": "leaves a caffeinated lion in place",
                 "politeness": "moves more than one polite lion"}


def verify_lemma_bounds(g: Graph, trace: Trace, model: str = "free") -> LemmaReport:
    """Replay the trace from initial_state (an unknown model, a lion off the
    graph in any record, or a move for another number of lions, raises
    ValueError): the first record whose move validate_moves rejects under
    the motion model, or whose lions or cleared set differ from the replay,
    is a "replay" violation.  Also check, with k the lion count and
    |boundary(C(t))| = |C(t)| - |Safe| read off the frame the replay steps with,
    |C(t+1)| - |C(t)| <= k and that |boundary(C(t))| >= 2k forces
    |C(t+1)| <= |C(t)|: proved facts, so a violation means an engine bug or
    an edited trace.

    Record 0's cleared set becomes a mask in full; each later mask is the
    previous one with the two records' symmetric difference flipped, a few
    vertices a step (at most k gained). vertex_mask range-checks each vertex
    where it first enters a record, before it becomes a bit, so a forged
    vertex such as 10**12 raises ValueError without a huge mask.
    """
    if model not in dynamics.MODELS:  # validate_moves checks it only on a replayed move
        raise ValueError(f"unknown motion model {model!r}")
    states = trace.states
    check_vertices(g, itertools.chain.from_iterable(s.lions for s in states))
    start = initial_state(g, states[0].lions)
    k = len(start.lions)
    replaying = states[0].cleared == start.cleared
    violations = [] if replaying else [(states[0].time, "replay", "cleared set is not the lions'")]
    cleared = vertex_mask(states[0].cleared, g.n)
    for mv, a, b in zip(trace.moves, states, states[1:]):
        next_cleared = cleared ^ vertex_mask(a.cleared ^ b.cleared, g.n)
        growth = next_cleared.bit_count() - cleared.bit_count()
        frame = exposure(g.neighbor_masks, a.lions, cleared)
        if growth > k:
            violations.append((a.time, "growth-bound", f"|C| grew by {growth} > k={k}"))
        if growth > 0 and cleared.bit_count() - frame[0].bit_count() >= 2 * k:
            violations.append((a.time, "boundary-stall",
                               f"boundary >= 2k={2 * k} yet |C| grew by {growth}"))
        if replaying:  # until the first divergence, record a is the replayed state
            broken = dynamics.validate_moves(g, model, a, mv)
            if broken:
                detail = f"move {list(mv)} " + " and ".join(
                    dict.fromkeys(_BROKEN_RULES[reason] for _, reason in broken))
            else:
                positions, replayed = dynamics._advance(frame, a.lions, mv)
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
