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

Expanding a state takes its Safe from graphs._interior_mask once and reads
every successor key off code sums (_successor_keys), with no step_cleared_mask
call per move: a vertex p the lions on it vacate stays cleared iff their
targets cover its exposed mask, its contaminated neighbours. The work per move
is one addition and one lookup in tables of the search's _KeyCodes, plus a
union with Safe only if Safe is non-empty; the tables fill on first use and
are bounded by the lion configurations, not by the states: each position code
is decoded once, and each vertex's move factor is built once per lion count
and exposed mask. Free and caffeinated moves sum the factors factor by factor;
a polite move adds one lion's caffeinated factor to the stay sum less the code
of the vertex it leaves.

Lions on one vertex are interchangeable, so a move is enumerated once per
target multiset of each vertex's lions, not once per ordered target tuple:
the first tuple of the per-lion product giving a key is sorted within each
vertex's lions, so every key is first offered in the same order, by the same
move, and the explored states and witnesses are those of the full product.
"""
from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from typing import Iterator, Optional

from . import dynamics, graphs
from .dynamics import STAY, SimState, Trace, initial_state, run
from .errors import ParseError
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
    (factor), exposed being 0 or a set of at most m of p's neighbours. All
    three motion models read them: polite moves only the (False, p, 1)
    entries, one lion stepping to a neighbour. A memo of successor-key lists
    per configuration and vacancies would grow with the states, and triple
    the peak RSS of a R_{4,4} free k=4 search."""

    def __init__(self, adj, k: int):
        super().__init__()
        self.adj = adj
        self.n = len(adj)
        self.b = k.bit_length()
        self.code = tuple(1 << (self.n + v * self.b) for v in range(self.n))
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
        then one block of one-lion targets per distinct p, moving p's first
        lion. Free and caffeinated: one digit of i per factor, the last the
        fastest."""
        if model == "polite":
            for p in dict.fromkeys(positions):
                table = self._targets(False, p, 1)
                if 0 < i <= len(table):
                    j = positions.index(p)
                    return positions[:j] + table[i - 1] + positions[j + 1:]
                i -= len(table)
            return positions
        targets = ()
        for p in reversed(dict.fromkeys(positions)):
            table = self._targets(model == "free", p, positions.count(p))
            i, digit = divmod(i, len(table))
            targets = table[digit] + targets
        return targets

    def __missing__(self, s: int) -> int:
        key = s | vertex_mask(self.positions(s), self.n)
        self[s] = key
        return key


def _successor_keys(adj_masks, model: str, key: int, codes: _KeyCodes) -> Iterator[int]:
    """The keys after each move from the state key on the graph whose
    neighbor_masks adj_masks is; codes.move gives the targets of the i-th move.

    A move clears Safe | Occ' and each vacated vertex p whose exposed mask,
    adj_masks[p] & ~cleared, the targets of the lions that left p cover; an
    exposed mask with more bits than p has lions counts as 0, as no move covers
    it. Bit p is one of the low n bits, so adding it to a sum of position codes
    never carries into the counts, and distinct vertices are distinct bits.

    Stacked lions are interchangeable, so the free and caffeinated sums are the
    product of one factor per occupied vertex, codes.factor of its m lions,
    summed factor by factor with the first factor outermost, as in
    itertools.product; a polite step moves only the first lion of each vertex,
    so its sums are the stay sum pc, then pc - code[p] plus each sum of the
    one-lion caffeinated factor of p, whose exposed mask is 0 if other lions
    stay on p. The key of a sum s is codes[s], joined with safe only if Safe is
    non-empty: Safe was empty in 66% of the states a seed-1 search benchmark
    pass expanded, which made 78% of its keys.
    """
    cleared = key & adj_masks.full
    safe = graphs._interior_mask(adj_masks, cleared)
    positions = codes.positions(key)
    polite, pc = model == "polite", key ^ cleared
    sums = [pc] if polite else [0]
    for p in dict.fromkeys(positions):
        m = positions.count(p)
        exposed = adj_masks[p] & ~cleared
        if exposed.bit_count() > m:
            exposed = 0
        if polite:
            sums += map((pc - codes.code[p]).__add__,
                        codes.factor(False, p, 1, exposed if m == 1 else 0))
        else:
            f = codes.factor(model == "free", p, m, exposed)
            sums = [x + y for x in sums for y in f]
    keys = map(codes.__getitem__, sums)
    return map(safe.__or__, keys) if safe else keys


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

    def witness(key: int) -> Trace:
        # a key is admitted at its first offer, so its first index among its
        # parent's successor keys is the move that was searched
        chain = [key]
        while parents[chain[-1]] is not None:
            chain.append(parents[chain[-1]])
        actual = list(codes.positions(chain[-1]))
        steps = []
        for parent, child in itertools.pairwise(reversed(chain)):
            positions = codes.positions(parent)
            keys = _successor_keys(adj_masks, model, parent, codes)
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
        successors = start_keys if key is None else _successor_keys(adj_masks, model, key, codes)
        for new_key in itertools.filterfalse(parents.__contains__, successors):
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
                return SearchVerdict("unknown", None, admitted, peak)
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


def verify_lemma_bounds(g: Graph, trace, model: str = "free") -> LemmaReport:
    """Replay a trace, a Trace or the lines of a write_trace file, from
    initial_state: the first record whose move validate_moves rejects under
    the motion model, or whose lions or cleared set differ from the replay,
    is a "replay" violation.  Also check, with k the lion count and
    |boundary(C(t))| = |C(t)| - |Safe|, Safe being the interior that each
    step hands step_cleared_mask, |C(t+1)| - |C(t)| <= k and that
    |boundary(C(t))| >= 2k forces |C(t+1)| <= |C(t)|: proved facts, so a
    violation means an engine bug or an edited trace.

    While the replay agrees with the trace, the move at a line's end is
    stepped, and a line equal to write_trace's rendering of the replayed
    record is not parsed.  That rendering joins the one running list of the
    cleared vertices and their texts, edited at the step's difference, so a
    record costs no sort and no text for its unchanged vertices.  read_trace's
    record parser takes any other line, range-checked at the two ends of its
    increasing cleared list.  A ParseError wins over a lion off the graph,
    that over a cleared vertex off it, the record's smallest (both
    ValueError), and either over the report.  A Trace is read as rendered."""
    if model not in dynamics.MODELS:  # validate_moves checks it only on a replayed move
        raise ValueError(f"unknown motion model {model!r}")
    text, masks = dynamics._VertexText(), g.neighbor_masks
    if isinstance(trace, Trace):
        trace = map(text.line, trace.states, (None, *trace.moves))
    violations, off_lions, off_cleared, cleared = [], [], [], 0
    listed = dynamics._SortedVertices(text=text)  # the bits of cleared in order, with texts
    replaying, t, k = False, 0, None
    for lineno, raw in enumerate(trace, start=1):
        b, detail = None, ""
        mv = dynamics._tail_move(raw) if replaying else None
        if mv is not None and len(mv) == k and not dynamics.validate_moves(g, model, a, mv):
            positions, next_cleared = dynamics.step_cleared_mask(masks, a.lions, cleared, safe, mv)
            flipped = mask_vertices(cleared ^ next_cleared)
            listed.flip(flipped)
            b = SimState(t, positions, tuple(listed.order))
            if text.line(b, mv, ", ".join(listed.texts)) != raw:  # not the replayed record
                listed.flip(flipped)
                b = None
        if b is None:
            if not raw.strip():
                continue
            b, mv = dynamics._parse_record(raw, lineno, t, k)
            k = len(b.lions)
            off_lions = off_lions or [v for v in b.lions if not 0 <= v < g.n]
            if not (off_lions or off_cleared):  # cleared increases, so its ends bound it
                if b.cleared and not (0 <= b.cleared[0] and b.cleared[-1] < g.n):
                    off_cleared = [v for v in b.cleared if not 0 <= v < g.n]
                else:
                    flipped = set(b.cleared).symmetric_difference(listed.order)
                    next_cleared = cleared ^ vertex_mask(flipped, g.n)
                    listed.flip(flipped)
            if off_lions or off_cleared:
                replaying = False
            elif not t:
                replaying = b.cleared == initial_state(g, b.lions).cleared
                detail = "" if replaying else "cleared set is not the lions'"
            elif replaying:  # record a is the replayed one
                broken = dynamics.validate_moves(g, model, a, mv)
                if broken:
                    detail = f"move {list(mv)} " + " and ".join(
                        dict.fromkeys(_BROKEN_RULES[reason] for _, reason in broken))
                else:
                    positions, mask = dynamics.step_cleared_mask(masks, a.lions, cleared, safe, mv)
                    if positions != b.lions:
                        detail = f"lions {list(b.lions)}, replay gives {list(positions)}"
                    elif mask != next_cleared:
                        detail = f"cleared {list(b.cleared)}, " \
                                 f"replay gives {list(mask_vertices(mask))}"
        if not (off_lions or off_cleared):
            growth = next_cleared.bit_count() - cleared.bit_count()
            if t and growth > k:
                violations.append((a.time, "growth-bound", f"|C| grew by {growth} > k={k}"))
            if t and growth > 0 and cleared.bit_count() - safe.bit_count() >= 2 * k:
                violations.append((a.time, "boundary-stall",
                                   f"boundary >= 2k={2 * k} yet |C| grew by {growth}"))
            if detail:
                violations.append((b.time, "replay", detail))
                replaying = False
            cleared, safe = next_cleared, graphs._interior_mask(masks, next_cleared)
        a, t = b, t + 1
    if not t:
        raise ParseError("trace has no records", 1)
    check_vertices(g, off_lions + off_cleared)  # the first lion off the graph, else vertex
    return LemmaReport(tuple(violations), t - 1)
