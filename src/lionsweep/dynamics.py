"""Contamination dynamics: the synchronous clear/recontaminate update rule,
motion-model validation, trace objects, and their line-oriented serialization.

The update applied by step():  with Occ' the vertices occupied after the
moves and Blocked the (undirected) edges some lion crossed during the step,

    cleared(t+1) = (cleared(t) \\ Recon) | Occ'
    Recon = { v in cleared(t) : v not in Occ', and v has a neighbor u with
              u contaminated at time t and edge uv not in Blocked }

Contamination spreads exactly one hop per step, read off the time-t state;
a vertex a lion vacates can recontaminate in the same step.

step(), run() and verify call step_cleared_mask() once per move step that
validate_moves accepts:

    cleared(t+1) = Safe | Occ' | the vertices p the step vacates that were
        cleared and whose contaminated neighbors are all targets of the
        lions that left p

Safe, the cleared vertices with no contaminated neighbor, costs a few
whole-mask operations per index difference of the graph's edges
(graphs._interior_mask: 3 on R_{n,l}, so about a dozen operations on |V|-bit
ints), the vacated vertices O(k) more: one on a row-sweep step.  verify also
reads |boundary(C)| = |C| - |Safe| off Safe.

This is the rule above: a cleared v outside Occ' with a contaminated
neighbor u survives only if a lion crossed uv, and that lion went from v to
u, since one going from u to v would put v in Occ'.  A vacated vertex that
was not cleared stays contaminated; no state reachable from initial_state()
has one, as Occ' is cleared.

A record holds its cleared set as the strictly increasing tuple of its
vertices, the order write_trace writes and read_trace checks: one pointer
a vertex, where a frozenset's hash table costs several.  run() and verify
step each record from the one before, convert only the step's difference
C(t) ^ C(t+1) from mask to vertices (at most k enter, and few leave on the
sweeps and walls of R_{n,l}) and flip it by bisection in one running
increasing list, never back; run() copies the list into each record's
tuple, with no sort, and step() is that fold over one move.  verify and
simulate (_simulate) keep the vertices' texts in a parallel list and
render a record as write_trace does by joining it: verify parses no line
equal to that text, and simulate holds the lines, not the records.

The search expands a whole state at once: it takes Safe from
graphs._interior_mask once per state and reads every successor off its move
tables in one batch (see search._successor_keys); its tests hold each batch
to step_cleared_mask().
"""
from __future__ import annotations

import json
import operator
from bisect import bisect_left
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Iterator, Optional, Sequence

from .errors import ParseError
from .graphs import Graph, _interior_mask, check_vertices, mask_vertices, vertex_mask

STAY = -1

MODELS = ("free", "caffeinated", "polite")

MoveStep = tuple  # one entry per lion: STAY or the target vertex


@dataclass(frozen=True)
class SimState:
    """Full Markov state of the game: time, lion positions, and the cleared
    set as the strictly increasing tuple of its vertices."""

    time: int
    lions: tuple
    cleared: tuple


@dataclass(frozen=True)
class Trace:
    """Initial state followed by alternating moves/states; len(states) == len(moves)+1."""

    states: tuple
    moves: tuple

    def final(self) -> SimState:
        return self.states[-1]


def initial_state(g: Graph, lions: Sequence) -> SimState:
    """Time-0 state: exactly the occupied vertices are cleared."""
    check_vertices(g, lions)
    return SimState(0, tuple(lions), tuple(sorted(set(lions))))


class InvalidMoveError(ValueError):
    """A move step that fails validation: carries the step index and
    validate_moves' violations, or, for a step of the wrong length, which
    validate_moves raises itself, a description of it."""

    def __init__(self, step_index: int, violations):
        super().__init__(f"invalid move at step {step_index}: {violations}")
        self.step_index = step_index
        self.violations = violations


def validate_moves(g: Graph, model: str, state: SimState, mv: MoveStep) -> list:
    """Check one move step against adjacency and the motion model.

    Returns a list of (lion_index, reason) violations; an empty list means ok.
    A step of the wrong length raises InvalidMoveError at step state.time.
    Never mutates the state.
    """
    if model not in MODELS:
        raise ValueError(f"unknown motion model {model!r}")
    if len(mv) != len(state.lions):
        raise InvalidMoveError(state.time, f"{len(mv)} targets for {len(state.lions)} lions")
    violations = []
    movers = 0
    for i, target in enumerate(mv):
        pos = state.lions[i]
        if target == STAY:
            if model == "caffeinated":
                violations.append((i, "must-move"))
            continue
        movers += 1
        if target not in g.adj[pos]:
            violations.append((i, "not-adjacent"))
        if model == "polite" and movers > 1:
            violations.append((i, "politeness"))
    return violations


def step(g: Graph, state: SimState, mv: MoveStep) -> SimState:
    """Apply one synchronous move step and the contamination update.

    The caller is responsible for motion-model checks; a non-adjacent move
    or one of the wrong length has no defined semantics, so step validates
    under the free model and raises InvalidMoveError at step state.time.
    """
    return next(_fold(g, "free", state, (tuple(mv),)))


def step_cleared_mask(adj_masks, lions, cleared: int, safe: int, mv: MoveStep) -> tuple:
    """The update rule for one move step that validate_moves accepted (each
    target STAY or a neighbor of its lion): (positions, cleared mask) after
    it, from cleared, the mask before, and safe, its interior
    graphs._interior_mask(adj_masks, cleared).  Of the vertices outside
    Safe | Occ', only those lions leave are tested."""
    positions, new_cleared, covered_at = [], safe, {}  # vacated p -> its lions' targets
    for p, t in zip(lions, mv):
        if t == STAY:
            t = p
        else:
            covered_at[p] = covered_at.get(p, 0) | 1 << t
        positions.append(t)
        new_cleared |= 1 << t
    for p, covered in covered_at.items():
        uncovered = adj_masks[p] & ~covered
        if cleared >> p & 1 and uncovered & cleared == uncovered:
            new_cleared |= 1 << p
    return tuple(positions), new_cleared


def run(g: Graph, model: str, lions: Sequence, moves: Iterable) -> Trace:
    """Fold the update over every step of a move list, validating each step
    against the model; is_swept finds the sweep time."""
    start = initial_state(g, lions)
    moves = tuple(map(tuple, moves))
    return Trace((start, *_fold(g, model, start, moves)), moves)


def _fold(g: Graph, model: str, state: SimState, moves: Iterable,
          members: Optional[_SortedVertices] = None) -> Iterator[SimState]:
    """The records after state, one per move step (a tuple), on one cleared
    mask and one running increasing list of its vertices: members, if given
    (it lists state.cleared, with or without texts). Each step is validated
    against the model, and the vertices of the step's mask difference are
    flipped in the list, so a step converts and moves the few vertices that
    changed, not all of C; each record's tuple is a copy of the list, which
    needs no sort, and the list is that record's when it is yielded."""
    adj_masks = g.neighbor_masks
    cleared = vertex_mask(state.cleared, g.n)
    members = _SortedVertices(state.cleared) if members is None else members
    for mv in moves:
        violations = validate_moves(g, model, state, mv)
        if violations:
            raise InvalidMoveError(state.time, violations)
        positions, new = step_cleared_mask(adj_masks, state.lions, cleared,
                                           _interior_mask(adj_masks, cleared), mv)
        members.flip(mask_vertices(cleared ^ new))
        cleared = new
        state = SimState(state.time + 1, positions, tuple(members.order))
        yield state


def _simulate(g: Graph, model: str, lions: Sequence, moves: Sequence, path) -> Optional[int]:
    """The sweep time of run(g, model, lions, moves), or None, in one pass
    over _fold; with a path, also write_trace's file of that run, written
    once every move has validated.  Each line joins the fold's running list
    of cleared-vertex texts, so it looks up the text of its lions and move
    and of no cleared vertex but those entering C; the lines are held in
    place of the records, and no line is rendered without a path."""
    start = initial_state(g, lions)
    text = _VertexText() if path else None
    listed = _SortedVertices(start.cleared, text)
    lines, swept = [], None
    for s, mv in zip(chain((start,), _fold(g, model, start, moves, listed)), (None, *moves)):
        if swept is None and len(s.cleared) == g.n:
            swept = s.time
        if text is not None:
            lines.append(text.line(s, mv, ", ".join(listed.texts)))
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(lines)
    return swept


def is_swept(tr: Trace, g: Graph) -> Optional[int]:
    """Smallest t with C(t) = V, or None."""
    return next((s.time for s in tr.states if len(s.cleared) == g.n), None)


def is_monotone(tr: Trace) -> bool:
    """True iff the cleared set never loses a vertex along the trace."""
    before = set(tr.states[0].cleared)
    for s in tr.states[1:]:
        after = set(s.cleared)
        if not before <= after:
            return False
        before = after
    return True


class _VertexText(dict):
    """Per-call cache of each int's JSON text: str(v), made once per int."""

    def __missing__(self, v) -> str:
        # ints alone are cached: True and 1.0 equal 1 and would share its slot
        return self.setdefault(v, str(v)) if type(v) is int else str(v)

    def line(self, s: SimState, move, cleared: Optional[str] = None) -> str:
        """The one rendering of a trace record, newline included; move is None
        at t=0, and cleared, if given, is the text between the brackets of
        s.cleared's list."""
        text, join = self.__getitem__, ", ".join
        move = "null" if move is None else f"[{join(map(text, move))}]"
        if cleared is None:
            cleared = join(map(text, s.cleared))
        return (f'{{"t": {s.time}, "lions": [{join(map(text, s.lions))}], '
                f'"cleared": [{cleared}], "move": {move}}}\n')


class _SortedVertices:
    """A running cleared set edited in place, not rebuilt: its vertices as an
    increasing list (order) and, given a _VertexText, their texts in a
    parallel list (texts), so that ", ".join(texts) is the set's list text.
    flip() finds each vertex it is given by bisection and deletes it if
    present, else inserts it: O(log |C|) comparisons and one pointer move a
    vertex, with no sort and no text made for the vertices it leaves alone."""

    def __init__(self, vertices=(), text: Optional[_VertexText] = None):
        self.order, self._text = list(vertices), text
        self.texts = None if text is None else list(map(text.__getitem__, self.order))

    def flip(self, vertices) -> None:
        order, texts = self.order, self.texts
        for v in vertices:
            i = bisect_left(order, v)
            if i < len(order) and order[i] == v:
                del order[i]
                if texts is not None:
                    del texts[i]
            else:
                order.insert(i, v)
                if texts is not None:
                    texts.insert(i, self._text[v])


def write_trace(tr: Trace, path) -> None:
    """Line-delimited records, one per time step; the t=0 record has move null.

    Each line holds exactly the bytes of json.dumps({"t": t, "lions": [...],
    "cleared": [...], "move": [...] or None}) followed by a newline:

        {"t": 1, "lions": [3, 0], "cleared": [0, 1, 3], "move": [3, -1]}

    with cleared in increasing order, ", " between list items and STAY as -1.
    Lions, cleared vertices and moves are ints, and each distinct one is
    rendered once per call."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(map(_VertexText().line, tr.states, (None, *tr.moves)))


def read_trace(path) -> Trace:
    """Read a write_trace file; t must be an integer and lions, cleared and
    move lists of integers (JSON true and false are not), cleared strictly
    increasing. Record i has t=i, the t=0 record alone has a null move, and
    the lion count and the length of every later move equal the first
    record's lion count. Vertices are not range-checked: that needs the
    graph, and verify_lemma_bounds does it. Each distinct cleared vertex is
    one int object, shared by every record that holds it."""
    records, ints = [], {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            if raw.strip():
                k = len(records[0][0].lions) if records else None
                records.append(_parse_record(raw, lineno, len(records), k, ints))
    if not records:
        raise ParseError("trace has no records", 1)
    states, moves = zip(*records)
    return Trace(states, moves[1:])


def _parse_record(line: str, lineno: int, t: int, k, ints=None) -> tuple:
    """(SimState, move tuple or None) of record t from its non-blank line: a
    record breaking read_trace's rules, k the first record's lions, raises ParseError.
    ints, if given, maps each accepted cleared vertex to the int object first read for it."""
    try:
        rec = json.loads(line.strip())
        time, lions, cleared, move = rec["t"], rec["lions"], rec["cleared"], rec["move"]
    except (json.JSONDecodeError, KeyError, TypeError) as exc:
        raise ParseError(f"bad trace record: {exc}", lineno) from None
    if not (_is_int_list(lions) and _is_int_list(cleared)
            and (move is None or _is_int_list(move))):
        raise ParseError("trace record lions, cleared and move must be lists of integers",
                         lineno)
    if not all(map(operator.lt, cleared, cleared[1:])):
        raise ParseError("trace record cleared must be strictly increasing", lineno)
    if type(time) is not int or time != t:
        raise ParseError(f"trace record t={time!r} should be t={t}", lineno)
    if (move is None) != (t == 0):
        raise ParseError("the t=0 record, and no other, must have a null move", lineno)
    if t and (len(lions) != k or len(move) != k):
        raise ParseError(f"trace record has {len(lions)} lions and a move for "
                         f"{len(move)}, the first record has {k} lions", lineno)
    if ints is not None:  # only now: False == 0 would map a refused bool to an int
        cleared = map(ints.setdefault, cleared, cleared)
    return SimState(t, tuple(lions), tuple(cleared)), move if move is None else tuple(move)


def _tail_move(raw: str):
    """The move a write_trace line ends with, as a list of ints, or None.

    The text between the brackets after the last '"move": ' is split on ", "
    and read by int(), with no JSON parse, so it also takes spellings that
    JSON refuses or reads otherwise, such as +3, 03, 1_0 or " 3" (and "" is
    the k = 0 move []).  verify uses the move only to step the replay and
    compares the line with the replayed record's rendering, which spells
    every int as write_trace does; a misread line differs from it and goes
    to _parse_record, so the parse decides nothing on its own."""
    head = raw.rfind('"move": [')
    tail = raw.find("]", head)
    if head < 0 or tail < 0:
        return None
    body = raw[head + len('"move": ['):tail]
    try:
        return list(map(int, body.split(", "))) if body else []
    except ValueError:
        return None


def _is_int_list(value) -> bool:
    """True iff value is a list of integers, not bools (map keeps the scan in C:
    traces are long)."""
    return isinstance(value, list) and set(map(type, value)) <= {int}


def write_moves(moves: Iterable, path) -> None:
    """One step per line, exactly the bytes of json.dumps(list(step)) and a
    newline: ", " between targets and STAY as -1, e.g. [3, -1, 12]."""
    text, join = _VertexText().__getitem__, ", ".join
    with open(path, "w", encoding="utf-8") as fh:
        for mv in moves:
            fh.write(f"[{join(map(text, mv))}]\n")


def read_moves(path) -> list:
    """Read a move file as a list of tuples: one JSON list of integers per
    line, STAY being -1.  Blank lines and lines whose first non-blank
    character is '#' are skipped; JSON true and false are refused.  A bad
    line raises ParseError with its 1-based line number.  Moves are not
    checked against a graph: validate_moves does that."""
    out = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            try:
                mv = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ParseError(f"bad move line: {exc}", lineno) from None
            if not _is_int_list(mv):
                raise ParseError("move line must be a JSON list of integers", lineno)
            out.append(tuple(mv))
    return out
