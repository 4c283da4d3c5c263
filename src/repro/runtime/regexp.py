"""Regular expression engine with incremental and set matching.

The paper lists "regular expressions supporting incremental matching and
simultaneous matching of multiple expressions" among HILTI's domain types
(section 3.2) — the capability BinPAC++ token fields build on.  Like Bro,
we implement our own engine rather than binding an external library:

* Thompson construction from a byte-oriented regex syntax into an NFA.
* A lazily built DFA (subset construction with caching) shared by all
  matchers compiled from the same pattern set.
* *Token matching*: anchored, longest-match semantics over an incremental
  input stream.  A match operation can stop mid-way when it runs out of
  input and resume later — exactly what suspending parsers need.
* *Set matching*: several patterns compile into one automaton; a match
  reports which pattern won (lowest pattern id on ties).
* *Sequence matching* (``regexp.match_seq``): a run of tokens, each
  matched longest-first where the previous one ended, in one C-level
  Python ``re`` call whenever that provably gives the DFA's answer
  (:func:`sequence_matcher`).

Supported syntax: literals, ``.``, escapes (``\\n \\r \\t \\0 \\xNN``),
classes ``[a-z^...]``, ``\\d \\w \\s \\D \\W \\S``, grouping ``(...)``,
alternation ``|``, repetition ``* + ? {m,n}``.
"""

from __future__ import annotations

import functools
import re
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .bytes_buffer import Bytes, BytesIter
from .exceptions import HiltiError, PATTERN_ERROR
from .memory import Managed

__all__ = ["RegExp", "MatchState", "MATCH_NEED_MORE", "MATCH_FAIL",
           "match_seq", "sequence_matcher"]

# Match-token status values (mirroring HILTI's regexp.match_token):
#   > 0  id of the matched pattern
#   MATCH_FAIL (0) cannot match, not even with more input
#   MATCH_NEED_MORE (-1) more input required to decide
MATCH_FAIL = 0
MATCH_NEED_MORE = -1

_ALL_BYTES = frozenset(range(256))
_DIGITS = frozenset(range(ord("0"), ord("9") + 1))
_WORD = frozenset(
    list(range(ord("a"), ord("z") + 1))
    + list(range(ord("A"), ord("Z") + 1))
    + list(range(ord("0"), ord("9") + 1))
    + [ord("_")]
)
_SPACE = frozenset(b" \t\r\n\f\v")


# --------------------------------------------------------------------------
# Pattern AST
# --------------------------------------------------------------------------


class _Node:
    __slots__ = ()


class _Literal(_Node):
    __slots__ = ("chars",)

    def __init__(self, chars: frozenset):
        self.chars = chars


class _Concat(_Node):
    __slots__ = ("parts",)

    def __init__(self, parts: Sequence[_Node]):
        self.parts = list(parts)


class _Alternate(_Node):
    __slots__ = ("options",)

    def __init__(self, options: Sequence[_Node]):
        self.options = list(options)


class _Repeat(_Node):
    __slots__ = ("child", "low", "high")

    def __init__(self, child: _Node, low: int, high: Optional[int]):
        self.child = child
        self.low = low
        self.high = high  # None = unbounded


class _PatternParser:
    """Recursive-descent parser for the byte-regex syntax."""

    def __init__(self, pattern: str):
        self.pattern = pattern
        self.pos = 0

    def fail(self, why: str) -> HiltiError:
        return HiltiError(
            PATTERN_ERROR, f"bad pattern {self.pattern!r} at {self.pos}: {why}"
        )

    def peek(self) -> Optional[str]:
        if self.pos < len(self.pattern):
            return self.pattern[self.pos]
        return None

    def take(self) -> str:
        ch = self.peek()
        if ch is None:
            raise self.fail("unexpected end")
        self.pos += 1
        return ch

    def parse(self) -> _Node:
        node = self._alternation()
        if self.pos != len(self.pattern):
            raise self.fail(f"unexpected {self.pattern[self.pos]!r}")
        return node

    def _alternation(self) -> _Node:
        options = [self._concat()]
        while self.peek() == "|":
            self.take()
            options.append(self._concat())
        if len(options) == 1:
            return options[0]
        return _Alternate(options)

    def _concat(self) -> _Node:
        parts: List[_Node] = []
        while self.peek() is not None and self.peek() not in "|)":
            parts.append(self._repeat())
        return _Concat(parts)

    def _repeat(self) -> _Node:
        node = self._atom()
        while True:
            ch = self.peek()
            if ch == "*":
                self.take()
                node = _Repeat(node, 0, None)
            elif ch == "+":
                self.take()
                node = _Repeat(node, 1, None)
            elif ch == "?":
                self.take()
                node = _Repeat(node, 0, 1)
            elif ch == "{":
                self.take()
                node = self._counted(node)
            else:
                return node

    def _counted(self, node: _Node) -> _Node:
        digits = ""
        while self.peek() and self.peek().isdigit():
            digits += self.take()
        if not digits:
            raise self.fail("expected count in {m,n}")
        low = int(digits)
        high: Optional[int] = low
        if self.peek() == ",":
            self.take()
            digits = ""
            while self.peek() and self.peek().isdigit():
                digits += self.take()
            high = int(digits) if digits else None
        if self.take() != "}":
            raise self.fail("expected '}'")
        if high is not None and high < low:
            raise self.fail("{m,n} with n < m")
        return _Repeat(node, low, high)

    def _atom(self) -> _Node:
        ch = self.take()
        if ch == "(":
            node = self._alternation()
            if self.peek() != ")":
                raise self.fail("expected ')'")
            self.take()
            return node
        if ch == "[":
            return _Literal(self._char_class())
        if ch == ".":
            return _Literal(frozenset(_ALL_BYTES - {ord("\n")}))
        if ch == "\\":
            return _Literal(self._escape())
        if ch in "*+?{":
            raise self.fail(f"nothing to repeat with {ch!r}")
        return _Literal(frozenset({ord(ch)}))

    def _escape(self) -> frozenset:
        ch = self.take()
        simple = {
            "n": ord("\n"),
            "r": ord("\r"),
            "t": ord("\t"),
            "f": ord("\f"),
            "v": ord("\v"),
            "0": 0,
            "a": 7,
            "b": 8,
        }
        if ch in simple:
            return frozenset({simple[ch]})
        if ch == "d":
            return _DIGITS
        if ch == "D":
            return frozenset(_ALL_BYTES - _DIGITS)
        if ch == "w":
            return _WORD
        if ch == "W":
            return frozenset(_ALL_BYTES - _WORD)
        if ch == "s":
            return _SPACE
        if ch == "S":
            return frozenset(_ALL_BYTES - _SPACE)
        if ch == "x":
            hex_digits = self.take() + self.take()
            try:
                return frozenset({int(hex_digits, 16)})
            except ValueError:
                raise self.fail(f"bad hex escape \\x{hex_digits}") from None
        # Anything else escapes to itself (\. \/ \[ \\ ...).
        return frozenset({ord(ch)})

    def _char_class(self) -> frozenset:
        negate = False
        if self.peek() == "^":
            self.take()
            negate = True
        chars: set = set()
        first = True
        while True:
            ch = self.peek()
            if ch is None:
                raise self.fail("unterminated character class")
            if ch == "]" and not first:
                self.take()
                break
            first = False
            if ch == "\\":
                self.take()
                members = self._escape()
                if len(members) == 1:
                    start = next(iter(members))
                else:
                    chars |= members
                    continue
            else:
                self.take()
                start = ord(ch)
            if self.peek() == "-" and self.pos + 1 < len(self.pattern) \
                    and self.pattern[self.pos + 1] != "]":
                self.take()  # the '-'
                end_ch = self.take()
                if end_ch == "\\":
                    members = self._escape()
                    if len(members) != 1:
                        raise self.fail("class range endpoint must be a byte")
                    end = next(iter(members))
                else:
                    end = ord(end_ch)
                if end < start:
                    raise self.fail("reversed class range")
                chars |= set(range(start, end + 1))
            else:
                chars.add(start)
        if negate:
            return frozenset(_ALL_BYTES - chars)
        return frozenset(chars)


# --------------------------------------------------------------------------
# Class R: patterns Python's greedy matcher matches exactly
# --------------------------------------------------------------------------


_Atom = Tuple[frozenset, int, Optional[int]]  # byte class, low, high


def _atoms(node: _Node) -> Optional[List[_Atom]]:
    """*node* as a concatenation of ``(byte class, low, high)`` atoms (a
    literal is ``{1,1}``), or None when it is anything else."""
    if isinstance(node, _Literal):
        return [(node.chars, 1, 1)]
    if isinstance(node, _Concat):
        atoms: List[_Atom] = []
        for part in node.parts:
            inner = _atoms(part)
            if inner is None:
                return None
            atoms += inner
        return atoms
    if isinstance(node, _Repeat):
        inner = _atoms(node.child)
        if inner is not None and len(inner) == 1 and inner[0][1:] == (1, 1):
            return [(inner[0][0], node.low, node.high)]
    return None


def _byte_class(chars: frozenset) -> str:
    ranges: List[List[int]] = []
    for byte in sorted(chars):
        if ranges and ranges[-1][1] == byte - 1:
            ranges[-1][1] = byte
        else:
            ranges.append([byte, byte])
    return "[" + "".join(f"\\x{low:02x}" if low == high
                         else f"\\x{low:02x}-\\x{high:02x}"
                         for low, high in ranges) + "]"


def _class_r_source(node: _Node) -> Optional[str]:
    """*node* as Python ``re`` source if it is in class R, else None.

    Class R: a concatenation of byte-class atoms with ``{m,n}`` counts
    where every variable-count atom's class is disjoint from every class
    that can follow it, up to and including the next mandatory atom.
    Then each byte of any input has at most one atom it can belong to,
    so a prefix parses at most one way; and once the parse accepts,
    every later live state accepts too.  Greedy backtracking therefore
    returns the longest match — the DFA's — and that match ends exactly
    where the DFA dies.
    """
    atoms = _atoms(node)
    if atoms is None:
        return None
    parts = []
    for index, (chars, low, high) in enumerate(atoms):
        if not chars:
            return None
        if low != high:
            for follow, follow_low, __ in atoms[index + 1:]:
                if chars & follow:
                    return None
                if follow_low:
                    break
        count = "" if (low, high) == (1, 1) else \
            f"{{{low},{'' if high is None else high}}}"
        parts.append(_byte_class(chars) + count)
    return "".join(parts)


# --------------------------------------------------------------------------
# NFA (Thompson construction)
# --------------------------------------------------------------------------


class _NFA:
    """Byte-labelled NFA with epsilon transitions.

    States are integers.  ``accepts[state]`` gives the pattern id a state
    accepts for (0 = non-accepting).
    """

    def __init__(self):
        self.transitions: List[List[Tuple[frozenset, int]]] = []
        self.epsilon: List[List[int]] = []
        self.accepts: List[int] = []
        self.start = self.new_state()

    def new_state(self) -> int:
        self.transitions.append([])
        self.epsilon.append([])
        self.accepts.append(0)
        return len(self.transitions) - 1

    def add_edge(self, src: int, chars: frozenset, dst: int) -> None:
        self.transitions[src].append((chars, dst))

    def add_epsilon(self, src: int, dst: int) -> None:
        self.epsilon[src].append(dst)

    def build(self, node: _Node, entry: int) -> int:
        """Wire *node* starting at *entry*; return its exit state."""
        if isinstance(node, _Literal):
            exit_state = self.new_state()
            self.add_edge(entry, node.chars, exit_state)
            return exit_state
        if isinstance(node, _Concat):
            current = entry
            for part in node.parts:
                current = self.build(part, current)
            return current
        if isinstance(node, _Alternate):
            exit_state = self.new_state()
            for option in node.options:
                branch_entry = self.new_state()
                self.add_epsilon(entry, branch_entry)
                branch_exit = self.build(option, branch_entry)
                self.add_epsilon(branch_exit, exit_state)
            return exit_state
        if isinstance(node, _Repeat):
            current = entry
            for __ in range(node.low):
                current = self.build(node.child, current)
            if node.high is None:
                loop_entry = self.new_state()
                self.add_epsilon(current, loop_entry)
                loop_exit = self.build(node.child, loop_entry)
                self.add_epsilon(loop_exit, loop_entry)
                exit_state = self.new_state()
                self.add_epsilon(current, exit_state)
                self.add_epsilon(loop_exit, exit_state)
                return exit_state
            for __ in range(node.high - node.low):
                next_state = self.build(node.child, current)
                self.add_epsilon(current, next_state)
                current = next_state
            return current
        raise AssertionError(f"unknown pattern node {node!r}")

    def epsilon_closure(self, states) -> frozenset:
        stack = list(states)
        seen = set(states)
        while stack:
            s = stack.pop()
            for t in self.epsilon[s]:
                if t not in seen:
                    seen.add(t)
                    stack.append(t)
        return frozenset(seen)


# --------------------------------------------------------------------------
# Lazy DFA
# --------------------------------------------------------------------------


class _DFA:
    """Subset-construction DFA materialized on demand and cached.

    Expansion takes a lock: one compiled automaton is shared by every
    virtual thread running the same generated parser.
    """

    def __init__(self, nfa: _NFA):
        import threading

        self._grow_lock = threading.Lock()
        self.nfa = nfa
        start_closure = nfa.epsilon_closure({nfa.start})
        self._ids: Dict[frozenset, int] = {start_closure: 0}
        self._sets: List[frozenset] = [start_closure]
        # trans[state][byte] -> next state id, -1 = dead
        self.trans: List[List[Optional[int]]] = [[None] * 256]
        self.accept: List[int] = [self._accept_of(start_closure)]
        self.has_out: List[Optional[bool]] = [None]

    def _accept_of(self, closure: frozenset) -> int:
        best = 0
        for s in closure:
            pid = self.nfa.accepts[s]
            if pid and (best == 0 or pid < best):
                best = pid
        return best

    def step(self, state: int, byte: int) -> int:
        """Transition; -1 is the dead state."""
        nxt = self.trans[state][byte]
        if nxt is not None:
            return nxt
        with self._grow_lock:
            nxt = self.trans[state][byte]
            if nxt is not None:
                return nxt
            targets = set()
            for s in self._sets[state]:
                for chars, dst in self.nfa.transitions[s]:
                    if byte in chars:
                        targets.add(dst)
            if not targets:
                self.trans[state][byte] = -1
                return -1
            closure = self.nfa.epsilon_closure(targets)
            state_id = self._ids.get(closure)
            if state_id is None:
                state_id = len(self._sets)
                self._ids[closure] = state_id
                self._sets.append(closure)
                self.trans.append([None] * 256)
                self.accept.append(self._accept_of(closure))
                self.has_out.append(None)
            self.trans[state][byte] = state_id
            return state_id

    def can_advance(self, state: int) -> bool:
        """True if any byte leads out of *state* (so a match could grow)."""
        cached = self.has_out[state]
        if cached is not None:
            return cached
        result = False
        for s in self._sets[state]:
            if self.nfa.transitions[s]:
                result = True
                break
        self.has_out[state] = result
        return result


# --------------------------------------------------------------------------
# Public API
# --------------------------------------------------------------------------


class MatchState:
    """Resumable state of an in-progress anchored token match."""

    __slots__ = ("regexp", "dfa_state", "consumed", "last_accept_id",
                 "last_accept_len", "done")

    def __init__(self, regexp: "RegExp"):
        self.regexp = regexp
        self.dfa_state = 0
        self.consumed = 0
        self.last_accept_id = regexp._dfa.accept[0]
        self.last_accept_len = 0
        self.done = False

    def __repr__(self) -> str:
        return (
            f"<MatchState consumed={self.consumed} "
            f"accept={self.last_accept_id}@{self.last_accept_len}>"
        )


class RegExp(Managed):
    """One or more compiled patterns sharing a single automaton.

    ``re_source`` is the single pattern as Python ``re`` source when it
    is in class R (:func:`_class_r_source`), else None.
    """

    __slots__ = ("patterns", "_dfa", "re_source")

    def __init__(self, patterns):
        super().__init__()
        if isinstance(patterns, (str, bytes)):
            patterns = [patterns]
        self.patterns = [
            p.decode("latin-1") if isinstance(p, bytes) else p for p in patterns
        ]
        if not self.patterns:
            raise HiltiError(PATTERN_ERROR, "empty pattern set")
        nfa = _NFA()
        for pid, pattern in enumerate(self.patterns, start=1):
            entry = nfa.new_state()
            nfa.add_epsilon(nfa.start, entry)
            node = _PatternParser(pattern).parse()
            exit_state = nfa.build(node, entry)
            nfa.accepts[exit_state] = pid
        self._dfa = _DFA(nfa)
        self.re_source = _class_r_source(node) \
            if len(self.patterns) == 1 else None

    # -- anchored token matching ------------------------------------------

    def token_state(self) -> MatchState:
        """Start a new incremental anchored match."""
        return MatchState(self)

    def feed(self, state: MatchState, data: bytes, frozen: bool) -> Tuple[int, int]:
        """Advance *state* over *data*.

        Returns ``(status, length)`` where status is a pattern id on match,
        ``MATCH_NEED_MORE`` if undecided, or ``MATCH_FAIL``; length is the
        number of bytes of the winning match (total, across feeds).
        """
        dfa = self._dfa
        trans = dfa.trans
        accept_table = dfa.accept
        s = state.dfa_state
        consumed = state.consumed
        for byte in data:
            # Inline the cached-transition fast path; fall back to the
            # (locked) subset construction only for unexplored edges.
            nxt = trans[s][byte]
            if nxt is None:
                nxt = dfa.step(s, byte)
            if nxt < 0:
                state.done = True
                state.dfa_state = s
                state.consumed = consumed
                if state.last_accept_id:
                    return state.last_accept_id, state.last_accept_len
                return MATCH_FAIL, 0
            s = nxt
            consumed += 1
            pid = accept_table[s]
            if pid:
                state.last_accept_id = pid
                state.last_accept_len = consumed
        state.dfa_state = s
        state.consumed = consumed
        if not frozen and dfa.can_advance(s):
            return MATCH_NEED_MORE, state.last_accept_len
        state.done = True
        if state.last_accept_id:
            return state.last_accept_id, state.last_accept_len
        return MATCH_FAIL, 0

    def _longest(self, view, frozen: bool) -> Tuple[int, int]:
        """The DFA walk behind every anchored match: the longest match
        at the start of *view* (no MatchState allocation — semantically
        ``token_state()`` + ``feed()``).  Returns ``(status, length)``;
        on ``NEED_MORE`` the length counts the bytes consumed."""
        dfa = self._dfa
        trans = dfa.trans
        accept_table = dfa.accept
        s = 0
        consumed = 0
        last_id = accept_table[0]
        last_len = 0
        for byte in view:
            nxt = trans[s][byte]
            if nxt is None:
                nxt = dfa.step(s, byte)
            if nxt < 0:
                return (last_id, last_len) if last_id else (MATCH_FAIL, 0)
            s = nxt
            consumed += 1
            pid = accept_table[s]
            if pid:
                last_id = pid
                last_len = consumed
        if not frozen and dfa.can_advance(s):
            return MATCH_NEED_MORE, consumed
        return (last_id, last_len) if last_id else (MATCH_FAIL, 0)

    def match_token(self, data: Bytes, start: BytesIter) -> Tuple[int, BytesIter]:
        """One-shot anchored longest match at *start* within *data*.

        Returns ``(status, iterator past the match)``; on ``NEED_MORE`` the
        iterator marks where feeding should resume.
        """
        status, length = self._longest(data.view_from(start.offset),
                                       data._frozen)
        return status, start.incr_by(length)

    # -- convenience matching over plain bytes ------------------------------

    def matches(self, data: bytes) -> int:
        """Anchored match against *data*; the full prefix need not be used."""
        buf = Bytes(data if isinstance(data, bytes) else data.to_bytes())
        buf.freeze()
        status, __ = self.match_token(buf, buf.begin())
        return status

    def matches_exactly(self, data: bytes) -> int:
        """Pattern id if some pattern matches *all* of data, else 0."""
        if isinstance(data, Bytes):
            data = data.to_bytes()
        dfa = self._dfa
        s = 0
        for byte in data:
            s = dfa.step(s, byte)
            if s < 0:
                return MATCH_FAIL
        return dfa.accept[s]

    def find(self, data: bytes, start: int = 0) -> Tuple[int, int, int]:
        """First (leftmost) match anywhere in *data*.

        Returns ``(pattern_id, begin, end)`` or ``(0, -1, -1)``.  *data*
        may be any buffer (a memoryview scans in place); each candidate
        start is a zero-copy slice, released before this returns.
        """
        if isinstance(data, Bytes):
            data = data.to_bytes()
        with memoryview(data) as view:
            for begin in range(start, len(view) + 1):
                status, length = self.feed(self.token_state(), view[begin:],
                                           True)
                if status > 0:
                    return status, begin, begin + length
        return MATCH_FAIL, -1, -1

    def __repr__(self) -> str:
        return f"RegExp({self.patterns!r})"


# --------------------------------------------------------------------------
# Token sequences
# --------------------------------------------------------------------------


def _sequence_source(sources: Sequence[str], open_end: bool) -> bytes:
    """One Python pattern matching class-R tokens in turn.  Each token is
    an atomic group, ``(?=(tok))\\N``: a lookahead does not backtrack, so
    every token keeps its own longest match, as sequential matching does.
    With *open_end* (the buffer may still grow) the match must also end
    before the last byte: a token ending there might extend once more
    input arrives, which only the DFA walk can tell."""
    body = "".join(f"(?=({source}))\\{group}"
                   for group, source in enumerate(sources, start=1))
    return (body + ("(?=[\\x00-\\xff])" if open_end else "")).encode("latin-1")


@functools.lru_cache(maxsize=256)
def sequence_matcher(regexps: Tuple[RegExp, ...],
                     named_mask: int) -> Callable[[BytesIter], tuple]:
    """The matcher behind ``regexp.match_seq``, built once per operand
    tuple: ``match(it)`` matches each of *regexps* in turn, longest match
    first, starting where the previous one ended.

    It returns ``(status, end iterator, failing index, value...)``: status
    1 when every token matched, with one frozen Bytes per token whose
    bit is set in *named_mask*; else the failing token's ``MATCH_FAIL``
    or ``MATCH_NEED_MORE``, its index, the start iterator and None
    values.  That is exactly what sequential ``match_token`` calls give.

    When every token is in class R, one ``re`` match decides the run
    whenever it succeeds: its groups are the tokens' longest matches and
    its guard (:func:`_sequence_source`) leaves an ending at the open end
    of the buffer undecided.  Everything else — no match, an open end, a
    token outside class R — takes the DFA walk, token by token.
    """
    named = [index for index in range(len(regexps)) if named_mask >> index & 1]
    unmatched = (None,) * len(named)
    frozen_bytes = Bytes.frozen

    def walk(it: BytesIter) -> tuple:
        data = it.bytes_obj
        frozen = data._frozen
        offset = it.offset
        spans = []
        for index, regexp in enumerate(regexps):
            status, length = regexp._longest(data.view_from(offset), frozen)
            if status <= 0:
                return (status, it, index) + unmatched
            start = offset - data._base
            spans.append((start, start + length))
            offset += length
        raw = data._data
        return (1, BytesIter(data, offset), -1,
                *(frozen_bytes(raw[slice(*spans[index])]) for index in named))

    sources = [regexp.re_source for regexp in regexps]
    if None in sources:
        return walk
    closed = re.compile(_sequence_source(sources, False)).match
    open_end = re.compile(_sequence_source(sources, True)).match
    # The named tokens' groups, padded with group 0 (the whole run) to
    # two: m.group() then always returns a tuple.
    groups = [0] * max(0, 2 - len(named)) + [index + 1 for index in named]
    skip = len(groups) - len(named)

    def match(it: BytesIter) -> tuple:
        data = it.bytes_obj
        base = data._base
        m = (closed if data._frozen else open_end)(data._data,
                                                   it.offset - base)
        if m is None:
            return walk(it)
        # On a bytearray, m.group() slices are fresh bytearrays.
        return (1, BytesIter(data, base + m.end()), -1,
                *map(frozen_bytes, m.group(*groups)[skip:]))

    return match


def match_seq(it: BytesIter, named_mask: int, *regexps: RegExp) -> tuple:
    """``regexp.match_seq``: see :func:`sequence_matcher`."""
    return sequence_matcher(regexps, named_mask)(it)
