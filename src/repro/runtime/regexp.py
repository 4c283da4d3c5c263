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

Supported syntax: literals, ``.``, escapes (``\\n \\r \\t \\0 \\xNN``),
classes ``[a-z^...]``, ``\\d \\w \\s \\D \\W \\S``, grouping ``(...)``,
alternation ``|``, repetition ``* + ? {m,n}``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from .bytes_buffer import Bytes, BytesIter
from .exceptions import HiltiError, PATTERN_ERROR
from .memory import Managed

__all__ = ["RegExp", "MatchState", "MATCH_NEED_MORE", "MATCH_FAIL"]

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
    """One or more compiled patterns sharing a single automaton."""

    __slots__ = ("patterns", "_dfa")

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
            exit_state = nfa.build(_PatternParser(pattern).parse(), entry)
            nfa.accepts[exit_state] = pid
        self._dfa = _DFA(nfa)

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
        if dfa.can_advance(s) or not frozen:
            # Input ended inside a potential match with no accept yet.
            return MATCH_FAIL, 0
        return MATCH_FAIL, 0

    def match_token(self, data: Bytes, start: BytesIter) -> Tuple[int, BytesIter]:
        """One-shot anchored longest match at *start* within *data*.

        Returns ``(status, iterator past the match)``; on ``NEED_MORE`` the
        iterator marks where feeding should resume.

        This is the generated parsers' hottest operation, so the DFA walk
        is inlined here (no MatchState allocation) — semantically the same
        as ``token_state()`` + ``feed()``.
        """
        dfa = self._dfa
        trans = dfa.trans
        accept_table = dfa.accept
        s = 0
        consumed = 0
        last_id = accept_table[0]
        last_len = 0
        for byte in data.view_from(start.offset):
            nxt = trans[s][byte]
            if nxt is None:
                nxt = dfa.step(s, byte)
            if nxt < 0:
                if last_id:
                    return last_id, start.incr_by(last_len)
                return MATCH_FAIL, start
            s = nxt
            consumed += 1
            pid = accept_table[s]
            if pid:
                last_id = pid
                last_len = consumed
        if not data.is_frozen and dfa.can_advance(s):
            return MATCH_NEED_MORE, start.incr_by(consumed)
        if last_id:
            return last_id, start.incr_by(last_len)
        return MATCH_FAIL, start

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
