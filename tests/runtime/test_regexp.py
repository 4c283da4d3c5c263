"""The regexp engine: anchored, incremental, set and sequence matching."""

import re as python_re

import pytest
from hypothesis import given, settings, strategies as st

from repro.runtime import regexp as regexp_module
from repro.runtime.bytes_buffer import Bytes
from repro.runtime.exceptions import HiltiError
from repro.runtime.regexp import MATCH_FAIL, MATCH_NEED_MORE, RegExp, match_seq


def _frozen(data: bytes) -> Bytes:
    b = Bytes(data)
    b.freeze()
    return b


class TestAnchored:
    def test_literal(self):
        assert RegExp("abc").matches(b"abcdef") == 1
        assert RegExp("abc").matches(b"xabc") == 0

    def test_char_class(self):
        r = RegExp(r"[a-z]+")
        assert r.matches(b"hello world") == 1

    def test_negated_class(self):
        r = RegExp(r"[^ \t\r\n]+")
        assert r.matches(b"token rest") == 1
        assert r.matches(b" leading") == 0

    def test_alternation(self):
        r = RegExp(r"cat|dog")
        assert r.matches(b"dogma") == 1
        assert r.matches(b"bird") == 0

    def test_repetition(self):
        assert RegExp(r"a*b").matches(b"aaab") == 1
        assert RegExp(r"a+b").matches(b"b") == 0
        assert RegExp(r"a?b").matches(b"ab") == 1
        assert RegExp(r"a{2,3}b").matches(b"aab") == 1
        assert RegExp(r"a{2,3}b").matches(b"ab") == 0

    def test_escapes(self):
        assert RegExp(r"\d+\.\d+").matches(b"1.1 ") == 1
        assert RegExp(r"\r?\n").matches(b"\r\n") == 1
        assert RegExp(r"\r?\n").matches(b"\n") == 1
        assert RegExp(r"\x41+").matches(b"AAA") == 1

    def test_dot_excludes_newline(self):
        assert RegExp(r".+").matches(b"ab\ncd") == 1
        assert RegExp(r".").matches(b"\n") == 0

    def test_longest_match(self):
        r = RegExp(r"[0-9]+")
        b = _frozen(b"12345x")
        status, it = r.match_token(b, b.begin())
        assert status == 1
        assert it.offset == 5

    def test_bad_patterns(self):
        for bad in ("*a", "(unclosed", "[z-a]", "a{3,1}"):
            with pytest.raises(HiltiError):
                RegExp(bad)


class TestSetMatching:
    def test_ids_in_order(self):
        r = RegExp(["GET", "POST", "HEAD"])
        assert r.matches(b"POST /") == 2
        assert r.matches(b"HEAD /") == 3
        assert r.matches(b"PUT /") == 0

    def test_lowest_id_wins_ties(self):
        r = RegExp(["ab", "a[b]"])
        assert r.matches(b"ab") == 1


class TestIncremental:
    def test_need_more_then_match(self):
        r = RegExp(r"[a-z]+X")
        b = Bytes(b"hel")
        status, __ = r.match_token(b, b.begin())
        assert status == MATCH_NEED_MORE
        b.append(b"loX!")
        status, it = r.match_token(b, b.begin())
        assert status == 1
        assert it.offset == 6

    def test_frozen_end_resolves(self):
        r = RegExp(r"[a-z]+")
        b = Bytes(b"abc")
        status, __ = r.match_token(b, b.begin())
        assert status == MATCH_NEED_MORE  # could still grow
        b.freeze()
        status, it = r.match_token(b, b.begin())
        assert status == 1 and it.offset == 3

    def test_fail_fast_without_more_input(self):
        r = RegExp(r"GET")
        b = Bytes(b"PUT")
        status, __ = r.match_token(b, b.begin())
        assert status == MATCH_FAIL

    def test_feed_across_chunks(self):
        r = RegExp(r"[0-9]+\.[0-9]+")
        state = r.token_state()
        assert r.feed(state, b"12", False)[0] == MATCH_NEED_MORE
        assert r.feed(state, b".3", False)[0] == MATCH_NEED_MORE
        status, length = r.feed(state, b"4 ", False)
        assert status == 1 and length == 5  # "12.34"

    def test_match_at_offset(self):
        r = RegExp(r"world")
        b = _frozen(b"hello world")
        status, it = r.match_token(b, b.at(6))
        assert status == 1 and it.offset == 11


class TestFind:
    def test_find_anywhere(self):
        r = RegExp(r"b+c")
        pid, begin, end = r.find(b"aaabbbcd")
        assert (pid, begin, end) == (1, 3, 7)

    def test_find_miss(self):
        assert RegExp(r"zz")._dfa is not None
        assert RegExp(r"zz").find(b"aaaa") == (0, -1, -1)

    def test_matches_exactly(self):
        r = RegExp(r"[a-z]+")
        assert r.matches_exactly(b"abc") == 1
        assert r.matches_exactly(b"abc1") == 0


# A conservative pattern subset where our syntax and Python's agree.
_SAFE_ATOM = st.sampled_from(
    ["a", "b", "c", "[ab]", "[a-c]", "[^a]", r"\d", "."]
)
_SAFE_SUFFIX = st.sampled_from(["", "*", "+", "?"])


@st.composite
def _safe_patterns(draw):
    parts = draw(st.lists(st.tuples(_SAFE_ATOM, _SAFE_SUFFIX),
                          min_size=1, max_size=4))
    return "".join(atom + suffix for atom, suffix in parts)


class TestAgainstPythonRe:
    @given(_safe_patterns(),
           st.lists(st.sampled_from(list(b"abc1\n")), max_size=12))
    def test_anchored_match_length_agrees(self, pattern, data):
        data = bytes(data)
        ours = RegExp(pattern)
        theirs = python_re.compile(pattern.encode())
        b = _frozen(data)
        status, it = ours.match_token(b, b.begin())
        match = theirs.match(data)
        if match is not None and match.end() > 0:
            assert status == 1
            assert it.offset == match.end()
        elif match is not None and match.end() == 0:
            # Zero-length matches: our engine reports them as matches of
            # length zero only when a pattern can accept empty input.
            assert status in (0, 1)
            if status == 1:
                assert it.offset == 0
        else:
            assert status == 0


# -- token sequences: regexp.match_seq ------------------------------------

HTTP_TOKENS = (r"[^ \t\r\n]+", r"[ \t]+", r"\r?\n", "HTTP/",
               r"[0-9]+\.[0-9]+", r"[0-9]{3}", r"[^\r\n]*", r"[^:\r\n]+",
               r":[ \t]*")


class TestClassR:
    @pytest.mark.parametrize("pattern", HTTP_TOKENS)
    def test_http_tokens_qualify(self, pattern):
        assert RegExp(pattern).re_source is not None

    @pytest.mark.parametrize("pattern",
                             ["a?a", "a*a", "[ab]*b", "(ab)*", "cat|dog"])
    def test_ambiguous_patterns_do_not(self, pattern):
        assert RegExp(pattern).re_source is None

    def test_pattern_sets_do_not(self):
        assert RegExp(["a", "b"]).re_source is None

    def test_rendering_is_explicit_byte_sets(self):
        assert RegExp(r"\r?\n").re_source == r"[\x0d]{0,1}[\x0a]"


def _buffer(prefix: bytes, data: bytes, frozen: bool):
    """*data* after a trimmed-away *prefix*, so offsets and the buffer's
    base differ; returns the buffer and an iterator at *data*."""
    buf = Bytes(prefix + data)
    buf.trim(buf.at(len(prefix) // 2))
    if frozen:
        buf.freeze()
    return buf, buf.at(len(prefix))


def _sequential(regexps, named_mask, it):
    """The reference: lone ``match_token`` calls, one token after the
    other."""
    start, values = it, []
    for index, regexp in enumerate(regexps):
        status, end = regexp.match_token(it.bytes_obj, it)
        if status <= 0:
            return status, start.offset, index, None
        if named_mask >> index & 1:
            values.append(it.bytes_obj.sub(it, end).to_bytes())
        it = end
    return 1, it.offset, -1, values


def _fused(regexps, named_mask, it):
    status, end, failing, *values = match_seq(it, named_mask, *regexps)
    if status <= 0:
        assert values == [None] * bin(named_mask).count("1")
        return status, end.offset, failing, None
    assert all(value.is_frozen for value in values)
    return status, end.offset, failing, [value.to_bytes()
                                         for value in values]


def _disagreements(patterns, data, named_mask=None, prefix=b"xy"):
    """Every (prefix length, frozen) where match_seq and sequential
    matching differ on *data* fed up to that point."""
    regexps = tuple(RegExp(p) for p in patterns)
    if named_mask is None:
        named_mask = (1 << len(patterns)) - 1
    found = []
    for length in range(len(data) + 1):
        for frozen in (False, True):
            buf, it = _buffer(prefix, data[:length], frozen)
            want = _sequential(regexps, named_mask, it)
            got = _fused(regexps, named_mask, it)
            if got != want:
                found.append((length, frozen, got, want))
    return found


_SEQ_ATOM = st.sampled_from(["a", "b", "[ab]", "[^a]", "[bc]", r"\n"])
_SEQ_COUNT = st.sampled_from(["", "*", "+", "?", "{2}", "{1,2}", "{0,3}"])
# Outside class R: groups, alternation, nested repetition.
_SEQ_OTHER = st.sampled_from(["(ab)*", "a|bc", "(a|b)c", "a**", "(ba?)+"])


@st.composite
def _token(draw):
    if draw(st.integers(0, 4)) == 0:
        return draw(_SEQ_OTHER)
    parts = draw(st.lists(st.tuples(_SEQ_ATOM, _SEQ_COUNT),
                          min_size=1, max_size=3))
    return "".join(atom + count for atom, count in parts)


class TestMatchSeq:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(_token(), min_size=1, max_size=4),
           st.binary(max_size=10).map(
               lambda raw: bytes(b"abc\n"[byte % 4] for byte in raw)),
           st.integers(0, 15))
    def test_agrees_with_sequential_match_token(self, patterns, data, mask):
        mask &= (1 << len(patterns)) - 1
        assert _disagreements(patterns, data, mask) == []

    def test_http_header_at_every_split(self):
        header = (r"[^:\r\n]+", r":[ \t]*", r"[^\r\n]*", r"\r?\n")
        for data in (b"Host: example.org\r\n\r\n", b"Host\r\n", b": x\r\n",
                     b"X-A:\t\r\r\n", b"A:b\n"):
            assert _disagreements(header, data, 0b0101) == []

    def test_values_and_failing_index(self):
        version = (RegExp("HTTP/"), RegExp(r"[0-9]+\.[0-9]+"))
        buf, it = _buffer(b"", b"HTTP/1.1\r\n", True)
        status, end, failing, number = match_seq(it, 0b10, *version)
        assert (status, end.offset, failing) == (1, 8, -1)
        assert number.to_bytes() == b"1.1" and number.is_frozen
        buf, it = _buffer(b"", b"HTTP/x", True)
        assert match_seq(it, 0b10, *version)[::2] == (MATCH_FAIL, 1)
        buf, it = _buffer(b"", b"HTTP/1.1", False)
        assert match_seq(it, 0b10, *version)[::2] == (MATCH_NEED_MORE, 1)

    def test_sabotage_without_atomic_groups_is_caught(self, monkeypatch):
        # Plain groups let a later token take bytes back from an earlier
        # one: a* then a matches "aa", which sequential matching refuses.
        monkeypatch.setattr(
            regexp_module, "_sequence_source",
            lambda sources, open_end: "".join(
                f"({source})" for source in sources).encode("latin-1"))
        regexp_module.sequence_matcher.cache_clear()
        try:
            assert _disagreements(["a*", "a"], b"aab")
        finally:
            regexp_module.sequence_matcher.cache_clear()

    def test_sabotage_without_end_guard_is_caught(self, monkeypatch):
        # Without the guard a token ending at the open end of the buffer
        # counts as decided, though more input could extend it.
        source = regexp_module._sequence_source
        monkeypatch.setattr(regexp_module, "_sequence_source",
                            lambda sources, open_end: source(sources, False))
        regexp_module.sequence_matcher.cache_clear()
        try:
            assert _disagreements(["[ab]", "a+"], b"aaa")
        finally:
            regexp_module.sequence_matcher.cache_clear()
