"""The incremental bytes buffer and its iterators."""

import pytest
from hypothesis import given, strategies as st

from repro.runtime.bytes_buffer import Bytes, BytesIter
from repro.runtime.exceptions import HiltiError


class TestBasics:
    def test_append_and_len(self):
        b = Bytes(b"abc")
        b.append(b"def")
        assert len(b) == 6
        assert b.to_bytes() == b"abcdef"

    def test_freeze_blocks_append(self):
        b = Bytes(b"x")
        b.freeze()
        assert b.is_frozen
        with pytest.raises(HiltiError):
            b.append(b"y")
        b.unfreeze()
        b.append(b"y")
        assert b.to_bytes() == b"xy"

    def test_equality_with_raw_bytes(self):
        assert Bytes(b"abc") == b"abc"
        assert Bytes(b"abc") == Bytes(b"abc")
        assert Bytes(b"abc") != Bytes(b"abd")

    def test_concat(self):
        c = Bytes(b"ab") + Bytes(b"cd")
        assert c == b"abcd"
        assert c.is_frozen


class TestIterators:
    def test_iterators_stable_across_append(self):
        b = Bytes(b"hello")
        it = b.at(b.begin_offset + 2)
        b.append(b" world")
        assert it.deref() == ord("l")
        assert it.incr_by(3).deref() == ord(" ")

    def test_deref_past_end_raises(self):
        b = Bytes(b"ab")
        with pytest.raises(HiltiError):
            b.end().deref()

    def test_distance(self):
        b = Bytes(b"abcdef")
        assert b.begin().distance(b.end()) == 6

    def test_distance_different_objects_raises(self):
        with pytest.raises(HiltiError):
            Bytes(b"a").begin().distance(Bytes(b"b").begin())

    def test_available(self):
        b = Bytes(b"abcd")
        it = b.begin().incr()
        assert it.available() == 3
        b.append(b"ef")
        assert it.available() == 5


class TestTrim:
    def test_trim_releases_memory(self):
        b = Bytes(b"0123456789")
        b.trim(b.at(b.begin_offset + 4))
        assert len(b) == 6
        assert b.begin_offset == 4
        assert b.begin().deref() == ord("4")

    def test_read_before_trim_raises(self):
        b = Bytes(b"0123456789")
        b.trim(b.at(4))
        with pytest.raises(HiltiError):
            b.byte_at(2)

    def test_trim_keeps_absolute_offsets(self):
        b = Bytes(b"0123456789")
        it = b.at(7)
        b.trim(b.at(5))
        assert it.deref() == ord("7")


class TestSearchAndSlice:
    def test_sub(self):
        b = Bytes(b"hello world")
        sub = b.sub(b.at(6), b.at(11))
        assert sub == b"world"
        assert sub.is_frozen

    def test_sub_owns_its_copy(self):
        b = Bytes(b"hello")
        b.trim(b.at(1))
        sub = b.sub(b.at(2), b.at(4))
        assert sub == b"ll" and sub.is_frozen
        assert (sub.begin_offset, sub.end_offset) == (0, 2)
        b.append(b" world")
        b.trim(b.at(3))
        assert sub == b"ll"  # not aliased by later appends or trims
        with pytest.raises(HiltiError):
            sub.append(b"!")

    def test_sub_of_unavailable_range(self):
        b = Bytes(b"abc")
        with pytest.raises(HiltiError):
            b.sub(b.at(1), b.at(9))
        b.freeze()
        with pytest.raises(HiltiError):
            b.sub(b.at(1), b.at(9))

    def test_find_hit(self):
        b = Bytes(b"abcXYZdef")
        found, it = b.find(b"XYZ")
        assert found and it.offset == 3

    def test_find_partial_suffix_position(self):
        # "XY" at the tail could complete to "XYZ" with more data.
        b = Bytes(b"abcXY")
        found, it = b.find(b"XYZ")
        assert not found
        assert it.offset == 3  # resume position

    def test_find_miss(self):
        b = Bytes(b"aaaa")
        found, it = b.find(b"zz")
        assert not found and it.offset == b.end_offset

    def test_startswith_at_iter(self):
        b = Bytes(b"GET /x")
        assert b.startswith(b"GET")
        assert b.startswith(b"/x", b.at(4))

    def test_split1(self):
        head, tail = Bytes(b"name: value").split1(b": ")
        assert head == b"name" and tail == b"value"

    def test_split(self):
        parts = Bytes(b"a,b,c").split(b",")
        assert [p.to_bytes() for p in parts] == [b"a", b"b", b"c"]


class TestConversions:
    def test_to_int(self):
        assert Bytes(b"1234").to_int() == 1234
        assert Bytes(b"ff").to_int(16) == 255
        with pytest.raises(HiltiError):
            Bytes(b"abc!").to_int()

    def test_case(self):
        assert Bytes(b"MiXeD").lower() == b"mixed"
        assert Bytes(b"MiXeD").upper() == b"MIXED"

    def test_strip(self):
        assert Bytes(b"  x ").strip() == b"x"

    def test_read_would_block_vs_index(self):
        b = Bytes(b"ab")
        from repro.runtime.exceptions import WOULD_BLOCK, INDEX_ERROR

        with pytest.raises(HiltiError) as exc:
            b.read(0, 5)
        assert exc.value.except_type is WOULD_BLOCK
        b.freeze()
        with pytest.raises(HiltiError) as exc:
            b.read(0, 5)
        assert exc.value.except_type is INDEX_ERROR


class TestProperties:
    @given(st.lists(st.binary(max_size=30), max_size=12))
    def test_chunked_append_equals_join(self, chunks):
        b = Bytes()
        for chunk in chunks:
            b.append(chunk)
        assert b.to_bytes() == b"".join(chunks)

    @given(st.binary(min_size=1, max_size=60),
           st.data())
    def test_trim_preserves_tail(self, data, draw):
        b = Bytes(data)
        cut = draw.draw(st.integers(min_value=0, max_value=len(data)))
        b.trim(b.at(cut))
        assert b.to_bytes() == data[cut:]
        assert b.begin_offset == cut

    @given(st.binary(max_size=40), st.binary(min_size=1, max_size=5))
    def test_find_agrees_with_python(self, haystack, needle):
        b = Bytes(haystack)
        found, it = b.find(needle)
        expected = haystack.find(needle)
        if expected >= 0:
            assert found and it.offset == expected
        else:
            assert not found

    @given(st.binary(max_size=50))
    def test_view_matches_read(self, data):
        b = Bytes(data)
        for offset in range(0, len(data) + 1, max(1, len(data) // 4 or 1)):
            assert bytes(b.view_from(offset)) == data[offset:]
