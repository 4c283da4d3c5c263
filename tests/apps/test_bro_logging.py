"""The logging framework: rendering, streams, normalization, and the
slot path records render through."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.bro.logging import (
    LogManager,
    LogStream,
    normalize_log,
    render_value,
)
from repro.apps.bro.val import RecordType, RecordVal
from repro.core.values import Addr, Interval, Port, Time
from repro.runtime.containers import HiltiMap, HiltiSet, HiltiVector
from repro.runtime.structs import UNSET

_AB = RecordType("ab", [("a", None), ("b", None)])


class TestRendering:
    def test_scalars(self):
        assert render_value(None) == "-"
        assert render_value(True) == "T"
        assert render_value(False) == "F"
        assert render_value(1.5) == "1.500000"
        assert render_value("") == "(empty)"
        assert render_value("x") == "x"
        assert render_value(b"raw") == "raw"

    def test_domain_values(self):
        assert render_value(Addr("10.1.2.3")) == "10.1.2.3"
        assert render_value(Port(80, "tcp")) == "80/tcp"
        assert render_value(Time(1.5)) == "1.500000"
        assert render_value(Interval(300)) == "300.000000"

    def test_vectors_comma_joined(self):
        assert render_value(HiltiVector(items=["a", "b"])) == "a,b"
        assert render_value(HiltiVector()) == "-"


class TestStreams:
    def test_write_renders_columns_in_order(self):
        stream = LogStream("t", ["b", "a"])
        line = stream.write(RecordVal(_AB, {"a": 1, "b": 2}))
        assert line == "2\t1"

    def test_unset_column_is_dash(self):
        stream = LogStream("t", ["a", "missing"])
        assert stream.write(RecordVal(_AB, {"a": 1})) == "1\t-"

    def test_header(self):
        assert LogStream("t", ["x", "y"]).header() == "#fields\tx\ty"

    def test_manager_disabled_counts_but_skips(self):
        manager = LogManager(enabled=False)
        manager.create_stream("s", ["a"])
        manager.write("s", RecordVal(_AB, {"a": 1}))
        assert manager.streams["s"].writes == 1
        assert manager.lines("s") == []

    def test_unknown_stream(self):
        with pytest.raises(KeyError):
            LogManager().write("nope", RecordVal(_AB))

    def test_save(self, tmp_path):
        manager = LogManager()
        manager.create_stream("s", ["a"])
        manager.write("s", RecordVal(_AB, {"a": "v"}))
        manager.save(str(tmp_path))
        content = (tmp_path / "s.log").read_text()
        assert content == "#fields\ta\nv\n"

    @pytest.mark.parametrize("columns,values,expected", [
        # No columns, no lines: the bare header.
        ([], [], b"#fields\t\n"),
        # Columns, no lines: the header line alone.
        (["a", "b"], [], b"#fields\ta\tb\n"),
        (["a", "b"], [{"a": 1, "b": "x"}, {"a": 2}, {"b": ""}],
         b"#fields\ta\tb\n1\tx\n2\t-\n-\t(empty)\n"),
    ])
    def test_save_bytes(self, tmp_path, columns, values, expected):
        """Written line by line, a log is byte for byte the header and
        each line, newline-terminated."""
        manager = LogManager()
        manager.create_stream("s", columns)
        for fields in values:
            manager.write("s", RecordVal(_AB, fields))
        manager.save(str(tmp_path))
        assert (tmp_path / "s.log").read_bytes() == expected


class TestNormalization:
    def test_sort_unique(self):
        lines = ["b\t2", "a\t1", "b\t2"]
        assert normalize_log(lines) == ["a\t1", "b\t2"]

    def test_drop_columns(self):
        lines = ["1.0\tx\tk", "2.0\tx\tk"]
        # Dropping the timestamp folds the two entries together.
        assert normalize_log(lines, drop_columns=(0,)) == ["x\tk"]


# ---------------------------------------------------------------------------
# The slot path: a record renders from its slot list, HILTI containers
# included, as the writer's reference rendering of each column would.

_FIELDS = ["a", "b", "c", "d"]
_OUTER = RecordType("outer", [(name, None) for name in _FIELDS])
_INNER = RecordType("inner", [("x", None), ("y", None)])


def _hilti_set(members):
    out = HiltiSet()
    for member in members:
        out.insert(member)
    return out


def _hilti_map(pairs):
    out = HiltiMap()
    for key, value in pairs:
        out.insert(key, value)
    return out


_HASHABLE = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2 ** 70), 2 ** 70),
    st.text(max_size=5),
    st.binary(max_size=5),  # includes non-UTF-8
    st.integers(0, 2 ** 32 - 1).map(Addr.from_v4_int),
    st.binary(min_size=16, max_size=16).map(Addr),
    st.builds(Port, st.integers(0, 65535), st.sampled_from(["tcp", "udp"])),
    st.floats(-1e9, 1e9).map(Time),
    st.floats(-1e6, 1e6).map(Interval),
)
_SCALARS = st.one_of(_HASHABLE, st.floats())


def _containers(items):
    return st.one_of(
        st.lists(items, max_size=3).map(lambda i: HiltiVector(items=i)),
        st.lists(_HASHABLE, max_size=3).map(_hilti_set),
        st.lists(st.tuples(_HASHABLE, items), max_size=2).map(_hilti_map),
        st.lists(items, min_size=2, max_size=2).map(
            lambda slots: RecordVal(_INNER, slots=slots)),
        st.tuples(items, items),
    )


_VALUES = st.recursive(_SCALARS, _containers, max_leaves=6)
# A cell: unset, a scalar, a container of scalars, or a nested one.
_CELLS = st.one_of(st.just(UNSET), _SCALARS, _containers(_SCALARS),
                   _containers(_VALUES))
_SLOTS = st.lists(_CELLS, min_size=len(_FIELDS), max_size=len(_FIELDS))


def _reference(value) -> str:
    """Bro's ASCII writer, spelled out: the spec the slot path meets."""
    if value is None or value is UNSET:
        return "-"
    if isinstance(value, bool):
        return "T" if value else "F"
    if isinstance(value, float):
        return f"{value:.6f}"
    if isinstance(value, (Time, Interval)):
        return f"{value.seconds:.6f}"
    if isinstance(value, bytes):
        return value.decode("utf-8", "replace") or "(empty)"
    if isinstance(value, str):
        return value or "(empty)"
    if isinstance(value, (HiltiVector, HiltiSet, tuple)):
        return ",".join(_reference(v) for v in value) or "-"
    return str(value)


class TestSlotPath:
    @settings(max_examples=300, deadline=None)
    @given(_SLOTS, st.permutations(_FIELDS + ["missing"]))
    def test_equals_reference_by_name(self, slots, columns):
        record = RecordVal(_OUTER, slots=slots)
        expected = "\t".join(_reference(record.get_or(c)) for c in columns)
        assert LogStream("t", columns).write(record) == expected

    def test_hilti_containers_render_their_items(self):
        record = RecordVal(_OUTER, slots=[
            _hilti_set([b"\xffraw"]), HiltiVector(items=["", 2]),
            HiltiVector(), UNSET])
        line = LogStream("t", _FIELDS).write(record)
        assert line == "\ufffdraw\t(empty),2\t-\t-"

    def test_plan_is_per_type_object(self):
        # Two distinct but structurally equal types (StructT hashes and
        # compares structurally): each gets its own plan, holding it.
        first = RecordType("row", [("a", None), ("b", None)])
        second = RecordType("row", [("a", None), ("b", None)])
        stream = LogStream("t", ["b", "a"])
        assert stream.write(RecordVal(first, {"a": 1, "b": 2})) == "2\t1"
        assert stream.write(RecordVal(second, {"a": 3})) == "-\t3"
        assert all(plan[0] is first or plan[0] is second
                   for plan in stream._plans.values())
        assert len(stream._plans) == 2
