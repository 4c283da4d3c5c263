"""``bytes.unpack_seq``: a run of fixed-width fields in one read.

The BinPAC++ compiler emits it for consecutive fixed-width integer
fields.  The interpreter and ``-O0`` run the registry function, ``-O1``
and up a precompiled reader (one ``Struct.unpack_from`` for a run of one
byte order); every tier must agree on the values, the advanced iterator
and the error on short input — including a trap inside a mixed run that
reads field by field — and the interpreter and ``-O0`` on the
instruction count.
"""

import pytest

from repro.core import hiltic, parse_module, print_module
from repro.core.optimize import OPT_LEVELS
from repro.runtime.bytes_buffer import Bytes
from repro.runtime.exceptions import HiltiError

# A plain run (one Struct) and a mixed one (an address, two byte orders).
RUNS = {
    "plain": ("UInt16Big UInt32Big UInt8Big", 7),
    "mixed": ("UInt16Big IPv4 UInt16Little", 8),
}


def _source(formats: str) -> str:
    return f"""module Main

any f(ref<bytes> data, int<64> skip) {{
    local any it
    local any t
    local any a
    local any b
    local any c
    local any rest
    local int<64> left
    local any r
    it = bytes.begin data
    it = iterator.incr_by it skip
    t = bytes.unpack_seq it {formats}
    a = tuple.index t 0
    b = tuple.index t 1
    c = tuple.index t 2
    rest = tuple.index t 3
    left = bytes.available rest
    r = assign (a, b, c, left)
    return r
}}
"""


def _run(program, data: bytes, skip: int, frozen: bool):
    ctx = program.make_context()
    buf = Bytes(data)
    if frozen:
        buf.freeze()
    try:
        outcome = ("ok", tuple(str(v) for v in
                               program.call(ctx, "Main::f", [buf, skip])))
    except HiltiError as error:
        outcome = ("raise", error.except_type.type_name)
    return outcome, ctx.instr_count


@pytest.fixture(scope="module", params=sorted(RUNS))
def run(request):
    formats, size = RUNS[request.param]
    source = _source(formats)
    programs = {"interp": hiltic([source], tier="interpreted")}
    for level in OPT_LEVELS:
        programs[f"O{level}"] = hiltic([source], opt_level=level)
    return programs, size


@pytest.mark.parametrize("frozen", [True, False], ids=["frozen", "open"])
def test_tiers_agree_on_every_length(run, frozen):
    programs, size = run
    payload = bytes(range(0x81, 0x81 + size + 2))
    for skip in (0, 1):
        for length in range(skip + size + 2):
            data = payload[:length]
            expected, count = _run(programs["interp"], data, skip, frozen)
            for name, program in programs.items():
                got, got_count = _run(program, data, skip, frozen)
                assert got == expected, (name, skip, length)
                if name == "O0":
                    assert got_count == count, (skip, length)
            short = length - skip < size
            assert (expected[0] == "raise") == short
            if short:
                assert expected[1] == ("Hilti::IndexError" if frozen
                                       else "Hilti::WouldBlock")


def test_values_and_advance():
    program = hiltic([_source(RUNS["plain"][0])])
    buf = Bytes(bytes.fromhex("0102" "03040506" "07" "ff"))
    buf.freeze()
    result = program.call(program.make_context(), "Main::f", [buf, 0])
    assert result == (0x0102, 0x03040506, 0x07, 1)


def test_optimized_tier_reads_through_a_precompiled_reader():
    source = _source(RUNS["plain"][0])
    generic = hiltic([source], opt_level=0).functions["Main::f"].source
    special = hiltic([source], opt_level=1).functions["Main::f"].source

    def read_line(text):
        return next(line for line in text.splitlines()
                    if "bytes.unpack_seq" in line)

    assert "ctx," in read_line(generic)
    assert "ctx," not in read_line(special)


def test_printer_roundtrip():
    first = print_module(parse_module(_source(RUNS["mixed"][0])))
    assert "bytes.unpack_seq it UInt16Big IPv4 UInt16Little" in first
    assert print_module(parse_module(first)) == first
