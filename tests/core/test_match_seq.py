"""``regexp.match_seq``: a run of tokens matched by one instruction.

The BinPAC++ compiler emits it for consecutive tokens and token-only
units.  The interpreter and ``-O0`` run the registry function, ``-O1``
the operand tuple's precompiled sequence matcher; every tier must agree
on the status, the end, the failing token and the named values — also
on a buffer that may still grow — and the interpreter and ``-O0`` on the
instruction count.
"""

import pytest

from repro.core import hiltic, parse_module, print_module
from repro.core.optimize import OPT_LEVELS
from repro.runtime.bytes_buffer import Bytes

# An HTTP header line: name, colon, value, newline; name and value named.
SOURCE = r"""module Main

any f(ref<bytes> data, int<64> skip) {
    local any it
    local any t
    local any status
    local any failing
    local any name
    local any value
    local any end
    local int<64> left
    local any r
    it = bytes.begin data
    it = iterator.incr_by it skip
    t = regexp.match_seq it 5 regexp("[^:\\r\\n]+") regexp(":[ \\t]*") regexp("[^\\r\\n]*") regexp("\\r?\\n")
    status = tuple.index t 0
    end = tuple.index t 1
    failing = tuple.index t 2
    name = tuple.index t 3
    value = tuple.index t 4
    left = bytes.available end
    r = assign (status, failing, name, value, left)
    return r
}
"""

LINE = b"Host:\t example.org\r\n"


def _run(program, data: bytes, skip: int, frozen: bool):
    ctx = program.make_context()
    buf = Bytes(data)
    if frozen:
        buf.freeze()
    result = program.call(ctx, "Main::f", [buf, skip])
    return tuple(str(v) for v in result), ctx.instr_count


@pytest.fixture(scope="module")
def programs():
    built = {"interp": hiltic([SOURCE], tier="interpreted")}
    for level in OPT_LEVELS:
        built[f"O{level}"] = hiltic([SOURCE], opt_level=level)
    return built


@pytest.mark.parametrize("frozen", [True, False], ids=["frozen", "open"])
def test_tiers_agree_on_every_length(programs, frozen):
    for skip in (0, 2):
        data = b"::"[:skip] + LINE + b"X"
        for length in range(skip, len(data) + 1):
            expected, count = _run(programs["interp"], data[:length], skip,
                                   frozen)
            for name, program in programs.items():
                got, got_count = _run(program, data[:length], skip, frozen)
                assert got == expected, (name, skip, length)
                if name == "O0":
                    assert got_count == count, (skip, length)


def test_values_failing_index_and_undecided(programs):
    program = programs["O1"]
    status, failing, name, value, left = _run(program, LINE + b"X", 0,
                                              False)[0]
    assert (status, failing, left) == ("1", "-1", "1")
    assert "example.org" in value and "Host" in name
    # No colon: the second token fails; the named values are unset.
    assert _run(program, b"Host\r\n", 0, True)[0][:4] == \
        ("0", "1", "None", "None")
    # The value reaches the open end of the buffer: undecided there,
    # decided once the buffer is frozen.
    assert _run(program, LINE[:-2], 0, False)[0][:2] == ("-1", "2")
    assert _run(program, LINE[:-2], 0, True)[0][:2] == ("0", "3")


def test_optimized_tier_binds_a_precompiled_matcher():
    generic = hiltic([SOURCE], opt_level=0).functions["Main::f"].source
    special = hiltic([SOURCE], opt_level=1).functions["Main::f"].source

    def match_line(text):
        return next(line for line in text.splitlines()
                    if "regexp.match_seq" in line)

    assert "ctx," in match_line(generic)
    assert "ctx," not in match_line(special)


def test_printer_roundtrip():
    first = print_module(parse_module(SOURCE))
    assert ('regexp.match_seq it 5 regexp("[^:\\\\r\\\\n]+") '
            'regexp(":[ \\\\t]*")') in first
    assert print_module(parse_module(first)) == first
