"""BinPAC++ grammar ASTs.

BinPAC++ is a "yacc for network protocols": given a protocol's grammar it
generates a protocol parser, targeting HILTI instead of the original's C++
(paper, section 4).  A grammar is a set of *units* — message types parsed
field by field — plus named token constants.  Beyond pure syntax, the
grammar language carries semantic constructs (computed fields, conditions,
switches) that compile into HILTI code, the extension the paper highlights
over classic BinPAC.

Host applications may build grammars through this AST directly (as Bro
builds its analysis in memory) or parse the ``.pac2`` textual syntax of
Figures 6-7 via ``repro.apps.binpac.parser``.

Expression sub-language: field references (``self.x``), literals, binary
operators, and calls into the BinPAC runtime library.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple, Union

__all__ = [
    "Expr",
    "Const",
    "SelfField",
    "Param",
    "BinOp",
    "Call",
    "Field",
    "PatternField",
    "LiteralField",
    "UIntField",
    "BytesField",
    "SubUnitField",
    "ListField",
    "NativeField",
    "SeqField",
    "SwitchField",
    "ComputeField",
    "MarkField",
    "SeekField",
    "Unit",
    "Grammar",
    "GrammarError",
]


class GrammarError(ValueError):
    pass


# --------------------------------------------------------------------------
# Expressions
# --------------------------------------------------------------------------


class Expr:
    __slots__ = ()


class Const(Expr):
    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value

    def __repr__(self) -> str:
        return repr(self.value)


class SelfField(Expr):
    """``self.name`` — a previously parsed field (or mark) of this unit."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name

    def __repr__(self) -> str:
        return f"self.{self.name}"


class Param(Expr):
    """A unit parameter by index (units may take parameters)."""

    __slots__ = ("index",)

    def __init__(self, index: int):
        self.index = index

    def __repr__(self) -> str:
        return f"$param{self.index}"


class BinOp(Expr):
    """Binary operation: + - * == != < <= > >= && || &"""

    __slots__ = ("op", "left", "right")

    OPS = {"+", "-", "*", "==", "!=", "<", "<=", ">", ">=", "&&", "||", "&"}

    def __init__(self, op: str, left: Expr, right: Expr):
        if op not in self.OPS:
            raise GrammarError(f"unsupported operator {op!r}")
        self.op = op
        self.left = left
        self.right = right

    def __repr__(self) -> str:
        return f"({self.left} {self.op} {self.right})"


class Call(Expr):
    """A call into the BinPAC runtime library (``BinPAC::<name>``)."""

    __slots__ = ("name", "args")

    def __init__(self, name: str, args: Sequence[Expr]):
        self.name = name
        self.args = list(args)

    def __repr__(self) -> str:
        inner = ", ".join(repr(a) for a in self.args)
        return f"{self.name}({inner})"


# --------------------------------------------------------------------------
# Fields
# --------------------------------------------------------------------------


class Field:
    """Base: *name* may be None for anonymous (match-only) fields."""

    __slots__ = ("name", "condition")

    def __init__(self, name: Optional[str], condition: Optional[Expr] = None):
        self.name = name
        self.condition = condition  # parse only if condition holds

    def stored(self) -> bool:
        return self.name is not None


class PatternField(Field):
    """A regular-expression token, e.g. ``method: /[^ \\t\\r\\n]+/``."""

    __slots__ = ("pattern",)

    def __init__(self, name: Optional[str], pattern: str,
                 condition: Optional[Expr] = None):
        super().__init__(name, condition)
        self.pattern = pattern

    def __repr__(self) -> str:
        return f"{self.name or ''}: /{self.pattern}/"


class LiteralField(Field):
    """A fixed byte string that must appear verbatim."""

    __slots__ = ("literal",)

    def __init__(self, name: Optional[str], literal: bytes,
                 condition: Optional[Expr] = None):
        super().__init__(name, condition)
        self.literal = literal

    def __repr__(self) -> str:
        return f"{self.name or ''}: {self.literal!r}"


class UIntField(Field):
    """A fixed-width unsigned integer (network byte order by default)."""

    __slots__ = ("width", "little_endian")

    def __init__(self, name: Optional[str], width: int,
                 little_endian: bool = False,
                 condition: Optional[Expr] = None):
        if width not in (8, 16, 32, 64):
            raise GrammarError(f"unsupported uint width {width}")
        super().__init__(name, condition)
        self.width = width
        self.little_endian = little_endian

    def __repr__(self) -> str:
        return f"{self.name or ''}: uint{self.width}"


class BytesField(Field):
    """Raw bytes: fixed ``length`` expression, ``until`` pattern, or
    ``eod`` (consume everything to end-of-data)."""

    __slots__ = ("length", "until", "eod", "include_delim")

    def __init__(self, name: Optional[str], length: Optional[Expr] = None,
                 until: Optional[str] = None, eod: bool = False,
                 include_delim: bool = False,
                 condition: Optional[Expr] = None):
        if sum(x is not None for x in (length, until)) + int(eod) != 1:
            raise GrammarError("bytes field needs exactly one of "
                               "length/until/eod")
        super().__init__(name, condition)
        self.length = length
        self.until = until
        self.eod = eod
        self.include_delim = include_delim

    def __repr__(self) -> str:
        return f"{self.name or ''}: bytes"


class SubUnitField(Field):
    """A nested unit, e.g. ``version: Version``."""

    __slots__ = ("unit_name", "args")

    def __init__(self, name: Optional[str], unit_name: str,
                 args: Sequence[Expr] = (),
                 condition: Optional[Expr] = None):
        super().__init__(name, condition)
        self.unit_name = unit_name
        self.args = list(args)

    def __repr__(self) -> str:
        return f"{self.name or ''}: {self.unit_name}"


class ListField(Field):
    """A repeated element: ``&count=expr``, ``&until_input=/re/`` (stop
    when the input at the cursor matches), or ``&eod``."""

    __slots__ = ("element", "count", "until_input", "eod")

    def __init__(self, name: Optional[str], element: Field,
                 count: Optional[Expr] = None,
                 until_input: Optional[str] = None,
                 eod: bool = False,
                 condition: Optional[Expr] = None):
        if sum(x is not None for x in (count, until_input)) + int(eod) != 1:
            raise GrammarError("list field needs exactly one of "
                               "count/until_input/eod")
        super().__init__(name, condition)
        if element.condition is not None:
            raise GrammarError("list elements cannot be conditional")
        self.element = element
        self.count = count
        self.until_input = until_input
        self.eod = eod

    def __repr__(self) -> str:
        return f"{self.name or ''}: {self.element!r}[]"


class NativeField(Field):
    """A field parsed by a BinPAC runtime function.

    The native gets ``(data, cur, *extra_args)`` and returns ``(value,
    new_cur)`` — how the library handles constructs beyond a pure field
    grammar (DNS name decompression).
    """

    __slots__ = ("native", "args")

    def __init__(self, name: Optional[str], native: str,
                 args: Sequence["Expr"] = (),
                 condition: Optional["Expr"] = None):
        super().__init__(name, condition)
        self.native = native
        self.args = list(args)

    def __repr__(self) -> str:
        return f"{self.name or ''}: <native {self.native}>"


class SeqField(Field):
    """A sequence of fields treated as one (switch-case bodies)."""

    __slots__ = ("fields",)

    def __init__(self, fields: Sequence[Field]):
        super().__init__(None, None)
        self.fields = list(fields)

    def __repr__(self) -> str:
        return f"<seq of {len(self.fields)}>"


class SwitchField(Field):
    """Type-dispatched parsing: ``switch (expr) { value -> field; ... }``.

    Each case is ``(constant, Field)``; *default* may be None (no bytes
    consumed for unmatched values).
    """

    __slots__ = ("selector", "cases", "default")

    def __init__(self, selector: Expr,
                 cases: Sequence[Tuple[object, Field]],
                 default: Optional[Field] = None):
        super().__init__(None, None)
        self.selector = selector
        self.cases = list(cases)
        self.default = default

    def __repr__(self) -> str:
        return f"switch({self.selector})"


class ComputeField(Field):
    """A field whose value is computed, not parsed: ``name = expr``."""

    __slots__ = ("expr",)

    def __init__(self, name: str, expr: Expr):
        super().__init__(name, None)
        self.expr = expr

    def __repr__(self) -> str:
        return f"{self.name} = {self.expr!r}"


class MarkField(Field):
    """Records the current input offset into a (virtual) field."""

    __slots__ = ()

    def __init__(self, name: str):
        super().__init__(name, None)

    def __repr__(self) -> str:
        return f"{self.name} = <mark>"


class SeekField(Field):
    """Repositions the cursor to ``mark + offset_expr`` (bounded regions,
    e.g. skipping to the end of a DNS RDATA section)."""

    __slots__ = ("mark", "offset")

    def __init__(self, mark: str, offset: Expr):
        super().__init__(None, None)
        self.mark = mark
        self.offset = offset

    def __repr__(self) -> str:
        return f"<seek {self.mark}+{self.offset!r}>"


# --------------------------------------------------------------------------
# Units and grammars
# --------------------------------------------------------------------------


class Unit:
    """One message type: an ordered field list plus hooks."""

    def __init__(self, name: str, fields: Sequence[Field],
                 params: int = 0, exported: bool = False):
        self.name = name
        self.fields = list(fields)
        self.params = params
        self.exported = exported
        self._check()

    def _check(self) -> None:
        seen: set = set()
        for field in self.fields:
            if field.name:
                if field.name in seen:
                    raise GrammarError(
                        f"unit {self.name}: duplicate field {field.name!r}"
                    )
                seen.add(field.name)

    def stored_fields(self) -> List[str]:
        names: List[str] = []

        def collect(field: Field) -> None:
            if isinstance(field, SwitchField):
                for __, case_field in field.cases:
                    collect(case_field)
                if field.default is not None:
                    collect(field.default)
            elif isinstance(field, SeqField):
                for inner in field.fields:
                    collect(inner)
            elif field.name:
                names.append(field.name)

        for field in self.fields:
            collect(field)
        # Preserve order, drop duplicates (switch cases may share names).
        unique: List[str] = []
        for name in names:
            if name not in unique:
                unique.append(name)
        return unique

    def __repr__(self) -> str:
        return f"<unit {self.name}: {len(self.fields)} fields>"


class Grammar:
    """A named set of units with constants (the ``module`` of a .pac2).

    *datagram* declares that every unit is parsed from one whole,
    already-complete PDU (a UDP datagram): the generated parsers then
    never suspend for more input, and the host parses with one call
    instead of an incremental session (paper §6.4).
    """

    def __init__(self, name: str, datagram: bool = False):
        self.name = name
        self.datagram = datagram
        self.constants: Dict[str, str] = {}  # name -> pattern
        self.units: Dict[str, Unit] = {}

    def constant(self, name: str, pattern: str) -> None:
        self.constants[name] = pattern

    def unit(self, unit: Unit) -> Unit:
        if unit.name in self.units:
            raise GrammarError(f"duplicate unit {unit.name!r}")
        self.units[unit.name] = unit
        return unit

    def qualified(self, unit_name: str) -> str:
        return f"{self.name}::{unit_name}"

    def __repr__(self) -> str:
        return f"<grammar {self.name}: {len(self.units)} units>"
