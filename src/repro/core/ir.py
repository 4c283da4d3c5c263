"""Intermediate representation of HILTI machine code.

A HILTI program is a set of modules; each module declares types, globals
(which are *thread-local per virtual thread*, the paper's section 3.2),
functions, and hooks.  Function bodies are sequences of named blocks holding
register-style instructions of the general form::

    <target> = <mnemonic> <op1> <op2> <op3>

Host-application compilers build this IR either through
``repro.core.builder`` (the paper's C++ AST interface) or by emitting the
textual syntax parsed by ``repro.core.parser``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from . import types as ht

__all__ = [
    "Operand",
    "Const",
    "Var",
    "LabelRef",
    "FuncRef",
    "TypeRef",
    "FieldRef",
    "TupleOp",
    "Instruction",
    "Block",
    "Parameter",
    "Local",
    "Function",
    "GlobalVar",
    "Module",
    "Location",
]


class Location:
    """Source location for diagnostics."""

    __slots__ = ("file", "line")

    def __init__(self, file: str = "<builder>", line: int = 0):
        self.file = file
        self.line = line

    def __str__(self) -> str:
        return f"{self.file}:{self.line}"

    def __repr__(self) -> str:
        return f"Location({self.file!r}, {self.line})"


_NO_LOCATION = Location()


class Operand:
    """Base class for instruction operands."""

    __slots__ = ()


class Const(Operand):
    """A literal constant of a known HILTI type."""

    __slots__ = ("type", "value")

    def __init__(self, const_type: ht.Type, value):
        self.type = const_type
        self.value = value

    def __repr__(self) -> str:
        return f"Const({self.type}, {self.value!r})"

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Const)
            and self.type == other.type
            and self.value == other.value
        )

    def __hash__(self) -> int:
        try:
            return hash((self.type, self.value))
        except TypeError:
            return hash(self.type)


class Var(Operand):
    """A reference to a local, parameter, or module global by name."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name

    def __repr__(self) -> str:
        return f"Var({self.name!r})"

    def __eq__(self, other) -> bool:
        return isinstance(other, Var) and self.name == other.name

    def __hash__(self) -> int:
        return hash(("var", self.name))


class LabelRef(Operand):
    """A reference to a block label (control-flow target)."""

    __slots__ = ("label",)

    def __init__(self, label: str):
        self.label = label

    def __repr__(self) -> str:
        return f"LabelRef({self.label!r})"

    def __eq__(self, other) -> bool:
        return isinstance(other, LabelRef) and self.label == other.label

    def __hash__(self) -> int:
        return hash(("label", self.label))


class FuncRef(Operand):
    """A reference to a function by (possibly module-qualified) name."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name

    def __repr__(self) -> str:
        return f"FuncRef({self.name!r})"

    def __eq__(self, other) -> bool:
        return isinstance(other, FuncRef) and self.name == other.name

    def __hash__(self) -> int:
        return hash(("func", self.name))


class TypeRef(Operand):
    """A type used as an operand (e.g. by ``new`` or ``overlay.get``)."""

    __slots__ = ("type",)

    def __init__(self, ref_type: ht.Type):
        self.type = ref_type

    def __repr__(self) -> str:
        return f"TypeRef({self.type})"

    def __eq__(self, other) -> bool:
        return isinstance(other, TypeRef) and self.type == other.type

    def __hash__(self) -> int:
        return hash(("type", self.type))


class FieldRef(Operand):
    """A bare identifier operand: struct/overlay field or enum label."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name

    def __repr__(self) -> str:
        return f"FieldRef({self.name!r})"

    def __eq__(self, other) -> bool:
        return isinstance(other, FieldRef) and self.name == other.name

    def __hash__(self) -> int:
        return hash(("field", self.name))


class TupleOp(Operand):
    """A tuple-literal operand, e.g. ``(src, dst)`` in the firewall code."""

    __slots__ = ("elements",)

    def __init__(self, elements: Sequence[Operand]):
        self.elements = tuple(elements)

    def __repr__(self) -> str:
        return f"TupleOp({self.elements!r})"

    def __eq__(self, other) -> bool:
        return isinstance(other, TupleOp) and self.elements == other.elements

    def __hash__(self) -> int:
        return hash(("tuple", self.elements))


class Instruction:
    __slots__ = ("mnemonic", "target", "operands", "location")

    def __init__(
        self,
        mnemonic: str,
        operands: Sequence[Operand] = (),
        target: Optional[Var] = None,
        location: Location = _NO_LOCATION,
    ):
        self.mnemonic = mnemonic
        self.operands = tuple(operands)
        self.target = target
        self.location = location

    def __repr__(self) -> str:
        head = f"{self.target.name} = " if self.target else ""
        ops = " ".join(repr(o) for o in self.operands)
        return f"<{head}{self.mnemonic} {ops}>"


class Block:
    """A labeled sequence of instructions.

    Blocks without an explicit terminator fall through to the lexically
    following block, matching the textual examples in the paper (Figure 5).
    """

    __slots__ = ("label", "instructions")

    def __init__(self, label: str, instructions: Optional[List[Instruction]] = None):
        self.label = label
        self.instructions = instructions if instructions is not None else []

    def append(self, instruction: Instruction) -> Instruction:
        self.instructions.append(instruction)
        return instruction

    def __repr__(self) -> str:
        return f"<block {self.label}: {len(self.instructions)} instrs>"


class Parameter:
    __slots__ = ("name", "type")

    def __init__(self, name: str, param_type: ht.Type):
        self.name = name
        self.type = param_type

    def __repr__(self) -> str:
        return f"Parameter({self.name!r}, {self.type})"


class Local:
    __slots__ = ("name", "type", "init")

    def __init__(self, name: str, local_type: ht.Type, init=None):
        self.name = name
        self.type = local_type
        self.init = init

    def __repr__(self) -> str:
        return f"Local({self.name!r}, {self.type})"


class Function:
    """A HILTI function or hook implementation.

    *hook_name* is set for hook bodies: several functions across modules may
    implement the same hook; the linker merges them (paper, section 5).
    """

    def __init__(
        self,
        name: str,
        params: Sequence[Parameter],
        result: ht.Type,
        hook_name: Optional[str] = None,
        location: Location = _NO_LOCATION,
        hook_priority: int = 0,
        hook_group: Optional[str] = None,
    ):
        self.name = name
        self.params = list(params)
        self.result = result
        self.hook_name = hook_name
        # Bodies run highest-priority first; a body in a disabled group
        # is skipped (hook.group_enable / hook.group_disable).
        self.hook_priority = hook_priority
        self.hook_group = hook_group
        self.location = location
        self.locals: List[Local] = []
        self.blocks: List[Block] = []
        self._block_index: Dict[str, Block] = {}
        # The profiler the instrumentation pass brackets the body with;
        # each tier stops it when an exception leaves the function.
        self.profiler: Optional[str] = None

    @property
    def is_hook(self) -> bool:
        return self.hook_name is not None

    def add_local(self, name: str, local_type: ht.Type, init=None) -> Local:
        if any(l.name == name for l in self.locals) or any(
            p.name == name for p in self.params
        ):
            raise ValueError(f"duplicate local {name!r} in {self.name}")
        local = Local(name, local_type, init)
        self.locals.append(local)
        return local

    def add_block(self, label: str) -> Block:
        if label in self._block_index:
            raise ValueError(f"duplicate block label {label!r} in {self.name}")
        block = Block(label)
        self.blocks.append(block)
        self._block_index[label] = block
        return block

    def block(self, label: str) -> Block:
        return self._block_index[label]

    def has_block(self, label: str) -> bool:
        return label in self._block_index

    def variable_type(self, name: str) -> Optional[ht.Type]:
        for p in self.params:
            if p.name == name:
                return p.type
        for l in self.locals:
            if l.name == name:
                return l.type
        return None

    def rebuild_block_index(self) -> None:
        """Recompute the label index after passes mutate ``blocks``."""
        self._block_index = {b.label: b for b in self.blocks}

    def __repr__(self) -> str:
        kind = "hook" if self.is_hook else "function"
        return f"<{kind} {self.name}/{len(self.params)}>"


class GlobalVar:
    """A module-level variable — thread-local per virtual thread."""

    __slots__ = ("name", "type", "init")

    def __init__(self, name: str, var_type: ht.Type, init=None):
        self.name = name
        self.type = var_type
        self.init = init

    def __repr__(self) -> str:
        return f"GlobalVar({self.name!r}, {self.type})"


class Module:
    """One HILTI compilation unit."""

    def __init__(self, name: str):
        self.name = name
        self.imports: List[str] = []
        self.types: Dict[str, ht.Type] = {}
        self.globals: Dict[str, GlobalVar] = {}
        self.functions: Dict[str, Function] = {}
        self.hooks: List[Function] = []
        self.exports: List[str] = []

    def add_type(self, name: str, declared: ht.Type) -> ht.Type:
        if name in self.types:
            raise ValueError(f"duplicate type {name!r} in module {self.name}")
        self.types[name] = declared
        return declared

    def add_global(self, name: str, var_type: ht.Type, init=None) -> GlobalVar:
        if name in self.globals:
            raise ValueError(f"duplicate global {name!r} in module {self.name}")
        var = GlobalVar(name, var_type, init)
        self.globals[name] = var
        return var

    def add_function(self, function: Function) -> Function:
        if function.is_hook:
            self.hooks.append(function)
            return function
        if function.name in self.functions:
            raise ValueError(
                f"duplicate function {function.name!r} in module {self.name}"
            )
        self.functions[function.name] = function
        return function

    def qualified(self, name: str) -> str:
        """Fully qualify *name* with this module's namespace.

        Names already carrying this module's prefix pass through; other
        names are prefixed even if they contain ``::`` themselves (nested
        namespaces like ``Banner::parse`` in module ``SSH``).
        """
        if name.startswith(f"{self.name}::"):
            return name
        return f"{self.name}::{name}"

    def all_functions(self) -> List[Function]:
        return list(self.functions.values()) + list(self.hooks)

    def __repr__(self) -> str:
        return (
            f"<module {self.name}: {len(self.functions)} functions, "
            f"{len(self.hooks)} hooks>"
        )
