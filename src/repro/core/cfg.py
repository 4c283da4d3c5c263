"""Control-flow graphs over HILTI functions.

The optimizer's dataflow passes read a block's successors from here,
fall-through edges included: blocks without an explicit terminator
continue at the lexically following block, as in the paper's Figure 5
listing.
"""

from __future__ import annotations

from typing import List

from .ir import Function, LabelRef

__all__ = ["successors"]


def successors(function: Function, index: int) -> List[str]:
    """Labels of the blocks control can reach from block *index*."""
    block = function.blocks[index]
    out: List[str] = []
    # try.begin handlers are reachable from anywhere inside the scope; be
    # conservative and treat every handler label as a successor of the
    # block opening the scope.  This must run even for return-terminated
    # blocks: an exception raised before the return still transfers to
    # the handler.
    for instruction in block.instructions:
        if instruction.mnemonic == "try.begin" and instruction.operands:
            handler = instruction.operands[0]
            if isinstance(handler, LabelRef):
                out.append(handler.label)
    last = block.instructions[-1] if block.instructions else None
    mnemonic = last.mnemonic if last is not None else None
    if mnemonic in ("return.void", "return.result"):
        return out
    if mnemonic in ("jump", "if.else", "switch"):
        for operand in last.operands:
            if isinstance(operand, LabelRef):
                out.append(operand.label)
            elif hasattr(operand, "elements"):
                for element in operand.elements:
                    if isinstance(element, LabelRef):
                        out.append(element.label)
    else:
        # Fall-through edge.
        if index + 1 < len(function.blocks):
            out.append(function.blocks[index + 1].label)
    return out

