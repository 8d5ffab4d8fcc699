"""Operations and operands of the baseline instruction set.

A loop body is a list of :class:`Operation` objects in program order.
Operands are either virtual registers (:class:`Reg`) or immediates
(:class:`Imm`).  Each register is defined at most once inside a loop body
(the loop frontend renames into this form); registers read before their
definition carry loop state from the previous iteration, which is how
recurrences are expressed (see :mod:`repro.ir.dfg`).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterable, Optional, Union

from repro.ir.opcodes import (
    MEMORY_OPCODES,
    LOAD_OPCODES,
    STORE_OPCODES,
    OpKind,
    Opcode,
    info,
)


@dataclass(frozen=True)
class Reg:
    """A virtual register operand.

    ``space`` distinguishes the integer and floating point register
    files, which the loop accelerator provisions separately
    (Figure 3(b) sweeps them independently).
    """

    name: str
    space: str = "int"  # "int" or "fp"

    def __str__(self) -> str:
        return f"%{self.name}"


@dataclass(frozen=True)
class Imm:
    """An immediate operand."""

    value: Union[int, float]

    def __str__(self) -> str:
        return f"#{self.value}"


Operand = Union[Reg, Imm]


@dataclass
class Operation:
    """One operation of a loop body.

    Attributes:
        opid: Position-independent identifier, unique within a loop.
        opcode: The operation performed.
        dests: Registers written (0, 1 or — for CCA compounds — up to 2).
        srcs: Operand list read.
        predicate: Optional guard register; when it evaluates to 0 the
            operation's side effects are squashed.  Full predication of
            branches within the loop body keeps accelerator control logic
            simple (paper Section 2.1).
        inner: For ``CCA_OP`` compounds, the RISC operations collapsed
            into this instruction, in dataflow order.
        stream_id: Filled by address-stream analysis on memory ops.
        comment: Free-form annotation used in dumps.
    """

    opid: int
    opcode: Opcode
    dests: list[Reg] = field(default_factory=list)
    srcs: list[Operand] = field(default_factory=list)
    predicate: Optional[Reg] = None
    inner: list["Operation"] = field(default_factory=list)
    stream_id: Optional[int] = None
    comment: str = ""

    # -- classification helpers ------------------------------------------

    @property
    def kind(self) -> OpKind:
        return info(self.opcode).kind

    @property
    def is_load(self) -> bool:
        return self.opcode in LOAD_OPCODES

    @property
    def is_store(self) -> bool:
        return self.opcode in STORE_OPCODES

    @property
    def is_memory(self) -> bool:
        return self.opcode in MEMORY_OPCODES

    @property
    def is_control(self) -> bool:
        return self.kind is OpKind.CONTROL

    @property
    def is_call(self) -> bool:
        return self.opcode in (Opcode.CALL, Opcode.BRL)

    # -- operand helpers --------------------------------------------------

    def src_regs(self) -> list[Reg]:
        """All register sources, including the predicate if present."""
        regs = [s for s in self.srcs if isinstance(s, Reg)]
        if self.predicate is not None:
            regs.append(self.predicate)
        return regs

    def uses(self, reg: Reg) -> bool:
        return reg in self.src_regs()

    def defines(self, reg: Reg) -> bool:
        return reg in self.dests

    def copy(self, **changes) -> "Operation":
        """Return a shallow copy with *changes* applied.

        The copy's operand lists are fresh, so editing them leaves the
        original untouched.  A plain copy skips ``dataclasses.replace``,
        which costs more than the copy itself on this hot path.
        """
        if changes:
            new = replace(self, **changes)
            new.dests = list(new.dests)
            new.srcs = list(new.srcs)
            new.inner = list(new.inner)
            return new
        return Operation(self.opid, self.opcode, list(self.dests),
                         list(self.srcs), self.predicate, list(self.inner),
                         self.stream_id, self.comment)

    def __str__(self) -> str:
        dest = ", ".join(str(d) for d in self.dests)
        src = ", ".join(str(s) for s in self.srcs)
        pred = f" if {self.predicate}" if self.predicate else ""
        arrow = " = " if dest else ""
        note = f"  ; {self.comment}" if self.comment else ""
        return f"op{self.opid}: {dest}{arrow}{self.opcode.value} {src}{pred}{note}"


def renumber(ops: Iterable[Operation], start: int = 0) -> list[Operation]:
    """Return copies of *ops* with consecutive opids starting at *start*."""
    out = []
    for i, op in enumerate(ops):
        out.append(op.copy(opid=start + i))
    return out


def defined_regs(ops: Iterable[Operation]) -> set[Reg]:
    """All registers defined by *ops*."""
    out: set[Reg] = set()
    for op in ops:
        out.update(op.dests)
    return out


def used_regs(ops: Iterable[Operation]) -> set[Reg]:
    """All registers read by *ops* (including predicates)."""
    out: set[Reg] = set()
    for op in ops:
        out.update(op.src_regs())
    return out
