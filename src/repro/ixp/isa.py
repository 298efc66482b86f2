"""IXP1200 micro-engine instructions (the back end's machine IR).

Instructions exist in two register modes:

- **virtual**: operands are :class:`Temp` (CPS temporaries) — the form
  produced by instruction selection and consumed by the ILP allocator;
- **physical**: operands are :class:`PhysReg` — the form produced by the
  allocator's decode phase and executed by the simulator.

The instruction set models what the paper's back end needs: ALU
operations with the A/B/L/LD input restrictions, aggregate SRAM / SDRAM /
scratch transfers through the transfer banks, the hash unit (whose source
and destination share one register *number* in different banks — the
SameReg constraint), CSR access, context arbitration, and the ``clone``
pseudo-instruction of the SSU form.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field

from repro.ixp.banks import Bank

# ALU operations supported natively (mul/div/mod were expanded away).
ALU_OPS = frozenset(
    {"add", "sub", "and", "or", "xor", "shl", "shr", "not", "neg"}
)

CMP_OPS = frozenset({"eq", "ne", "lt", "le", "gt", "ge"})

#: Largest value an instruction can carry as an inline immediate; bigger
#: constants need an ``immed`` (or the C-bank rematerialization
#: extension).
MAX_INLINE_IMM = 255


# --------------------------------------------------------------------------
# Operands
# --------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class Operand:
    pass


@dataclass(frozen=True, slots=True)
class Temp(Operand):
    """A virtual register (CPS temporary).

    Names are interned: temporaries are dict keys throughout the
    allocator and the simulator's register file, and interning makes
    those lookups pointer-comparison fast.
    """

    name: str

    def __post_init__(self) -> None:
        object.__setattr__(self, "name", sys.intern(self.name))

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True, slots=True)
class Imm(Operand):
    """An inline immediate."""

    value: int

    def __str__(self) -> str:
        return f"#{self.value}"


@dataclass(frozen=True, slots=True)
class PhysReg(Operand):
    """A physical register: bank plus index."""

    bank: Bank
    index: int

    def __str__(self) -> str:
        return f"{self.bank}{self.index}"


Reg = Temp | PhysReg


# --------------------------------------------------------------------------
# Instructions
# --------------------------------------------------------------------------


@dataclass
class Instr:
    """Base instruction; subclasses define uses/defs via the fields."""

    def defs(self) -> list[Reg]:
        return []

    def uses(self) -> list[Reg]:
        return []

    def map_regs(self, f) -> "Instr":
        """Rebuild with every register operand transformed by ``f``."""
        raise NotImplementedError


def _map_op(f, op: Operand | None) -> Operand | None:
    if op is None or isinstance(op, Imm):
        return op
    return f(op)


@dataclass
class Alu(Instr):
    """``dst = a op b`` — one ALU operation.

    ``b`` may be an immediate (shift counts always are); unary ops
    (``not``, ``neg``) leave ``b`` None.  Datapath legality (at most one
    operand per bank, not both operands in transfer banks, dst in
    A/B/S/SD) is enforced by the allocator and checked by the verifier.
    """

    dst: Reg
    op: str
    a: Reg | Imm
    b: Reg | Imm | None = None

    def defs(self) -> list[Reg]:
        return [self.dst]

    def uses(self) -> list[Reg]:
        return [x for x in (self.a, self.b) if x is not None and not isinstance(x, Imm)]

    def map_regs(self, f) -> "Alu":
        return Alu(f(self.dst), self.op, _map_op(f, self.a), _map_op(f, self.b))

    def __str__(self) -> str:
        if self.b is None:
            return f"{self.dst} = {self.op} {self.a}"
        return f"{self.dst} = {self.a} {self.op} {self.b}"


@dataclass
class Immed(Instr):
    """``dst = constant`` — load an arbitrary 32-bit constant.

    Costs 1 instruction for values fitting 16 bits, 2 otherwise (the
    IXP builds wide constants with immed/immed_w1); the cycle model
    charges accordingly.
    """

    dst: Reg
    value: int

    def defs(self) -> list[Reg]:
        return [self.dst]

    def map_regs(self, f) -> "Immed":
        return Immed(f(self.dst), self.value)

    def __str__(self) -> str:
        return f"{self.dst} = immed {self.value:#x}"


@dataclass
class Move(Instr):
    """Register-register move (an ALU pass)."""

    dst: Reg
    src: Reg

    def defs(self) -> list[Reg]:
        return [self.dst]

    def uses(self) -> list[Reg]:
        return [self.src]

    def map_regs(self, f) -> "Move":
        return Move(f(self.dst), f(self.src))

    def __str__(self) -> str:
        return f"{self.dst} = {self.src}"


@dataclass
class Clone(Instr):
    """SSU pseudo-instruction: dst is a clone of src (paper Section 10).

    Immediately after the clone both names denote the same register; the
    allocator decides whether a physical copy is ever materialized.
    """

    dst: Reg
    src: Reg

    def defs(self) -> list[Reg]:
        return [self.dst]

    def uses(self) -> list[Reg]:
        return [self.src]

    def map_regs(self, f) -> "Clone":
        return Clone(f(self.dst), f(self.src))

    def __str__(self) -> str:
        return f"{self.dst} = clone {self.src}"


@dataclass
class MemOp(Instr):
    """Aggregate memory transfer.

    ``read``: ``regs`` receive ``len(regs)`` consecutive words starting
    at word address ``addr`` — they must be *adjacent* transfer registers
    in L (sram/scratch) or LD (sdram).  ``write``: symmetric, through S /
    SD.  SDRAM transfers move an even number of words and need an even
    word address (8-byte alignment).
    """

    space: str  # 'sram' | 'sdram' | 'scratch'
    direction: str  # 'read' | 'write'
    addr: Reg
    regs: tuple[Reg, ...]

    def defs(self) -> list[Reg]:
        return list(self.regs) if self.direction == "read" else []

    def uses(self) -> list[Reg]:
        used = [self.addr]
        if self.direction == "write":
            used.extend(self.regs)
        return used

    def map_regs(self, f) -> "MemOp":
        return MemOp(
            self.space,
            self.direction,
            f(self.addr),
            tuple(f(r) for r in self.regs),
        )

    def __str__(self) -> str:
        regs = ", ".join(str(r) for r in self.regs)
        if self.direction == "read":
            return f"({regs}) = {self.space}[{self.addr}]"
        return f"{self.space}[{self.addr}] <- ({regs})"


@dataclass
class HashInstr(Instr):
    """Hash unit: dst (in L) and src (in S) share one register number."""

    dst: Reg
    src: Reg

    def defs(self) -> list[Reg]:
        return [self.dst]

    def uses(self) -> list[Reg]:
        return [self.src]

    def map_regs(self, f) -> "HashInstr":
        return HashInstr(f(self.dst), f(self.src))

    def __str__(self) -> str:
        return f"{self.dst} = hash {self.src}"


@dataclass
class CsrRd(Instr):
    dst: Reg
    csr: int

    def defs(self) -> list[Reg]:
        return [self.dst]

    def map_regs(self, f) -> "CsrRd":
        return CsrRd(f(self.dst), self.csr)

    def __str__(self) -> str:
        return f"{self.dst} = csr[{self.csr}]"


@dataclass
class CsrWr(Instr):
    csr: int
    src: Reg

    def uses(self) -> list[Reg]:
        return [self.src]

    def map_regs(self, f) -> "CsrWr":
        return CsrWr(self.csr, f(self.src))

    def __str__(self) -> str:
        return f"csr[{self.csr}] = {self.src}"


@dataclass
class CtxArb(Instr):
    """Voluntary context swap (yield to another thread)."""

    def map_regs(self, f) -> "CtxArb":
        return self

    def __str__(self) -> str:
        return "ctx_arb"


@dataclass
class LockInstr(Instr):
    """Mutual exclusion on one of the inter-thread lock bits.

    ``lock``: acquire (the thread yields and retries while another
    context holds the bit); ``unlock``: release (traps if the thread is
    not the holder).
    """

    kind: str  # 'lock' | 'unlock'
    number: int

    def map_regs(self, f) -> "LockInstr":
        return self

    def __str__(self) -> str:
        return f"{self.kind}[{self.number}]"


@dataclass
class Br(Instr):
    """Unconditional branch — always the last instruction of its block."""

    target: str

    def map_regs(self, f) -> "Br":
        return self

    def __str__(self) -> str:
        return f"br {self.target}"


@dataclass
class BrCmp(Instr):
    """Compare-and-branch: ``if (a cmp b) goto then_target else
    else_target``.  ``b`` may be a small immediate."""

    cmp: str
    a: Reg | Imm
    b: Reg | Imm
    then_target: str
    else_target: str

    def uses(self) -> list[Reg]:
        return [x for x in (self.a, self.b) if not isinstance(x, Imm)]

    def map_regs(self, f) -> "BrCmp":
        return BrCmp(
            self.cmp,
            _map_op(f, self.a),
            _map_op(f, self.b),
            self.then_target,
            self.else_target,
        )

    def __str__(self) -> str:
        return (
            f"if {self.a} {self.cmp} {self.b} br {self.then_target} "
            f"else {self.else_target}"
        )


@dataclass
class HaltInstr(Instr):
    """End of the program (one thread iteration); yields result values."""

    results: tuple[Reg | Imm, ...] = field(default_factory=tuple)

    def uses(self) -> list[Reg]:
        return [r for r in self.results if not isinstance(r, Imm)]

    def map_regs(self, f) -> "HaltInstr":
        return HaltInstr(tuple(_map_op(f, r) for r in self.results))

    def __str__(self) -> str:
        rs = ", ".join(str(r) for r in self.results)
        return f"halt ({rs})"


TERMINATORS = (Br, BrCmp, HaltInstr)
