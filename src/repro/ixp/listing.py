"""IXP-style assembly listings.

Renders allocated flowgraphs in the micro-engine assembler's surface
syntax (the "very quirky assembly" the paper mentions), which makes the
compiler's output directly comparable with hand-written IXP code:

    alu[a1, a0, +, b0]
    sram[read, $xfer0, addr, 0, 4], ctx_swap
    br!=0[label#]

This is a faithful *listing* (one line per instruction, real mnemonic
shapes), not an encoder — there is no binary instruction store to load.
"""

from __future__ import annotations

from repro.errors import NovaError
from repro.ixp import isa
from repro.ixp.banks import Bank
from repro.ixp.flowgraph import FlowGraph

_ALU_MNEMONIC = {
    "add": "+",
    "sub": "-",
    "and": "&",
    "or": "|",
    "xor": "^",
    "shl": "<<",
    "shr": ">>",
    "not": "~",
    "neg": "-",
}

_XFER_PREFIX = {
    Bank.L: "$",
    Bank.S: "$",
    Bank.LD: "$$",
    Bank.SD: "$$",
}

_CMP_BRANCH = {
    "eq": "br=0",
    "ne": "br!=0",
    "lt": "br<0",
    "le": "br<=0",
    "gt": "br>0",
    "ge": "br>=0",
}


def operand(reg) -> str:
    """Assembler spelling of one operand."""
    if isinstance(reg, isa.Imm):
        return str(reg.value)
    if isinstance(reg, isa.PhysReg):
        if reg.bank in (Bank.A, Bank.B):
            return f"{reg.bank.value.lower()}{reg.index}"
        prefix = _XFER_PREFIX.get(reg.bank, "$")
        return f"{prefix}xfer{reg.index}"
    if isinstance(reg, isa.Temp):
        return reg.name
    raise NovaError(f"cannot render operand {reg!r}")


def render_instr(instr: isa.Instr) -> str:
    if isinstance(instr, isa.Alu):
        if instr.b is None:
            return (
                f"alu[{operand(instr.dst)}, --, "
                f"{_ALU_MNEMONIC[instr.op]}, {operand(instr.a)}]"
            )
        if instr.op in ("shl", "shr"):
            return (
                f"alu_shf[{operand(instr.dst)}, --, B, "
                f"{operand(instr.a)}, {_ALU_MNEMONIC[instr.op]}"
                f"{operand(instr.b)}]"
            )
        return (
            f"alu[{operand(instr.dst)}, {operand(instr.a)}, "
            f"{_ALU_MNEMONIC[instr.op]}, {operand(instr.b)}]"
        )
    if isinstance(instr, isa.Immed):
        if 0 <= instr.value < (1 << 16):
            return f"immed[{operand(instr.dst)}, {instr.value:#x}]"
        return (
            f"immed_w0[{operand(instr.dst)}, {instr.value & 0xFFFF:#x}] ; "
            f"immed_w1[{operand(instr.dst)}, {instr.value >> 16:#x}]"
        )
    if isinstance(instr, isa.Move):
        return f"alu[{operand(instr.dst)}, --, B, {operand(instr.src)}]"
    if isinstance(instr, isa.Clone):
        return f"; clone {operand(instr.dst)} <- {operand(instr.src)}"
    if isinstance(instr, isa.MemOp):
        first = operand(instr.regs[0])
        return (
            f"{instr.space}[{instr.direction}, {first}, "
            f"{operand(instr.addr)}, 0, {len(instr.regs)}], ctx_swap"
        )
    if isinstance(instr, isa.HashInstr):
        return f"hash1_48[{operand(instr.src)}], ctx_swap"
    if isinstance(instr, isa.CsrRd):
        return f"csr[read, {operand(instr.dst)}, csr_{instr.csr}]"
    if isinstance(instr, isa.CsrWr):
        return f"csr[write, {operand(instr.src)}, csr_{instr.csr}]"
    if isinstance(instr, isa.CtxArb):
        return "ctx_arb[voluntary]"
    if isinstance(instr, isa.LockInstr):
        if instr.kind == "lock":
            return f"br_inp_state[thread_lock_{instr.number}#], lock"
        return f"fast_wr[0, inter_thd_sig_{instr.number}]"
    if isinstance(instr, isa.Br):
        return f"br[{instr.target}#]"
    if isinstance(instr, isa.BrCmp):
        mnemonic = _CMP_BRANCH[instr.cmp]
        return (
            f"alu[--, {operand(instr.a)}, -, {operand(instr.b)}] ; "
            f"{mnemonic}[{instr.then_target}#], defer[1] ; "
            f"br[{instr.else_target}#]"
        )
    if isinstance(instr, isa.HaltInstr):
        rs = ", ".join(operand(r) for r in instr.results)
        return f"ctx_arb[kill] ; halt({rs})"
    raise NovaError(f"cannot render instruction {instr!r}")


def render_listing(graph: FlowGraph, title: str = "") -> str:
    """Full assembler-style listing of a flowgraph."""
    lines: list[str] = []
    if title:
        lines.append(f"; {title}")
        lines.append(";")
    for label in graph.block_order():
        lines.append(f"{label}#:")
        for instr in graph.blocks[label].instrs:
            lines.append(f"    {render_instr(instr)}")
    return "\n".join(lines) + "\n"
