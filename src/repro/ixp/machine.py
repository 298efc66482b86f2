"""Cycle-approximate IXP1200 micro-engine simulator.

Executes a flowgraph in one of two register modes:

- **virtual** — operands are :class:`repro.ixp.isa.Temp`; the register
  file is unbounded.  Used to validate compiler output *before* register
  allocation (and as the semantic reference the allocated code must
  match).
- **physical** — operands are :class:`repro.ixp.isa.PhysReg`; the
  simulator enforces every datapath restriction of Figure 1: ALU operand
  bank legality, aggregate adjacency in transfer banks, no moves within a
  transfer bank, hash-unit same-register-number, and bank sizes.

Hardware-supported multithreading is modeled the way the chip works: a
thread runs until it issues a memory reference (or ``ctx_arb``), then the
micro-engine swaps to the next ready thread with zero overhead while the
reference completes.  Each memory space services one transfer at a time,
so contention lengthens the critical path exactly where the paper says it
does.

Cycle costs: ALU/move/branch-not-taken 1 cycle, taken branches 2 (the
IXP's deferred branch slot, unfilled), ``immed`` 1 (2 for constants wider
than 16 bits), csr 3, hash 1 + unit latency, memory = issue 1 +
space latency.

Execution tiers
---------------

There are two tiers with identical semantics, chosen by ``Machine(mode=)``:

- the **interpreter** (``mode="interp"``) walks the flowgraph instruction
  objects and re-derives everything — operand kinds, bank legality, ALU
  dispatch — per dynamic instruction.  It is the oracle the other tier
  is checked against, so it keeps its own ALU/compare evaluators
  (:func:`_alu_eval`, :func:`_cmp_eval`);
- the **compiled** tier (``mode="compiled"``, the default) runs Python
  source generated once per flowgraph by :mod:`repro.ixp.codegen`: all
  static work (operand register keys, immediate widths, cycle costs and
  every static legality check) happens at codegen time, and a
  statically-illegal instruction becomes a segment that raises the
  interpreter's exception when (and only when) it executes.
"""

from __future__ import annotations

import heapq
import operator
import sys
from dataclasses import dataclass, field
from typing import Callable

from repro.errors import SimulatorError
from repro.ixp import isa
from repro.ixp.banks import (
    ALU_INPUT_BANKS,
    ALU_OUTPUT_BANKS,
    BANK_SIZES,
    Bank,
    READ_BANK,
    WRITE_BANK,
)
from repro.ixp.flowgraph import FlowGraph
from repro.ixp.memory import MemorySystem
from repro.trace import ensure

WORD_MASK = 0xFFFFFFFF
HASH_LATENCY = 10
CLOCK_MHZ = 233  # IXP1200 in the paper (Section 11)
#: Cycles a thread sleeps before retrying a full-ring enqueue / empty-ring
#: dequeue (same cadence as the lock-bit spin).
RING_RETRY = 4

#: The two simulator tiers, oracle first.  Both are observationally
#: identical (cycles, stalls, memory images, errors);
#: ``tests/test_decode_parity.py`` pins the equivalence.
SIM_MODES = ("interp", "compiled")


def _alu_eval(op: str, a: int, b: int | None) -> int:
    if op == "add":
        return (a + (b or 0)) & WORD_MASK
    if op == "sub":
        return (a - (b or 0)) & WORD_MASK
    if op == "and":
        return a & (b or 0)
    if op == "or":
        return a | (b or 0)
    if op == "xor":
        return a ^ (b or 0)
    if op == "shl":
        return (a << ((b or 0) & 31)) & WORD_MASK
    if op == "shr":
        return (a & WORD_MASK) >> ((b or 0) & 31)
    if op == "not":
        return ~a & WORD_MASK
    if op == "neg":
        return -a & WORD_MASK
    raise SimulatorError(f"unknown ALU op '{op}'")


#: Concrete functions for each ALU op; codegen folds constant operands
#: through them (must agree with :func:`_alu_eval` bit for bit).
_ALU_FNS: dict[str, Callable[[int, int | None], int]] = {
    "add": lambda a, b: (a + (b or 0)) & WORD_MASK,
    "sub": lambda a, b: (a - (b or 0)) & WORD_MASK,
    "and": lambda a, b: a & (b or 0),
    "or": lambda a, b: a | (b or 0),
    "xor": lambda a, b: a ^ (b or 0),
    "shl": lambda a, b: (a << ((b or 0) & 31)) & WORD_MASK,
    "shr": lambda a, b: (a & WORD_MASK) >> ((b or 0) & 31),
    "not": lambda a, b: ~a & WORD_MASK,
    "neg": lambda a, b: -a & WORD_MASK,
}


def _cmp_eval(op: str, a: int, b: int) -> bool:
    if op == "eq":
        return a == b
    if op == "ne":
        return a != b
    if op == "lt":
        return a < b
    if op == "le":
        return a <= b
    if op == "gt":
        return a > b
    if op == "ge":
        return a >= b
    raise SimulatorError(f"unknown comparison '{op}'")


_CMP_FNS: dict[str, Callable[[int, int], bool]] = {
    "eq": operator.eq,
    "ne": operator.ne,
    "lt": operator.lt,
    "le": operator.le,
    "gt": operator.gt,
    "ge": operator.ge,
}


def hash48(value: int) -> int:
    """The hash unit: a deterministic 32-bit mix (stand-in for the
    IXP1200's 48-bit polynomial hash)."""
    value &= WORD_MASK
    value ^= value >> 16
    value = (value * 0x45D9F3B) & WORD_MASK
    value ^= value >> 16
    value = (value * 0x45D9F3B) & WORD_MASK
    value ^= value >> 16
    return value


@dataclass
class RegisterFile:
    """Per-thread registers, keyed by Temp name or (bank, index).

    The compiled tier bypasses :meth:`read`/:meth:`write` entirely: its
    generated code addresses :attr:`values` directly with keys interned
    at codegen time, so the per-access ``isinstance``/``key()`` work
    happens once per *static* instruction instead of once per *dynamic*
    one.
    """

    physical: bool
    values: dict[object, int] = field(default_factory=dict)

    def key(self, reg: isa.Reg) -> object:
        if isinstance(reg, isa.Temp):
            if self.physical:
                raise SimulatorError(
                    f"virtual register {reg} in physical-mode execution"
                )
            return reg.name
        if isinstance(reg, isa.PhysReg):
            if not self.physical:
                raise SimulatorError(
                    f"physical register {reg} in virtual-mode execution"
                )
            if reg.bank not in BANK_SIZES:
                raise SimulatorError(f"register in non-register bank {reg}")
            if not 0 <= reg.index < BANK_SIZES[reg.bank]:
                raise SimulatorError(f"register index out of range: {reg}")
            return (reg.bank, reg.index)
        raise SimulatorError(f"bad register operand {reg!r}")

    def read(self, reg: isa.Reg | isa.Imm) -> int:
        if isinstance(reg, isa.Imm):
            return reg.value
        key = self.key(reg)
        if key not in self.values:
            raise SimulatorError(f"read of undefined register {reg}")
        return self.values[key]

    def write(self, reg: isa.Reg, value: int) -> None:
        self.values[self.key(reg)] = value & WORD_MASK


def _bank_of(reg: isa.Reg) -> Bank | None:
    return reg.bank if isinstance(reg, isa.PhysReg) else None


def _check_alu_operands(instr: isa.Instr, ops: list[isa.Reg]) -> None:
    """Enforce Figure 1: inputs from L/LD/A/B; at most one operand from
    each of A, B, and L∪LD.  ``instr`` is only formatted on failure."""
    banks = [b for b in (_bank_of(op) for op in ops) if b is not None]
    for bank in banks:
        if bank not in ALU_INPUT_BANKS:
            raise SimulatorError(
                f"{instr}: operand bank {bank} cannot feed the ALU"
            )
    if sum(1 for b in banks if b is Bank.A) > 1:
        raise SimulatorError(f"{instr}: two operands from bank A")
    if sum(1 for b in banks if b is Bank.B) > 1:
        raise SimulatorError(f"{instr}: two operands from bank B")
    if sum(1 for b in banks if b in (Bank.L, Bank.LD)) > 1:
        raise SimulatorError(
            f"{instr}: two operands from transfer banks"
        )


def _check_alu_dst(instr: isa.Instr, dst: isa.Reg) -> None:
    bank = _bank_of(dst)
    if bank is not None and bank not in ALU_OUTPUT_BANKS:
        raise SimulatorError(
            f"{instr}: ALU result cannot go to bank {bank}"
        )


def _check_aggregate(instr: isa.MemOp) -> None:
    expected = (
        READ_BANK[instr.space]
        if instr.direction == "read"
        else WRITE_BANK[instr.space]
    )
    indices = []
    for reg in instr.regs:
        bank = _bank_of(reg)
        if bank is None:
            return  # virtual mode: nothing to check
        if bank is not expected:
            raise SimulatorError(
                f"{instr}: aggregate register {reg} not in bank {expected}"
            )
        indices.append(reg.index)
    if indices != list(range(indices[0], indices[0] + len(indices))):
        raise SimulatorError(f"{instr}: aggregate registers not adjacent")
    addr_bank = _bank_of(instr.addr)
    if addr_bank is not None and addr_bank not in (Bank.A, Bank.B):
        raise SimulatorError(f"{instr}: address must come from A or B")


@dataclass(slots=True)
class ThreadStats:
    # slots: the counters are bumped once per simulated instruction /
    # memory stall on every tier's hot loop.
    instructions: int = 0
    iterations: int = 0
    mem_stall_cycles: int = 0


@dataclass
class RunResult:
    cycles: int
    thread_stats: list[ThreadStats]
    results: list[tuple[int, tuple[int, ...]]]  # (thread, halt values)

    @property
    def instructions(self) -> int:
        return sum(t.instructions for t in self.thread_stats)


# --------------------------------------------------------------------------
# Operand interning (shared with repro.ixp.codegen)
# --------------------------------------------------------------------------


def _intern_key(reg: isa.Reg, physical: bool) -> object:
    """The register-file dict key ``reg`` addresses; mirrors
    :meth:`RegisterFile.key` (including its error messages)."""
    if isinstance(reg, isa.Temp):
        if physical:
            raise SimulatorError(
                f"virtual register {reg} in physical-mode execution"
            )
        return sys.intern(reg.name)
    if isinstance(reg, isa.PhysReg):
        if not physical:
            raise SimulatorError(
                f"physical register {reg} in virtual-mode execution"
            )
        if reg.bank not in BANK_SIZES:
            raise SimulatorError(f"register in non-register bank {reg}")
        if not 0 <= reg.index < BANK_SIZES[reg.bank]:
            raise SimulatorError(f"register index out of range: {reg}")
        return (reg.bank, reg.index)
    raise SimulatorError(f"bad register operand {reg!r}")


def _read_spec(op, physical: bool):
    """('imm', value, None) for immediates, else ('reg', key, undef-msg)."""
    if isinstance(op, isa.Imm):
        return ("imm", op.value, None)
    return ("reg", _intern_key(op, physical), f"read of undefined register {op}")


class _Thread:
    # Slotted: ``thread.<attr>`` reads/writes bracket every execution
    # slice on both tiers (prologue, exits, the run loop).
    __slots__ = (
        "tid",
        "machine",
        "regs",
        "rv",
        "cpc",
        "block",
        "index",
        "ready_at",
        "done",
        "stats",
        "iteration",
        "halt_values",
    )

    def __init__(self, tid: int, machine: "Machine"):
        self.tid = tid
        self.machine = machine
        self.regs = RegisterFile(machine.physical)
        self.rv = self.regs.values  # the compiled tier's register dict
        self.cpc = 0  # compiled tier: resume label (entry block head)
        self.block = machine.graph.entry
        self.index = 0
        self.ready_at = 0
        self.done = False
        self.stats = ThreadStats()
        self.iteration = 0
        #: halt values of this thread's most recent halt, until taken
        #: via :meth:`Machine.take_result` (external schedulers consume
        #: results per thread rather than indexing the shared list).
        self.halt_values: tuple[int, ...] | None = None

    def load(self, inputs: dict) -> None:
        """Reset the thread to the graph entry with a fresh register
        file holding ``inputs`` (register-file keys → values)."""
        machine = self.machine
        self.regs = RegisterFile(machine.physical)
        values = self.regs.values
        for name, value in inputs.items():
            values[name] = value & WORD_MASK
        self.rv = values
        self.cpc = 0
        self.block = machine.graph.entry
        self.index = 0

    def restart(self) -> bool:
        inputs = self.machine.input_provider(self.tid, self.iteration)
        if inputs is None:
            self.done = True
            return False
        self.load(inputs)
        return True


class Machine:
    """N hardware threads executing one flowgraph over a memory system."""

    def __init__(
        self,
        graph: FlowGraph,
        memory: MemorySystem | None = None,
        threads: int = 1,
        physical: bool | None = None,
        input_provider: Callable[[int, int], dict | None] | None = None,
        max_cycles: int = 50_000_000,
        tracer=None,
        mode: str = "compiled",
    ):
        graph.validate()
        self.graph = graph
        self.tracer = ensure(tracer)
        #: opcode → [issue count, cycles]; only kept while tracing so the
        #: per-instruction cost of the histogram is one ``is None`` test.
        self._opcode_hist: dict[str, list[int]] | None = (
            {} if self.tracer.enabled else None
        )
        self.memory = memory or MemorySystem.create()
        if physical is None:
            physical = _guess_physical(graph)
        self.physical = physical
        if mode not in SIM_MODES:
            raise ValueError(
                f"unknown simulator mode '{mode}' (expected one of "
                f"{', '.join(SIM_MODES)})"
            )
        self.mode = mode
        self.compiled = None
        if mode == "compiled":
            from repro.ixp.codegen import compiled_graph

            self.compiled = compiled_graph(
                graph,
                physical,
                instrumented=self.tracer.enabled,
                tracer=self.tracer,
            )
        self.input_provider = input_provider or (
            lambda tid, it: {} if it == 0 else None
        )
        self.threads = [_Thread(i, self) for i in range(threads)]
        self.max_cycles = max_cycles
        self.results: list[tuple[int, tuple[int, ...]]] = []
        self.csrs: dict[int, int] = {}
        #: lock bit → holding thread id (inter-thread mutual exclusion)
        self.locks: dict[int, int] = {}
        # Resolve the per-slice entry point once; service() and run()
        # share it.  The compiled tier binds this machine's state
        # (max_cycles, memory, locks, csrs, results, histogram) into
        # closure cells here, so slices pay no per-call attribute loads.
        if self.compiled is not None:
            self._slice = self.compiled.bind(self)
        else:
            self._slice = self._run_thread

    # -- execution ------------------------------------------------------------
    #
    # The stepping primitives (start / service / dispatch) are public so
    # an external scheduler — ``repro.ixp.net`` interleaving N engines on
    # one global clock — can drive this machine event by event; ``run``
    # is the single-engine closed loop built from the same primitives.

    def start(self) -> list[tuple[int, int]]:
        """Restart every thread from the input provider; returns
        ``(ready_at, tid)`` for the threads that received work."""
        return [(0, t.tid) for t in self.threads if t.restart()]

    def service(self, tid: int, now: int) -> int:
        """Run thread ``tid`` from cycle ``now`` until it blocks, yields
        or halts; returns the engine clock after the slice (the thread's
        wake-up time is in ``threads[tid].ready_at``)."""
        return self._slice(self.threads[tid], now)

    def dispatch(self, tid: int, inputs: dict, at: int = 0) -> None:
        """Hand thread ``tid`` one unit of work: reset it to the graph
        entry with ``inputs`` in a fresh register file, ready at ``at``.
        Used by external schedulers instead of the input provider."""
        thread = self.threads[tid]
        thread.load(inputs)
        thread.done = False
        thread.ready_at = at

    def take_result(self, tid: int) -> tuple[int, ...] | None:
        """Return and clear thread ``tid``'s most recent halt values.

        External schedulers consume results through this per-thread
        hand-off; the shared :attr:`results` list stays append-only for
        :meth:`run`'s :class:`RunResult`, but indexing it globally is
        wrong once several threads of one engine halt in interleaved
        scheduler slices.  Returns ``None`` if the thread has not
        halted since the last take.  If a thread halts more than once
        between takes (an input provider immediately refilling it), the
        latest halt wins — schedulers that care take after every slice.
        """
        thread = self.threads[tid]
        values = thread.halt_values
        thread.halt_values = None
        return values

    def run(self) -> RunResult:
        with self.tracer.span("simulate") as sp:
            clock = 0
            # (ready_at, tid, thread) — a thread has at most one entry,
            # so tid alone breaks ready_at ties (deterministically,
            # lowest tid first, exactly as the former (ready_at, tid,
            # seq) tuples ordered: seq never decided a comparison; the
            # thread rides along so the loop skips the list index).
            threads = self.threads
            ready: list[tuple[int, int, _Thread]] = []
            for ready_at, tid in self.start():
                heapq.heappush(ready, (ready_at, tid, threads[tid]))
            slice_fn = self._slice
            max_cycles = self.max_cycles
            heappop = heapq.heappop
            heappush = heapq.heappush
            while ready:
                ready_at, tid, thread = heappop(ready)
                if ready_at > clock:
                    clock = ready_at
                clock = slice_fn(thread, clock)
                if clock > max_cycles:
                    raise SimulatorError(
                        f"simulation exceeded {max_cycles} cycles"
                    )
                if not thread.done:
                    heappush(ready, (thread.ready_at, tid, thread))
            result = RunResult(
                clock, [t.stats for t in self.threads], self.results
            )
            if sp:
                sp.add(
                    cycles=result.cycles,
                    instructions=result.instructions,
                    threads=len(self.threads),
                )
                for opcode, (count, cycles) in sorted(
                    (self._opcode_hist or {}).items()
                ):
                    sp.add(**{
                        f"count.{opcode}": count,
                        f"cycles.{opcode}": cycles,
                    })
        return result

    def _record_opcode(self, instr: isa.Instr, cost: int) -> None:
        entry = self._opcode_hist.setdefault(_opcode_of(instr), [0, 0])
        entry[0] += 1
        entry[1] += cost

    def _run_thread(self, thread: _Thread, clock: int) -> int:
        """Run until the thread blocks, halts, or yields; returns clock."""
        while True:
            block = self.graph.blocks[thread.block]
            instr = block.instrs[thread.index]
            thread.stats.instructions += 1
            cost, blocked = self._execute(thread, instr, clock)
            if self._opcode_hist is not None:
                self._record_opcode(instr, cost)
            clock += cost
            # The outer scheduler only sees the clock when this thread
            # blocks or yields, so a pure-ALU infinite loop would spin
            # here forever; enforce the budget per instruction as well.
            if clock > self.max_cycles:
                raise SimulatorError(
                    f"simulation exceeded {self.max_cycles} cycles"
                )
            if blocked:
                thread.ready_at = blocked
                thread.stats.mem_stall_cycles += max(0, blocked - clock)
                return clock
            if thread.done or isinstance(instr, isa.CtxArb):
                thread.ready_at = clock
                return clock
            if isinstance(instr, isa.HaltInstr):
                thread.ready_at = clock
                return clock

    def _execute(
        self, thread: _Thread, instr: isa.Instr, clock: int
    ) -> tuple[int, int | None]:
        """Execute one instruction; returns (cycle cost, blocked-until)."""
        regs = thread.regs
        if isinstance(instr, isa.Alu):
            _check_alu_operands(instr, instr.uses())
            _check_alu_dst(instr, instr.dst)
            a = regs.read(instr.a)
            b = regs.read(instr.b) if instr.b is not None else None
            regs.write(instr.dst, _alu_eval(instr.op, a, b))
            self._advance(thread)
            return 1, None
        if isinstance(instr, isa.Move):
            _check_alu_operands(instr, [instr.src])
            _check_alu_dst(instr, instr.dst)
            src_bank = _bank_of(instr.src)
            dst_bank = _bank_of(instr.dst)
            if (
                src_bank is not None
                and src_bank == dst_bank
                and src_bank in (Bank.L, Bank.S, Bank.LD, Bank.SD)
                and instr.src != instr.dst
            ):
                raise SimulatorError(
                    f"{instr}: no datapath within transfer bank {src_bank}"
                )
            regs.write(instr.dst, regs.read(instr.src))
            self._advance(thread)
            return 1, None
        if isinstance(instr, isa.Clone):
            # Clones are pseudo-instructions; in virtual mode they copy,
            # in physical mode they should have been eliminated.
            if self.physical:
                raise SimulatorError(
                    "clone instruction survived register allocation"
                )
            regs.write(instr.dst, regs.read(instr.src))
            self._advance(thread)
            return 0, None
        if isinstance(instr, isa.Immed):
            _check_alu_dst(instr, instr.dst)
            regs.write(instr.dst, instr.value)
            self._advance(thread)
            return 1 if 0 <= instr.value < (1 << 16) else 2, None
        if isinstance(instr, isa.MemOp):
            return self._execute_mem(thread, instr, clock)
        if isinstance(instr, isa.RingOp):
            return self._execute_ring(thread, instr, clock)
        if isinstance(instr, isa.HashInstr):
            src_bank, dst_bank = _bank_of(instr.src), _bank_of(instr.dst)
            if src_bank is not None:
                if src_bank is not Bank.S or dst_bank is not Bank.L:
                    raise SimulatorError(
                        f"{instr}: hash reads S and writes L"
                    )
                assert isinstance(instr.src, isa.PhysReg)
                assert isinstance(instr.dst, isa.PhysReg)
                if instr.src.index != instr.dst.index:
                    raise SimulatorError(
                        f"{instr}: hash dst/src must share a register "
                        "number (SameReg)"
                    )
            regs.write(instr.dst, hash48(regs.read(instr.src)))
            self._advance(thread)
            return 1 + HASH_LATENCY, None
        if isinstance(instr, isa.CsrRd):
            regs.write(instr.dst, self.csrs.get(instr.csr, 0))
            self._advance(thread)
            return 3, None
        if isinstance(instr, isa.CsrWr):
            self.csrs[instr.csr] = regs.read(instr.src)
            self._advance(thread)
            return 3, None
        if isinstance(instr, isa.CtxArb):
            self._advance(thread)
            return 1, None
        if isinstance(instr, isa.LockInstr):
            return self._execute_lock(thread, instr, clock)
        if isinstance(instr, isa.Br):
            thread.block = instr.target
            thread.index = 0
            return 2, None
        if isinstance(instr, isa.BrCmp):
            _check_alu_operands(instr, instr.uses())
            a = regs.read(instr.a)
            b = regs.read(instr.b)
            taken = _cmp_eval(instr.cmp, a, b)
            thread.block = instr.then_target if taken else instr.else_target
            thread.index = 0
            return 2, None
        if isinstance(instr, isa.HaltInstr):
            values = tuple(regs.read(r) for r in instr.results)
            thread.halt_values = values
            self.results.append((thread.tid, values))
            thread.stats.iterations += 1
            thread.iteration += 1
            thread.restart()
            return 1, None
        raise SimulatorError(f"unhandled instruction {instr!r}")

    def _execute_lock(
        self, thread: _Thread, instr: isa.LockInstr, clock: int
    ) -> tuple[int, int | None]:
        holder = self.locks.get(instr.number)
        if instr.kind == "lock":
            if holder is None:
                self.locks[instr.number] = thread.tid
                self._advance(thread)
                return 1, None
            if holder == thread.tid:
                raise SimulatorError(
                    f"thread {thread.tid} re-acquiring lock {instr.number}"
                )
            # Spin: yield and retry this instruction later.
            return 1, clock + 4
        if holder != thread.tid:
            raise SimulatorError(
                f"thread {thread.tid} unlocking lock {instr.number} held "
                f"by {holder}"
            )
        del self.locks[instr.number]
        self._advance(thread)
        return 1, None

    def _execute_ring(
        self, thread: _Thread, instr: isa.RingOp, clock: int
    ) -> tuple[int, int | None]:
        regs = thread.regs
        # Static operand faults come before the ring lookup and before
        # any side effect — the compiled tier raises them from segments
        # it generates for them.
        key = None
        if not isinstance(instr.reg, isa.Imm):
            key = regs.key(instr.reg)
        elif instr.kind == "deq":
            regs.key(instr.reg)  # immediates cannot receive a dequeue
        ring = self.memory.ring(instr.ring)
        if instr.kind == "enq":
            if key is None:
                value = instr.reg.value
            elif key in regs.values:
                value = regs.values[key]
            else:
                raise SimulatorError(
                    f"read of undefined register {instr.reg}"
                )
            finish = ring.try_enqueue(clock + 1, value)
            if finish is None:
                # Full: spin — thread.index stays here for the retry.
                return 1, clock + RING_RETRY
            self._advance(thread)
            return 1, finish
        popped = ring.try_dequeue(clock + 1)
        if popped is None:
            return 1, clock + RING_RETRY
        value, finish = popped
        regs.values[key] = value
        self._advance(thread)
        return 1, finish

    def _execute_mem(
        self, thread: _Thread, instr: isa.MemOp, clock: int
    ) -> tuple[int, int | None]:
        _check_aggregate(instr)
        if instr.space == "rfifo" and instr.direction == "write":
            raise SimulatorError("the receive FIFO is read-only")
        if instr.space == "tfifo" and instr.direction == "read":
            raise SimulatorError("the transmit FIFO is write-only")
        space = self.memory[instr.space]
        addr = thread.regs.read(instr.addr)
        finish = space.issue(clock + 1, len(instr.regs))
        if instr.direction == "read":
            values = space.read(addr, len(instr.regs))
            for reg, value in zip(instr.regs, values):
                thread.regs.write(reg, value)
        else:
            space.write(addr, [thread.regs.read(r) for r in instr.regs])
        self._advance(thread)
        # Issue costs 1 cycle; the thread then sleeps until the data is
        # back while other threads run.
        return 1, finish

    def _advance(self, thread: _Thread) -> None:
        thread.index += 1


def _opcode_of(instr: isa.Instr) -> str:
    """Histogram key for the tracer's per-opcode cycle counters."""
    if isinstance(instr, isa.Alu):
        return f"alu.{instr.op}"
    if isinstance(instr, isa.BrCmp):
        return f"br.{instr.cmp}"
    if isinstance(instr, isa.MemOp):
        return f"{instr.space}.{instr.direction}"
    if isinstance(instr, isa.LockInstr):
        return f"lock.{instr.kind}"
    if isinstance(instr, isa.RingOp):
        return f"ring.{instr.kind}"
    return {
        isa.Move: "move",
        isa.Clone: "clone",
        isa.Immed: "immed",
        isa.HashInstr: "hash",
        isa.CsrRd: "csr_rd",
        isa.CsrWr: "csr_wr",
        isa.CtxArb: "ctx_arb",
        isa.Br: "br",
        isa.HaltInstr: "halt",
    }.get(type(instr), type(instr).__name__.lower())


def _guess_physical(graph: FlowGraph) -> bool:
    for block in graph.blocks.values():
        for instr in block.instrs:
            for reg in instr.defs() + instr.uses():
                if isinstance(reg, isa.PhysReg):
                    return True
                if isinstance(reg, isa.Temp):
                    return False
    return False


def run_virtual(
    graph: FlowGraph,
    inputs: dict[str, int] | None = None,
    memory: MemorySystem | None = None,
    iterations: int = 1,
    threads: int = 1,
    mode: str = "compiled",
) -> RunResult:
    """Convenience: run a virtual-register flowgraph a fixed number of
    iterations per thread with constant inputs."""

    def provider(tid: int, iteration: int) -> dict | None:
        if iteration >= iterations:
            return None
        return dict(inputs or {})

    machine = Machine(
        graph,
        memory=memory,
        threads=threads,
        physical=False,
        input_provider=provider,
        mode=mode,
    )
    return machine.run()
