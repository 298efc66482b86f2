"""Compiled simulator tier: FlowGraph → generated Python source.

The interpreter (``Machine(mode="interp")``) re-derives operand kinds,
bank legality and ALU dispatch for every dynamic instruction.  This
module does that work once: each flowgraph is compiled **once** into
generated Python source (``exec``-compiled) in which

- every instruction is inlined straight-line code — no per-instruction
  call, no ``(cost, blocked)`` tuple packing;
- operand register keys, pre-masked immediates, folded constants and
  error messages are interned into the generated module's namespace at
  codegen time, and every static legality check (ALU operand/dst bank
  rules, the transfer-bank move restriction, aggregate adjacency, hash
  SameReg) runs here rather than per execution;
- basic blocks are emitted as straight-line segments; control transfers
  are computed jumps — an integer ``pc`` dispatched through a generated
  binary comparison tree at the top of one ``while`` loop;
- the register file is the interpreter's plain dict (``thread.rv``),
  hoisted into a local, so definedness faults keep the interpreter's
  exact ``KeyError`` → ``SimulatorError`` semantics and slices of any
  length pay no save/restore cost.

The generated slice function has the same contract as
``Machine._run_thread``: ``run(thread, clock) -> clock`` runs one thread
until it blocks, yields, or halts, with *identical* observables — cycle
counts, ``mem_stall_cycles`` accounting, memory port charging,
per-opcode trace histograms, raised error type/message and the order
errors are raised in.  The interpreter is the parity oracle
(``tests/test_decode_parity.py`` pins interp = compiled).

Resumption is an integer: ``thread.cpc`` names the label (a resume
point) execution continues from on the next slice.  Labels exist at
block entries, at ``lock`` instructions (a spin-retry re-executes them)
and immediately after blocking instructions (memory references and
``ctx_arb``).

Statically-illegal instructions — including an instruction kind the
generator does not know — compile to *raiser* segments that replay the
dynamic register reads the interpreter performs before faulting and
then raise the identical exception.  Codegen itself never raises for an
unreachable illegal instruction, exactly like the interpreter.

Compiled graphs are memoized per ``(id(graph), physical,
instrumented)`` with ``weakref.finalize`` eviction, so every Machine
sharing a flowgraph shares one generated function and ``id()`` reuse
cannot alias.  ``instrumented`` selects a variant with per-opcode
histogram recording compiled in (used only under tracing; the plain
variant carries zero tracing overhead).
"""

from __future__ import annotations

import weakref

from repro.errors import SimulatorError
from repro.ixp import isa
from repro.ixp.flowgraph import FlowGraph
from repro.ixp.machine import (
    HASH_LATENCY,
    LOCK_RETRY,
    WORD_MASK,
    _ALU_FNS,
    _CMP_FNS,
    _check_alu_dst,
    _check_alu_operands,
    _check_aggregate,
    _bank_of,
    _intern_key,
    _opcode_of,
    _read_spec,
    hash48,
)
from repro.ixp.banks import Bank
from repro.trace import ensure

#: Runtime evaluation templates per ALU op, mirrored bit for bit from
#: ``machine._ALU_FNS``.  Module level so the fuzz injection probe
#: (``inject.broken_codegen``) can swap one entry and prove the
#: differential oracle catches a miscompiled ALU op.  Constant folding
#: goes through ``_ALU_FNS`` itself.
_ALU_EXPRS = {
    "add": "(({a}) + ({b})) & 4294967295",
    "sub": "(({a}) - ({b})) & 4294967295",
    "and": "({a}) & ({b})",
    "or": "({a}) | ({b})",
    "xor": "({a}) ^ ({b})",
    "shl": "(({a}) << (({b}) & 31)) & 4294967295",
    "shr": "(({a}) & 4294967295) >> (({b}) & 31)",
    "not": "~({a}) & 4294967295",
    "neg": "-({a}) & 4294967295",
}

_CMP_EXPRS = {
    "eq": "==",
    "ne": "!=",
    "lt": "<",
    "le": "<=",
    "gt": ">",
    "ge": ">=",
}

#: the bitwise ops whose *immediates* are masked at codegen time
#: (masking distributes over &, |, ^ against a masked register value;
#: the other ops' formulas mask their results, so their immediates stay
#: raw — exactly what the interpreter computes).
_BITWISE = ("and", "or", "xor")

_MAX_RAISE = 'raise SimulatorError(f"simulation exceeded {max_cycles} cycles")'


class _CompiledGraph:
    """One flowgraph compiled to a generated slice-function factory.

    ``bind(machine)`` resolves the machine-lifetime state the generated
    code touches (cycle budget, memory system, lock table, CSR file,
    results list, histogram) into closure cells once, and returns
    ``run_slice(thread, clock) -> clock``, which runs one slice — the
    entry point of both ``Machine.service`` and ``Machine.run``'s
    scheduler loop.  Machines sharing a flowgraph share this object (and
    its generated code object); each ``bind`` call is one closure
    allocation.  The generated source itself is not kept, only its line
    count."""

    __slots__ = ("bind", "instructions", "labels", "source_lines",
                 "physical", "instrumented")

    def __init__(self, bind, instructions, labels, source_lines, physical,
                 instrumented):
        self.bind = bind  # bind(machine) -> run_slice
        self.instructions = instructions
        self.labels = labels
        self.source_lines = source_lines
        self.physical = physical
        self.instrumented = instrumented


class _Codegen:
    def __init__(self, graph: FlowGraph, physical: bool, instrumented: bool):
        self.graph = graph
        self.physical = physical
        self.instrumented = instrumented
        self.globals: dict[str, object] = {
            "SimulatorError": SimulatorError,
            "hash48": hash48,
        }
        self._const_names: dict[object, str] = {}
        self._segments: list[list[str]] = []
        self.labels: dict[tuple[str, int], int] = {}
        self.buf: list[str] = []
        self.ind = 0
        #: instruction-starts since the last ``icount`` update on the
        #: current segment's fall-through path (raise sites flush it).
        self.pending = 0
        #: cycles charged by :meth:`tick` but not yet emitted as a
        #: ``clock`` update + budget check (see :meth:`clock_flush`).
        self.cycles_pending = 0
        #: whether the current segment still falls through.
        self.open = True
        self.count = 0
        #: register-key const name → expression (a local name or an
        #: integer literal) known to hold that register's current value
        #: on the straight-line path being emitted.  Re-reads skip the
        #: dict lookup *and* are statically known defined, so their
        #: undefined-register handlers vanish.  Never needs mid-path
        #: invalidation: every emitter that writes ``rv`` outside
        #: straight-line code (memory resumes, interp delegation,
        #: halt/restart) closes the segment.
        self.mirror: dict[str, str] = {}
        self.tmp = 0
        #: memory spaces referenced by name → bind-time cell variable.
        #: Cells hold the resolved space, or ``None`` when the name is
        #: unknown at bind time — the use site then falls back to the
        #: runtime lookup, preserving the interpreter's "unknown memory
        #: space" error at execution (not bind).
        self.space_cells: dict[str, str] = {}

    def space_cell(self, name: str) -> str:
        return self.space_cells.setdefault(name, f"_sp{len(self.space_cells)}")

    # -- low-level emission --------------------------------------------------

    def w(self, text: str) -> None:
        self.buf.append("    " * self.ind + text)

    def const(self, value, hint: str = "") -> str:
        """Intern ``value`` into the generated module's namespace."""
        try:
            key = (type(value), value)
            hash(key)
        except TypeError:
            key = ("id", id(value))
        name = self._const_names.get(key)
        if name is None:
            name = f"_c{len(self._const_names)}" + (f"_{hint}" if hint else "")
            self._const_names[key] = name
            self.globals[name] = value
        return name

    def flush_into(self, prefix: str = "") -> None:
        """Emit an ``icount`` update for the pending instructions (the
        codegen-time counter stays — raise handlers deeper in the same
        instruction still owe the same amount)."""
        if self.pending:
            self.w(f"{prefix}icount += {self.pending}")

    def sync(self) -> None:
        """Flush ``icount`` *on the main path* before a call that can
        raise from outside generated code (memory spaces, the input
        provider): the interpreter counts an instruction before
        executing it, so an escaping exception must see it counted."""
        if self.pending:
            self.w(f"icount += {self.pending}")
            self.pending = 0

    def instr_start(self) -> None:
        self.pending += 1
        self.count += 1

    def hist(self, instr: isa.Instr, cost) -> None:
        """Per-opcode histogram recording (instrumented variant only).

        Mirrors the interpreter: recorded *after* the instruction body
        (a faulting body records nothing) and entries are created
        lazily, so never-executed opcodes stay absent."""
        if not self.instrumented:
            return
        self.w(f"_e = hist.setdefault({_opcode_of(instr)!r}, [0, 0])")
        self.w("_e[0] += 1")
        self.w(f"_e[1] += {cost}")

    def tick(self, cost: int) -> None:
        """Charge ``cost`` cycles (deferred, like ``icount``).

        The ``clock`` increment and its budget check are batched on the
        codegen-time ``cycles_pending`` counter and emitted by
        :meth:`clock_flush`/:meth:`clock_sync` at the next point that
        *reads* the clock or can raise.  Within a batched run only
        registers/CSRs mutate, and nothing in the repo observes those
        (or ``stats``) after a budget error, so deferring the check past
        instruction boundaries is not observable: the error keeps its
        exact type and message, and success runs are cycle-identical."""
        self.cycles_pending += cost

    def clock_flush(self) -> None:
        """Emit the owed ``clock`` update + budget check *without*
        resetting the counter (exit paths inside branch arms: the
        sibling path still owes the same amount)."""
        if self.cycles_pending:
            self.w(f"clock += {self.cycles_pending}")
            self.w("if clock > max_cycles:")
            self.flush_into("    ")
            self.w(f"    {_MAX_RAISE}")

    def clock_sync(self) -> None:
        """Flush the owed cycles on the main path, before emission that
        reads ``clock`` or can raise (the interpreter checks the budget
        after every instruction, so a fallible body must see it checked)."""
        self.clock_flush()
        self.cycles_pending = 0

    def exit_blocked(self, finish_expr: str, next_label: int) -> None:
        """Slice exit for a completed memory transfer."""
        self.clock_flush()
        self.flush_into()
        self.w(f"thread.cpc = {next_label}")
        self.w(f"thread.ready_at = {finish_expr}")
        self.w(f"if {finish_expr} > clock:")
        self.w(f"    stats.mem_stall_cycles += {finish_expr} - clock")
        self.w("return clock")
        self.open = False

    def exit_retry(self, self_label: int, wait: int) -> None:
        """Slice exit for a spin-retry on a held lock: the thread
        re-executes the same instruction ``wait`` cycles after issue
        (cost 1 already charged via :meth:`tick`)."""
        self.clock_flush()
        self.flush_into()
        self.w(f"thread.cpc = {self_label}")
        self.w(f"thread.ready_at = clock + {wait - 1}")
        self.w(f"stats.mem_stall_cycles += {wait - 1}")
        self.w("return clock")

    def exit_yield(self, next_label: int | None) -> None:
        """Slice exit at the current clock (ctx_arb / halt)."""
        self.clock_flush()
        self.flush_into()
        if next_label is not None:
            self.w(f"thread.cpc = {next_label}")
        self.w("thread.ready_at = clock")
        self.w("return clock")
        self.open = False

    def goto(self, label: int) -> None:
        self.clock_flush()
        self.flush_into()
        self.w(f"pc = {label}")
        self.w("continue")
        self.open = False

    # -- per-instruction generators ------------------------------------------
    #
    # Each runs the interpreter's static checks (``Machine._execute``)
    # in the same order and emits runtime code whose observable
    # behaviour is identical to the interpreter executing the
    # instruction under ``Machine._run_thread``.

    def gen_raiser(self, exc: BaseException, prior) -> None:
        """Statically-illegal instruction: replay the definedness checks
        of the dynamic reads the interpreter performs first, then raise
        the codegen-time exception with identical type and args.

        ``prior`` lists (register key, undefined-register message) for
        those reads; they have no side effects, so replaying only their
        definedness checks is exact."""
        self.instr_start()
        self.clock_sync()
        for key, msg in prior:
            kc, mc = self.const(key, "k"), self.const(msg, "m")
            self.w(f"if {kc} not in rv:")
            self.flush_into("    ")
            self.w(f"    raise SimulatorError({mc})")
        et = self.const(type(exc), "et")
        ea = self.const(exc.args, "ea")
        self.flush_into()
        self.w(f"raise {et}(*{ea})")
        self.open = False

    def _reg_read_try(self, target: str, expr: str, handlers) -> None:
        """``target = expr`` with KeyError → undefined-register mapping.

        ``handlers`` is a list of (keyname, msgname); one entry raises
        its message directly, two entries disambiguate the way the
        interpreter's read order does (first key checked against
        ``rv``)."""
        self.clock_sync()  # budget error beats the undefined-reg error
        self.w("try:")
        self.w(f"    {target} = {expr}")
        self.w("except KeyError:")
        self.flush_into("    ")
        if len(handlers) == 1:
            self.w(f"    raise SimulatorError({handlers[0][1]}) from None")
        else:
            (ak, am), (_bk, bm) = handlers
            self.w(
                f"    raise SimulatorError({am} if {ak} not in rv else {bm})"
                " from None"
            )

    def literal_of(self, spec) -> int | None:
        """The masked value of a reg operand the mirror knows to hold a
        codegen-time integer literal, else None."""
        if spec is not None and spec[0] == "reg":
            mirrored = self.mirror.get(self.const(spec[1], "k"))
            if mirrored is not None and mirrored.isdigit():
                return int(mirrored)
        return None

    def reg_expr(self, kc: str, mc: str):
        """(expression, handler-or-None) for reading register ``kc``.

        A mirrored register reads from its local (no dict access, no
        possible KeyError → no handler); otherwise ``rv[kc]`` with the
        (key, message) handler."""
        mirrored = self.mirror.get(kc)
        if mirrored is not None:
            return mirrored, None
        return f"rv[{kc}]", (kc, mc)

    def emit_assign(self, target: str, expr: str, handlers) -> None:
        """``target = expr``, try-wrapped only for fallible reads."""
        handlers = [h for h in handlers if h is not None]
        if handlers:
            self._reg_read_try(target, expr, handlers)
        else:
            self.w(f"{target} = {expr}")

    def set_reg(self, dkc: str, expr: str, handlers) -> None:
        """``rv[dkc] = expr`` (with undefined-register handling), and
        mirror the written value for later reads on this path.  Simple
        expressions (a local name, an integer literal) mirror as
        themselves; anything else is tee'd through a fresh local."""
        handlers = [h for h in handlers if h is not None]
        if not handlers and (expr.isidentifier() or expr.isdigit()):
            self.w(f"rv[{dkc}] = {expr}")
            self.mirror[dkc] = expr
            return
        v = f"_v{self.tmp}"
        self.tmp += 1
        if handlers:
            self._reg_read_try(f"{v} = rv[{dkc}]", expr, handlers)
        else:
            self.w(f"{v} = rv[{dkc}] = {expr}")
        self.mirror[dkc] = v

    def gen_alu(self, instr: isa.Alu) -> None:
        try:
            _check_alu_operands(instr, instr.uses())
            _check_alu_dst(instr, instr.dst)
        except SimulatorError as exc:
            return self.gen_raiser(exc, ())
        prior: list = []
        try:
            a = _read_spec(instr.a, self.physical)
            if a[0] == "reg":
                prior.append((a[1], a[2]))
            b = None
            if instr.b is not None:
                b = _read_spec(instr.b, self.physical)
                if b[0] == "reg":
                    prior.append((b[1], b[2]))
            fn = _ALU_FNS.get(instr.op)
            if fn is None:
                raise SimulatorError(f"unknown ALU op '{instr.op}'")
            dk = _intern_key(instr.dst, self.physical)
        except SimulatorError as exc:
            return self.gen_raiser(exc, prior)

        self.instr_start()
        dkc = self.const(dk, "k")
        fmt = _ALU_EXPRS[instr.op]
        bitwise = instr.op in _BITWISE
        # A mirrored register whose value is a codegen-time literal
        # folds like an immediate: on masked register values ``fn``
        # computes exactly what the emitted expression would (that
        # equivalence is what the whole tier's parity is pinned to).
        afold = self.literal_of(a)
        bfold = self.literal_of(b)
        if b is None and a[0] == "imm":
            self.set_reg(dkc, repr(fn(a[1], None) & WORD_MASK), ())
        elif b is None and afold is not None:
            self.set_reg(dkc, repr(fn(afold, None) & WORD_MASK), ())
        elif b is None:
            akc, amc = self.const(a[1], "k"), self.const(a[2], "m")
            ae, ah = self.reg_expr(akc, amc)
            self.set_reg(dkc, fmt.format(a=ae, b="0"), (ah,))
        elif a[0] == "imm" and b[0] == "imm":
            self.set_reg(dkc, repr(fn(a[1], b[1]) & WORD_MASK), ())
        elif (a[0] == "imm" or afold is not None) and (
            b[0] == "imm" or bfold is not None
        ):
            av = a[1] if a[0] == "imm" else afold
            bv = b[1] if b[0] == "imm" else bfold
            self.set_reg(dkc, repr(fn(av, bv) & WORD_MASK), ())
        elif b[0] == "imm":
            akc, amc = self.const(a[1], "k"), self.const(a[2], "m")
            bv = b[1] & WORD_MASK if bitwise else b[1]
            ae, ah = self.reg_expr(akc, amc)
            self.set_reg(dkc, fmt.format(a=ae, b=repr(bv)), (ah,))
        elif a[0] == "imm":
            av = a[1] & WORD_MASK if bitwise else a[1]
            bkc, bmc = self.const(b[1], "k"), self.const(b[2], "m")
            be, bh = self.reg_expr(bkc, bmc)
            self.set_reg(dkc, fmt.format(a=repr(av), b=be), (bh,))
        else:
            akc, amc = self.const(a[1], "k"), self.const(a[2], "m")
            bkc, bmc = self.const(b[1], "k"), self.const(b[2], "m")
            ae, ah = self.reg_expr(akc, amc)
            be, bh = self.reg_expr(bkc, bmc)
            self.set_reg(dkc, fmt.format(a=ae, b=be), (ah, bh))
        self.hist(instr, 1)
        self.tick(1)

    def _gen_copy(self, instr, cost: int) -> None:
        """Shared tail of Move/Clone: src → dst at ``cost`` cycles."""
        prior: list = []
        try:
            src = _read_spec(instr.src, self.physical)
            if src[0] == "reg":
                prior.append((src[1], src[2]))
            dk = _intern_key(instr.dst, self.physical)
        except SimulatorError as exc:
            return self.gen_raiser(exc, prior)
        self.instr_start()
        dkc = self.const(dk, "k")
        if src[0] == "imm":
            self.set_reg(dkc, repr(src[1] & WORD_MASK), ())
        else:
            skc, smc = self.const(src[1], "k"), self.const(src[2], "m")
            se, sh = self.reg_expr(skc, smc)
            self.set_reg(dkc, se, (sh,))
        self.hist(instr, cost)
        self.tick(cost)

    def gen_move(self, instr: isa.Move) -> None:
        try:
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
        except SimulatorError as exc:
            return self.gen_raiser(exc, ())
        self._gen_copy(instr, 1)

    def gen_clone(self, instr: isa.Clone) -> None:
        if self.physical:
            return self.gen_raiser(
                SimulatorError("clone instruction survived register allocation"),
                (),
            )
        self._gen_copy(instr, 0)

    def gen_immed(self, instr: isa.Immed) -> None:
        try:
            _check_alu_dst(instr, instr.dst)
            dk = _intern_key(instr.dst, self.physical)
        except SimulatorError as exc:
            return self.gen_raiser(exc, ())
        self.instr_start()
        cost = 1 if 0 <= instr.value < (1 << 16) else 2
        self.set_reg(self.const(dk, "k"), repr(instr.value & WORD_MASK), ())
        self.hist(instr, cost)
        self.tick(cost)

    def gen_mem(self, instr: isa.MemOp, next_label: int) -> None:
        try:
            _check_aggregate(instr)
            if instr.space == "rfifo" and instr.direction == "write":
                raise SimulatorError("the receive FIFO is read-only")
            if instr.space == "tfifo" and instr.direction == "read":
                raise SimulatorError("the transmit FIFO is write-only")
        except (SimulatorError, KeyError) as exc:
            # KeyError: _check_aggregate indexes READ_BANK/WRITE_BANK
            # before the fifo guards; replicate the exact exception.
            return self.gen_raiser(exc, ())
        try:
            addr = _read_spec(instr.addr, self.physical)
            reg_keys = []
            undef = {}
            for reg in instr.regs:
                key = _intern_key(reg, self.physical)
                reg_keys.append(key)
                undef[key] = f"read of undefined register {reg}"
        except SimulatorError:
            return self._gen_interp_mem(instr, next_label)
        self.instr_start()
        self.sync()
        self.clock_sync()  # issue math below reads the live clock
        n = len(reg_keys)
        cell = self.space_cell(instr.space)
        self.w(f"_s = {cell}")
        self.w("if _s is None:")
        self.w(f"    _s = memory[{instr.space!r}]")
        if addr[0] == "imm":
            addr_expr = repr(addr[1])
        else:
            akc, amc = self.const(addr[1], "k"), self.const(addr[2], "m")
            ae, ah = self.reg_expr(akc, amc)
            if ah is None:
                addr_expr = ae  # a local name or literal, reusable as-is
            else:
                self._reg_read_try("_a", ae, [ah])
                addr_expr = "_a"
        kcs = [self.const(k, "k") for k in reg_keys]
        # ``_s.issue(clock + 1, n)`` (and, for reads, ``_s.read``)
        # inlined on the space's timing constants resolved to bind-time
        # cells: identical math, identical side-effect order, and the
        # method's ``_check`` raises the identical error.
        self.w("_t = clock + 1")
        self.w(f"_b = {cell}.busy_until")
        self.w("if _t < _b:")
        self.w("    _t = _b")
        if n > 1:
            self.w(f"_x = {cell}_pw * {n - 1}")
            self.w(f"{cell}.busy_until = _t + {cell}_oc + _x")
            self.w(f"_f = _t + {cell}_lt + _x")
        else:
            self.w(f"{cell}.busy_until = _t + {cell}_oc")
            self.w(f"_f = _t + {cell}_lt")
        if instr.direction == "read":
            if n % 2:
                align = f"{cell}_sd"
            else:
                align = f"{cell}_sd and ({addr_expr}) % 2"
            self.w(
                f"if ({addr_expr}) < 0 or ({addr_expr}) + {n} > {cell}_sz"
                f" or ({align}):"
            )
            self.w(f"    {cell}._check({addr_expr}, {n})")
            self.w(f"{cell}.reads += 1")
            for i, kc in enumerate(kcs):
                off = addr_expr if i == 0 else f"({addr_expr}) + {i}"
                self.w(f"rv[{kc}] = {cell}_wg({off}, 0)")
        else:
            parts = []
            fallible = False
            for kc in kcs:
                mirrored = self.mirror.get(kc)
                if mirrored is None:
                    parts.append(f"rv[{kc}]")
                    fallible = True
                else:
                    parts.append(mirrored)
            reads = ", ".join(parts)
            if fallible:
                udc = self.const_dict(undef)
                self.w("try:")
                self.w(f"    _vals = [{reads}]")
                self.w("except KeyError as _e:")
                self.flush_into("    ")
                self.w(
                    f"    raise SimulatorError({udc}[_e.args[0]]) from None"
                )
            else:
                self.w(f"_vals = [{reads}]")
            self.w(f"_s.write({addr_expr}, _vals)")
        self.hist(instr, 1)
        self.tick(1)
        self.exit_blocked("_f", next_label)

    def const_dict(self, mapping: dict) -> str:
        """Intern a dict constant (hashed via its sorted item tuple)."""
        key = ("dict", tuple(sorted(mapping.items(), key=repr)))
        name = self._const_names.get(key)
        if name is None:
            name = f"_c{len(self._const_names)}_u"
            self._const_names[key] = name
            self.globals[name] = dict(mapping)
        return name

    def _gen_interp_mem(self, instr: isa.MemOp, next_label: int) -> None:
        """Memory ops whose operands fail to intern: delegate to the
        interpreter for exact midway-fault behaviour (``space.issue``
        runs before the register-key error)."""
        self.instr_start()
        self.sync()
        self.clock_sync()
        ic = self.const(instr, "i")
        self.w(f"cost, blocked = machine._execute_mem(thread, {ic}, clock)")
        if self.instrumented:
            self.w(f"_e = hist.setdefault({_opcode_of(instr)!r}, [0, 0])")
            self.w("_e[0] += 1")
            self.w("_e[1] += cost")
        self.w("clock += cost")
        self.w("if clock > max_cycles:")
        self.flush_into("    ")
        self.w(f"    {_MAX_RAISE}")
        self.exit_blocked("blocked", next_label)

    def gen_hash(self, instr: isa.HashInstr) -> None:
        try:
            src_bank, dst_bank = _bank_of(instr.src), _bank_of(instr.dst)
            if src_bank is not None:
                if src_bank is not Bank.S or dst_bank is not Bank.L:
                    raise SimulatorError(f"{instr}: hash reads S and writes L")
                if instr.src.index != instr.dst.index:
                    raise SimulatorError(
                        f"{instr}: hash dst/src must share a register "
                        "number (SameReg)"
                    )
        except SimulatorError as exc:
            return self.gen_raiser(exc, ())
        prior: list = []
        try:
            src = _read_spec(instr.src, self.physical)
            if src[0] == "reg":
                prior.append((src[1], src[2]))
            dk = _intern_key(instr.dst, self.physical)
        except SimulatorError as exc:
            return self.gen_raiser(exc, prior)
        self.instr_start()
        cost = 1 + HASH_LATENCY
        dkc = self.const(dk, "k")
        sfold = self.literal_of(src)
        if src[0] == "imm":
            self.set_reg(dkc, repr(hash48(src[1])), ())
        elif sfold is not None:
            self.set_reg(dkc, repr(hash48(sfold)), ())
        else:
            skc, smc = self.const(src[1], "k"), self.const(src[2], "m")
            se, sh = self.reg_expr(skc, smc)
            self.set_reg(dkc, f"hash48({se})", (sh,))
        self.hist(instr, cost)
        self.tick(cost)

    def gen_csr_rd(self, instr: isa.CsrRd) -> None:
        try:
            dk = _intern_key(instr.dst, self.physical)
        except SimulatorError as exc:
            return self.gen_raiser(exc, ())
        self.instr_start()
        self.set_reg(
            self.const(dk, "k"), f"csrs.get({instr.csr!r}, 0) & 4294967295", ()
        )
        self.hist(instr, 3)
        self.tick(3)

    def gen_csr_wr(self, instr: isa.CsrWr) -> None:
        try:
            src = _read_spec(instr.src, self.physical)
        except SimulatorError as exc:
            return self.gen_raiser(exc, ())
        self.instr_start()
        if src[0] == "imm":
            self.w(f"csrs[{instr.csr!r}] = {src[1]!r}")
        else:
            skc, smc = self.const(src[1], "k"), self.const(src[2], "m")
            se, sh = self.reg_expr(skc, smc)
            self.emit_assign(f"csrs[{instr.csr!r}]", se, (sh,))
        self.hist(instr, 3)
        self.tick(3)

    def gen_ctx_arb(self, instr: isa.CtxArb, next_label: int) -> None:
        self.instr_start()
        self.hist(instr, 1)
        self.tick(1)
        self.exit_yield(next_label)

    def gen_lock(self, instr: isa.LockInstr, self_label: int) -> None:
        self.instr_start()
        self.clock_sync()  # budget error beats the re-acquire/unlock error
        number = instr.number
        self.w("tid = thread.tid")
        if instr.kind == "lock":
            self.w(f"_h = locks.get({number!r})")
            self.w("if _h is not None:")
            self.ind += 1
            self.w("if _h == tid:")
            self.flush_into("    ")
            self.w(
                '    raise SimulatorError(f"thread {tid} '
                f're-acquiring lock {number}")'
            )
            # Spin: the thread retries this instruction later.  The
            # arm's deferred cycle charge is forked like ``pending``.
            saved_cycles = self.cycles_pending
            self.hist(instr, 1)
            self.tick(1)
            self.exit_retry(self_label, LOCK_RETRY)
            self.cycles_pending = saved_cycles
            self.ind -= 1
            self.w(f"locks[{number!r}] = tid")
            self.hist(instr, 1)
            self.tick(1)
        else:
            self.w(f"_h = locks.get({number!r})")
            self.w("if _h != tid:")
            self.flush_into("    ")
            self.w(
                '    raise SimulatorError(f"thread {tid} '
                f'unlocking lock {number} held by {{_h}}")'
            )
            self.w(f"del locks[{number!r}]")
            self.hist(instr, 1)
            self.tick(1)

    def gen_br(self, instr: isa.Br) -> None:
        self.instr_start()
        self.hist(instr, 2)
        self.tick(2)
        self.follow(instr.target, 0)

    def gen_br_cmp(self, instr: isa.BrCmp) -> None:
        try:
            _check_alu_operands(instr, instr.uses())
        except SimulatorError as exc:
            return self.gen_raiser(exc, ())
        prior: list = []
        try:
            a = _read_spec(instr.a, self.physical)
            if a[0] == "reg":
                prior.append((a[1], a[2]))
            b = _read_spec(instr.b, self.physical)
            if b[0] == "reg":
                prior.append((b[1], b[2]))
            fn = _CMP_FNS.get(instr.cmp)
            if fn is None:
                raise SimulatorError(f"unknown comparison '{instr.cmp}'")
        except SimulatorError as exc:
            return self.gen_raiser(exc, prior)
        self.instr_start()
        op = _CMP_EXPRS[instr.cmp]
        # Comparison operands stay raw (the interpreter compares the raw
        # immediate against the masked register value).  Mirror literals
        # fold like immediates (they ARE the register value).
        afold = self.literal_of(a)
        bfold = self.literal_of(b)
        if (a[0] == "imm" or afold is not None) and (
            b[0] == "imm" or bfold is not None
        ):
            av = a[1] if a[0] == "imm" else afold
            bv = b[1] if b[0] == "imm" else bfold
            self.hist(instr, 2)
            self.tick(2)
            taken = instr.then_target if fn(av, bv) else instr.else_target
            self.follow(taken, 0)
            return
        if b[0] == "imm":
            akc, amc = self.const(a[1], "k"), self.const(a[2], "m")
            ae, ah = self.reg_expr(akc, amc)
            self.emit_assign("_t", f"{ae} {op} {b[1]!r}", (ah,))
        elif a[0] == "imm":
            bkc, bmc = self.const(b[1], "k"), self.const(b[2], "m")
            be, bh = self.reg_expr(bkc, bmc)
            self.emit_assign("_t", f"{a[1]!r} {op} {be}", (bh,))
        else:
            akc, amc = self.const(a[1], "k"), self.const(a[2], "m")
            bkc, bmc = self.const(b[1], "k"), self.const(b[2], "m")
            ae, ah = self.reg_expr(akc, amc)
            be, bh = self.reg_expr(bkc, bmc)
            self.emit_assign("_t", f"{ae} {op} {be}", (ah, bh))
        self.hist(instr, 2)
        self.tick(2)
        # Both arms continue inline where budget allows; each arm always
        # ends closed (return / computed jump), so no fall-through leaks
        # from the then-arm into the else-arm.  ``pending``, the deferred
        # cycle charge, and the value mirror are forked: the arms
        # flush/extend their own copies.
        saved = self.pending
        saved_cycles = self.cycles_pending
        saved_mirror = dict(self.mirror)
        self.w("if _t:")
        self.ind += 1
        self.follow(instr.then_target, 0)
        self.ind -= 1
        self.pending = saved
        self.cycles_pending = saved_cycles
        self.mirror = saved_mirror
        self.open = True
        self.follow(instr.else_target, 0)

    def gen_halt(self, instr: isa.HaltInstr) -> None:
        specs: list = []
        prior: list = []
        hmsgs: dict = {}
        try:
            for result in instr.results:
                spec = _read_spec(result, self.physical)
                if spec[0] == "reg":
                    specs.append((True, spec[1]))
                    prior.append((spec[1], spec[2]))
                    hmsgs[spec[1]] = spec[2]
                else:
                    specs.append((False, spec[1]))
        except SimulatorError as exc:
            return self.gen_raiser(exc, prior)
        self.instr_start()
        self.clock_sync()  # halt body can raise; restart() runs user code
        parts = []
        fallible = False
        for is_reg, payload in specs:
            if not is_reg:
                parts.append(repr(payload))
                continue
            kc = self.const(payload, "k")
            mirrored = self.mirror.get(kc)
            if mirrored is None:
                parts.append(f"rv[{kc}]")
                fallible = True
            else:
                parts.append(mirrored)
        tup = "(" + ", ".join(parts) + ("," if len(parts) == 1 else "") + ")"
        if hmsgs and fallible:
            udc = self.const_dict(hmsgs)
            self.w("try:")
            self.w(f"    _vals = {tup}")
            self.w("except KeyError as _e:")
            self.flush_into("    ")
            self.w(f"    raise SimulatorError({udc}[_e.args[0]]) from None")
        else:
            self.w(f"_vals = {tup}")
        self.sync()  # restart() runs the input provider, which may raise
        self.w("thread.halt_values = _vals")
        self.w("results.append((thread.tid, _vals))")
        self.w("stats.iterations += 1")
        self.w("thread.iteration += 1")
        self.w("thread.restart()")
        self.hist(instr, 1)
        self.tick(1)
        # thread.load (via restart) already reset cpc to the entry label.
        self.exit_yield(None)

    # -- segment / graph assembly --------------------------------------------

    def gen_instr(self, block: str, index: int, instr: isa.Instr) -> None:
        nxt = self.labels.get((block, index + 1))
        if isinstance(instr, isa.Alu):
            self.gen_alu(instr)
        elif isinstance(instr, isa.Move):
            self.gen_move(instr)
        elif isinstance(instr, isa.Clone):
            self.gen_clone(instr)
        elif isinstance(instr, isa.Immed):
            self.gen_immed(instr)
        elif isinstance(instr, isa.MemOp):
            self.gen_mem(instr, nxt)
        elif isinstance(instr, isa.HashInstr):
            self.gen_hash(instr)
        elif isinstance(instr, isa.CsrRd):
            self.gen_csr_rd(instr)
        elif isinstance(instr, isa.CsrWr):
            self.gen_csr_wr(instr)
        elif isinstance(instr, isa.CtxArb):
            self.gen_ctx_arb(instr, nxt)
        elif isinstance(instr, isa.LockInstr):
            self.gen_lock(instr, self.labels[(block, index)])
        elif isinstance(instr, isa.Br):
            self.gen_br(instr)
        elif isinstance(instr, isa.BrCmp):
            self.gen_br_cmp(instr)
        elif isinstance(instr, isa.HaltInstr):
            self.gen_halt(instr)
        else:
            self.gen_raiser(
                SimulatorError(f"unhandled instruction {instr!r}"), ()
            )

    def assign_labels(self) -> list[str]:
        """Number every resume point; the entry block's head is 0."""
        graph = self.graph
        order = [graph.entry] + [
            label for label in graph.blocks if label != graph.entry
        ]
        next_id = 0
        self.label_starts: dict[str, list[int]] = {}
        for label in order:
            instrs = graph.blocks[label].instrs
            positions = {0}
            for i, instr in enumerate(instrs):
                if isinstance(instr, isa.LockInstr):
                    positions.add(i)  # spin-retry re-executes in place
                if isinstance(instr, (isa.MemOp, isa.CtxArb)):
                    positions.add(i + 1)  # resume after the block/yield
            starts = [i for i in sorted(positions) if i < len(instrs)]
            self.label_starts[label] = starts
            for i in starts:
                self.labels[(label, i)] = next_id
                next_id += 1
        return order

    def gen_segment(self, block: str, start: int, end: int) -> list[str]:
        self.buf = []
        self.ind = 0
        self.pending = 0
        self.cycles_pending = 0
        self.open = True
        self.visited = {(block, start)}
        self.inline_left = 16
        self.mirror = {}
        self.tmp = 0
        self.emit_range(block, start, end)
        return self.buf

    def emit_range(self, block: str, start: int, end: int) -> None:
        instrs = self.graph.blocks[block].instrs
        for index in range(start, end):
            self.gen_instr(block, index, instrs[index])
            if not self.open:
                return
        # Fell through onto a labelled instruction (a lock's spin
        # target): continue there.
        self.follow(block, end)

    def follow(self, block: str, index: int) -> None:
        """Continue emission at label ``(block, index)``.

        Inlines the target (tail duplication) when this segment has not
        emitted it yet and budget remains — hot paths then run
        straight-line instead of bouncing through the dispatch tree on
        every branch — otherwise emits a computed jump.  Back-edges are
        always in ``visited`` (every followed label is), so loops
        dispatch once per iteration and emission terminates."""
        key = (block, index)
        if key in self.visited or self.inline_left <= 0:
            self.goto(self.labels[key])
            return
        self.visited.add(key)
        self.inline_left -= 1
        starts = self.label_starts[block]
        size = len(self.graph.blocks[block].instrs)
        end = min(
            (s for s in starts if s > index), default=size
        )
        self.emit_range(block, index, end)

    def emit_dispatch(self, out: list[str], lo: int, hi: int,
                      ind: int) -> None:
        pad = "    " * ind
        if hi - lo == 1:
            for line in self._segments[lo]:
                out.append(pad + line)
            return
        mid = (lo + hi) // 2
        out.append(pad + f"if pc < {mid}:")
        self.emit_dispatch(out, lo, mid, ind + 1)
        out.append(pad + "else:")
        self.emit_dispatch(out, mid, hi, ind + 1)

    def generate(self) -> _CompiledGraph:
        graph = self.graph
        order = self.assign_labels()
        # Build each label's segment: instructions from the label to the
        # next label in the block (or the block's end).
        by_block: dict[str, list[int]] = {}
        for (block, index) in self.labels:
            by_block.setdefault(block, []).append(index)
        for block in order:
            starts = sorted(by_block[block])
            size = len(graph.blocks[block].instrs)
            for pos, start in enumerate(starts):
                end = starts[pos + 1] if pos + 1 < len(starts) else size
                self._segments.append(self.gen_segment(block, start, end))

        uses = {type(i).__name__ for _, _, i in graph.instructions()}
        # Factory form: machine-lifetime state lives in closure cells
        # (one bind per Machine); the per-slice prologue loads only the
        # per-thread state.  Every frozen attribute is assigned exactly
        # once in Machine.__init__ and mutated in place afterwards.
        prologue = ["    max_cycles = machine.max_cycles"]
        if "MemOp" in uses:
            prologue.append("    memory = machine.memory")
        if "LockInstr" in uses:
            prologue.append("    locks = machine.locks")
        if uses & {"CsrRd", "CsrWr"}:
            prologue.append("    csrs = machine.csrs")
        if "HaltInstr" in uses:
            prologue.append("    results = machine.results")
        if self.instrumented:
            prologue.append("    hist = machine._opcode_hist")
        for name, var in self.space_cells.items():
            prologue.append(f"    {var} = memory.spaces.get({name!r})")
            prologue.append(f"    if {var} is not None:")
            prologue.append(
                f"        {var}_oc = {var}._occupancy;"
                f" {var}_lt = {var}._latency;"
                f" {var}_pw = {var}._per_word;"
                f" {var}_sz = {var}.size;"
                f" {var}_sd = {var}._is_sdram;"
                f" {var}_wg = {var}.words.get"
            )
        lines = ["def _bind_slice(machine):", *prologue]
        lines.append("    def _run_slice(thread, clock):")
        lines.append("        rv = thread.rv")
        lines.append("        stats = thread.stats")
        lines.append("        icount = 0")
        lines.append("        pc = thread.cpc")
        lines.append("        try:")
        lines.append("            while True:")
        self.emit_dispatch(lines, 0, len(self._segments), 4)
        lines.append("        finally:")
        lines.append("            stats.instructions += icount")
        lines.append("    return _run_slice")
        source = "\n".join(lines) + "\n"
        exec(compile(source, f"<codegen:{graph.entry}>", "exec"), self.globals)
        return _CompiledGraph(
            self.globals["_bind_slice"],
            self.count,
            len(self._segments),
            len(lines),
            self.physical,
            self.instrumented,
        )


#: (id(graph), physical, instrumented) → compiled program.  Entries evict
#: when the graph is garbage collected (weakref.finalize), so id() reuse
#: cannot alias.  Kept off the FlowGraph itself: generated functions
#: don't pickle, and compilation artifacts carrying the graph are cached
#: with pickle.
_COMPILED: dict[tuple[int, bool, bool], _CompiledGraph] = {}


def compiled_graph(
    graph: FlowGraph,
    physical: bool,
    instrumented: bool = False,
    tracer=None,
) -> _CompiledGraph:
    """Compile ``graph`` to generated Python, once per (graph, mode,
    instrumentation)."""
    key = (id(graph), bool(physical), bool(instrumented))
    if key in _COMPILED:
        return _COMPILED[key]
    tracer = ensure(tracer)
    with tracer.span(
        "simulate.codegen", physical=int(bool(physical))
    ) as sp:
        graph.validate()
        compiled = _Codegen(graph, bool(physical), bool(instrumented)).generate()
        if sp:
            sp.add(
                blocks=len(graph.blocks),
                instructions=compiled.instructions,
                labels=compiled.labels,
                source_lines=compiled.source_lines,
            )
    _COMPILED[key] = compiled
    weakref.finalize(graph, _COMPILED.pop, key, None)
    return compiled


def clear_cache() -> None:
    """Drop every cached compiled function (used by fuzz injection
    probes that patch the generator templates mid-process)."""
    _COMPILED.clear()
