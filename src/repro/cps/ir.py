"""The CPS intermediate representation (paper Section 4).

All intermediate values are explicitly named; records and tuples have
been flattened away by conversion, so every CPS variable conceptually
corresponds to a single machine register (Section 4.1).  Control is
expressed with second-class continuations: source-level loops, joins,
exceptions and function returns all become :class:`LetCont` /
:class:`AppCont`.

The representation is *functional*: conversion generates a fresh name
for every binder, which directly gives the static single assignment
property the ILP back end relies on (Section 4.2) — CPS "is already
powerful enough to express SSA directly".

Grammar::

    atom ::= Var(x) | Const(n)
    term ::= LetVal(x, atom, body)              -- x = atom (move)
           | LetPrim(x, op, args, body)          -- ALU operation
           | MemRead(xs, space, addr, body)      -- aggregate load
           | MemWrite(space, addr, atoms, body)  -- aggregate store
           | LetClone(x, y, body)                -- SSU clone (Section 10)
           | Special(x?, op, args, body)         -- hash / csr / ctx_swap
           | LetCont(k, params, kbody, body, rec)
           | AppCont(k, atoms)
           | LetFun(fundefs, body)
           | AppFun(f, atoms, cont_names)
           | If(cmp, a, b, then_term, else_term)
           | Halt(atoms)
"""

from __future__ import annotations

import copy
import itertools
from dataclasses import dataclass


# --------------------------------------------------------------------------
# Atoms
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Atom:
    pass


@dataclass(frozen=True)
class Var(Atom):
    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Const(Atom):
    value: int

    def __str__(self) -> str:
        return str(self.value) if self.value < 1024 else hex(self.value)


# Primitive ALU operations.  These correspond 1:1 to IXP micro-engine ALU
# capabilities (``mul``/``div``/``mod`` expand during selection).
PRIM_OPS = frozenset(
    {
        "add",
        "sub",
        "mul",
        "div",
        "mod",
        "and",
        "or",
        "xor",
        "shl",
        "shr",
        "not",  # bitwise complement (unary)
        "neg",  # arithmetic negation (unary)
    }
)

# Comparison operators for If.
CMP_OPS = frozenset({"eq", "ne", "lt", "le", "gt", "ge"})

CMP_NEGATE = {
    "eq": "ne",
    "ne": "eq",
    "lt": "ge",
    "le": "gt",
    "gt": "le",
    "ge": "lt",
}

CMP_SWAP = {
    "eq": "eq",
    "ne": "ne",
    "lt": "gt",
    "le": "ge",
    "gt": "lt",
    "ge": "le",
}

# Special (non-ALU) operations with their (num_args, has_result).
SPECIAL_OPS = {
    "hash": (1, True),  # hash unit; dst/src share a register number
    "csr_rd": (1, True),  # arg is the csr number as a Const
    "csr_wr": (2, False),  # csr number, value
    "ctx_swap": (0, False),
    "lock": (1, False),  # lock bit number as a Const; spins until held
    "unlock": (1, False),
}

# Special ops without observable side effects (safe to remove when dead).
PURE_SPECIALS = frozenset({"hash"})

MEM_SPACES = ("sram", "sdram", "scratch", "rfifo", "tfifo")


# --------------------------------------------------------------------------
# Terms
# --------------------------------------------------------------------------


@dataclass
class Term:
    pass


@dataclass
class LetVal(Term):
    """``let x = atom in body`` — a move or constant naming."""

    var: str
    atom: Atom
    body: Term


@dataclass
class LetPrim(Term):
    """``let x = op(args) in body`` — one ALU operation."""

    var: str
    op: str
    args: tuple[Atom, ...]
    body: Term


@dataclass
class MemRead(Term):
    """``let (xs...) = space[addr] in body`` — an aggregate load.

    The targets land in adjacent transfer registers (L for sram/scratch,
    LD for sdram): this produces the DefLi / DefLDj sets of the ILP model.
    """

    vars: tuple[str, ...]
    space: str
    addr: Atom
    body: Term


@dataclass
class MemWrite(Term):
    """``space[addr] <- (atoms...) ; body`` — an aggregate store.

    Operands must sit in adjacent write-transfer registers (S / SD):
    the UseSi / UseSDj sets of the ILP model.
    """

    space: str
    addr: Atom
    atoms: tuple[Atom, ...]
    body: Term


@dataclass
class LetClone(Term):
    """``let x = clone(y) in body`` (Section 10).

    Semantically a copy; the ILP model may — but need not — assign x and
    y to the same register, because clones do not interfere.
    """

    var: str
    source: str
    body: Term


@dataclass
class Special(Term):
    """Hash unit / CSR / concurrency operations."""

    var: str | None
    op: str
    args: tuple[Atom, ...]
    body: Term


@dataclass
class LetCont(Term):
    """``letcont k(params) = kbody in body``.

    ``recursive`` marks loop headers (k may appear in kbody).
    """

    name: str
    params: tuple[str, ...]
    kbody: Term
    body: Term
    recursive: bool = False


@dataclass
class AppCont(Term):
    name: str
    args: tuple[Atom, ...]


@dataclass
class FunDef:
    """A CPS function: data parameters plus continuation parameters.

    ``conts`` receives, in order, the return continuation followed by
    any exception continuations the function takes (exceptions are
    continuation-passing, Section 3.4).
    """

    name: str
    params: tuple[str, ...]
    conts: tuple[str, ...]
    body: Term


@dataclass
class LetFun(Term):
    funs: list[FunDef]
    body: Term


@dataclass
class AppFun(Term):
    name: str
    args: tuple[Atom, ...]
    conts: tuple[str, ...]


@dataclass
class If(Term):
    """Two-way branch on a word comparison."""

    cmp: str
    left: Atom
    right: Atom
    then_term: Term
    else_term: Term


@dataclass
class Halt(Term):
    """Program (thread iteration) end, yielding the final atoms."""

    atoms: tuple[Atom, ...]


# --------------------------------------------------------------------------
# Name generation
# --------------------------------------------------------------------------


class Gensym:
    """Fresh-name supply; names carry a hint for readable dumps."""

    def __init__(self, prefix: str = ""):
        self._counter = itertools.count()
        self._prefix = prefix

    def fresh(self, hint: str = "t") -> str:
        return f"{self._prefix}{hint}.{next(self._counter)}"

    def clone(self) -> "Gensym":
        """An independent supply continuing from the same next number.

        Lets one parsed front end feed several back-end runs (different
        optimizer/SSU/allocator options) while each run generates exactly
        the names a from-scratch compile would.
        """
        dup = Gensym(self._prefix)
        dup._counter = copy.copy(self._counter)
        return dup


# --------------------------------------------------------------------------
# Traversal helpers
# --------------------------------------------------------------------------


def term_size(term: Term) -> int:
    """Number of term nodes, counted iteratively (terms nest deeply —
    a recursive count would exceed the interpreter stack on real
    programs).  Reported by the tracing layer as the IR-size counter."""
    count = 0
    stack = [term]
    while stack:
        count += 1
        stack.extend(subterms(stack.pop()))
    return count


def subterms(term: Term) -> list[Term]:
    """Immediate child terms."""
    if isinstance(term, (LetVal, LetPrim, MemRead, MemWrite, LetClone, Special)):
        return [term.body]
    if isinstance(term, LetCont):
        return [term.kbody, term.body]
    if isinstance(term, LetFun):
        return [f.body for f in term.funs] + [term.body]
    if isinstance(term, If):
        return [term.then_term, term.else_term]
    return []


def map_body(term: Term, f) -> Term:
    """Rebuild ``term`` with child terms transformed by ``f``."""
    if isinstance(term, LetVal):
        return LetVal(term.var, term.atom, f(term.body))
    if isinstance(term, LetPrim):
        return LetPrim(term.var, term.op, term.args, f(term.body))
    if isinstance(term, MemRead):
        return MemRead(term.vars, term.space, term.addr, f(term.body))
    if isinstance(term, MemWrite):
        return MemWrite(term.space, term.addr, term.atoms, f(term.body))
    if isinstance(term, LetClone):
        return LetClone(term.var, term.source, f(term.body))
    if isinstance(term, Special):
        return Special(term.var, term.op, term.args, f(term.body))
    if isinstance(term, LetCont):
        return LetCont(term.name, term.params, f(term.kbody), f(term.body), term.recursive)
    if isinstance(term, LetFun):
        funs = [FunDef(g.name, g.params, g.conts, f(g.body)) for g in term.funs]
        return LetFun(funs, f(term.body))
    if isinstance(term, If):
        return If(term.cmp, term.left, term.right, f(term.then_term), f(term.else_term))
    return term


def atoms_used(term: Term) -> list[Atom]:
    """Atoms appearing in the head of ``term`` (not in child terms)."""
    if isinstance(term, LetVal):
        return [term.atom]
    if isinstance(term, LetPrim):
        return list(term.args)
    if isinstance(term, MemRead):
        return [term.addr]
    if isinstance(term, MemWrite):
        return [term.addr, *term.atoms]
    if isinstance(term, LetClone):
        return [Var(term.source)]
    if isinstance(term, Special):
        return list(term.args)
    if isinstance(term, AppCont):
        return list(term.args)
    if isinstance(term, AppFun):
        return list(term.args)
    if isinstance(term, If):
        return [term.left, term.right]
    if isinstance(term, Halt):
        return list(term.atoms)
    return []


def vars_defined(term: Term) -> list[str]:
    """Variables bound by the head of ``term``."""
    if isinstance(term, (LetVal, LetPrim, LetClone)):
        return [term.var]
    if isinstance(term, MemRead):
        return list(term.vars)
    if isinstance(term, Special):
        return [term.var] if term.var is not None else []
    return []


def count_occurrences(term: Term) -> dict[str, int]:
    """Number of uses of each variable (data uses only)."""
    counts: dict[str, int] = {}

    def walk(t: Term) -> None:
        for atom in atoms_used(t):
            if isinstance(atom, Var):
                counts[atom.name] = counts.get(atom.name, 0) + 1
        for child in subterms(t):
            walk(child)

    walk(term)
    return counts


def substitute(term: Term, mapping: dict[str, Atom]) -> Term:
    """Capture-avoiding substitution of atoms for variables.

    All binders in our IR are globally unique (conversion gensyms every
    name), so no renaming is required.
    """
    if not mapping:
        return term

    def sub_atom(atom: Atom) -> Atom:
        if isinstance(atom, Var) and atom.name in mapping:
            return mapping[atom.name]
        return atom

    def walk(t: Term) -> Term:
        if isinstance(t, LetVal):
            return LetVal(t.var, sub_atom(t.atom), walk(t.body))
        if isinstance(t, LetPrim):
            return LetPrim(t.var, t.op, tuple(sub_atom(a) for a in t.args), walk(t.body))
        if isinstance(t, MemRead):
            return MemRead(t.vars, t.space, sub_atom(t.addr), walk(t.body))
        if isinstance(t, MemWrite):
            return MemWrite(
                t.space,
                sub_atom(t.addr),
                tuple(sub_atom(a) for a in t.atoms),
                walk(t.body),
            )
        if isinstance(t, LetClone):
            source = sub_atom(Var(t.source))
            if isinstance(source, Const):
                # Cloning a constant degenerates to naming it.
                return LetVal(t.var, source, walk(t.body))
            assert isinstance(source, Var)
            return LetClone(t.var, source.name, walk(t.body))
        if isinstance(t, Special):
            return Special(t.var, t.op, tuple(sub_atom(a) for a in t.args), walk(t.body))
        if isinstance(t, LetCont):
            return LetCont(t.name, t.params, walk(t.kbody), walk(t.body), t.recursive)
        if isinstance(t, AppCont):
            return AppCont(t.name, tuple(sub_atom(a) for a in t.args))
        if isinstance(t, LetFun):
            funs = [FunDef(g.name, g.params, g.conts, walk(g.body)) for g in t.funs]
            return LetFun(funs, walk(t.body))
        if isinstance(t, AppFun):
            return AppFun(t.name, tuple(sub_atom(a) for a in t.args), t.conts)
        if isinstance(t, If):
            return If(
                t.cmp,
                sub_atom(t.left),
                sub_atom(t.right),
                walk(t.then_term),
                walk(t.else_term),
            )
        if isinstance(t, Halt):
            return Halt(tuple(sub_atom(a) for a in t.atoms))
        raise TypeError(f"unhandled term {type(t).__name__}")

    return walk(term)


def substitute_conts(term: Term, mapping: dict[str, str]) -> Term:
    """Rename free continuation names (used when inlining functions)."""
    if not mapping:
        return term

    def walk(t: Term) -> Term:
        if isinstance(t, LetCont):
            # Our binders are globally unique, so no capture is possible.
            return LetCont(t.name, t.params, walk(t.kbody), walk(t.body), t.recursive)
        if isinstance(t, AppCont):
            return AppCont(mapping.get(t.name, t.name), t.args)
        if isinstance(t, AppFun):
            return AppFun(
                t.name, t.args, tuple(mapping.get(c, c) for c in t.conts)
            )
        if isinstance(t, LetFun):
            funs = [FunDef(g.name, g.params, g.conts, walk(g.body)) for g in t.funs]
            return LetFun(funs, walk(t.body))
        return map_body(t, walk)

    return walk(term)


def rename_binders(term: Term, gensym: Gensym) -> Term:
    """Alpha-rename every binder (used when duplicating code at inlining)."""
    var_map: dict[str, Atom] = {}
    cont_map: dict[str, str] = {}

    def fresh_var(name: str) -> str:
        new = gensym.fresh(name.split(".")[0])
        var_map[name] = Var(new)
        return new

    def fresh_cont(name: str) -> str:
        new = gensym.fresh(name.split(".")[0])
        cont_map[name] = new
        return new

    def sub_atom(atom: Atom) -> Atom:
        if isinstance(atom, Var):
            return var_map.get(atom.name, atom)
        return atom

    def walk(t: Term) -> Term:
        if isinstance(t, LetVal):
            atom = sub_atom(t.atom)
            return LetVal(fresh_var(t.var), atom, walk(t.body))
        if isinstance(t, LetPrim):
            args = tuple(sub_atom(a) for a in t.args)
            return LetPrim(fresh_var(t.var), t.op, args, walk(t.body))
        if isinstance(t, MemRead):
            addr = sub_atom(t.addr)
            new_vars = tuple(fresh_var(v) for v in t.vars)
            return MemRead(new_vars, t.space, addr, walk(t.body))
        if isinstance(t, MemWrite):
            return MemWrite(
                t.space,
                sub_atom(t.addr),
                tuple(sub_atom(a) for a in t.atoms),
                walk(t.body),
            )
        if isinstance(t, LetClone):
            source = sub_atom(Var(t.source))
            assert isinstance(source, Var)
            return LetClone(fresh_var(t.var), source.name, walk(t.body))
        if isinstance(t, Special):
            args = tuple(sub_atom(a) for a in t.args)
            var = fresh_var(t.var) if t.var is not None else None
            return Special(var, t.op, args, walk(t.body))
        if isinstance(t, LetCont):
            name = fresh_cont(t.name)
            params = tuple(fresh_var(p) for p in t.params)
            return LetCont(name, params, walk(t.kbody), walk(t.body), t.recursive)
        if isinstance(t, AppCont):
            return AppCont(
                cont_map.get(t.name, t.name),
                tuple(sub_atom(a) for a in t.args),
            )
        if isinstance(t, LetFun):
            funs = []
            for g in t.funs:
                fresh_cont(g.name)
            for g in t.funs:
                params = tuple(fresh_var(p) for p in g.params)
                conts = tuple(fresh_cont(c) for c in g.conts)
                funs.append(FunDef(cont_map[g.name], params, conts, walk(g.body)))
            return LetFun(funs, walk(t.body))
        if isinstance(t, AppFun):
            return AppFun(
                cont_map.get(t.name, t.name),
                tuple(sub_atom(a) for a in t.args),
                tuple(cont_map.get(c, c) for c in t.conts),
            )
        if isinstance(t, If):
            return If(
                t.cmp,
                sub_atom(t.left),
                sub_atom(t.right),
                walk(t.then_term),
                walk(t.else_term),
            )
        if isinstance(t, Halt):
            return Halt(tuple(sub_atom(a) for a in t.atoms))
        raise TypeError(f"unhandled term {type(t).__name__}")

    return walk(term)


# --------------------------------------------------------------------------
# Pretty printing and validation
# --------------------------------------------------------------------------


def pretty(term: Term, indent: int = 0) -> str:
    """Readable multi-line rendering of a CPS term."""
    pad = "  " * indent
    if isinstance(term, LetVal):
        return f"{pad}let {term.var} = {term.atom}\n" + pretty(term.body, indent)
    if isinstance(term, LetPrim):
        args = ", ".join(str(a) for a in term.args)
        return f"{pad}let {term.var} = {term.op}({args})\n" + pretty(term.body, indent)
    if isinstance(term, MemRead):
        vs = ", ".join(term.vars)
        return f"{pad}let ({vs}) = {term.space}[{term.addr}]\n" + pretty(
            term.body, indent
        )
    if isinstance(term, MemWrite):
        vs = ", ".join(str(a) for a in term.atoms)
        return f"{pad}{term.space}[{term.addr}] <- ({vs})\n" + pretty(term.body, indent)
    if isinstance(term, LetClone):
        return f"{pad}let {term.var} = clone({term.source})\n" + pretty(
            term.body, indent
        )
    if isinstance(term, Special):
        args = ", ".join(str(a) for a in term.args)
        lhs = f"let {term.var} = " if term.var else ""
        return f"{pad}{lhs}{term.op}({args})\n" + pretty(term.body, indent)
    if isinstance(term, LetCont):
        rec = " rec" if term.recursive else ""
        params = ", ".join(term.params)
        header = f"{pad}letcont{rec} {term.name}({params}) =\n"
        return (
            header
            + pretty(term.kbody, indent + 1)
            + f"{pad}in\n"
            + pretty(term.body, indent)
        )
    if isinstance(term, AppCont):
        args = ", ".join(str(a) for a in term.args)
        return f"{pad}{term.name}({args})\n"
    if isinstance(term, LetFun):
        out = []
        for g in term.funs:
            params = ", ".join(g.params)
            conts = ", ".join(g.conts)
            out.append(f"{pad}letfun {g.name}({params}; {conts}) =\n")
            out.append(pretty(g.body, indent + 1))
        out.append(f"{pad}in\n")
        out.append(pretty(term.body, indent))
        return "".join(out)
    if isinstance(term, AppFun):
        args = ", ".join(str(a) for a in term.args)
        conts = ", ".join(term.conts)
        return f"{pad}{term.name}({args}; {conts})\n"
    if isinstance(term, If):
        return (
            f"{pad}if {term.left} {term.cmp} {term.right} then\n"
            + pretty(term.then_term, indent + 1)
            + f"{pad}else\n"
            + pretty(term.else_term, indent + 1)
        )
    if isinstance(term, Halt):
        args = ", ".join(str(a) for a in term.atoms)
        return f"{pad}halt({args})\n"
    return f"{pad}<??? {type(term).__name__}>\n"


def check_unique_binders(term: Term) -> None:
    """Assert the global-uniqueness invariant for binders (SSA property)."""
    seen: set[str] = set()

    def walk(t: Term) -> None:
        for v in vars_defined(t):
            if v in seen:
                raise AssertionError(f"binder '{v}' bound twice")
            seen.add(v)
        if isinstance(t, LetCont):
            for p in t.params:
                if p in seen:
                    raise AssertionError(f"parameter '{p}' bound twice")
                seen.add(p)
        if isinstance(t, LetFun):
            for g in t.funs:
                for p in g.params:
                    if p in seen:
                        raise AssertionError(f"parameter '{p}' bound twice")
                    seen.add(p)
        for child in subterms(t):
            walk(child)

    walk(term)


def term_size(term: Term) -> int:
    """Number of term nodes (a rough instruction-count proxy)."""
    return 1 + sum(term_size(child) for child in subterms(term))
