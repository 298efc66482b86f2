"""Every instruction of the ISA has a producer in the compiler.

An instruction kind costs both simulator tiers an implementation, a
parity obligation and a cycle model, so one that no compiler pass
emits is dead weight.  This test reads it off the source: every
concrete :class:`repro.ixp.isa.Instr` subclass must be constructed
somewhere in instruction selection (``repro/ixp/select.py``) or the
register allocator (``repro/alloc/``).
"""

import ast
import pathlib

REPRO = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"
PRODUCERS = [
    REPRO / "ixp" / "select.py",
    *sorted((REPRO / "alloc").glob("*.py")),
]


def _instr_subclasses() -> set[str]:
    """Names of the classes in ``isa.py`` that derive from ``Instr``."""
    tree = ast.parse((REPRO / "ixp" / "isa.py").read_text())
    derived = {"Instr"}
    for node in tree.body:  # bases are defined before their subclasses
        if isinstance(node, ast.ClassDef) and any(
            isinstance(base, ast.Name) and base.id in derived
            for base in node.bases
        ):
            derived.add(node.name)
    return derived - {"Instr"}


def _constructed(path: pathlib.Path) -> set[str]:
    """Names called as ``isa.Name(...)`` or ``Name(...)`` in ``path``."""
    called = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
            if func.value.id == "isa":
                called.add(func.attr)
        elif isinstance(func, ast.Name):
            called.add(func.id)
    return called


def test_every_instruction_has_a_producer():
    instrs = _instr_subclasses()
    assert instrs, "found no Instr subclasses in isa.py"
    produced = set().union(*(_constructed(path) for path in PRODUCERS))
    assert sorted(instrs - produced) == []
