"""numpy and scipy load only in a process that solves an ILP.

The boundary is one module deep: :mod:`repro.ilp.solve` and
:mod:`repro.ilp.hints` import the libraries at module level, and the
rest of the package reaches them only through
:func:`repro.ilp.options.load_solver_stack`.  One test reads that off
the source.  The others run in a fresh interpreter, since this one has
the solver stack loaded already.  The entry points that never solve
(the client, the daemon module, the cache, the streaming runtime,
``novac --virtual``, an allocated artifact loaded from the cache and
run on the simulator) must leave both libraries out of
``sys.modules``; an allocating compile loads them, and so do the daemon
and an allocating batch, before their pools fork.
"""

import ast
import json
import os
import pathlib
import subprocess
import sys

from repro.cache import CompileCache, cached_compile
from repro.compiler import CompileOptions

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = str(ROOT / "src")
EXAMPLE = "examples/classify.nova"

#: Prints, as the last line of output, which solver modules are loaded.
PROBE = """
import json, sys
print(json.dumps(sorted(
    name for name in ("numpy", "scipy", "scipy.optimize", "scipy.sparse")
    if name in sys.modules
)))
"""


#: The modules that import numpy and scipy, relative to ``src``.
SOLVER_SIDE = {"repro/ilp/solve.py", "repro/ilp/hints.py"}


def _imports(tree: ast.AST) -> list[tuple[str, str | None]]:
    """``(module, scope)`` for every import in ``tree``.

    ``scope`` names the innermost enclosing function or class, or is
    None at module level.  ``from a import b`` yields both ``a`` and
    ``a.b``, since ``b`` may be a submodule.
    """
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                inner = child.name
            elif isinstance(child, ast.Lambda):
                inner = "<lambda>"
            elif isinstance(child, ast.Import):
                found.extend((alias.name, scope) for alias in child.names)
            elif isinstance(child, ast.ImportFrom):
                found.append((child.module, scope))
                found.extend(
                    (f"{child.module}.{alias.name}", scope)
                    for alias in child.names
                )
            visit(child, inner)

    visit(tree, None)
    return found


def test_solver_stack_is_one_module_boundary():
    violations = []
    entries = []
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        rel = path.relative_to(ROOT / "src").as_posix()
        for module, scope in _imports(ast.parse(path.read_text())):
            where = f"{rel}: {module} in {scope or 'module scope'}"
            if module.split(".")[0] in ("numpy", "scipy"):
                if rel not in SOLVER_SIDE or scope is not None:
                    violations.append(where)
            elif module in ("repro.ilp.solve", "repro.ilp.hints"):
                if scope is not None:
                    entries.append((rel, scope))
                elif rel not in SOLVER_SIDE:
                    violations.append(where)
    assert violations == []
    assert entries == [("repro/ilp/options.py", "load_solver_stack")]


def _fresh(code: str) -> list:
    """The last JSON line ``code`` prints in a fresh interpreter."""
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": SRC + (os.pathsep + path if path else "")}
    done = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_importing_the_entry_points_loads_no_solver():
    modules = "repro.cli, repro.client, repro.serve, repro.cache, repro.ixp.net"
    assert _fresh(f"import {modules}\n{PROBE}") == []


def test_virtual_compile_loads_no_solver():
    code = (
        "from repro.cli import main\n"
        f"assert main(['--virtual', {EXAMPLE!r}]) == 0\n{PROBE}"
    )
    assert _fresh(code) == []


def test_cached_artifact_runs_on_the_simulator_without_the_solver(tmp_path):
    source = (ROOT / EXAMPLE).read_text()
    cache = CompileCache(tmp_path)
    comp, state = cached_compile(source, EXAMPLE, CompileOptions(), cache)
    assert state == "miss" and comp.alloc is not None
    code = (
        "from repro.cli import main\n"
        f"argv = ['--cache-dir', {str(tmp_path)!r}, "
        f"'--run', 'ring_base=0,n=0', {EXAMPLE!r}]\n"
        f"assert main(argv) == 0\n{PROBE}"
    )
    assert _fresh(code) == []


def test_allocating_compile_loads_the_solver():
    code = (
        "from repro.compiler import compile_nova\n"
        f"assert compile_nova(open({EXAMPLE!r}).read()).alloc is not None\n"
        f"{PROBE}"
    )
    assert _fresh(code) == ["numpy", "scipy", "scipy.optimize", "scipy.sparse"]


def test_daemon_loads_the_solver_before_its_pool_forks(tmp_path):
    # An in-thread daemon: what its process holds once it listens, and
    # what a pool worker forked from it holds before any compile.
    code = f"""
import asyncio, json, sys, threading, time
from repro.client import try_connect
from repro.serve import CompileServer, ServeConfig

def loaded():
    return sorted(
        name for name in ("numpy", "scipy.optimize", "scipy.sparse")
        if name in sys.modules
    )

imported = loaded()
config = ServeConfig(
    socket={str(tmp_path / "d.sock")!r},
    cache_dir={str(tmp_path / "cache")!r},
    jobs=1,
)
server = CompileServer(config)
thread = threading.Thread(target=lambda: asyncio.run(server.run()))
thread.start()
client = None
while client is None:
    client = try_connect(config.socket, timeout=1.0)
    time.sleep(0.01)
listening = loaded()
worker = server.pool.submit(loaded).result(timeout=60)
with client:
    client.shutdown()
thread.join(timeout=60)
print(json.dumps([imported, listening, worker]))
"""
    stack = ["numpy", "scipy.optimize", "scipy.sparse"]
    assert _fresh(code) == [[], stack, stack]


def test_allocating_batch_loads_the_solver_before_its_pool_forks():
    # The parent of a two-worker batch compiles nothing itself, so it
    # holds the stack only if it loaded it for its workers to share.
    code = f"""
import json, sys
from repro.batch import compile_many
from repro.compiler import CompileOptions

def loaded():
    return sorted(
        name for name in ("numpy", "scipy.optimize", "scipy.sparse")
        if name in sys.modules
    )

source = open({EXAMPLE!r}).read()
units = [("a.nova", source), ("b.nova", source)]
virtual = CompileOptions()
virtual.run_allocator = False
assert len(compile_many(units, jobs=2, options=virtual).ok) == 2
after_virtual = loaded()
assert len(compile_many(units, jobs=2).ok) == 2
print(json.dumps([after_virtual, loaded()]))
"""
    assert _fresh(code) == [[], ["numpy", "scipy.optimize", "scipy.sparse"]]
