"""Physical code is a function of the source, checked across processes.

Inside one interpreter, iterating a set of identity-hashed objects gives
the same order every time, so no in-process test can see the allocation
model depend on memory layout.  This one compiles in four interpreters
with different ``PYTHONHASHSEED`` values (``tools/determinism_check.py``;
CI runs the same check on AES and Kasumi) and requires byte-identical
physical listings and ILP objectives.
"""

import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_physical_code_is_independent_of_the_hash_seed():
    examples = sorted(
        str(path.relative_to(ROOT)) for path in ROOT.glob("examples/*.nova")
    )
    assert len(examples) >= 3
    result = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "determinism_check.py"),
         "nat", *examples],
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    assert f"{len(examples) + 1} programs identical" in result.stdout
