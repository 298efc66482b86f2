"""Physical code is a function of the source, checked across processes.

Inside one interpreter, iterating a set of identity-hashed objects gives
the same order every time, so no in-process test can see the allocation
model depend on memory layout.  This one compiles in four interpreters
with different ``PYTHONHASHSEED`` values (``tools/determinism_check.py``;
CI runs the same check on AES and Kasumi) and requires byte-identical
physical listings, ILP objectives and solved models.
"""

import json
import os
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


def test_report_pins_the_solved_model():
    """A reordered row changes the model digest even when HiGHS returns
    the same optimum, so the report carries it next to the listing."""
    result = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "determinism_check.py"),
         "--report", "examples/ttl_decrement.nova"],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    (entry,) = json.loads(result.stdout).values()
    assert sorted(entry) == ["listing_sha256", "model_sha256", "objective"]
    assert len(entry["model_sha256"]) == 64
