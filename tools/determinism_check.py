"""Cross-process determinism check: physical code is a function of the source.

Compiles each named program through the ILP allocator in one fresh
interpreter per ``PYTHONHASHSEED`` value and requires byte-identical
physical listings and ILP objectives.  A set or dict iterated in hash
order while the allocation model is built reorders its rows, and HiGHS
then picks a different optimum among ties.  Inside one process the
order never changes, so only separate interpreters, with different hash
seeds and objects at different addresses, catch it.

    PYTHONPATH=src python tools/determinism_check.py nat examples/classify.nova
    PYTHONPATH=src python tools/determinism_check.py aes kasumi

A program is a paper application name (``aes``, ``kasumi``, ``nat``) or
a ``.nova`` path relative to the repository root.  Prints each
disagreement, or one summary line, and exits 1 if any seed disagrees.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
#: four interpreters: at a tie-prone site, two can still agree by chance.
SEEDS = ("0", "1", "2", "3")


def report(programs: list[str], shift: int) -> dict:
    """Listing digest and ILP objective of each program, in this process.

    Identity hashes follow memory addresses, which the hash seed moves
    only now and then; ``shift`` blocks of every small-object size class
    are allocated before the compiler's own objects, so each seed also
    runs with its objects at different addresses.
    """
    ballast = [bytes(size) for size in range(0, 480, 8) for _ in range(shift)]
    from repro import apps
    from repro.compiler import compile_nova
    from repro.ixp.listing import render_listing
    from repro.trace import Tracer

    out = {}
    for program in programs:
        if program.endswith(".nova"):
            source = (ROOT / program).read_text()
        else:
            source = getattr(apps, f"build_{program}_app")().source
        tracer = Tracer()
        comp = compile_nova(source, program, tracer=tracer)
        solve = tracer.last("solve")
        listing = render_listing(comp.physical)
        out[program] = {
            "listing_sha256": hashlib.sha256(listing.encode()).hexdigest(),
            # repr round-trips a float exactly: equal text, equal bits.
            "objective": repr(solve.counters["objective"]) if solve else None,
        }
    del ballast
    return out


def check(programs: list[str]) -> list[str]:
    """Compile ``programs`` once per hash seed; the disagreements found."""
    path = os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p
    )
    finished = []
    # Two interpreters at a time: a paper-app compile peaks near 350 MB.
    for first in range(0, len(SEEDS), 2):
        batch = [
            (
                seed,
                subprocess.Popen(
                    [sys.executable, __file__, "--report", *programs],
                    env={**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": path},
                    stdout=subprocess.PIPE,
                    text=True,
                ),
            )
            for seed in SEEDS[first:first + 2]
        ]
        # Wait for the whole batch before judging any of it, so a failed
        # compile leaves no interpreter running.
        done = [(seed, proc, proc.communicate()[0]) for seed, proc in batch]
        for seed, proc, _ in done:
            if proc.returncode != 0:
                raise RuntimeError(
                    f"compile under PYTHONHASHSEED={seed} exited "
                    f"{proc.returncode}"
                )
        finished += done
    reports = [json.loads(stdout) for _, _, stdout in finished]
    problems = []
    for seed, other in zip(SEEDS[1:], reports[1:]):
        for program in programs:
            for field, value in reports[0][program].items():
                if other[program][field] != value:
                    problems.append(
                        f"{program}: {field} differs between "
                        f"PYTHONHASHSEED={SEEDS[0]} ({value}) and "
                        f"PYTHONHASHSEED={seed} ({other[program][field]})"
                    )
    return problems


def main(argv: list[str]) -> int:
    if argv[:1] == ["--report"]:  # one interpreter of check()
        shift = int(os.environ.get("PYTHONHASHSEED", "0"))
        print(json.dumps(report(argv[1:], shift)))
        return 0
    if not argv:
        print("usage: determinism_check.py PROGRAM...", file=sys.stderr)
        return 2
    problems = check(argv)
    for problem in problems:
        print(f"determinism_check: {problem}")
    if not problems:
        print(
            f"determinism_check: {len(argv)} programs identical under "
            f"PYTHONHASHSEED={','.join(SEEDS)}"
        )
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
