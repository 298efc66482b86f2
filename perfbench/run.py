"""The repository's benchmark: compile, whole-chip streaming and serving.

Run from the root of a checkout::

    python3 perfbench/run.py --workload chip-aes --seed 1 --seconds 10 --trace 0

Workloads (see ``BENCHMARK.json`` for why each exists):

- ``compile``    cold ``compile_nova`` of AES, Kasumi and NAT;
- ``chip-aes``   AES streamed through the whole chip just above capacity;
- ``serve-edit`` an edit session against a fresh ``novac serve`` daemon.

With ``--trace 0`` the last line of standard output is a JSON object
holding every end-to-end metric of ``BENCHMARK.json``; with
``--trace 1`` it holds every per-layer metric instead (a metric the
workload does not exercise reads 0).  Wall-clock metrics carry the
units ``s``/``ms``/``1/s``; simulated ones ``cycles`` and ``Mb/s``, and
those repeat exactly for a given seed.  The exit status is 1 when any
output check failed, 2 when the run could not start.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOADS = ("compile", "chip-aes", "serve-edit")


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no src/repro under {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    os.chdir(ROOT)

    import common

    common.TMP.mkdir(parents=True, exist_ok=True)
    # Child processes and the library's temporary files stay in the checkout.
    os.environ["TMPDIR"] = str(common.TMP)

    if args.workload == "compile":
        import compile_apps as workload
    elif args.workload == "serve-edit":
        import serve_edit as workload
    else:
        import chip as workload
    outcome = workload.run(
        args.workload, args.seed, args.seconds, bool(args.trace)
    )

    spec = _spec()
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    measured = dict(outcome["metrics"])
    if not args.trace:
        measured.setdefault("peak_rss_mb", common.peak_rss_mb())
    units = {metric["name"]: metric["unit"] for metric in declared}
    unknown = sorted(set(measured) - set(units))
    if unknown:
        print(f"perfbench: undeclared metrics {unknown}", file=sys.stderr)
        return 2
    if not args.trace:
        missing = sorted(set(units) - set(measured))
        if missing:
            print(f"perfbench: unmeasured metrics {missing}", file=sys.stderr)
            return 2
    if outcome.get("samples"):
        print(f"perfbench: samples {json.dumps(outcome['samples'])}", file=sys.stderr)
    failed = int(outcome["failed"])
    result = {
        "correct": failed == 0,
        "attempted": int(outcome["attempted"]),
        "failed": failed,
        "metrics": {
            name: {"value": float(measured.get(name, 0)), "unit": unit}
            for name, unit in units.items()
        },
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
