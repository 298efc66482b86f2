"""Command-line interface tests (``novac``)."""

import pytest

from repro.cli import main
from repro.compiler import compile_nova

from tests.helpers import SPILLED_INPUTS_SOURCE, SPILLED_PARAMS, compile_full

SOURCE = """
layout h = { a : 8, b : 24 };
fun main (x) {
  let u = unpack[h](x);
  u.a + u.b
}
"""


@pytest.fixture
def program(tmp_path):
    path = tmp_path / "prog.nova"
    path.write_text(SOURCE)
    return str(path)


def test_compile_and_print(program, capsys):
    assert main([program]) == 0
    out = capsys.readouterr().out
    assert "entry:" in out
    assert "halt" in out
    # Physical registers appear (allocation ran).
    assert any(bank in out for bank in ("A0", "B0", "A1", "B1"))


def test_virtual_mode(program, capsys):
    assert main(["--virtual", program]) == 0
    out = capsys.readouterr().out
    assert "entry:" in out
    # Temps, not physical registers.
    assert "p." in out or "f." in out


def test_cps_dump(program, capsys):
    assert main(["--cps", program]) == 0
    out = capsys.readouterr().out
    assert "halt" in out


def test_stats(program, tmp_path, capsys):
    """--stats prints the spans this run recorded: a fresh compile times
    every phase, a cache hit times only its lookup.  Its ILP line has no
    root time: tracing runs no root-relaxation LP, and the CLI cannot
    ask for one."""
    cache_dir = str(tmp_path / "cache")
    assert main(["--stats", "--cache-dir", cache_dir, program]) == 0
    out = capsys.readouterr().out
    assert "layouts: 1" in out
    assert "ILP:" in out
    assert "spills=0" in out
    assert main(["--stats", "--cache-dir", cache_dir, program]) == 0
    hit = capsys.readouterr().out

    def phases(text):
        return [line.split()[0] for line in text.splitlines()
                if line.endswith(" ms")]

    assert phases(out) == [
        "cache.lookup", "parse", "typecheck", "cps", "deproc", "optimize",
        "ssu", "select", "allocate", "cache.store",
    ]
    assert phases(hit) == ["cache.lookup"]
    ilp = next(line for line in out.splitlines() if line.startswith("ILP:"))
    row = dict(item.split("=") for item in ilp[len("ILP:"):].split())
    assert "root_time_s" not in row
    assert float(row["integer_time_s"]) > 0


def test_one_shot_flag(program, tmp_path, capsys):
    """--one-shot solves the paper's full model; the default the
    smaller spill-free one.  Both allocate without a spill."""
    import json

    def model_variables(*flags):
        trace_path = tmp_path / "trace.jsonl"
        assert main([*flags, "--trace-json", str(trace_path), program]) == 0
        records = [json.loads(line) for line in trace_path.read_text().splitlines()]
        (model,) = [r for r in records if r["name"] == "model"]
        (alloc,) = [r for r in records if r["name"] == "allocate"]
        assert alloc["counters"]["spills"] == 0
        return model["counters"]["variables"]

    assert model_variables() < model_variables("--one-shot")


def test_trace_table(program, capsys):
    assert main(["--trace", program]) == 0
    out = capsys.readouterr().out
    # The span table follows the normal assembly listing.
    assert "entry:" in out
    for phase in ("parse", "typecheck", "cps", "ssu", "select", "allocate"):
        assert phase in out
    assert "variables=" in out  # model span counters rendered inline


def test_trace_json(program, tmp_path, capsys):
    import json

    trace_path = tmp_path / "trace.jsonl"
    assert main(["--trace-json", str(trace_path), program]) == 0
    lines = trace_path.read_text().splitlines()
    records = [json.loads(line) for line in lines]
    names = [r["name"] for r in records]
    for phase in (
        "parse",
        "typecheck",
        "cps",
        "deproc",
        "optimize",
        "ssu",
        "select",
        "allocate",
        "model",
        "solve",
    ):
        assert phase in names, f"missing span {phase}"
    solve = next(r for r in records if r["name"] == "solve")["counters"]
    assert solve["rows"] > 0
    assert solve["nodes"] >= 0
    # Tracing does not change the work: the traced solve takes the path
    # of an untraced compile.  Here that is the LP relaxation's answer
    # (the program's coloring left the ILP); test_trace.py checks a
    # program whose coloring stays in the ILP.
    untraced = compile_nova(SOURCE).alloc
    assert untraced.root_seconds == untraced.integer_seconds > 0
    assert solve["root_relaxation_seconds"] == solve["integer_seconds"] > 0
    assert all(r["seconds"] >= 0 for r in records)


def test_missing_file(capsys):
    assert main(["/nonexistent.nova"]) == 1
    assert "novac:" in capsys.readouterr().err


def test_diagnostics_reported(tmp_path, capsys):
    path = tmp_path / "bad.nova"
    path.write_text("fun main (x) { y }")
    assert main([str(path)]) == 1
    err = capsys.readouterr().err
    assert "unbound" in err
    assert "bad.nova" in err  # source location carried through


def test_parse_error_position(tmp_path, capsys):
    path = tmp_path / "bad.nova"
    path.write_text("fun main (x) {\n  let = 3;\n}")
    assert main([str(path)]) == 1
    err = capsys.readouterr().err
    assert "2:" in err  # line number of the bad let


def test_run_flag(program, capsys):
    assert main(["--run", "x=0x45001234", program]) == 0
    out = capsys.readouterr().out
    # a=0x45, b=0x001234 -> sum 0x1279
    assert "thread 0: (0x1279)" in out
    assert "cycles" in out


def test_run_flag_virtual(program, capsys):
    assert main(["--virtual", "--run", "x=0", program]) == 0
    assert "thread 0: (0x0)" in capsys.readouterr().out


def test_run_flag_spilled_inputs(tmp_path, capsys):
    """Inputs the allocator left in scratch slots are written there."""
    comp = compile_full(SPILLED_INPUTS_SOURCE)
    kinds = [kind for kind, _ in comp.alloc.decoded.input_locations.values()]
    assert "slot" in kinds
    path = tmp_path / "spilled.nova"
    path.write_text(SPILLED_INPUTS_SOURCE)
    values = ",".join(f"{name}={i}" for i, name in enumerate(SPILLED_PARAMS))
    assert main(["--run", values, str(path)]) == 0
    assert "thread 0: (0x276)" in capsys.readouterr().out


def test_run_flag_spilled_inputs_one_shot(tmp_path, capsys):
    """The one-shot model leaves the same inputs in scratch slots."""
    path = tmp_path / "spilled.nova"
    path.write_text(SPILLED_INPUTS_SOURCE)
    values = ",".join(f"{name}={i}" for i, name in enumerate(SPILLED_PARAMS))
    assert main(["--one-shot", "--run", values, str(path)]) == 0
    assert "thread 0: (0x276)" in capsys.readouterr().out


def test_run_flag_bad_inputs(program, capsys):
    assert main(["--run", "nope=1", program]) == 1
    assert "bad --run inputs" in capsys.readouterr().err


def test_trace_json_flushes_on_failed_compile(tmp_path, capsys):
    """A NovaError mid-pipeline must not lose the spans already recorded."""
    import json

    path = tmp_path / "bad.nova"
    path.write_text("fun main (x) { y }")  # typechecker rejects
    trace_path = tmp_path / "trace.jsonl"
    assert main(["--trace-json", str(trace_path), str(path)]) == 1
    assert "unbound" in capsys.readouterr().err
    records = [json.loads(line) for line in trace_path.read_text().splitlines()]
    names = [r["name"] for r in records]
    assert "parse" in names  # the phases before the failure survived
    assert "typecheck" in names
    assert "allocate" not in names  # ...and nothing after it was invented


def test_trace_table_on_failed_compile(tmp_path, capsys):
    path = tmp_path / "bad.nova"
    path.write_text("fun main (x) { y }")
    assert main(["--trace", str(path)]) == 1
    captured = capsys.readouterr()
    assert "unbound" in captured.err
    assert "parse" in captured.out  # span table still printed


SECOND_SOURCE = """
fun main (x, y) {
  x * 3 + y
}
"""


@pytest.fixture
def programs(tmp_path):
    first = tmp_path / "first.nova"
    first.write_text(SOURCE)
    second = tmp_path / "second.nova"
    second.write_text(SECOND_SOURCE)
    return [str(first), str(second)]


def test_batch_mode(programs, capsys):
    assert main(["--jobs", "2"] + programs) == 0
    out = capsys.readouterr().out
    assert "first.nova: ok" in out
    assert "second.nova: ok" in out
    assert "batch: 2/2 ok" in out


def test_batch_mode_reports_failures(programs, tmp_path, capsys):
    bad = tmp_path / "bad.nova"
    bad.write_text("fun main (x) { y }")
    assert main(programs + [str(bad)]) == 1
    out = capsys.readouterr().out
    assert "bad.nova: error:" in out
    assert "unbound" in out
    assert "batch: 2/3 ok" in out


def test_batch_cache_cold_then_warm(programs, tmp_path, capsys):
    cache_dir = str(tmp_path / "cache")
    assert main(["--cache-dir", cache_dir] + programs) == 0
    cold = capsys.readouterr().out
    assert "cache miss" in cold and "cache 0 hits / 2 misses" in cold
    assert main(["--cache-dir", cache_dir] + programs) == 0
    warm = capsys.readouterr().out
    assert "cache hit" in warm and "cache 2 hits / 0 misses" in warm


def test_single_file_cache_dir(program, tmp_path, capsys):
    cache_dir = str(tmp_path / "cache")
    assert main(["--cache-dir", cache_dir, program]) == 0
    first = capsys.readouterr().out
    assert main(["--cache-dir", cache_dir, program]) == 0
    second = capsys.readouterr().out
    assert first == second  # the cached artifact renders identically
    assert "A0" in second or "B0" in second


def test_batch_rejects_single_source_modes(programs, capsys):
    assert main(["--run", "x=1"] + programs) == 2
    assert "--run requires a single source" in capsys.readouterr().err


def test_batch_trace_json(programs, tmp_path):
    import json

    trace_path = tmp_path / "trace.jsonl"
    assert main(["--trace-json", str(trace_path), "--jobs", "2"] + programs) == 0
    records = [json.loads(line) for line in trace_path.read_text().splitlines()]
    names = [r["name"] for r in records]
    assert "batch" in names
    assert names.count("unit") == 2
    assert names.count("parse") == 2  # worker spans adopted into the trace


# -- novac pump ---------------------------------------------------------------

PUMP = ["pump", "--app", "nat", "--virtual", "--arrival", "backlog",
        "--rx", "20", "--seed", "7"]


def test_pump_one_chip(capsys):
    assert main(PUMP + ["--packets", "16"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("pump nat (virtual, compiled)\n")
    for line in ("  engines        6", "  generated      16",
                 "  completed      16", "  mismatches     0"):
        assert line + "\n" in out
    assert "  latency histogram (cycles):\n" in out
    assert "    <= " in out


def test_pump_interpreter_tier(capsys):
    assert main(PUMP + ["--packets", "8", "--sim-mode", "interp"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("pump nat (virtual, interp)\n")
    assert "  mismatches     0\n" in out


def test_pump_trace_json(tmp_path, capsys):
    import json

    trace_path = tmp_path / "pump.jsonl"
    assert main(PUMP + ["--packets", "8", "--trace-json", str(trace_path)]) == 0
    names = [json.loads(line)["name"]
             for line in trace_path.read_text().splitlines()]
    assert "parse" in names and "net.run" in names


def test_pump_trace_json_flushes_on_failed_run(tmp_path, capsys):
    """A failed pump still writes the spans it recorded (the compile)."""
    import json

    trace_path = tmp_path / "pump.jsonl"
    argv = ["pump", "--app", "kasumi", "--virtual", "--packets", "4",
            "--payload-bytes", "15", "--trace-json", str(trace_path)]
    assert main(argv) == 1
    assert "8-byte blocks" in capsys.readouterr().err
    names = [json.loads(line)["name"]
             for line in trace_path.read_text().splitlines()]
    assert "parse" in names and "select" in names
    assert "net.run" not in names


def test_pump_unwritable_trace_json(tmp_path, capsys):
    missing = tmp_path / "missing" / "pump.jsonl"
    assert main(PUMP + ["--packets", "4", "--trace-json", str(missing)]) == 1
    captured = capsys.readouterr()
    assert "  completed      4\n" in captured.out  # the run itself finished
    assert captured.err.startswith("novac pump: [Errno 2]")


def test_fuzz_unwritable_trace_json(tmp_path, capsys):
    missing = tmp_path / "missing" / "fuzz.jsonl"
    argv = ["fuzz", "--count", "1", "--configs", "ref", "--no-shrink",
            "--artifact-dir", str(tmp_path / "art"),
            "--trace-json", str(missing)]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert "fuzz: 1/1 ok" in captured.out
    assert captured.err.startswith("novac fuzz: [Errno 2]")
