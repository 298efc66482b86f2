"""The differential oracle: agreement, divergence detection, injection.

The injection tests are the oracle's own acceptance criteria: a
deliberately broken constant folder must make it fail (and the shrinker
must cut the witness down to a handful of lines), while a *benign*
compiler change — losing an optimization — must not.
"""

import pytest

from repro.fuzz.inject import (
    broken_codegen,
    broken_constant_fold,
    disabled_constant_fold,
)
from repro.fuzz.oracle import check_program, default_configs
from repro.fuzz.shrink import shrink

VIRTUAL = ["no-opt", "ssu-off"]

#: One folding site (`0x1234 ^ 0xff` is compile-time constant under the
#: optimizer, runtime work under no-opt) buried in unrelated statements.
FOLD_WITNESS = """\
fun helper (a, b) : word { (a & b) + 1 }
fun main (x0, x1) {
  let j0 = (x0 + 17);
  let j1 = (j0 | x1);
  let j2 = helper(j1, x0);
  let folded = (0x1234 ^ 0x00ff);
  let j3 = (j2 - x1);
  let j4 = (j3 << 3);
  let j5 = (j4 & 0xffff);
  let mixed = (folded + x0);
  let j6 = (j5 ^ j2);
  let j7 = (j6 + j1);
  mixed ^ j7
}
"""

VECTORS = [{"x0": 5, "x1": 3}, {"x0": 0xDEADBEEF, "x1": 0x1234}]


def test_agreeing_configs_report_ok():
    report = check_program(
        FOLD_WITNESS, VECTORS, configs=default_configs(VIRTUAL)
    )
    assert report.invalid is None
    assert report.ok, [str(d) for d in report.divergences]
    assert set(report.configs_run) == {"ref", "no-opt", "ssu-off"}


def test_runaway_program_is_invalid_not_divergent():
    source = "fun main (x) { let i = 0; while (i < 2) { i := i * 1; }; i }"
    report = check_program(
        source,
        [{"x": 1}],
        configs=default_configs(["no-opt"]),
        max_cycles=5_000,
    )
    assert report.invalid is not None
    assert not report.divergences


def test_unknown_config_name_rejected():
    with pytest.raises(ValueError, match="unknown fuzz config"):
        default_configs(["no-such-config"])


def test_ref_always_included():
    configs = default_configs(["alloc-bnb"])
    assert [c.name for c in configs] == ["ref", "alloc-bnb"]


def test_injected_miscompile_fails_the_oracle():
    with broken_constant_fold(op="xor", delta=1):
        report = check_program(
            FOLD_WITNESS, VECTORS, configs=default_configs(["no-opt"])
        )
    assert not report.ok
    kinds = {d.kind for d in report.divergences}
    assert "results" in kinds


def test_benign_injection_passes_the_oracle():
    """Disabling folding entirely loses an optimization, not meaning."""
    with disabled_constant_fold():
        report = check_program(
            FOLD_WITNESS, VECTORS, configs=default_configs(["no-opt"])
        )
    assert report.ok, [str(d) for d in report.divergences]


def test_sim_compiled_config_agrees_with_reference():
    """The codegen tier rides the matrix; a healthy simulator agrees."""
    report = check_program(
        FOLD_WITNESS, VECTORS, configs=default_configs(["sim-compiled"])
    )
    assert report.invalid is None
    assert report.ok, [str(d) for d in report.divergences]
    assert set(report.configs_run) == {"ref", "sim-compiled"}


def test_miscompiled_simulator_caught_by_sim_compiled_config():
    """A codegen-tier bug diverges sim-compiled from the interpreted ref.

    FOLD_WITNESS carries runtime xors (``j5 ^ j2``, ``mixed ^ j7``), so
    the patched ALU template changes what the *generated* code computes
    while the reference, run on the interpreter, stays correct.
    """
    with broken_codegen(op="xor", delta=1):
        report = check_program(
            FOLD_WITNESS, VECTORS, configs=default_configs(["sim-compiled"])
        )
    assert not report.ok
    kinds = {d.kind for d in report.divergences}
    assert "results" in kinds


def test_miscompiled_simulator_invisible_to_interp_only_configs():
    """Control: the same injection passes a matrix that never runs the
    compiled tier — the bug lives in the simulator backend, not in the
    compiled program, so interp-vs-interp comparisons can't see it."""
    with broken_codegen(op="xor", delta=1):
        report = check_program(
            FOLD_WITNESS, VECTORS, configs=default_configs(["no-opt"])
        )
    assert report.ok, [str(d) for d in report.divergences]


def test_shrinker_minimizes_injected_codegen_bug():
    """ddmin cuts the codegen-bug witness down to a runtime-xor core."""
    configs = default_configs(["sim-compiled"])

    def diverges(source):
        report = check_program(source, VECTORS, configs=configs)
        return report.invalid is None and bool(report.divergences)

    with broken_codegen(op="xor", delta=1):
        assert diverges(FOLD_WITNESS)
        minimized, stats = shrink(FOLD_WITNESS, diverges)
    lines = [l for l in minimized.splitlines() if l.strip()]
    assert len(lines) <= 15, minimized
    assert stats.lines_after < stats.lines_before
    # A runtime xor must survive minimization - it IS the bug.
    assert "^" in minimized


def test_shrinker_minimizes_injected_miscompile():
    """Acceptance: the witness shrinks to a reproducer of <= 15 lines."""
    configs = default_configs(["no-opt"])

    def diverges(source):
        report = check_program(source, VECTORS, configs=configs)
        return report.invalid is None and bool(report.divergences)

    with broken_constant_fold(op="xor", delta=1):
        assert diverges(FOLD_WITNESS)
        minimized, stats = shrink(FOLD_WITNESS, diverges)
    lines = [l for l in minimized.splitlines() if l.strip()]
    assert len(lines) <= 15, minimized
    assert stats.lines_after < stats.lines_before
    # The folding site must survive minimization - it IS the bug.
    assert "^" in minimized
