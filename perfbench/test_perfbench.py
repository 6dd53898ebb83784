"""Tests of the benchmark itself, each workload shrunk to a tiny size.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import hostspeed  # noqa: E402
import make_reference  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
TINY_N = (5, 6)


@pytest.fixture(scope="module")
def tiny():
    """Shrink every workload to n in TINY_N and build references for it."""
    with pytest.MonkeyPatch.context() as mp:
        for name in ("VERIFY_LARGE_N", "SUITE_MID_N", "CLI_SWEEP_N"):
            mp.setattr(workloads, name, TINY_N)
        mp.setattr(workloads, "CLI_VERIFY_PER_KIND_PER_N", 2)
        mp.setattr(workloads, "SETUP_OPS", {
            "verify-large": ("verify", 5, "consecutive"),
            "suite-mid": ("suite", 5, "consecutive"),
            "cli-sweep": workloads.cli_op("verify", 5, ()),
        })
        mp.setattr(run, "SETUP_SAMPLES", 1)
        yield make_reference.build_reference()


def _run(name: str, trace: bool, reference: dict) -> tuple[dict, list[str]]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        result = run.run(name, seed=7, seconds=0, trace=trace, reference=reference)
    lines = out.getvalue().splitlines()
    assert json.loads(lines[-1]) == result
    return result, lines


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_is_printed_with_its_unit(tiny, name, trace):
    result, lines = _run(name, trace, tiny)
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        printed = result["metrics"][metric["name"]]
        assert printed["unit"] == metric["unit"]
        assert any(
            line.startswith(metric["name"] + " ") and line.endswith(" " + metric["unit"])
            for line in lines
        ), metric["name"]
    assert "fail_share 0 share" in "\n".join(lines)
    assert any(line.startswith("# provenance ") for line in lines)


def test_workload_names_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOAD_NAMES)


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_corrupted_reference_digest_counts_as_failure(tiny, name):
    reference = copy.deepcopy(tiny)
    digests = reference[name]["digests"]
    for key in digests:
        digests[key] = "0" * 64
    result, lines = _run(name, False, reference)
    assert not result["correct"]
    assert result["failed"] == result["attempted"]
    assert any("digest differs from reference" in line for line in lines)


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_traced_self_times_add_up_to_traced_wall(tiny, name):
    result, _ = _run(name, True, tiny)
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    self_sum = sum(metrics[f"self.{m}_s"] for m in tracing.SELF_MODULES)
    assert self_sum == pytest.approx(metrics["trace.wall_s"], rel=1e-9)


def test_wrappers_are_removed_after_a_traced_run(tiny):
    import ngoneq
    from ngoneq import cli, exactfield, verifier

    before = (ngoneq.verify_equation, verifier.verify_equation, cli.main, exactfield.DenseMatrix.mul)
    _run("suite-mid", True, tiny)
    after = (ngoneq.verify_equation, verifier.verify_equation, cli.main, exactfield.DenseMatrix.mul)
    assert before == after


def test_missing_target_reports_zero_calls(monkeypatch):
    monkeypatch.setattr(tracing, "TARGETS", tracing.TARGETS + (
        ("ngoneq.verifier", "function_that_was_deleted", "verifier.gone", None),
        ("ngoneq.no_such_module", "anything", "gone.module", None),
    ))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        workloads.call(("verify", 5, "consecutive"))
    finally:
        tracer.uninstall()
    assert tracer.summary(1)["simplicial.moves"] == 5  # pentagon: 2 + 3 moves
    assert not any(span[0] in ("verifier.gone", "gone.module") for span in tracer.spans)


def test_committed_reference_covers_every_input_a_pass_can_draw():
    reference = workloads.load_reference()
    for name in run.WORKLOAD_NAMES:
        workload = workloads.build(name, reference)
        expected = {workloads.op_key(op) for op in make_reference.pool_ops(name, workload.pools)}
        assert expected == set(workload.references)
        for pass_index in range(3):
            for op in workload.pass_ops(seed=11, pass_index=pass_index):
                assert workloads.op_key(op) in workload.references


def test_rejected_command_line_is_a_failed_call_not_a_crash():
    # argparse rejects "--zeta -1,..." (the value starts with "-"); the sweep
    # uses "--zeta=-1,..." instead.
    op = ("cli", ("verify", "--n", "5", "--zeta", "-1,2,3,4,5", "--format", "json"))
    assert workloads.check(op, workloads.call(op), {}) == "exit code 2"


def test_each_duration_is_scaled_by_the_kernels_around_it(monkeypatch):
    kernels = iter([0.5, 1.0, 2.0])
    monkeypatch.setattr(hostspeed, "kernel_seconds", lambda: next(kernels))
    monkeypatch.setattr(hostspeed, "REFERENCE_KERNEL_S", 1.0)
    clock = hostspeed.Clock(every_s=1.0)
    first = clock.record(0.6)  # the kernel has run once, at the start
    second = clock.record(0.6)  # 1.2 s since then: the kernel runs again
    third = clock.record(3.0)
    clock.finish()  # nothing recorded since the last kernel: no extra run
    assert clock.kernels == [0.5, 1.0, 2.0]
    assert clock.scale(first) == clock.scale(second) == pytest.approx(1 / 0.75)
    assert clock.scale(third) == pytest.approx(1 / 1.5)
