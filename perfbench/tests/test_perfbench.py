"""Tests of the benchmark itself (run with ``python3 -m pytest perfbench/tests``).

They run every workload at smoke size through the command line, check
the printed metrics against BENCHMARK.json, and check that the
comparison flags a real slowdown but not a rerun of unchanged code.
The AES workload cannot be shrunk (each attack simulates a fixed
80 ms), so the whole file takes a few minutes.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import pytest

from perfbench import compare, run, tracing

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run_cli(workload: str, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed",
         str(run.DEFAULT_SEED), "--seconds", "1", "--trace", str(trace), "--size", "smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    return json.loads(done.stdout.splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_prints_every_metric_with_its_unit(workload, trace):
    result = _run_cli(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in spec]
    for metric in spec:
        printed = result["metrics"][metric["name"]]
        assert printed["unit"] == metric["unit"]
        assert math.isfinite(printed["value"])
    if trace:
        values = {k: v["value"] for k, v in result["metrics"].items()}
        layers = sum(values[f"{layer}.self_s"] for layer in tracing.LAYERS)
        wall = values["trace.wall_s"]
        assert layers + values["other.self_s"] == pytest.approx(wall, rel=1e-9)
        assert 0.0 <= values["other.self_s"] <= 0.25 * wall


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in (ROOT / "perfbench").glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_text(path.read_text())
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


def test_failed_op_is_reported_in_the_result_and_exits_zero(monkeypatch, capsys):
    """A failed check makes ``correct`` false; the run still exits 0."""
    from perfbench.workloads import CovertChannel

    def failing_check(self, results):
        results[0]["failures"].append("injected check failure")

    monkeypatch.setattr(CovertChannel, "check", failing_check)
    code = run.main(["--workload", "covert_channel", "--seconds", "0", "--size", "smoke"])
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert code == 0
    assert result["correct"] is False and result["failed"] == 1


def test_traced_run_fails_when_the_wrappers_change_behaviour(monkeypatch):
    """A wrapper that moves the simulation must fail the identity check."""
    from repro.dram.rank import Channel

    plain_instrument = tracing.instrument

    @contextmanager
    def meddling_instrument(tracer):
        original = Channel.block
        Channel.block = lambda self, start, duration: original(self, start, 2 * duration)
        try:
            with plain_instrument(tracer):
                yield tracer
        finally:
            Channel.block = original

    monkeypatch.setattr(tracing, "instrument", meddling_instrument)
    results, *_ = run.traced_run("covert_channel", run.DEFAULT_SEED, "smoke")
    assert any("changed the simulated counts" in f for r in results for f in r["failures"])


@contextmanager
def busy_channel_block(seconds_per_call: float):
    """Benchmark-side busy work on every ``Channel.block`` call."""
    from repro.dram.rank import Channel

    original = Channel.block

    def slow_block(self, *args, **kwargs):
        end = time.perf_counter() + seconds_per_call
        while time.perf_counter() < end:
            pass
        return original(self, *args, **kwargs)

    Channel.block = slow_block
    try:
        yield
    finally:
        Channel.block = original


def _aes_metrics() -> dict:
    _, metrics, *_ = run.timed_run("aes_side_channel", run.DEFAULT_SEED, 0, "smoke", 1)
    return {name: m["value"] for name, m in metrics.items()}


def _verdict(base: list, candidate: list) -> dict:
    rows = compare.compare(base, candidate, SPEC["end_to_end"])
    return {row["name"]: row["regressed"] for row in rows}


def test_comparison_flags_injected_slowdown_and_not_a_rerun():
    """An AES round makes ~1.7e5 ``Channel.block`` calls, so 80 us of busy
    work per call more than doubles a round of about eight seconds.  Two
    runs a side keep host noise below the bound for the unchanged pair."""
    base = [_aes_metrics(), _aes_metrics()]
    with busy_channel_block(80e-6):
        slowed = [_aes_metrics()]
    rerun = [_aes_metrics(), _aes_metrics()]
    assert _verdict(base, slowed)["wall_s"]
    assert not _verdict(base, rerun)["wall_s"]
