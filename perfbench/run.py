"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload aes_side_channel --seed 1 --seconds 20 --trace 0

``--trace 0`` times whole rounds of the workload with tracing off until
``--seconds`` have passed and reports the end-to-end metrics of
``BENCHMARK.json``.  ``--trace 1`` runs one round untraced and then the
same round again under the span wrappers of ``tracing.py``, fails if
any simulated count differs between the two, and reports the per-layer
metrics.  Everything runs in this one process on one thread, except the
set-up probes: fresh interpreters that time imports and set-up.

The last line of standard output is the result object
``{"correct", "attempted", "failed", "metrics"}``; the line before it
is a report with the per-op detail, the paper-accuracy figures and the
provenance of the run.  Whenever the result line is printed the exit
code is 0, also when an op failed (``"correct": false``); it is
non-zero only when no result could be produced.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
DEFAULT_SEED = 1
HELD_OUT_SEED = 4099
SETUP_REPS = 9

if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench.workloads import WORKLOADS  # noqa: E402


# ----------------------------------------------------------------------
# Simulated counts, read from every controller an op builds
# ----------------------------------------------------------------------
@contextmanager
def capture_controllers() -> Iterator[List[Any]]:
    """Collect every ``MemoryController`` constructed inside the block."""
    from repro.controller.controller import MemoryController

    built: List[Any] = []
    original = MemoryController.__init__

    def init(self, *args, **kwargs):
        original(self, *args, **kwargs)
        built.append(self)

    MemoryController.__init__ = init
    try:
        yield built
    finally:
        MemoryController.__init__ = original


def sim_counts(controllers: List[Any]) -> Dict[str, Any]:
    """Simulated statistics of one op; deterministic for a given input."""
    from repro.dram.commands import RfmProvenance

    counts: Dict[str, Any] = dict.fromkeys(
        ("requests", "row_hits", "reads", "writes", "acts", "pres", "refs",
         "rfms", "rfm_abo", "rfm_tb", "alerts", "sim_ns", "events"), 0
    )
    buckets: List[int] = []
    engines = {}
    for controller in controllers:
        stats = controller.stats
        counts["requests"] += stats.requests_served
        counts["row_hits"] += stats.row_hits
        counts["reads"] += stats.reads
        counts["writes"] += stats.writes
        for bank in controller.channel:
            counts["acts"] += bank.stats.activations
            counts["pres"] += bank.stats.precharges
        counts["refs"] += controller.refresh.refresh_count
        counts["rfms"] += len(stats.rfm_records)
        counts["rfm_abo"] += stats.rfm_counts.get(RfmProvenance.ABO, 0)
        counts["rfm_tb"] += stats.rfm_counts.get(RfmProvenance.TB, 0)
        counts["alerts"] += controller.abo.alert_count
        engines[id(controller.engine)] = controller.engine
        latency = stats.read_latency_bucket_counts
        buckets = [a + b for a, b in zip(buckets, latency)] if buckets else list(latency)
    for engine in engines.values():
        counts["sim_ns"] += engine.now
        counts["events"] += engine.events_fired
    counts["read_buckets"] = buckets
    counts["dram_cmds"] = (
        counts["acts"] + counts["pres"] + counts["reads"] + counts["writes"]
        + counts["refs"] + counts["rfms"]
    )
    return counts


def config_hashes(controllers: List[Any]) -> List[str]:
    systems = {id(c.system): c.system for c in controllers}
    return sorted({system.content_hash for system in systems.values()})


# ----------------------------------------------------------------------
# Rounds
# ----------------------------------------------------------------------
def run_round(
    workload: Any, round_index: int, built: List[Any], hashes: set, tracer: Any = None
) -> List[Dict[str, Any]]:
    """Run one round's ops; returns one result dict per op."""
    results = []
    for op in workload.ops(round_index):
        built.clear()
        result: Dict[str, Any] = {"slot": op.slot, "failures": [], "outcome": None, "counts": None}
        if tracer is not None:
            tracer.op += 1
        gc.collect()  # the previous op's garbage is not this op's cost
        start = time.perf_counter()
        try:
            result["outcome"] = op.run(op.build())
        except Exception:  # an op that raises is a failed op; keep going
            result["failures"].append(traceback.format_exc(limit=3))
        result["wall_s"] = time.perf_counter() - start
        result["counts"] = sim_counts(built)
        hashes.update(config_hashes(built))
        built.clear()
        results.append(result)
    if all(r["outcome"] is not None for r in results):
        workload.check(results)
    return results


def setup_probe(name: str, seed: int, size: str) -> float:
    """Seconds from a cold interpreter to the first round's built ops."""
    start = time.perf_counter()
    workload = WORKLOADS[name](seed, size)
    for op in workload.ops(0):
        op.build()
    return time.perf_counter() - start


def probe_setup_in_subprocess(name: str, seed: int, size: str) -> float:
    command = [
        sys.executable, str(Path(__file__).resolve()), "--workload", name,
        "--seed", str(seed), "--size", size, "--setup-probe",
    ]
    done = subprocess.run(
        command, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True
    )
    return float(done.stdout.strip().splitlines()[-1])


def provenance(seed: int, hashes: set) -> Dict[str, Any]:
    """Where and from what the numbers came."""
    rev: Optional[str] = None
    dirty: Optional[bool] = None
    try:
        top = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=30, check=True,
        ).stdout.split()
        if top and Path(top[0]).resolve() == ROOT:
            rev = top[1]
            dirty = bool(subprocess.run(
                ["git", "-C", str(ROOT), "status", "--porcelain", "--untracked-files=no"],
                capture_output=True, text=True, timeout=30, check=True,
            ).stdout.strip())
    except (OSError, subprocess.SubprocessError):
        pass  # not a git checkout, or no git: the rev stays unknown
    return {
        "git_rev": rev,
        "git_dirty": dirty,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "seed": seed,
        "config_hashes": sorted(hashes),
    }


def _failed(results: List[Dict[str, Any]]) -> int:
    return sum(1 for r in results if r["failures"])


def _paper_err_pct(workload: Any, results: List[Dict[str, Any]]) -> float:
    """The workload's error against the paper; -1 when an op raised."""
    if any(r["outcome"] is None for r in results):
        return -1.0
    return workload.paper_err_pct(results)


def _metric(value: float, unit: str) -> Dict[str, Any]:
    return {"value": value, "unit": unit}


def timed_run(name: str, seed: int, seconds: float, size: str, setup_reps: int) -> tuple:
    """Untraced rounds for ``seconds``: the end-to-end metrics."""
    setup_samples = [probe_setup_in_subprocess(name, seed, size) for _ in range(setup_reps)]
    workload = WORKLOADS[name](seed, size)
    hashes: set = set()
    results: List[Dict[str, Any]] = []
    with capture_controllers() as built:
        start = time.perf_counter()
        round_index = 0
        while round_index == 0 or time.perf_counter() - start < seconds:
            results.extend(run_round(workload, round_index, built, hashes))
            round_index += 1
    # A round's wall time, estimated slot by slot from the median op.
    slot_walls: Dict[str, List[float]] = {}
    for result in results:
        slot_walls.setdefault(result["slot"], []).append(result["wall_s"])
    wall = sum(statistics.median(w) * len(w) / round_index for w in slot_walls.values())
    cmds_per_round = sum(r["counts"]["dram_cmds"] for r in results) / round_index
    metrics = {
        "wall_s": _metric(wall, "s"),
        "setup_s": _metric(statistics.median(setup_samples), "s"),
        "dram_cmds_per_s": _metric(cmds_per_round / wall, "1/s"),
        "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    report = {
        "rounds": round_index,
        "setup_samples_s": setup_samples,
        "slot_wall_s": slot_walls,
    }
    return results, metrics, report, hashes, workload


def traced_run(name: str, seed: int, size: str) -> tuple:
    """One round untraced, then traced: the per-layer metrics."""
    from perfbench.tracing import LAYERS, Tracer, instrument

    hashes: set = set()
    with capture_controllers() as built:
        start = time.perf_counter()
        workload = WORKLOADS[name](seed, size)
        plain = run_round(workload, 0, built, hashes)
        plain_wall = time.perf_counter() - start
        tracer = Tracer()
        with instrument(tracer):
            start = time.perf_counter()
            workload = WORKLOADS[name](seed, size)
            results = run_round(workload, 0, built, hashes, tracer)
            traced_wall = time.perf_counter() - start
    for before, after in zip(plain, results):
        if (before["counts"], before["outcome"]) != (after["counts"], after["outcome"]):
            after["failures"].append("traced run changed the simulated counts")
    tracer.write(OUT / f"trace-{name}-{seed}.json")

    from repro.controller.stats import LATENCY_BUCKET_BOUNDS
    from repro.obs.metrics import percentile_from_buckets

    total = {key: sum(r["counts"][key] for r in results)
             for key in results[0]["counts"] if key != "read_buckets"}
    buckets = [sum(col) for col in zip(*(r["counts"]["read_buckets"] for r in results))]
    self_s = tracer.layer_self_s()
    layer_sum = sum(self_s[layer] for layer in LAYERS)
    block_calls = tracer.calls("Channel.block", "Channel.block_bank")
    pops = tracer.calls("Queue.pop_victim")
    picks = tracer.calls("Scheduler.pick")
    wakes = tracer.calls_matching("event:mc-wake:")
    ipcs = [r["outcome"]["ipc"] for r in results if "ipc" in r["outcome"]]

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    metrics = {f"{layer}.self_s": _metric(self_s[layer], "s") for layer in LAYERS}
    metrics.update({
        "other.self_s": _metric(traced_wall - layer_sum, "s"),
        "trace.wall_s": _metric(traced_wall, "s"),
        "trace.overhead_ratio": _metric(traced_wall / plain_wall, "ratio"),
        "dram.block_calls": _metric(block_calls, "count"),
        "dram.block_s_per_call": _metric(
            ratio(tracer.total_s("Channel.block", "Channel.block_bank"), block_calls), "s"),
        "prac.pop_victim_calls": _metric(pops, "count"),
        "prac.pop_hit_ratio": _metric(ratio(tracer.hits("Queue.pop_victim"), pops), "ratio"),
        "mitigations.rfm_calls": _metric(tracer.calls("Policy.mitigate_on_rfm"), "count"),
        "mitigations.rows_mitigated": _metric(tracer.hits("Policy.mitigate_on_rfm"), "count"),
        "controller.enqueue_calls": _metric(tracer.calls("MemoryController.enqueue"), "count"),
        "controller.wakes": _metric(wakes, "count"),
        "controller.served_per_wake": _metric(ratio(total["requests"], wakes), "ratio"),
        "controller.pick_hit_ratio": _metric(ratio(tracer.hits("Scheduler.pick"), picks), "ratio"),
        "core.events": _metric(total["events"], "count"),
        "cpu.ipc": _metric(ratio(sum(ipcs), len(ipcs)), "ratio"),
        "controller.requests": _metric(total["requests"], "count"),
        "controller.row_hit_rate": _metric(ratio(total["row_hits"], total["requests"]), "ratio"),
        "controller.read_lat_p50_ns": _metric(
            percentile_from_buckets(LATENCY_BUCKET_BOUNDS, buckets, 0.50), "ns"),
        "controller.read_lat_p99_ns": _metric(
            percentile_from_buckets(LATENCY_BUCKET_BOUNDS, buckets, 0.99), "ns"),
        "dram.cmds": _metric(total["dram_cmds"], "count"),
        "dram.refs": _metric(total["refs"], "count"),
        "dram.rfm_abo": _metric(total["rfm_abo"], "count"),
        "dram.rfm_tb": _metric(total["rfm_tb"], "count"),
        "prac.alerts": _metric(total["alerts"], "count"),
        "core.sim_ns": _metric(total["sim_ns"], "ns"),
        "accuracy.paper_err_pct": _metric(_paper_err_pct(workload, results), "%"),
    })
    report = {"untraced_wall_s": plain_wall, "traced_wall_s": traced_wall,
              "spans_kept": len(tracer.spans)}
    return results, metrics, report, hashes, workload


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"workload seed; {HELD_OUT_SEED} is held out for checking claims")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="how long --trace 0 keeps starting rounds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help="smoke shrinks the covert and perf rounds for tests")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "repro").is_dir():
        print(f"perfbench: no simulator sources at {SRC}", file=sys.stderr)
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(1, str(SRC))
    if args.setup_probe:
        print(setup_probe(args.workload, args.seed, args.size))
        return 0

    if args.trace:
        results, metrics, report, hashes, workload = traced_run(
            args.workload, args.seed, args.size)
    else:
        results, metrics, report, hashes, workload = timed_run(
            args.workload, args.seed, args.seconds, args.size, SETUP_REPS)
    failed = _failed(results)
    report.update({
        "workload": args.workload,
        "size": args.size,
        "trace": args.trace,
        "ops": len(results),
        "failed_op_ratio": failed / len(results),
        "paper_err_pct": _paper_err_pct(workload, results),
        "failures": [[r["slot"], r["failures"]] for r in results if r["failures"]],
        "provenance": provenance(args.seed, hashes),
    })
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(results),
        "failed": failed,
        "metrics": metrics,
    }))
    # A failed op is a result, reported above as correct=false; the exit
    # code says only whether a result could be produced.
    return 0


if __name__ == "__main__":
    sys.exit(main())
