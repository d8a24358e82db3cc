"""The benchmark's workloads: the paper's attack and performance runs.

Each workload turns ``(seed, round)`` into a list of ops.  An op is one
attack instance or one system run, driven through the harness's public
entry point; ``build`` constructs the harness object and ``run`` drives
it, and both are timed.  After a round, ``check`` applies the paper's
claim for that shape to the round's outcomes and simulated counts.

Inputs come only from the seed (``random.Random`` seeded with a string
is stable across processes).  Nothing here imports ``repro`` at module
level: a workload's constructor does, so the set-up probe times the
imports as part of set-up.
"""

from __future__ import annotations

import math
import random
import re
from dataclasses import dataclass
from typing import Any, Callable, Dict, List

#: The paper's average TPRAC slowdown at N_RH=1024 (Fig. 10), the
#: reference the scorecard grades against.
PAPER_TPRAC_SLOWDOWN_PCT = 3.4


@dataclass
class Op:
    """One unit of benchmarked work within a round."""

    slot: str  # the kind of op; ops of one slot do the same work
    build: Callable[[], Any]
    run: Callable[[Any], Dict[str, Any]]


def _rng(name: str, seed: int, round_index: int) -> random.Random:
    return random.Random(f"{name}:{seed}:{round_index}")


class AesSideChannel:
    """Fig. 9: AES T-table key-byte attacks, undefended and under TPRAC.

    A round attacks two keys whose target-byte nibbles differ, each once
    against ABO-Only and once against TPRAC.  Every op simulates the
    harness's fixed 80 ms horizon, so a defended op is dominated by
    idle Timing-Based RFMs that walk every bank and queue.
    """

    name = "aes_side_channel"
    NBO = 256
    ENCRYPTIONS = 120

    def __init__(self, seed: int, size: str = "full") -> None:
        from repro.attacks.side_channel import AesSideChannelAttack

        self._attack = AesSideChannelAttack
        self.seed = seed

    def ops(self, round_index: int) -> List[Op]:
        rng = _rng(self.name, self.seed, round_index)
        target = rng.randrange(16)
        fixed = rng.randrange(256)
        first = bytes(rng.randrange(256) for _ in range(16))
        second = bytearray(rng.randrange(256) for _ in range(16))
        nibble = rng.choice([n for n in range(16) if n != first[target] >> 4])
        second[target] = (nibble << 4) | (second[target] & 0x0F)
        ops = []
        for key in (first, bytes(second)):
            victim_seed = rng.randrange(2**31)
            for defense in (None, "tprac"):
                ops.append(
                    Op(
                        slot=defense or "abo_only",
                        build=self._builder(key, defense, victim_seed),
                        run=lambda attack, t=target, f=fixed, d=defense: {
                            "defended": d is not None,
                            "success": attack.run_single(t, f).success,
                        },
                    )
                )
        return ops

    def _builder(self, key: bytes, defense, victim_seed: int) -> Callable[[], Any]:
        return lambda: self._attack(
            key,
            nbo=self.NBO,
            encryptions=self.ENCRYPTIONS,
            defense=defense,
            seed=victim_seed,
        )

    def check(self, results: List[Dict[str, Any]]) -> None:
        """Undefended ops recover the nibble; defended ops see no ABO and
        do not all recover theirs (the round's two nibbles differ, so a
        key-independent trigger row can match at most one)."""
        defended = [r for r in results if r["outcome"]["defended"]]
        for result in results:
            outcome = result["outcome"]
            if not outcome["defended"] and not outcome["success"]:
                result["failures"].append("undefended attack missed the key nibble")
            if outcome["defended"] and result["counts"]["rfm_abo"]:
                result["failures"].append("ABO-RFM issued under TPRAC")
        if defended and all(r["outcome"]["success"] for r in defended):
            for result in defended:
                result["failures"].append("TPRAC leak rate reached 1.0")

    def paper_err_pct(self, results: List[Dict[str, Any]]) -> float:
        """Error of the undefended recovery rate against the paper's 1.0."""
        undefended = [r["outcome"]["success"] for r in results if not r["outcome"]["defended"]]
        rate = sum(undefended) / len(undefended)
        return abs(rate - 1.0) * 100.0


def table2_reference() -> Dict[Any, float]:
    """Table 2 bitrates (Kbps) by (channel, N_BO), parsed from the
    docstring of :mod:`repro.experiments.table2_covert`."""
    from repro.experiments import table2_covert

    rows = re.findall(
        r"^(Activity|Activation-Count)\S*\s+(\d+)\s+[\d.]+\s+([\d.]+)\s*$",
        table2_covert.__doc__ or "",
        flags=re.MULTILINE,
    )
    reference = {
        ("activity" if kind == "Activity" else "count", int(nbo)): float(kbps)
        for kind, nbo, kbps in rows
    }
    if len(reference) != 6:
        raise ValueError(f"expected 6 Table 2 rows, parsed {len(reference)}")
    return reference


class CovertChannel:
    """Table 2: activity and activation-count channels under ABO-Only.

    A round sends one message per channel at each N_BO.  Activity
    messages carry exactly half ones, so the hammering work, and with
    it the host time, does not depend on the seed.
    """

    name = "covert_channel"

    def __init__(self, seed: int, size: str = "full") -> None:
        from repro.attacks.covert import ActivationCountChannel, ActivityChannel

        self._activity = ActivityChannel
        self._count = ActivationCountChannel
        self.seed = seed
        if size == "smoke":
            self.nbos, self.bits, self.symbols = (256,), 4, 2
        else:
            self.nbos, self.bits, self.symbols = (256, 512, 1024), 16, 8
        self.reference = table2_reference()

    def ops(self, round_index: int) -> List[Op]:
        rng = _rng(self.name, self.seed, round_index)
        ops = []
        for nbo in self.nbos:
            message = [1] * (self.bits // 2) + [0] * (self.bits - self.bits // 2)
            rng.shuffle(message)
            ops.append(
                Op(
                    slot=f"activity/{nbo}",
                    build=lambda n=nbo, m=message: self._activity(nbo=n, message=m),
                    run=lambda channel, n=nbo: _covert_outcome("activity", n, channel.run()),
                )
            )
        for nbo in self.nbos:
            values = [rng.randrange(nbo) for _ in range(self.symbols)]
            ops.append(
                Op(
                    slot=f"count/{nbo}",
                    build=lambda n=nbo, v=values: self._count(nbo=n, values=v),
                    run=lambda channel, n=nbo: _covert_outcome("count", n, channel.run()),
                )
            )
        return ops

    def check(self, results: List[Dict[str, Any]]) -> None:
        """Error-free decoding; the count channel beats the activity
        channel at the same N_BO by more than 2x."""
        activity = {
            r["outcome"]["nbo"]: r["outcome"]["bitrate_kbps"]
            for r in results
            if r["outcome"]["channel"] == "activity"
        }
        for result in results:
            outcome = result["outcome"]
            if outcome["errors"]:
                result["failures"].append(f"{outcome['errors']} bit errors")
            if outcome["channel"] == "count" and not (
                outcome["bitrate_kbps"] > 2 * activity.get(outcome["nbo"], float("inf"))
            ):
                result["failures"].append("count channel not 2x the activity channel")

    def paper_err_pct(self, results: List[Dict[str, Any]]) -> float:
        """Mean relative error of the bitrates against Table 2."""
        errors = []
        for result in results:
            outcome = result["outcome"]
            reference = self.reference[(outcome["channel"], outcome["nbo"])]
            errors.append(abs(outcome["bitrate_kbps"] - reference) / reference)
        return 100.0 * sum(errors) / len(errors)


def _covert_outcome(channel: str, nbo: int, result: Any) -> Dict[str, Any]:
    errors = round(result.error_rate * len(result.sent_bits))
    return {
        "channel": channel,
        "nbo": nbo,
        "errors": errors,
        "bitrate_kbps": result.bitrate_kbps,
    }


class PerfFig10:
    """Fig. 10 / scorecard: 4-core runs of four SPEC shapes at N_RH=1024.

    A round runs every application under the PRAC-without-ABO baseline
    and under ABO-Only, ABO+ACB-RFM and TPRAC.  The traces are made
    once from the seed (that is set-up), so every round repeats
    identical simulated work.
    """

    name = "perf_fig10"
    NRH = 1024
    DESIGNS = ("none", "abo_only", "abo_acb", "tprac")

    def __init__(self, seed: int, size: str = "full") -> None:
        from repro.experiments.common import DesignPoint, build_system
        from repro.workloads import synthetic

        self._build_system = build_system
        self._point = DesignPoint
        if size == "smoke":
            self.apps, requests = ("433.milc", "470.lbm"), 1500
        else:
            self.apps, requests = ("433.milc", "470.lbm", "401.bzip2", "453.povray"), 1500
        trace_seed = _rng(self.name, seed, 0).randrange(2**20)
        self.traces = {
            app: synthetic.homogeneous_traces(app, cores=4, num_accesses=requests, seed=trace_seed)
            for app in self.apps
        }

    def ops(self, round_index: int) -> List[Op]:
        ops = []
        for app in self.apps:
            for design in self.DESIGNS:
                ops.append(
                    Op(
                        slot=f"{app}/{design}",
                        build=lambda a=app, d=design: self._build_system(
                            self._point(design=d, nrh=self.NRH), self.traces[a]
                        ),
                        run=lambda system, a=app, d=design: {
                            "app": a,
                            "design": d,
                            "ipc": system.run().total_ipc,
                        },
                    )
                )
        return ops

    def slowdowns_pct(self, results: List[Dict[str, Any]]) -> Dict[str, float]:
        """Geomean slowdown of each design against the baseline, in %."""
        ipc = {(r["outcome"]["app"], r["outcome"]["design"]): r["outcome"]["ipc"] for r in results}
        out = {}
        for design in self.DESIGNS[1:]:
            logs = [math.log(ipc[(app, design)] / ipc[(app, "none")]) for app in self.apps]
            out[design] = 100.0 * (1.0 - math.exp(sum(logs) / len(logs)))
        return out

    def check(self, results: List[Dict[str, Any]]) -> None:
        """TPRAC slows down by 0.5-9% and ABO-Only by under 1%."""
        for result in results:
            if not result["outcome"]["ipc"] > 0:
                result["failures"].append("zero IPC")
        slowdown = self.slowdowns_pct(results)
        limits = {"tprac": (0.5, 9.0), "abo_only": (float("-inf"), 1.0)}
        for design, (low, high) in limits.items():
            if not low <= slowdown[design] <= high:
                for result in results:
                    if result["outcome"]["design"] == design:
                        result["failures"].append(
                            f"{design} slowdown {slowdown[design]:.2f}% outside [{low}, {high}]"
                        )

    def paper_err_pct(self, results: List[Dict[str, Any]]) -> float:
        """Relative error of the TPRAC slowdown against the paper's 3.4%."""
        tprac = self.slowdowns_pct(results)["tprac"]
        return abs(tprac - PAPER_TPRAC_SLOWDOWN_PCT) / PAPER_TPRAC_SLOWDOWN_PCT * 100.0


WORKLOADS = {cls.name: cls for cls in (AesSideChannel, CovertChannel, PerfFig10)}
