"""Benchmark-side span tracing of the simulator's layer boundaries.

:func:`instrument` replaces a fixed set of public functions and methods
with wrappers that record one span per call (name, start, end, parent)
and restores the originals on exit.  Nothing in ``src/`` is edited.
A span's self time is its duration minus its children's durations, and
each span name belongs to one layer (a ``repro`` subpackage), so the
per-layer self times plus the untraced remainder add up to the traced
wall time.

The innermost boundaries fire millions of times per attack run (every
TB-RFM pops all 128 mitigation queues), so every span is aggregated
into per-name totals as it closes.  Only the first ``keep`` spans are
kept whole, for the written trace file.
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: Host layers, named after the ``repro`` subpackages the time is spent in.
LAYERS = (
    "core",
    "controller",
    "dram",
    "prac",
    "mitigations",
    "cpu",
    "attacks",
    "workloads",
)


def layer_of(fn: Any) -> str:
    """The layer of the module defining ``fn``, or ``other``."""
    while isinstance(fn, functools.partial):
        fn = fn.func
    fn = getattr(fn, "__func__", fn)
    parts = getattr(fn, "__module__", "").split(".")
    if len(parts) > 1 and parts[0] == "repro" and parts[1] in LAYERS:
        return parts[1]
    return "other"


class Tracer:
    """Span recorder with per-name aggregation.

    ``stats[name]`` is ``[layer, calls, total_s, self_s, hits]``:
    ``hits`` counts calls whose result the boundary's ``hit`` function
    accepted (victims returned, requests picked, rows mitigated).
    """

    def __init__(self, keep: int = 50_000) -> None:
        self.keep = keep
        self.stats: Dict[str, List[Any]] = {}
        self.spans: List[Tuple[int, int, int, str, float, float]] = []
        self.op = 0  # id shared by every span of one benchmark op
        self._stack: List[List[float]] = []  # [child_s, span_id] per open span
        self._next_id = 1

    def wrap(
        self,
        name: str,
        layer: str,
        fn: Callable[..., Any],
        hit: Optional[Callable[[Any], int]] = None,
    ) -> Callable[..., Any]:
        """Return ``fn`` wrapped so each call records one span."""
        entry = self.stats.setdefault(name, [layer, 0, 0.0, 0.0, 0])
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter
        tracer = self

        def traced(*args: Any, **kwargs: Any) -> Any:
            span_id = tracer._next_id
            tracer._next_id = span_id + 1
            frame = [0.0, span_id]
            parent = stack[-1][1] if stack else 0
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                entry[1] += 1
                entry[2] += duration
                entry[3] += duration - frame[0]
                if stack:
                    stack[-1][0] += duration
                if len(spans) < tracer.keep:
                    spans.append((span_id, int(parent), tracer.op, name, start, end))
            if hit is not None:
                entry[4] += hit(result)
            return result

        return traced

    # ------------------------------------------------------------------
    def layer_self_s(self) -> Dict[str, float]:
        """Self seconds per layer (``other`` holds unmapped callbacks)."""
        out = {layer: 0.0 for layer in LAYERS + ("other",)}
        for layer, _calls, _total, self_s, _hits in self.stats.values():
            out[layer] += self_s
        return out

    def calls(self, *names: str) -> int:
        return sum(self.stats[n][1] for n in names if n in self.stats)

    def total_s(self, *names: str) -> float:
        return sum(self.stats[n][2] for n in names if n in self.stats)

    def hits(self, *names: str) -> int:
        return sum(self.stats[n][4] for n in names if n in self.stats)

    def calls_matching(self, prefix: str) -> int:
        return sum(s[1] for n, s in self.stats.items() if n.startswith(prefix))

    def write(self, path: Path) -> None:
        """Write the kept spans and the per-name totals as JSON."""
        path.parent.mkdir(parents=True, exist_ok=True)
        document = {
            "span_fields": ["id", "parent", "op", "name", "start_s", "end_s"],
            "spans": self.spans,
            "spans_dropped": max(0, self._next_id - 1 - len(self.spans)),
            "totals": {
                name: {"layer": s[0], "calls": s[1], "total_s": s[2], "self_s": s[3],
                       "hits": s[4]}
                for name, s in sorted(self.stats.items())
            },
        }
        path.write_text(json.dumps(document))


def _subclasses(base: type) -> List[type]:
    found = [base]
    for sub in base.__subclasses__():
        found.extend(_subclasses(sub))
    return found


def _owners(base: type, attr: str) -> List[type]:
    """``base`` and every loaded subclass that defines ``attr`` itself."""
    return [cls for cls in _subclasses(base) if attr in vars(cls)]


def _is_value(result: Any) -> int:
    return 0 if result is None else 1


@contextmanager
def instrument(tracer: Tracer) -> Iterator[Tracer]:
    """Wrap the layer boundaries with ``tracer`` spans for the block.

    The wrapped boundaries are the event kernel's ``schedule`` (each
    scheduled callback becomes a span in its own module's layer) and
    ``run``; request completion callbacks; controller ``enqueue`` and
    the scheduler's ``pick``; ``Channel.block``/``block_bank`` and
    ``Bank.activate``; the policies' ``mitigate_on_rfm``/``on_tref``;
    the mitigation queues' ``observe``/``pop_victim``; ``System.run``,
    ``homogeneous_traces`` and the attack entry points.
    """
    from repro import mitigations  # noqa: F401  (loads every policy class)
    from repro.attacks.covert import ActivationCountChannel, ActivityChannel
    from repro.attacks.side_channel import AesSideChannelAttack
    from repro.controller.controller import MemoryController
    from repro.controller.request import MemRequest
    from repro.controller.scheduler import BankQueueScheduler
    from repro.core.engine import Engine
    from repro.cpu.system import System
    from repro.dram.bank import Bank
    from repro.dram.rank import Channel
    from repro.mitigations.base import MitigationPolicy
    from repro.prac.mitigation_queue import MitigationQueue
    from repro.workloads import synthetic

    patches: List[Tuple[Any, str, Any]] = []

    def patch(owner: Any, attr: str, replacement: Any) -> None:
        patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    def span(owner: Any, attr: str, name: str, layer: str, hit=None) -> None:
        patch(owner, attr, tracer.wrap(name, layer, vars(owner)[attr], hit))

    schedule = tracer.wrap("Engine.schedule", "core", Engine.schedule)
    original_complete = MemRequest.complete
    made: Dict[str, Callable[..., Any]] = {}

    def span_named(name: str, layer: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """One wrapper per span name, made on first use."""
        wrapped = made.get(name)
        if wrapped is None:
            wrapped = made[name] = tracer.wrap(name, layer, fn)
        return wrapped

    def run_callback(callback: Callable[[], Any]) -> Any:
        return callback()

    def traced_schedule(self, time, callback, priority=0, label=""):
        layer = layer_of(callback)
        wrapped = span_named(f"event:{label or '-'}:{layer}", layer, run_callback)
        return schedule(self, time, functools.partial(wrapped, callback), priority, label)

    def traced_complete(self, time):
        layer = layer_of(self.on_complete)
        return span_named(f"complete:{layer}", layer, original_complete)(self, time)

    patch(Engine, "schedule", traced_schedule)
    span(Engine, "run", "Engine.run", "core")
    patch(MemRequest, "complete", traced_complete)
    span(MemoryController, "enqueue", "MemoryController.enqueue", "controller")
    for cls in _owners(BankQueueScheduler, "pick"):
        span(cls, "pick", "Scheduler.pick", "controller", _is_value)
    span(Channel, "block", "Channel.block", "dram")
    span(Channel, "block_bank", "Channel.block_bank", "dram")
    span(Bank, "activate", "Bank.activate", "dram")
    for cls in _owners(MitigationPolicy, "mitigate_on_rfm"):
        span(cls, "mitigate_on_rfm", "Policy.mitigate_on_rfm", "mitigations", len)
    for cls in _owners(MitigationPolicy, "on_tref"):
        span(cls, "on_tref", "Policy.on_tref", "mitigations")
    for cls in _owners(MitigationQueue, "observe"):
        span(cls, "observe", "Queue.observe", "prac")
    for cls in _owners(MitigationQueue, "pop_victim"):
        span(cls, "pop_victim", "Queue.pop_victim", "prac", _is_value)
    span(System, "run", "System.run", "cpu")
    span(synthetic, "homogeneous_traces", "homogeneous_traces", "workloads")
    span(AesSideChannelAttack, "run_single", "AesSideChannelAttack.run_single", "attacks")
    span(ActivityChannel, "run", "ActivityChannel.run", "attacks")
    span(ActivationCountChannel, "run", "ActivationCountChannel.run", "attacks")
    try:
        yield tracer
    finally:
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)
