"""Per-layer tracing from outside the program.

:class:`LayerTrace` swaps public functions and methods of each layer for
wrappers that count calls, time them, and record spans (name, start,
end, parent), and puts the originals back on :meth:`LayerTrace.restore`.
Nothing inside ``src/`` changes.  Spans live in memory and are written
out once, at the end of the run.

Only the coarse boundaries get spans.  The per-event hot paths get none,
or a traced run would hold millions: ``Engine.call_at`` and
``Engine.spawn`` are only counted, ``FlowNetwork.transfer`` is timed.
"""

from __future__ import annotations

import functools
import json
import statistics
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

FARM_OPS = ("submit", "lease", "heartbeat", "complete", "fetch")
SERVICE_STEPS = ("normalize", "key", "lookup", "answer")


def p50(samples: List[float]) -> float:
    return statistics.median(samples) if samples else 0.0


class LayerTrace:
    """Counters, timing samples and spans gathered by the wrappers."""

    def __init__(self):
        self.counts: Dict[str, int] = defaultdict(int)
        self.samples: Dict[str, List[float]] = defaultdict(list)
        self.spans: List[tuple] = []
        self._patches: List[tuple] = []
        self._local = threading.local()
        self._ids = iter(range(1, 1 << 62))
        self._networks: Dict[int, list] = {}
        self._setup_counts: Dict[str, int] = {}
        self._setup_builds: List[float] = []

    # -- spans -----------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str):
        """Context manager: one span, child of the thread's open span."""
        return _Span(self, name)

    # -- wrappers --------------------------------------------------------
    def _patch(self, owner, attr: str, make: Callable) -> None:
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, functools.wraps(original)(make(original)))

    def count(self, owner, attr: str, metric: str) -> None:
        counts = self.counts

        def make(original):
            def counted(*args, **kwargs):
                counts[metric] += 1
                return original(*args, **kwargs)
            return counted
        self._patch(owner, attr, make)

    def time(self, owner, attr: str, metric: str, *,
             split: Optional[Callable] = None) -> None:
        """Time every call in a span; ``split(args, kwargs)`` suffixes the name."""
        samples = self.samples

        def make(original):
            def timed(*args, **kwargs):
                name = metric if split is None else (
                    f"{metric}.{split(args, kwargs)}")
                with self.span(name) as sp:
                    result = original(*args, **kwargs)
                samples[name].append(sp.end - sp.start)
                return result
            return timed
        self._patch(owner, attr, make)

    def install(self) -> None:
        """Wrap every layer the workloads touch."""
        import repro.bench.farm as farm
        import repro.bench.harness as harness
        import repro.bench.parallel as parallel
        import repro.serve.server as server
        import repro.serve.service as service
        from repro.bench.warmpool import WarmMachinePool
        from repro.hardware.machine import Machine
        from repro.serve.client import ServeClient
        from repro.sim.engine import Engine
        from repro.sim.flownet import FlowNetwork

        self.count(Engine, "call_at", "sim.engine.events")
        self.count(Engine, "spawn", "sim.engine.spawns")
        self.time(Engine, "run", "sim.engine.run")
        self._wrap_transfer(FlowNetwork)
        self.time(harness, "run_collective", "bench.harness.run_collective")
        # The service imported run_collective by name at import time.
        self.time(service, "run_collective", "bench.harness.run_collective")
        self.time(Machine, "__init__", "hardware.machine.build")
        self._wrap_checkout(WarmMachinePool)

        self.time(ServeClient, "request", "serve.client.request")
        self.time(service, "normalize_query", "serve.service.normalize")
        self.time(service, "query_key", "serve.service.key")
        self.time(service.PredictionService, "lookup", "serve.service.lookup")
        self.time(service, "answer_response", "serve.service.answer")
        self.time(server, "answer_response", "serve.service.answer")
        self.time(service.PredictionService, "store", "serve.service.store")

        self.time(farm, "rpc", "bench.farm.rpc",
                  split=lambda args, kwargs: args[1])
        self.time(farm.ProgressJournal, "append",
                  "bench.farm.journal_append")
        self.time(parallel, "run_point", "bench.parallel.run_point")
        # Farm workers resolve tasks through the registry, which caches
        # the callable: point it at the wrapper too.
        farm.register_task("run_point", parallel.run_point)

    def _wrap_transfer(self, flownet_cls) -> None:
        samples = self.samples["sim.flownet.transfer"]
        networks = self._networks
        perf = time.perf_counter

        def make(original):
            def transfer(net, *args, **kwargs):
                if id(net) not in networks:
                    # Baseline the public completion counter on first sight.
                    networks[id(net)] = [net, net.flows_completed]
                start = perf()
                try:
                    return original(net, *args, **kwargs)
                finally:
                    samples.append(perf() - start)
            return transfer
        self._patch(flownet_cls, "transfer", make)

    def _wrap_checkout(self, pool_cls) -> None:
        counts = self.counts

        def make(original):
            def checkout(*args, **kwargs):
                machine, warm = original(*args, **kwargs)
                counts["bench.warmpool.hits" if warm
                       else "bench.warmpool.misses"] += 1
                return machine, warm
            return checkout
        self._patch(pool_cls, "checkout", make)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        import repro.bench.farm as farm
        import repro.bench.parallel as parallel

        farm.register_task("run_point", parallel.run_point)

    # -- results ---------------------------------------------------------
    def start_phase(self) -> None:
        """Close the set-up part: later results cover the timed phase only.

        Machine builds and warm-pool checkouts stay cumulative, because
        set-up is where they happen.
        """
        self._setup_counts = dict(self.counts)
        self._setup_builds = list(self.samples["hardware.machine.build"])
        self.counts.clear()
        for samples in self.samples.values():
            samples.clear()
        for entry in self._networks.values():
            entry[1] = entry[0].flows_completed

    def with_setup(self, name: str) -> int:
        """A count over set-up and phase together."""
        return self._setup_counts.get(name, 0) + self.counts[name]

    def builds(self) -> List[float]:
        """Machine construction times over set-up and phase together."""
        return self._setup_builds + self.samples["hardware.machine.build"]

    def busy(self, name: str) -> float:
        return sum(self.samples.get(name, ()))

    def calls(self, name: str) -> int:
        return len(self.samples.get(name, ()))

    def p50_ms(self, name: str) -> float:
        return p50(self.samples.get(name, [])) * 1e3

    def p50_us(self, name: str) -> float:
        return p50(self.samples.get(name, [])) * 1e6

    def flows_completed(self) -> int:
        return sum(net.flows_completed - base
                   for net, base in self._networks.values())

    def write_spans(self, path: str) -> None:
        """Write the spans as JSON, times in microseconds from the first."""
        origin = min((s[4] for s in self.spans), default=0.0)
        with open(path, "w") as handle:
            json.dump({
                "fields": ["id", "parent", "name", "thread", "start_us",
                           "end_us"],
                "spans": [
                    [sid, parent, name, thread,
                     round((start - origin) * 1e6, 3),
                     round((end - origin) * 1e6, 3)]
                    for sid, parent, name, thread, start, end in self.spans
                ],
            }, handle)


class _Span:
    __slots__ = ("trace", "name", "id", "parent", "start", "end")

    def __init__(self, trace: LayerTrace, name: str):
        self.trace = trace
        self.name = name

    def __enter__(self) -> "_Span":
        stack = self.trace._stack()
        self.parent = stack[-1] if stack else None
        self.id = next(self.trace._ids)
        stack.append(self.id)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        self.end = time.perf_counter()
        self.trace._stack().pop()
        self.trace.spans.append((
            self.id, self.parent, self.name, threading.current_thread().name,
            self.start, self.end,
        ))
