"""The repo benchmark: one workload, timed end to end or traced per layer.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload serve-farm --seed 1 --seconds 45 --trace 0

``--trace 0`` times the workload with tracing off and reports the
end-to-end metrics; ``--trace 1`` wraps each layer's public functions,
reports the per-layer metrics and the tracing overhead, and writes the
spans to ``.perfbench_out/``.  A human-readable table goes first; the
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from bootstrap import MissingProgram, load_repro, work_dir  # noqa: E402
from layers import FARM_OPS, SERVICE_STEPS, LayerTrace, p50  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: set-up is timed this many times before the phase and as many after it;
#: setup_s is the median of them all, so it samples the machine's speed at
#: both ends of the run rather than in one moment
SETUP_REPEATS = 5


def pin_to_one_cpu() -> int:
    """Run this process, and every thread it starts, on one CPU.

    On a small VM a wake-up that crosses CPUs is slow and varies widely,
    and where the scheduler happens to place the client and server
    threads then decides a loopback round trip more than the program
    does.  One CPU keeps that placement fixed.
    """
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _ms(seconds: float) -> float:
    return seconds * 1e3


def percentile(samples, q: int) -> float:
    """The ``q``-th percentile (1..99) by ``statistics.quantiles``."""
    if len(samples) < 2:
        return samples[0] if samples else 0.0
    return statistics.quantiles(samples, n=100)[q - 1]


def end_to_end(result, setups) -> dict:
    lat = result.latencies_s
    return {
        "ops_per_s": (result.ops / result.elapsed_s, "1/s"),
        "p50_ms": (_ms(statistics.median(lat)), "ms"),
        "p90_ms": (_ms(percentile(lat, 90)), "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (_peak_rss_mb(), "MB"),
    }


def hit_metrics(result) -> dict:
    """serve-farm's open-loop hit stream, timed from each hit's due time."""
    if not result.hit_latencies_s:
        return {}
    return {
        "hit_p50_ms": (_ms(statistics.median(result.hit_latencies_s)), "ms"),
        "hit_p90_ms": (_ms(percentile(result.hit_latencies_s, 90)), "ms"),
        "hit_late_p50_ms": (_ms(statistics.median(result.hit_late_s)), "ms"),
        "hit_late_p90_ms": (_ms(percentile(result.hit_late_s, 90)), "ms"),
    }


def layer_metrics(trace, traced, untraced) -> dict:
    events = trace.counts["sim.engine.events"]
    engine_s = trace.busy("sim.engine.run")
    harness_s = trace.busy("bench.harness.run_collective")
    hits = trace.with_setup("bench.warmpool.hits")
    checkouts = hits + trace.with_setup("bench.warmpool.misses")
    builds = trace.builds()
    # The hit connection's round trips: memo hits, contending with misses.
    rtt_us = p50(traced.hit_rtt_s) * 1e6
    steps_us = sum(trace.p50_us(f"serve.service.{step}")
                   for step in SERVICE_STEPS)
    point_s = trace.busy("bench.parallel.run_point")
    traced_rate = traced.ops / traced.elapsed_s
    untraced_rate = untraced.ops / untraced.elapsed_s
    metrics = {
        "sim.engine.events": (events, "count"),
        "sim.engine.spawns": (trace.counts["sim.engine.spawns"], "count"),
        "sim.engine.busy_s": (engine_s, "s"),
        "sim.engine.us_per_event": (
            engine_s / events * 1e6 if events else 0.0, "us"),
        "sim.flownet.transfers": (trace.calls("sim.flownet.transfer"),
                                  "count"),
        "sim.flownet.transfer_busy_s": (trace.busy("sim.flownet.transfer"),
                                        "s"),
        "sim.flownet.flows_completed": (trace.flows_completed(), "count"),
        "bench.harness.busy_s": (harness_s, "s"),
        "bench.harness.self_s": (harness_s - engine_s, "s"),
        "hardware.machine.builds": (len(builds), "count"),
        "hardware.machine.build_s": (sum(builds), "s"),
        "bench.warmpool.hit_ratio": (
            hits / checkouts if checkouts else 0.0, "ratio"),
        "serve.client.rtt_us": (rtt_us, "us"),
    }
    for step in SERVICE_STEPS:
        metrics[f"serve.service.{step}_us"] = (
            trace.p50_us(f"serve.service.{step}"), "us")
    metrics["serve.service.store_ms"] = (
        trace.p50_ms("serve.service.store"), "ms")
    # The rest of a hit's round trip: socket, JSON, asyncio, spans, stats,
    # and waiting for the GIL while the farm worker runs a miss.
    metrics["serve.hit.wait_ms"] = (
        (rtt_us - steps_us) / 1e3 if rtt_us else 0.0, "ms")
    metrics["serve.hit.late_ms"] = (_ms(p50(traced.hit_late_s)), "ms")
    untraced_hits = hit_metrics(untraced)
    for name in ("hit_p50_ms", "hit_p90_ms"):
        metrics[f"serve.{name.replace('_', '.', 1)}"] = (
            untraced_hits.get(name, (0.0, "ms"))[0], "ms")
    for tier in ("memo", "disk", "batch", "warm", "cold"):
        metrics[f"serve.tier.{tier}"] = (traced.tiers.get(tier, 0), "count")
    for op in FARM_OPS:
        metrics[f"bench.farm.rpc.{op}_ms"] = (
            trace.p50_ms(f"bench.farm.rpc.{op}"), "ms")
        metrics[f"bench.farm.rpc.{op}"] = (
            trace.calls(f"bench.farm.rpc.{op}"), "count")
    metrics["bench.farm.journal_append_ms"] = (
        trace.p50_ms("bench.farm.journal_append"), "ms")
    metrics["bench.parallel.run_point_ms"] = (
        trace.p50_ms("bench.parallel.run_point"), "ms")
    op_s = sum(traced.latencies_s)
    metrics["bench.farm.overhead_share"] = (
        1.0 - point_s / op_s if op_s else 0.0, "ratio")
    metrics["trace.ops"] = (traced.ops, "count")
    metrics["trace.ops_per_s_traced"] = (traced_rate, "1/s")
    metrics["trace.ops_per_s_untraced"] = (untraced_rate, "1/s")
    metrics["trace.overhead_share"] = (1.0 - traced_rate / untraced_rate,
                                       "ratio")
    return metrics


def _print_table(title: str, metrics: dict) -> None:
    print(title)
    for name, (value, unit) in metrics.items():
        print(f"  {name:34s} {value:>16.6g} {unit}")


def _samples_note(samples: int) -> str:
    beyond = samples // 10
    note = f"{samples} latency samples, {beyond} beyond p90"
    if beyond < 10:
        note += " (fewer than 10: p90 is not reliable)"
    return note


def timed_setups(workload, repeats: int) -> list:
    """Time ``repeats`` set-ups, each from a released workload."""
    setups = []
    for _ in range(repeats):
        workload.release()
        # Collect the previous set-up's garbage now, not inside the timer.
        gc.collect()
        start = time.perf_counter()
        workload.setup()
        setups.append(time.perf_counter() - start)
    return setups


def plain_run(workload, seconds: float):
    workload.prewarm()
    workload.prepare()
    setups = timed_setups(workload, SETUP_REPEATS)
    result = workload.phase(seconds)
    setups += timed_setups(workload, SETUP_REPEATS)
    metrics = end_to_end(result, setups)
    extra = {"error_rate": (result.failed / max(1, result.attempted),
                            "ratio"),
             "wrong_answers": (result.mismatches, "count")}
    extra.update(hit_metrics(result))
    _print_table("end-to-end (tracing off)", metrics)
    _print_table("also reported", extra)
    print(f"  {_samples_note(len(result.latencies_s))}")
    if result.tiers:
        print(f"  tiers during the phase: {result.tiers}")
    return metrics, [result]


def traced_run(workload, seconds: float, spans_path: str):
    workload.prewarm()
    workload.prepare()
    workload.release()
    trace = LayerTrace()
    trace.install()
    try:
        workload.setup()
        trace.start_phase()
        traced = workload.phase(seconds / 2.0, trace)
    finally:
        trace.restore()
    untraced = workload.phase(seconds / 2.0)
    metrics = layer_metrics(trace, traced, untraced)
    _print_table("per layer (traced half; hit latencies from the untraced "
                 "half)", metrics)
    trace.write_spans(spans_path)
    print(f"  {len(trace.spans)} spans written to {spans_path}")
    return metrics, [traced, untraced]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        load_repro()
    except MissingProgram as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"known: {sorted(WORKLOADS)}")
    cpu = pin_to_one_cpu()
    workload = WORKLOADS[args.workload](args.seed)
    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} cpu={cpu}")
    print(f"inputs: {workload.plan_summary()}")
    try:
        if args.trace:
            spans_path = os.path.join(
                work_dir(".perfbench_out"),
                f"spans-{args.workload}-seed{args.seed}.json")
            metrics, results = traced_run(workload, args.seconds,
                                          spans_path)
        else:
            metrics, results = plain_run(workload, args.seconds)
    finally:
        workload.close()
    failed = sum(r.failed for r in results)
    print(json.dumps({
        # An op that raised or was refused is as wrong as a bad answer.
        "correct": failed == 0,
        "attempted": sum(r.attempted for r in results),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
