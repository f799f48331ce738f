"""The two workloads: seeded plans, set-up, a timed phase, and answer checks.

Each workload drives the program only through its public entry points.
``setup`` builds what the timed phase needs (and is repeated to time it),
``release`` undoes one set-up, ``phase`` runs the timed loop for a given
number of seconds, and ``close`` stops everything the workload started.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import socket
import tempfile
import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import inputs
from bootstrap import work_dir

REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         "reference.json")

#: serve-farm hit stream: fixed open-loop rate on its own connection
HIT_RATE_PER_S = 25.0
#: serve-farm sweeps: this many distinct misses each
SWEEP_POINTS = 2
#: the farm that primes the hot set takes it in one chunk
PRIME_CHUNK = 64
#: farm campaigns: tiny 2x2x2 tree points, this many per campaign, per chunk
CAMPAIGN_POINTS = 2
CAMPAIGN_CHUNK = 2
#: fixed poll intervals of the farm driver and worker
FARM_POLL_S = 0.01
#: the worker starts polling this long before the campaign is submitted.
#: A farm round trip takes ~40 ms on loopback, so this fixes the order in
#: which the server sees the worker's first lease and the submit; were they
#: to race, campaigns would split between two latency modes run by run.
FARM_SETTLE_S = 0.03
#: a campaign that makes no progress for this long fails instead of hanging
FARM_STALL_S = 30.0


def load_reference() -> Dict[str, str]:
    with open(REFERENCE) as handle:
        return json.load(handle)


@dataclass
class PhaseResult:
    """What one timed phase measured."""

    ops: int = 0
    elapsed_s: float = 0.0
    latencies_s: List[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    mismatches: int = 0
    hit_latencies_s: List[float] = field(default_factory=list)
    hit_late_s: List[float] = field(default_factory=list)
    hit_rtt_s: List[float] = field(default_factory=list)
    tiers: Dict[str, int] = field(default_factory=dict)

    def fail(self, wrong: bool = False) -> None:
        self.failed += 1
        if wrong:
            self.mismatches += 1


def _span(trace, name: str):
    return trace.span(name) if trace is not None else nullcontext()


class Workload:
    name = ""

    def __init__(self, seed: int):
        self.rng = random.Random(f"{self.name}:{seed}")
        self.reference = load_reference()
        self._cursor = 0

    def plan_summary(self) -> str:
        raise NotImplementedError

    def prewarm(self) -> None:
        """Untimed: pay one-time lazy imports before set-up is timed."""

    def prepare(self) -> None:
        """Untimed, untraced: compute in-process references for the checks."""

    def setup(self) -> None:
        raise NotImplementedError

    def release(self) -> None:
        """Undo :meth:`setup`; a no-op before the first one."""

    def phase(self, seconds: float, trace=None) -> PhaseResult:
        raise NotImplementedError

    def close(self) -> None:
        self.release()

    def _next(self, plan: list):
        item = plan[self._cursor % len(plan)]
        self._cursor += 1
        return item

    def _expect(self, point: dict) -> str:
        return self.reference[inputs.point_id(point)]


# -- farms -------------------------------------------------------------------

def start_farm(journal_path: str, chunk_size: Optional[int] = None):
    """An in-process ``FarmServer`` with one ``FarmWorker`` thread polling it.

    A farm server holds one campaign per journal, so every campaign gets
    a farm of its own.
    """
    from repro.bench.farm import FarmServer, FarmWorker

    server = FarmServer(port=0, journal_path=journal_path,
                        chunk_size=chunk_size)
    server.start()
    worker = FarmWorker(server.address, poll_cap_s=FARM_POLL_S)
    thread = threading.Thread(target=worker.run, name="farm-worker",
                              daemon=True)
    thread.start()
    time.sleep(FARM_SETTLE_S)
    return server, thread


def stop_farm(server, thread) -> None:
    from repro.bench.farm import parse_address, rpc

    thread.join(timeout=FARM_STALL_S)
    # The shutdown op sets the stop flag; one bare connection then
    # wakes the accept loop so stop() need not wait out its timeout.
    rpc(server.address, "shutdown")
    socket.create_connection(parse_address(server.address)).close()
    server.stop()


# -- serve-farm ----------------------------------------------------------------

class ServeFarm(Workload):
    """Farm-backed sweeps beside an open-loop hit stream.

    The prediction server sends the misses of a ``sweep`` through the
    sweep executor to the farm that ``REPRO_FARM`` names.  Connection 1
    sends sweeps of distinct 4x4x2 points, each computed on a fresh
    in-process farm and written to the memo and a fsynced disk cache.
    Connection 2 sends hot-set repeats at a fixed rate from a second
    thread; each hit is timed from when it was due.
    """

    name = "serve-farm"

    def __init__(self, seed: int):
        super().__init__(seed)
        self.hot = inputs.small_points()
        self.hot_requests = [{**p, "op": "predict"} for p in self.hot]
        cells = inputs.miss_cells()
        misses = inputs.even_rounds(cells, self.rng, rounds=len(cells[0]))
        self.sweeps = [misses[i:i + SWEEP_POINTS]
                       for i in range(0, len(misses), SWEEP_POINTS)]
        self.hit_plan = inputs.zipf_plan(len(self.hot), self.rng,
                                         count=20_000)
        self._hit_cursor = 0
        self._journals = 0
        self.server = None
        self.clients: List = []
        self.expected: List[Optional[str]] = []
        self.tmp: Optional[str] = None

    def plan_summary(self) -> str:
        return (f"{len(self.sweeps)} planned sweeps of {SWEEP_POINTS} "
                f"misses, {len(self.hit_plan)} planned hits at "
                f"{HIT_RATE_PER_S:g}/s, digest "
                f"{inputs.plan_digest([self.sweeps, self.hot, self.hit_plan])}")

    def prewarm(self) -> None:
        self.setup()
        self.release()

    def prepare(self) -> None:
        """Digest an in-process ``run_point`` of every hot point.

        Served answers are checked against these digests.  A hot point
        whose in-process answer differs from ``reference.json`` gets no
        expected digest, so every answer served for it counts as wrong.
        """
        import repro.bench.parallel as parallel

        self.expected = []
        for point in self.hot:
            digest = inputs.result_digest(parallel.run_point(point))
            self.expected.append(
                digest if digest == self._expect(point) else None)

    def _farm(self, chunk_size: Optional[int] = None):
        """Start a fresh farm and point ``REPRO_FARM`` at it."""
        from repro.bench.parallel import ENV_FARM

        self._journals += 1
        farm = start_farm(os.path.join(
            self.tmp, f"journal-{self._journals}.jsonl"), chunk_size)
        os.environ[ENV_FARM] = farm[0].address
        return farm

    def setup(self) -> None:
        from repro.serve.client import ServeClient
        from repro.serve.server import start_background_server
        from repro.serve.service import PredictionService

        self.tmp = tempfile.mkdtemp(dir=work_dir(".perfbench_tmp"))
        self.server = start_background_server(PredictionService(
            cache_path=os.path.join(self.tmp, "cache.jsonl")))
        # Connection 1 carries the sweeps, connection 2 the hits.
        self.clients = [ServeClient(self.server.address) for _ in range(2)]
        for client in self.clients:
            client.connect()
        # One campaign primes the hot set and warms the 4x4x2 machine
        # with a size outside the miss universe.
        warm = inputs.spec("bcast", "tree-shaddr", inputs.MEDIUM, 100)
        farm = self._farm(PRIME_CHUNK)
        try:
            self.clients[0].request({"op": "sweep",
                                     "points": self.hot + [warm]})
        finally:
            stop_farm(*farm)

    def release(self) -> None:
        import repro.bench.parallel as parallel

        os.environ.pop(parallel.ENV_FARM, None)
        for client in self.clients:
            client.close()
        self.clients = []
        if self.server is not None:
            self.server.stop()
            self.server = None
        if self.tmp is not None:
            shutil.rmtree(self.tmp, ignore_errors=True)
            self.tmp = None
        # The farm worker computes on this process's warm machines.
        parallel._POOL.clear()

    def tier_counts(self) -> Dict[str, int]:
        return dict(self.clients[0].stats()["tiers"])

    def _hit_stream(self, out: PhaseResult, start: float, deadline: float,
                    stop: threading.Event, trace) -> None:
        client = self.clients[1]
        perf = time.perf_counter
        period = 1.0 / HIT_RATE_PER_S
        k = 0
        while True:
            due = start + k * period
            k += 1
            if due >= deadline or stop.wait(max(0.0, due - perf())):
                return
            index = self.hit_plan[self._hit_cursor % len(self.hit_plan)]
            self._hit_cursor += 1
            out.attempted += 1
            sent = perf()
            try:
                with _span(trace, "op.hit"):
                    response = client.request(self.hot_requests[index])
            except Exception:
                out.fail()
                continue
            done = perf()
            out.hit_latencies_s.append(done - due)
            out.hit_late_s.append(sent - due)
            out.hit_rtt_s.append(done - sent)
            if inputs.response_digest(response) != self.expected[index]:
                out.fail(wrong=True)

    def _check_sweep(self, out: PhaseResult, specs: List[dict],
                     response: dict) -> None:
        answers = response.get("points") or []
        if len(answers) != len(specs):
            for _ in specs:
                out.fail(wrong=True)
            return
        for point, answer in zip(specs, answers):
            # A distinct point answered from a cache was never computed.
            if (answer.get("tier") != "batch"
                    or inputs.response_digest(answer) != self._expect(point)):
                out.fail(wrong=True)

    def phase(self, seconds: float, trace=None) -> PhaseResult:
        client = self.clients[0]
        out = PhaseResult()
        before = self.tier_counts()
        perf = time.perf_counter
        start = perf()
        deadline = start + seconds
        hits = PhaseResult()
        stop = threading.Event()
        thread = threading.Thread(
            target=self._hit_stream,
            args=(hits, start, deadline, stop, trace), name="hit-stream",
        )
        thread.start()
        try:
            # A program fast enough to use up the miss universe ends the
            # phase early rather than repeat a point as a memo hit.
            while perf() < deadline and self._cursor < len(self.sweeps):
                specs = self._next(self.sweeps)
                out.attempted += len(specs)
                farm = self._farm()
                try:
                    t0 = perf()
                    try:
                        with _span(trace, "op.sweep"):
                            response = client.request(
                                {"op": "sweep", "points": specs})
                    except Exception:
                        for _ in specs:
                            out.fail()
                        continue
                    out.latencies_s.append(perf() - t0)
                finally:
                    stop_farm(*farm)
                out.ops += len(specs)
                self._check_sweep(out, specs, response)
        finally:
            stop.set()
            thread.join()
        # Sweep spans only: starting and stopping each sweep's farm is the
        # benchmark's own work.
        out.elapsed_s = sum(out.latencies_s)
        out.attempted += hits.attempted
        out.failed += hits.failed
        out.mismatches += hits.mismatches
        out.hit_latencies_s = hits.hit_latencies_s
        out.hit_late_s = hits.hit_late_s
        out.hit_rtt_s = hits.hit_rtt_s
        out.tiers = _delta(self.tier_counts(), before)
        return out


def _delta(after: Dict[str, int], before: Dict[str, int]) -> Dict[str, int]:
    return {tier: after.get(tier, 0) - before.get(tier, 0)
            for tier in ("memo", "disk", "batch", "analytic", "warm", "cold")}


# -- farm-campaign ------------------------------------------------------------

class FarmCampaign(Workload):
    """Back-to-back tiny campaigns through an in-process farm.

    Each campaign gets a fresh journal, so a fresh ``FarmServer`` and one
    ``FarmWorker`` thread; the driver is ``farm_execute_points``.
    """

    name = "farm-campaign"

    def __init__(self, seed: int):
        super().__init__(seed)
        tiny = inputs.tiny_points()
        self.plan = [self.rng.sample(tiny, CAMPAIGN_POINTS)
                     for _ in range(300)]
        self.tmp = tempfile.mkdtemp(dir=work_dir(".perfbench_tmp"))
        self._journals = 0

    def plan_summary(self) -> str:
        return (f"{len(self.plan)} planned campaigns of {CAMPAIGN_POINTS} "
                f"points (chunk {CAMPAIGN_CHUNK}), digest "
                f"{inputs.plan_digest(self.plan)}")

    def _start(self):
        self._journals += 1
        return start_farm(os.path.join(
            self.tmp, f"journal-{self._journals}.jsonl"))

    @staticmethod
    def _campaign(address: str, specs: List[dict]) -> list:
        from repro.bench.farm import farm_execute_points

        return farm_execute_points(
            specs, farm=address, chunk_size=CAMPAIGN_CHUNK,
            poll_s=FARM_POLL_S, timeout_s=FARM_STALL_S,
        )

    def prewarm(self) -> None:
        self.setup()

    def setup(self) -> None:
        server, thread = self._start()
        try:
            self._campaign(server.address, self.plan[0])
        finally:
            stop_farm(server, thread)

    def release(self) -> None:
        import repro.bench.parallel as parallel

        parallel._POOL.clear()

    def phase(self, seconds: float, trace=None) -> PhaseResult:
        out = PhaseResult()
        perf = time.perf_counter
        start = perf()
        deadline = start + seconds
        while perf() < deadline:
            specs = self._next(self.plan)
            out.attempted += len(specs)
            server, thread = self._start()
            try:
                t0 = perf()
                try:
                    with _span(trace, "op.campaign"):
                        results = self._campaign(server.address, specs)
                except Exception:
                    for _ in specs:
                        out.fail()
                    continue
                out.latencies_s.append(perf() - t0)
            finally:
                stop_farm(server, thread)
            out.ops += len(specs)
            for point, result in zip(specs, results):
                if inputs.result_digest(result) != self._expect(point):
                    out.fail(wrong=True)
        # Campaign spans only: starting and stopping each campaign's farm
        # (settle sleep, joins, shutdown) is the benchmark's own work.
        out.elapsed_s = sum(out.latencies_s)
        return out

    def close(self) -> None:
        shutil.rmtree(self.tmp, ignore_errors=True)


WORKLOADS = {cls.name: cls for cls in (ServeFarm, FarmCampaign)}
