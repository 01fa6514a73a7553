"""The benchmark's five workloads, each driving the program through its public API.

A workload runs *units* until its time budget is spent.  Unit ``k`` draws its
inputs from a seed derived from ``(--seed, k)`` (:meth:`Workload.unit_seed`;
``tune`` and the sweeps derive one per model or search from it), so a run
averages over several inputs and two runs with the same ``--seed`` see the
same ones.  :meth:`Workload.prepare` builds a unit's inputs outside
the timed region (unit 0's is part of :meth:`Workload.setup`),
:meth:`Workload.prime` does untimed work that is not set-up, and
:meth:`Workload.verify` checks every output after the timed loop.  Given a
:class:`calibrate.Calibrator`, :meth:`Workload.measure` times calibration
slices between the operations, which scale each operation's time to a
reference host speed.

================ =========================== ==================================
workload         unit                        timed operation (``op_*`` metrics)
================ =========================== ==================================
replay           one ``run_stream`` call     the call, trace synthesis included
tune             all eight zoo models        the unit: ``optimize_cpu`` then
                                             ``optimize_gpu`` for each model
fleet-sweep      cold pass over the          the cold pass (an untimed warm
                 32-search grid              pass checks it)
fleet-sweep-warm warm passes over units      the warm passes (the cold passes
                 0-2's grids                 that fill the caches are primed
                                             untimed)
twin             one paced pass of 30        one window close, from when its
                 windows                     closing event was due
================ =========================== ==================================
"""

from __future__ import annotations

import gc
import shutil
import time
import traceback
from dataclasses import astuple, dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import numpy as np
from repro.core import BatchSizeTuner, DeepRecSched
from repro.execution.engine import build_engine_pair
from repro.faults import FaultPlan, RetryPolicy
from repro.models.zoo import MODEL_NAMES
from repro.queries.generator import LoadGenerator
from repro.queries.trace import (
    DiurnalPattern,
    count_diurnal_queries,
    generate_diurnal_trace,
    iter_diurnal_trace,
)
from repro.runtime import capacity as runtime_capacity
from repro.runtime.capacity import CapacitySearch
from repro.runtime.pool import WorkerPool
from repro.serving.capacity import CapacityCache, find_max_qps
from repro.serving.cluster import (
    ClusterServer,
    ClusterSimulationResult,
    ClusterSimulator,
    homogeneous_fleet,
    warm_latency_tables,
)
from repro.serving.simulator import ServingConfig
from repro.serving.sla import SLATier, sla_target
from repro.service.ingest import IngestPipeline
from repro.service.shadow import FleetSpec
from repro.service.twin import DigitalTwin
from repro.service.windows import WindowManager

from calibrate import Calibrator
from tracer import Tracer

#: Fleet replayed by ``replay``: four dlrm-rmc1 servers, 8 cores each.
REPLAY_SERVERS = 4
#: Mean arrival rate of the replayed trace.  With the 0.4 diurnal amplitude
#: the peak is 6.8k q/s, 70 % of the 9.7k q/s SLA capacity this fleet
#: measured when the benchmark was defined.  A constant, not a measurement
#: taken per run, so every commit replays the same traces.
REPLAY_BASE_QPS = 4860.0
#: Simulated seconds per replayed trace (one diurnal period): ~49k queries.
REPLAY_DURATION_S = 10.0
REPLAY_STEP_S = 0.5

#: DeepRecSched capacity-search fidelity used by ``tune``.
TUNE_NUM_QUERIES = 200
TUNE_ITERATIONS = 4

#: ``fleet-sweep`` grid: (policy, retry policy), models, fleet sizes, and a
#: crash + straggler plan beside no faults; searched on a pool of 2 workers.
SWEEP_POLICIES: Tuple[Tuple[str, RetryPolicy], ...] = (
    ("random", RetryPolicy()),
    ("least-outstanding", RetryPolicy()),
    ("power-of-two", RetryPolicy()),
    ("failure-aware", RetryPolicy(max_retries=2, hedge=True)),
)
SWEEP_MODELS = ("dlrm-rmc1", "wnd")
SWEEP_SIZES = (2, 4)
SWEEP_JOBS = 2
SWEEP_SEARCHES = len(SWEEP_POLICIES) * len(SWEEP_MODELS) * len(SWEEP_SIZES) * 2
#: Grids each ``fleet-sweep-warm`` unit replays, so that one run's figure
#: averages over several grids' inputs.
WARM_GRIDS = 3

#: ``twin``: windows per pass, their length, the mean event rate, and the
#: passes per run.  The feeder's speed-up is ``TWIN_PASSES * TWIN_WINDOWS *
#: TWIN_WINDOW_S / seconds``, so the events (and every checked output) are
#: the same for any ``--seconds``.  Three short passes instead of one long one
#: put three samples of every window index into the percentiles.
TWIN_WINDOWS = 30
TWIN_WINDOW_S = 1.0
TWIN_BASE_QPS = 300.0
TWIN_PASSES = 3


@dataclass
class Measurement:
    """What one :meth:`Workload.measure` call observed."""

    durations_s: List[float] = field(default_factory=list)
    #: When each operation in ``durations_s`` started and ended; calibration
    #: slices between its parts are not part of its duration.
    starts_s: List[float] = field(default_factory=list)
    ends_s: List[float] = field(default_factory=list)
    units: int = 0
    busy_s: float = 0.0
    outputs: List[Any] = field(default_factory=list)
    info: Dict[str, List[float]] = field(default_factory=dict)
    calibrator: Optional[Calibrator] = None
    started: float = field(default_factory=time.perf_counter)

    def note(self, key: str, value: float) -> None:
        self.info.setdefault(key, []).append(value)

    def record(self, duration: float, start: float, end: float) -> None:
        self.durations_s.append(duration)
        self.starts_s.append(start)
        self.ends_s.append(end)

    def timed(self, start: float) -> float:
        """Record one operation that started at ``start``."""
        end = time.perf_counter()
        elapsed = end - start
        self.record(elapsed, start, end)
        self.busy_s += elapsed
        return elapsed

    def calibrate(self) -> None:
        """Time calibration slices here, between two operations."""
        calibrator = self.calibrator
        if calibrator is not None:
            calibrator.top_up(time.perf_counter() - self.started - calibrator.spent_s)


class Workload:
    """Base class: set up once, then run timed units until the budget ends."""

    name = ""
    #: Operations one unit attempts (the ``attempted`` count).
    ops_per_unit = 1

    def __init__(self, seed: int, seconds: float, workdir: Path) -> None:
        self.seed = seed
        self.seconds = seconds
        self.workdir = workdir
        self.tracer: Optional[Tracer] = None

    def unit_seed(self, index: int, *part: int) -> int:
        """The input seed of unit ``index`` (or of its ``part``): a pure
        function of ``--seed``."""
        return int(np.random.SeedSequence([self.seed, index, *part]).generate_state(1)[0])

    def setup(self) -> None:
        """Everything a user pays before the first operation."""
        self.prepare(0)

    def prepare(self, index: int) -> None:
        """Build unit ``index``'s inputs (outside the timed region)."""

    def prime(self) -> None:
        """Untimed work after set-up and before the first unit."""

    def calibrator(self) -> Calibrator:
        """A calibrator whose slices run where this workload's work runs."""
        return Calibrator()

    def run_unit(self, index: int, measurement: Measurement) -> None:
        raise NotImplementedError

    def measure(
        self,
        budget_s: float,
        units: Optional[int] = None,
        calibrator: Optional[Calibrator] = None,
    ) -> Measurement:
        """Run exactly ``units`` units, or units until ``budget_s`` has passed.
        A ``calibrator`` times its kernel before each unit and after the last
        (and a unit of several operations calls it between them)."""
        measurement = Measurement(calibrator=calibrator)
        started = measurement.started
        while True:
            index = measurement.units
            if units is not None and index >= units:
                break
            if units is None and index and time.perf_counter() - started >= budget_s:
                break
            if index:
                self.prepare(index)
            measurement.calibrate()
            self.run_unit(index, measurement)
            measurement.units += 1
        measurement.calibrate()
        return measurement

    def verify(self, measurement: Measurement) -> Tuple[int, int]:
        """``(attempted, failed)`` operations, checking every output."""
        raise NotImplementedError

    def digest_payload(self, measurement: Measurement) -> Any:
        """Simulated outputs of unit 0, pinned for the default seed."""
        raise NotImplementedError

    def counters(self) -> Dict[str, float]:
        """Layer counters the workload reads from the program's own stats."""
        return {}

    def close(self) -> None:
        """Stop processes and remove files the workload created."""

    def _label(self, op: str) -> None:
        if self.tracer is not None:
            self.tracer.op = op


# --------------------------------------------------------------------------- #


class Replay(Workload):
    """A diurnal trace streamed into ``ClusterSimulator.run_stream``."""

    name = "replay"

    def setup(self) -> None:
        engines = build_engine_pair("dlrm-rmc1", "skylake", None)
        config = ServingConfig(batch_size=256, num_cores=8)
        self.fleet = homogeneous_fleet(engines, config, REPLAY_SERVERS)
        warm_latency_tables(self.fleet)
        self.simulator = ClusterSimulator(
            self.fleet, "least-outstanding", latency_stats="sketch"
        )
        self.pattern = DiurnalPattern(amplitude=0.4, period_s=REPLAY_DURATION_S)
        super().setup()

    def prepare(self, index: int) -> None:
        self.trace_seed = self.unit_seed(index)
        self.total = count_diurnal_queries(
            REPLAY_BASE_QPS, REPLAY_DURATION_S, self.pattern, seed=self.trace_seed,
            time_step_s=REPLAY_STEP_S,
        )

    def run_unit(self, index: int, measurement: Measurement) -> None:
        self._label(f"replay-{index}")
        start = time.perf_counter()
        stream = iter_diurnal_trace(
            REPLAY_BASE_QPS, REPLAY_DURATION_S, self.pattern, seed=self.trace_seed,
            time_step_s=REPLAY_STEP_S,
        )
        if self.tracer is not None:
            stream = self.tracer.hot_iter(stream, "queries.next", "queries")
        try:
            result = self.simulator.run_stream(stream, self.total)
        except Exception:  # verify() counts the missing result as a failure
            traceback.print_exc()
            result = None
        elapsed = measurement.timed(start)
        measurement.note("replay_qps", self.total / elapsed)
        measurement.outputs.append((self.total, result))

    def verify(self, measurement: Measurement) -> Tuple[int, int]:
        warmup_fraction = self.fleet[0].config.warmup_fraction
        failed = 0
        for total, result in measurement.outputs:
            ok = (
                isinstance(result, ClusterSimulationResult)
                and result.num_queries == total
                and result.measured_queries == total - int(total * warmup_fraction)
                and result.p50_latency_s <= result.p95_latency_s <= result.p99_latency_s
            )
            failed += 0 if ok else 1
        return len(measurement.outputs), failed

    def digest_payload(self, measurement: Measurement) -> Any:
        total, result = measurement.outputs[0]
        return [
            total, result.measured_queries, result.p50_latency_s,
            result.p95_latency_s, result.p99_latency_s, result.mean_latency_s,
            result.achieved_qps, result.fleet_cpu_utilization,
        ]


# --------------------------------------------------------------------------- #


class Tune(Workload):
    """DeepRecSched ``optimize_cpu`` then ``optimize_gpu`` for every zoo model."""

    name = "tune"
    ops_per_unit = len(MODEL_NAMES)

    def prepare(self, index: int) -> None:
        # Free the previous unit's engines (their latency tables reference
        # them back) before building the next, so peak RSS is one unit's.
        self.schedulers: List[DeepRecSched] = []
        gc.collect()
        # Each model draws its own load, so that one heavy draw does not slow
        # every model of a unit together.
        self.loads = [
            LoadGenerator(seed=self.unit_seed(index, position))
            for position in range(len(MODEL_NAMES))
        ]
        self.schedulers = [
            DeepRecSched(
                model,
                load_generator=load,
                num_queries=TUNE_NUM_QUERIES,
                capacity_iterations=TUNE_ITERATIONS,
            )
            for model, load in zip(MODEL_NAMES, self.loads)
        ]
        # Build every latency-table column the tuners can touch: each
        # candidate batch size on all cores, plus the accelerator column.
        for scheduler, load in zip(self.schedulers, self.loads):
            engines = scheduler.engines
            servers = [
                ClusterServer(engines, ServingConfig(batch_size=batch, offload_threshold=1))
                for batch in BatchSizeTuner(engines, load).candidates()
            ]
            warm_latency_tables(servers, load.sizes.max_size)

    def run_unit(self, index: int, measurement: Measurement) -> None:
        # The timed operation is the whole unit: per-model times are a
        # mixture of eight very different costs, whose percentiles fall on
        # the gaps between models.
        points = []
        clock = time.perf_counter
        unit_start = clock()
        spent = 0.0
        for position, (scheduler, load) in enumerate(zip(self.schedulers, self.loads)):
            if position:
                measurement.calibrate()
            self._label(f"tune-{index}-{scheduler.model_name}")
            start = clock()
            try:
                cpu = scheduler.optimize_cpu(SLATier.MEDIUM)
                gpu = scheduler.optimize_gpu(SLATier.MEDIUM, batch_size=cpu.batch_size)
            except Exception:  # verify() counts the missing points as a failure
                traceback.print_exc()
                cpu = gpu = None
            spent += clock() - start
            points.append((scheduler.model_name, load.seed, cpu, gpu))
        measurement.record(spent, unit_start, clock())
        measurement.busy_s += spent
        measurement.outputs.append(points)

    def verify(self, measurement: Measurement) -> Tuple[int, int]:
        engines = {model: DeepRecSched(model).engines for model in MODEL_NAMES}
        failed = 0
        for points in measurement.outputs:
            for model, load_seed, cpu, gpu in points:
                if cpu is None or gpu is None:
                    failed += 1
                    continue
                # The tuned QPS must equal a fresh search at the tuned config.
                fresh = [
                    find_max_qps(
                        engines[model],
                        ServingConfig(
                            batch_size=point.batch_size,
                            offload_threshold=point.offload_threshold,
                        ),
                        point.sla_latency_s,
                        LoadGenerator(seed=load_seed),
                        num_queries=TUNE_NUM_QUERIES,
                        iterations=TUNE_ITERATIONS,
                    ).max_qps
                    for point in (cpu, gpu)
                ]
                failed += 0 if fresh == [cpu.qps, gpu.qps] else 1
        return len(measurement.outputs) * self.ops_per_unit, failed

    def digest_payload(self, measurement: Measurement) -> Any:
        # Every OperatingPoint field except the SLATier enum (the tier is
        # fixed at MEDIUM).
        return [
            [list(astuple(point)[:2] + astuple(point)[3:]) for point in (cpu, gpu)]
            for _model, _load_seed, cpu, gpu in measurement.outputs[0]
        ]


# --------------------------------------------------------------------------- #


def _noop(item: int) -> int:
    return item


class FleetSweep(Workload):
    """``run_capacity_searches`` over a policy x size x fault x model grid,
    timed cold into an empty ``CapacityCache``; an untimed warm pass through a
    new ``CapacityCache`` on the same directory checks it."""

    name = "fleet-sweep"
    #: Searches in each checked pass.
    searches_per_pass = SWEEP_SEARCHES
    ops_per_unit = 2 * SWEEP_SEARCHES

    def __init__(self, seed: int, seconds: float, workdir: Path, jobs: int = SWEEP_JOBS):
        super().__init__(seed, seconds, workdir)
        self.jobs = jobs
        self.pool: Optional[WorkerPool] = None
        self.cache_stats: Dict[str, int] = {}
        self.pool_base: Dict[str, int] = {}

    def setup(self) -> None:
        self.fleets = []
        for model in SWEEP_MODELS:
            engines = build_engine_pair(model, "skylake", None)
            sla_s = sla_target(model, SLATier.MEDIUM).latency_s
            for size in SWEEP_SIZES:
                fleet = homogeneous_fleet(
                    engines, ServingConfig(batch_size=256, num_cores=8), size
                )
                warm_latency_tables(fleet)
                self.fleets.append((fleet, sla_s))
        if self.jobs > 1:
            # Fork the workers now: every invocation pays for them once.
            self.pool = WorkerPool(self.jobs)
            self.pool.map(_noop, range(self.jobs))
        super().setup()
        self.reset_counters()

    def calibrator(self) -> Calibrator:
        if self.pool is None:
            return Calibrator()
        return Calibrator(self.pool, self.jobs)

    def reset_counters(self) -> None:
        """Count cache and pool work from here on."""
        self.cache_stats = {}
        self.pool_base = self.pool.stats if self.pool is not None else {}

    def grid(self, index: int) -> List[CapacitySearch]:
        """Unit ``index``'s searches.  Each draws its own load, balancer seed
        and fault plan, so a pass sums 32 independent draws."""
        searches: List[CapacitySearch] = []
        for fleet, sla_s in self.fleets:
            for faulted in (False, True):
                for policy, retry in SWEEP_POLICIES:
                    seed = self.unit_seed(index, len(searches))
                    plan = FaultPlan.generate(
                        len(fleet), 1.0, crash_rate_hz=1.0, mean_downtime_s=0.1,
                        straggler_rate_hz=1.0, mean_straggler_s=0.2, seed=seed,
                    ) if faulted else None
                    searches.append(
                        CapacitySearch.for_fleet(
                            fleet, policy, sla_s, LoadGenerator(seed=seed),
                            balancer_seed=seed, fault_plan=plan, retry_policy=retry,
                        )
                    )
        return searches

    def prepare(self, index: int) -> None:
        self.searches = self.grid(index)

    def sweep(self, searches: List[CapacitySearch], cache_dir: Path) -> List[float]:
        """One pass over ``searches`` through a new cache on ``cache_dir``:
        every search's ``max_qps``, or none if the pass raised."""
        cache = CapacityCache(cache_dir)
        try:
            results = runtime_capacity.run_capacity_searches(
                searches, jobs=self.jobs, warm_start_cache=cache, pool=self.pool
            )
        except Exception:  # verify() counts the missing pass as failures
            traceback.print_exc()
            return []
        finally:
            for key, value in cache.stats.items():
                self.cache_stats[key] = self.cache_stats.get(key, 0) + value
        return [result.max_qps for result in results]

    def run_unit(self, index: int, measurement: Measurement) -> None:
        cache_dir = self.workdir / f"sweep-cache-{index}"
        self._label(f"sweep-{index}-cold")
        start = time.perf_counter()
        cold = self.sweep(self.searches, cache_dir)
        measurement.timed(start)
        self._label(f"sweep-{index}-warm")
        warm = self.sweep(self.searches, cache_dir)
        shutil.rmtree(cache_dir, ignore_errors=True)
        measurement.outputs.append((cold, warm))

    def verify(self, measurement: Measurement) -> Tuple[int, int]:
        failed = 0
        for cold, warm in measurement.outputs:
            if len(cold) != self.searches_per_pass or len(warm) != self.searches_per_pass:
                failed += self.ops_per_unit
                continue
            # Warm replays from the cache directory must equal the cold pass.
            failed += sum(1 for a, b in zip(cold, warm) if a != b)
        return len(measurement.outputs) * self.ops_per_unit, failed

    def digest_payload(self, measurement: Measurement) -> Any:
        return measurement.outputs[0][0]

    def counters(self) -> Dict[str, float]:
        stats: Dict[str, float] = dict(self.cache_stats)
        if self.pool is not None:
            for key, value in self.pool.stats.items():
                stats[f"pool.{key}"] = value - self.pool_base.get(key, 0)
        return stats

    def close(self) -> None:
        if self.pool is not None:
            self.pool.close()
            self.pool = None


class FleetSweepWarm(FleetSweep):
    """``fleet-sweep`` grids replayed warm: each unit reads every search of
    units 0 to ``WARM_GRIDS - 1``'s grids from the cache directories that one
    cold pass over each filled."""

    name = "fleet-sweep-warm"
    searches_per_pass = WARM_GRIDS * SWEEP_SEARCHES
    ops_per_unit = WARM_GRIDS * SWEEP_SEARCHES

    def prepare(self, index: int) -> None:
        # Every unit replays the same grids, the ones the primed caches hold.
        if index == 0:
            self.grids = [self.grid(number) for number in range(WARM_GRIDS)]

    def prime(self) -> None:
        """Fill each grid's cache directory with one cold pass."""
        self.cache_dirs = [self.workdir / f"sweep-cache-{number}" for number in range(WARM_GRIDS)]
        self._label("sweep-prime-cold")
        self.cold = [
            qps
            for searches, cache_dir in zip(self.grids, self.cache_dirs)
            for qps in self.sweep(searches, cache_dir)
        ]
        self.reset_counters()

    def run_unit(self, index: int, measurement: Measurement) -> None:
        self._label(f"sweep-{index}-warm")
        start = time.perf_counter()
        warm = [
            qps
            for searches, cache_dir in zip(self.grids, self.cache_dirs)
            for qps in self.sweep(searches, cache_dir)
        ]
        measurement.timed(start)
        measurement.outputs.append((self.cold, warm))

    def digest_payload(self, measurement: Measurement) -> Any:
        return measurement.outputs[0][1]


# --------------------------------------------------------------------------- #


def _wait_until(due: float) -> None:
    """Spin until ``due``.  A sleeping feeder lets its core idle, and the
    wake-up adds host-dependent delay to every window close."""
    clock = time.perf_counter
    while clock() < due:
        pass


class Twin(Workload):
    """An open-loop feeder pacing a diurnal event stream into the service."""

    name = "twin"
    ops_per_unit = TWIN_WINDOWS

    def setup(self) -> None:
        model = "dlrm-rmc1"
        self.specs = [
            FleetSpec(name="real", model=model, num_servers=2, batch_size=256),
            FleetSpec(name="what-if", model=model, num_servers=1, batch_size=256,
                      num_cores=4),
        ]
        self.sla_s = sla_target(model, SLATier.MEDIUM).latency_s
        self.twins: List[DigitalTwin] = []
        self.observed: List[IngestPipeline] = []
        self.lag_s: List[float] = []
        super().setup()

    def prepare(self, index: int) -> None:
        duration = TWIN_WINDOWS * TWIN_WINDOW_S
        seed = self.unit_seed(index)
        self.queries = list(generate_diurnal_trace(
            TWIN_BASE_QPS, duration, DiurnalPattern(amplitude=0.5, period_s=duration),
            seed=seed, time_step_s=TWIN_WINDOW_S / 2,
        ))
        self.lines = [f"{q.query_id},{q.arrival_time!r},{q.size}" for q in self.queries]
        twin = DigitalTwin(
            self.specs[0], self.sla_s, LoadGenerator(seed=seed), what_if=self.specs[1],
            capacity_cache_dir=self.workdir / f"twin-cache-{index}",
        )
        self.twins.append(twin)
        self.pipeline = IngestPipeline(WindowManager(TWIN_WINDOW_S), twin)

    def measure(
        self,
        budget_s: float,
        units: Optional[int] = None,
        calibrator: Optional[Calibrator] = None,
    ) -> Measurement:
        """Run ``TWIN_PASSES`` paced passes (or ``units``): they fill ``seconds``."""
        return super().measure(budget_s, TWIN_PASSES if units is None else units, calibrator)

    def run_unit(self, index: int, measurement: Measurement) -> None:
        pipeline = self.pipeline
        speedup = TWIN_PASSES * TWIN_WINDOWS * TWIN_WINDOW_S / self.seconds
        tracer = self.tracer
        wait = _wait_until if tracer is None else tracer.hot(
            _wait_until, "feeder.wait", "service.idle"
        )
        clock = time.perf_counter
        lags = self.lag_s
        calibrator = measurement.calibrator
        busy = 0.0
        window = -1
        origin = clock()
        try:
            for line, query in zip(self.lines, self.queries):
                due = origin + query.arrival_time / speedup
                if tracer is not None and int(query.arrival_time // TWIN_WINDOW_S) != window:
                    window = int(query.arrival_time // TWIN_WINDOW_S)
                    tracer.op = f"pass-{index}-ingest-window-{window}"
                now = clock()
                if now < due:
                    wait(due)
                    now = clock()
                lags.append(now - due)
                reports = pipeline.feed_line(line)
                done = clock()
                busy += done - now
                for _ in reports:
                    measurement.record(done - due, due, done)
                if reports and calibrator is not None:
                    # Time a slice in the idle gap before the next close is due.
                    next_close = (query.arrival_time // TWIN_WINDOW_S + 1) * TWIN_WINDOW_S
                    calibrator.run_before(origin + next_close / speedup)
            self._label(f"pass-{index}-flush")
            due = origin + TWIN_WINDOWS * TWIN_WINDOW_S / speedup
            now = clock()
            if now < due:
                wait(due)
                now = clock()
            reports = pipeline.finish()
            done = clock()
            busy += done - now
            for _ in reports:
                measurement.record(done - due, due, done)
        except Exception:  # verify() counts the windows never reported
            traceback.print_exc()
        measurement.busy_s += busy
        measurement.outputs.append((pipeline, self.queries))
        self.observed.append(pipeline)

    def verify(self, measurement: Measurement) -> Tuple[int, int]:
        attempted = failed = 0
        for pipeline, queries in measurement.outputs:
            attempted += TWIN_WINDOWS
            reports = pipeline.reports
            failed += abs(TWIN_WINDOWS - len(reports))
            failed += pipeline.shed_windows + pipeline.windows.late_events
            if not reports:
                continue
            # The last window's cumulative p95 must equal one batch run over
            # every event the service accepted.
            for spec, verdict in zip(self.specs, (reports[-1].real, reports[-1].what_if)):
                one_shot = ClusterSimulator(spec.build_servers(), balancer=spec.policy)
                if one_shot.run(queries).p95_latency_s != verdict.p95_latency_s:
                    failed += 1
        return attempted, failed

    def digest_payload(self, measurement: Measurement) -> Any:
        rows = []
        for report in measurement.outputs[0][0].reports:
            row: List[Any] = [report.window.index, report.cumulative_queries]
            for verdict in (report.real, report.what_if):
                row += [verdict.p95_latency_s, verdict.capacity_qps, verdict.meets_sla,
                        verdict.stable]
            rows.append(row)
        return rows

    def counters(self) -> Dict[str, float]:
        stats: Dict[str, float] = {}
        for twin in self.twins:
            for key, value in twin.capacity_cache.stats.items():
                stats[key] = stats.get(key, 0) + value
        pipelines = self.observed
        stats["service.resim_queries"] = sum(
            report.cumulative_queries * len(self.specs)
            for pipeline in pipelines
            for report in pipeline.reports
        )
        stats["service.shed_windows"] = sum(p.shed_windows for p in pipelines)
        stats["service.late_events"] = sum(p.windows.late_events for p in pipelines)
        if self.lag_s:
            stats["service.generator_lag_p50_s"] = float(np.percentile(self.lag_s, 50))
            stats["service.generator_lag_max_s"] = max(self.lag_s)
        return stats

    def close(self) -> None:
        for twin in self.twins:
            twin.close()


WORKLOADS = {cls.name: cls for cls in (Replay, Tune, FleetSweep, FleetSweepWarm, Twin)}
