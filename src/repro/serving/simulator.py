"""Discrete-event simulation of an at-scale recommendation inference server.

One simulated server consists of ``num_cores`` CPU worker cores sharing a FIFO
request queue, plus an optional accelerator with its own FIFO query queue.
Incoming queries are handled exactly the way DeepRecSched schedules them
(Fig. 8):

* if an accelerator is attached and the query's size exceeds the configured
  *query-size threshold*, the whole query is placed on the accelerator queue;
* otherwise the query is split into requests of at most *batch_size* items,
  which are executed by parallel CPU cores.

A query completes when all of its requests (or its accelerator execution)
finish; its latency is measured from arrival to last completion.  The
simulator reports tail latency percentiles, achieved throughput, device
utilisation, and the fraction of work processed by the accelerator — the
quantities the paper's evaluation figures are built from.

The event mechanics of a single server live in :class:`ServerKernel`, which
plans each query's work when it arrives and owns the server's accounting
but not the event heap or the clock.  :class:`ServingSimulator` drives one
kernel; :class:`~repro.serving.cluster.ClusterSimulator` drives a fleet of
them from a shared heap, which is what makes a cluster with one server
bit-identical to the single-server simulator.
"""

from __future__ import annotations

import gc
import itertools
import math
import operator
from contextlib import contextmanager
from dataclasses import dataclass, field
from heapq import heappop, heappush, heapreplace
from typing import Dict, Iterator, List, Optional, Sequence, Union

import numpy as np

from repro.execution.engine import EnginePair
from repro.faults.plan import NodeTimeline
from repro.queries.query import Query
from repro.utils.stats import PercentileTracker
from repro.utils.validation import check_positive


@dataclass(frozen=True)
class ServingConfig:
    """Scheduling configuration of one simulated server.

    Attributes
    ----------
    batch_size:
        Maximum items per CPU request (DeepRecSched knob #1).
    num_cores:
        CPU worker cores; 0 means "all cores of the platform".
    offload_threshold:
        Query-size threshold above which whole queries are offloaded to the
        accelerator (DeepRecSched knob #2).  ``None`` disables offloading even
        if an accelerator engine is attached.
    warmup_fraction:
        Fraction of queries (by arrival order) excluded from latency
        statistics to remove the queue ramp-up transient.
    """

    batch_size: int
    num_cores: int = 0
    offload_threshold: Optional[int] = None
    warmup_fraction: float = 0.1

    def __post_init__(self) -> None:
        check_positive("batch_size", self.batch_size)
        if self.num_cores < 0:
            raise ValueError(f"num_cores must be >= 0, got {self.num_cores}")
        if self.offload_threshold is not None:
            check_positive("offload_threshold", self.offload_threshold)
        if not 0.0 <= self.warmup_fraction < 1.0:
            raise ValueError(
                f"warmup_fraction must be in [0, 1), got {self.warmup_fraction}"
            )


def resolve_num_cores(engines: EnginePair, config: ServingConfig) -> int:
    """Worker-core count for ``config`` on ``engines``, validated against the platform."""
    platform_cores = engines.cpu.platform.num_cores
    cores = config.num_cores if config.num_cores else platform_cores
    if cores > platform_cores:
        raise ValueError(
            f"num_cores={cores} exceeds platform core count {platform_cores}"
        )
    if config.offload_threshold is not None and not engines.has_accelerator:
        raise ValueError(
            "offload_threshold set but the engine pair has no accelerator"
        )
    return cores


class SLACriteriaMixin:
    """SLA and stability checks shared by single-server and fleet results.

    Both result types expose ``p95_latency_s``, ``p95_late_window_s``,
    ``drain_s``, and ``arrival_span_s``; keeping the acceptance criterion in
    one place guarantees the single-server and cluster capacity searches
    judge runs by exactly the same rule.
    """

    p95_latency_s: float
    p95_late_window_s: float
    drain_s: float
    arrival_span_s: float

    def meets_sla(self, sla_latency_s: float) -> bool:
        """True when the measured p95 is within the target."""
        return self.p95_latency_s <= sla_latency_s

    def is_stable(self, sla_latency_s: float) -> bool:
        """True when the run shows no sign of an unbounded backlog.

        Two symptoms of an overloaded (unstable) configuration are checked:
        the tail latency of the *late* half of the run (a growing queue makes
        later queries strictly worse), and the time needed to drain the
        backlog after the last arrival.
        """
        drain_budget = max(2.0 * sla_latency_s, 0.25 * self.arrival_span_s)
        return (
            self.p95_late_window_s <= sla_latency_s and self.drain_s <= drain_budget
        )

    def acceptable(self, sla_latency_s: float) -> bool:
        """SLA met *and* the system is stable — the capacity-search criterion."""
        return self.meets_sla(sla_latency_s) and self.is_stable(sla_latency_s)


@dataclass
class SimulationResult(SLACriteriaMixin):
    """Measurements from one simulated serving run."""

    config: ServingConfig
    num_queries: int
    measured_queries: int
    duration_s: float
    p50_latency_s: float
    p95_latency_s: float
    p99_latency_s: float
    mean_latency_s: float
    achieved_qps: float
    offered_qps: float
    cpu_utilization: float
    gpu_utilization: float
    gpu_work_fraction: float
    p95_late_window_s: float = 0.0
    drain_s: float = 0.0
    arrival_span_s: float = 0.0
    latencies_s: List[float] = field(default_factory=list, repr=False)


@dataclass(frozen=True)
class CertainRejection:
    """Early-exit outcome of a run whose SLA rejection became certain mid-run.

    Returned (instead of a full result) when a simulation is given a
    ``reject_above_sla_s`` target and enough measured latencies have already
    exceeded it that the *complete* run's p95 would exceed it no matter how
    the remaining queries fare (see :func:`certain_rejection_threshold`).
    The verdict is exact — ``acceptable`` is False precisely when the full
    run's would be — but the aggregate statistics of the full run were never
    computed, so this object carries only the evidence.  Capacity searches
    use it for rejected probe evaluations, whose result objects are
    discarded; any evaluation that meets the SLA always runs to completion
    and returns the ordinary full result.
    """

    sla_latency_s: float
    measured_queries: int
    over_sla_queries: int

    def meets_sla(self, sla_latency_s: float) -> bool:
        """False: the full run's p95 provably exceeds the rejection target."""
        return False

    def is_stable(self, sla_latency_s: float) -> bool:
        """False: stability was not measured, and the run is rejected anyway."""
        return False

    def acceptable(self, sla_latency_s: float) -> bool:
        """False, exactly as the completed run's ``acceptable`` would be."""
        return False


@dataclass(frozen=True)
class CertainAcceptance:
    """Early-exit outcome of a run whose SLA acceptance became certain mid-run.

    The dual of :class:`CertainRejection`: returned when a simulation is
    given an ``accept_within_sla_s`` target and so few measured latencies
    exceed it — with so few left to measure — that the complete run's p95
    (and the late-window p95 the stability check uses) provably stay within
    the target no matter how the remaining queries fare
    (:func:`certain_acceptance_threshold`).  The event loop still drains to
    the last completion without recording, so ``drain_s`` is the exact
    drain time and the stability verdict matches the full run's; only the
    aggregate statistics were never computed, so this object carries the
    evidence, not a p95.  Like the rejection stub, the verdict is relative
    to the armed target: capacity searches use it for accepted probe
    evaluations whose result objects are discarded, and re-run the one
    evaluation whose full statistics they report.
    """

    sla_latency_s: float
    measured_queries: int
    over_sla_queries: int
    drain_s: float
    arrival_span_s: float

    def meets_sla(self, sla_latency_s: float) -> bool:
        """True: the full run's p95 provably stays within the armed target."""
        return True

    def is_stable(self, sla_latency_s: float) -> bool:
        """Exact: the late-window p95 was certified when the exit fired, and
        the drain time was measured by draining the event loop."""
        drain_budget = max(2.0 * sla_latency_s, 0.25 * self.arrival_span_s)
        return self.drain_s <= drain_budget

    def acceptable(self, sla_latency_s: float) -> bool:
        """Exactly the completed run's ``acceptable`` for the armed target."""
        return self.meets_sla(sla_latency_s) and self.is_stable(sla_latency_s)


def certain_rejection_threshold(measured_total: int) -> int:
    """Over-SLA measurements after which p95 > SLA holds for the full run.

    With ``n`` measured latencies, the linear-interpolation p95 (numpy's
    default, used by :class:`~repro.utils.stats.PercentileTracker`) sits at
    virtual index ``0.95 * (n - 1)``: writing ``f = floor(0.95 * (n - 1))``,
    the interpolated value is ``x[f] + frac * (x[f+1] - x[f]) >= x[f]`` on
    the sorted samples.  Once at least ``n - f`` samples exceed the target,
    at most ``f`` samples can be within it, so ``x[f]`` — and therefore the
    p95 — exceeds the target regardless of every not-yet-measured latency.
    Measured-so-far counts only grow, which makes ``n - f`` an exact early
    rejection threshold, not a heuristic.  (The float product mirrors
    numpy's own virtual-index arithmetic bit for bit.)
    """
    if measured_total <= 0:
        return 1
    return measured_total - math.floor((measured_total - 1) * 0.95)


def certain_acceptance_threshold(measured_total: int) -> int:
    """Max over-SLA measurements for which p95 <= SLA holds for the full run.

    The dual of :func:`certain_rejection_threshold`.  With ``n`` measured
    latencies, the linear-interpolation p95 sits between the sorted samples
    at indices ``floor(f)`` and ``ceil(f)`` for ``f = 0.95 * (n - 1)``, so
    it is at most ``x[ceil(f)]``.  If no more than ``n - 1 - ceil(f)``
    samples exceed the target, then at least ``ceil(f) + 1`` samples are
    within it, so ``x[ceil(f)]`` — and therefore the p95 — is within the
    target regardless of *which* samples those are.  Mid-run the check is
    applied pessimistically (every not-yet-measured latency is assumed to
    exceed the target), which makes the early acceptance exact, not a
    heuristic.  (The float product mirrors numpy's own virtual-index
    arithmetic bit for bit.)  Returns -1 when no count certifies (nothing
    measured means nothing to accept).
    """
    if measured_total <= 0:
        return -1
    return measured_total - 1 - math.ceil((measured_total - 1) * 0.95)


# Completion event kinds: at one instant, CPU completions sort before
# accelerator completions.  Arrivals never enter the heap; the loops admit
# them after every completion at or before their instant.
EVT_CPU_DONE = 0
EVT_GPU_DONE = 1

#: Sort key for arrival ordering (C-level attribute getter, not a lambda).
_arrival_key = operator.attrgetter("arrival_time")

_INFINITY = float("inf")

#: Measured latencies per bulk flush into a sketch-mode tracker: large
#: enough that the per-flush numpy conversion amortises, small enough that
#: the in-flight chunk never dominates peak memory.
_SKETCH_CHUNK = 32768

_LATENCY_STATS_MODES = ("exact", "sketch")


def _check_latency_stats(latency_stats: str) -> str:
    if latency_stats not in _LATENCY_STATS_MODES:
        raise ValueError(
            f"latency_stats must be one of {_LATENCY_STATS_MODES}, "
            f"got {latency_stats!r}"
        )
    return latency_stats


@contextmanager
def pause_gc() -> Iterator[None]:
    """Disable generational GC for the duration of an event loop.

    The loops allocate hundreds of thousands of short-lived event tuples and
    create no reference cycles, so generation-0 collections triggered mid-run
    are pure overhead.  The collector is restored (and never force-run) on
    exit, including on exceptions.
    """
    was_enabled = gc.isenabled()
    if was_enabled:
        gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


class _LazyServiceRow:
    """List-like service-time row backed by a scalar latency callable.

    Fallback for duck-typed engines (e.g. ``ScaledCPUEngine``) that expose
    ``request_latency_s`` but no precomputed latency table: entries are
    computed through the scalar call on first access and memoised, so the
    kernel's ``row[batch]`` lookup works identically either way.
    """

    __slots__ = ("_latency_s", "_active_cores", "_values")

    def __init__(self, latency_s, active_cores: int, max_batch: int) -> None:
        self._latency_s = latency_s
        self._active_cores = active_cores
        self._values: List[Optional[float]] = [None] * (max_batch + 1)

    def __getitem__(self, batch_size: int) -> float:
        value = self._values[batch_size]
        if value is None:
            value = self._latency_s(batch_size, self._active_cores)
            self._values[batch_size] = value
        return value


class ServerKernel:
    """Event mechanics of one simulated server, planned one query at a time.

    The kernel owns the server-local state — the times its busy cores and
    its accelerator come free, the queries still on the server, busy-time
    and work accounting — while the *owner* owns the event heap and the
    simulated clock.

    :meth:`submit` plans all of a query's work the moment it arrives and
    pushes **one** completion event per query onto the owner's heap, as a
    ``(finish, kind, seq, server_index, query_id)`` tuple: ``kind`` is
    ``EVT_CPU_DONE`` or ``EVT_GPU_DONE``, ``seq`` is drawn from the owner's
    shared counter at submission, and ``server_index`` routes the event back
    to this kernel.  :meth:`retire` then only removes the finished query.
    The plan is exactly what request-by-request dispatch would produce,
    because both queues are FIFO over identical cores:

    * the kernel keeps a min-heap of at most ``num_cores`` core-free times
      and drops those ``<= now`` (completions come before arrivals at one
      instant);
    * while a core is free, a request starts at once on ``row[busy + 1]``,
      the service time with ``busy + 1`` cores active;
    * otherwise it starts at the earliest core-free time on
      ``row[num_cores]``, since a waiting request implies every core busy;
    * the accelerator is one FIFO: a query starts at ``max(now, gpu_free)``;
    * ``cpu_busy_time`` adds each request's service in that FIFO order,
      which is the order dispatch would have added it.

    Within one server, equal-time completions therefore keep the order in
    which they were submitted, as dispatch order would give.  Across
    servers, equal-time completions are ordered by submission too (the
    shared ``seq``), not by when each query's final request started.

    A kernel built with a :class:`~repro.faults.NodeTimeline` plans against
    its node's known future:

    * work starting at submission uses the slowdown in force then;
    * work starting later, when a core or the accelerator frees at ``t``,
      uses the slowdown set by transitions strictly before ``t`` (the fault
      loop handles completions before transitions at one instant);
    * work that would start after the node's next crash is neither planned
      nor counted as busy time, and its query gets no completion event: the
      crash loses it.

    The live ``outstanding_queries`` / ``outstanding_items`` counters are
    the signals cluster load balancers key on.  Service times come from the
    engines' dense latency tables (bit-identical to the scalar engine calls).
    """

    __slots__ = (
        "_gpu_service",
        "_config",
        "_num_cores",
        "_events",
        "_counter",
        "_server_index",
        "_batch_size",
        "_threshold",
        "_cpu_service",
        "_timeline",
        "_core_free",
        "_gpu_free",
        "_states",
        "cpu_busy_time",
        "gpu_busy_time",
        "total_items",
        "gpu_items",
        "num_submitted",
        "outstanding_items",
    )

    def __init__(
        self,
        engines: EnginePair,
        config: ServingConfig,
        num_cores: int,
        events: List[tuple],
        counter: Iterator[int],
        server_index: int = 0,
        timeline: Optional[NodeTimeline] = None,
    ) -> None:
        self._config = config
        self._num_cores = num_cores
        self._events = events
        self._counter = counter
        self._server_index = server_index
        self._batch_size = config.batch_size
        self._threshold = (
            config.offload_threshold if engines.gpu is not None else None
        )
        self._timeline = timeline

        # Dense service-time lookups: _cpu_service[active_cores][batch].
        # Engines without a latency table (duck-typed wrappers) fall back to
        # lazily memoised scalar calls with the same row[batch] interface.
        cpu_table = getattr(engines.cpu, "latency_table", None)
        if cpu_table is not None:
            self._cpu_service = [None] + [
                cpu_table.column(config.batch_size, cores)
                for cores in range(1, num_cores + 1)
            ]
        else:
            self._cpu_service = [None] + [
                _LazyServiceRow(engines.cpu.request_latency_s, cores, config.batch_size)
                for cores in range(1, num_cores + 1)
            ]
        if engines.gpu is None:
            self._gpu_service = None
        else:
            gpu_table = getattr(engines.gpu, "latency_table", None)
            self._gpu_service = (
                gpu_table.total_s if gpu_table is not None else engines.gpu.query_latency_s
            )

        self._core_free: List[float] = []  # min-heap of busy cores' free times
        self._gpu_free = -_INFINITY
        self._states: Dict[int, Query] = {}

        self.cpu_busy_time = 0.0
        self.gpu_busy_time = 0.0
        self.total_items = 0
        self.gpu_items = 0
        self.num_submitted = 0
        self.outstanding_items = 0

    @property
    def config(self) -> ServingConfig:
        """The scheduling configuration this kernel runs."""
        return self._config

    @property
    def num_cores(self) -> int:
        """Number of CPU worker cores simulated."""
        return self._num_cores

    @property
    def outstanding_queries(self) -> int:
        """Queries accepted but not yet fully completed (derived, O(1))."""
        return len(self._states)

    @property
    def num_completed(self) -> int:
        """Queries fully completed so far (derived, O(1)).

        After a :meth:`crash`, queries lost in flight are counted here too:
        the counter is "queries no longer on the server", and the fault
        layer tracks failures separately in its
        :class:`~repro.faults.FaultStats`.
        """
        return self.num_submitted - len(self._states)

    def set_server_index(self, server_index: int) -> None:
        """Re-tag future completion events with a new heap routing slot.

        The cluster's fault path retires a crashed kernel's old slot (so
        completions already on the shared heap become stale no-ops) and
        rebinds the kernel to a fresh slot on recovery.
        """
        self._server_index = server_index

    def fork(self, events: List[tuple], counter: Iterator[int]) -> "ServerKernel":
        """Copy of this kernel's in-flight state that pushes onto ``events``.

        Engines, configuration, service-time rows and the fault timeline are
        shared (they never change during a run); the core-free heap, the
        state map and the busy/work counters are copied, so draining the
        fork leaves this kernel exactly where it was.
        """
        fork = ServerKernel.__new__(ServerKernel)
        for name in ServerKernel.__slots__:
            setattr(fork, name, getattr(self, name))
        fork._events = events
        fork._counter = counter
        fork._core_free = list(self._core_free)
        fork._states = dict(self._states)
        return fork

    def crash(self) -> List[Query]:
        """Fail the node: drop all queued and in-flight work.

        Returns the lost queries in submission order so the owner can fail
        or re-dispatch them per its retry policy.  Busy-time and item
        counters keep the work already started — burned cycles on a dead
        node are not refunded, matching fleet-utilisation accounting.
        Completion events already pushed onto the shared heap are NOT
        removed; the owner must retire this kernel's ``server_index`` slot
        so they arrive as stale no-ops.
        """
        states = self._states
        lost = list(states.values())
        states.clear()
        self._core_free.clear()
        self._gpu_free = -_INFINITY
        self.outstanding_items = 0
        return lost

    def submit(self, query: Query, now: float) -> None:
        """Accept an arriving query and plan all of its work.

        Offloads it whole to the accelerator or splits it into CPU requests
        (full batches first, remainder last, as ``split_query`` orders
        them), then pushes the query's single completion event — unless
        part of it would start after the node's next crash.
        """
        size = query.size
        query_id = query.query_id
        self.num_submitted += 1
        self.total_items += size
        self.outstanding_items += size
        self._states[query_id] = query
        timeline = self._timeline
        if timeline is None:
            scale = 1.0
            crash_at = _INFINITY
        else:
            scale = timeline.scale_at(now)
            crash_at = timeline.next_crash_after(now)

        threshold = self._threshold
        if threshold is not None and size > threshold:
            self.gpu_items += size
            start = self._gpu_free
            if start <= now:
                start = now
            elif timeline is not None:
                if start > crash_at:
                    return
                scale = timeline.scale_before(start)
            service = self._gpu_service(size) * scale
            self.gpu_busy_time += service
            finish = start + service
            self._gpu_free = finish
            heappush(
                self._events,
                (finish, EVT_GPU_DONE, next(self._counter), self._server_index, query_id),
            )
            return

        cores = self._core_free
        while cores and cores[0] <= now:
            heappop(cores)
        if size <= self._batch_size:
            # One request, the common case: on a free core at once, or on
            # the earliest core to free up.
            busy = len(cores)
            if busy < self._num_cores:
                service = self._cpu_service[busy + 1][size] * scale
                finish = now + service
                heappush(cores, finish)
            else:
                start = cores[0]
                if timeline is not None:
                    if start > crash_at:
                        return
                    scale = timeline.scale_before(start)
                service = self._cpu_service[self._num_cores][size] * scale
                finish = start + service
                heapreplace(cores, finish)
            self.cpu_busy_time += service
        else:
            split_finish = self._plan_split(size, now, scale, crash_at)
            if split_finish is None:
                return
            finish = split_finish
        heappush(
            self._events,
            (finish, EVT_CPU_DONE, next(self._counter), self._server_index, query_id),
        )

    def _plan_split(
        self, size: int, now: float, scale: float, crash_at: float
    ) -> Optional[float]:
        """Plan a query split into requests; its finish, or None if a crash loses it.

        Full batches come first and the remainder last, as ``split_query``
        orders them.
        """
        cores = self._core_free
        rows = self._cpu_service
        num_cores = self._num_cores
        batch = self._batch_size
        full, remainder = divmod(size, batch)
        busy_time = self.cpu_busy_time
        finish = now
        # Free cores first: each request starts now, one more core active.
        busy = len(cores)
        while busy < num_cores and (full or remainder):
            busy += 1
            if full:
                full -= 1
                service = rows[busy][batch] * scale
            else:
                service = rows[busy][remainder] * scale
                remainder = 0
            busy_time += service
            end = now + service
            heappush(cores, end)
            if end > finish:
                finish = end
        # The rest waits: each request starts when the earliest core frees.
        # Starts never decrease, so equal requests' ends never do either.
        row = rows[num_cores]
        timeline = self._timeline
        if timeline is None:
            if full:
                service = row[batch]
                for _ in range(full):
                    end = cores[0] + service
                    busy_time += service
                    heapreplace(cores, end)
                if end > finish:
                    finish = end
            if remainder:
                service = row[remainder]
                end = cores[0] + service
                busy_time += service
                heapreplace(cores, end)
                if end > finish:
                    finish = end
        else:
            for request_batch in itertools.chain(
                itertools.repeat(batch, full), (remainder,) if remainder else ()
            ):
                start = cores[0]
                if start > crash_at:
                    # Lost at the crash: no busy time for work never started.
                    self.cpu_busy_time = busy_time
                    return None
                service = row[request_batch] * timeline.scale_before(start)
                end = start + service
                busy_time += service
                heapreplace(cores, end)
                if end > finish:
                    finish = end
        self.cpu_busy_time = busy_time
        return finish

    def retire(self, query_id: int) -> Query:
        """Remove a query whose completion event fired; return it."""
        query = self._states.pop(query_id)
        self.outstanding_items -= query.size
        return query


def late_window_p95(samples: Sequence[float]) -> float:
    """p95 of the second (completion-ordered) half of the measured latencies."""
    late_window = samples[len(samples) // 2 :]
    return float(np.percentile(late_window, 95)) if len(late_window) else 0.0


def _sketch_recorder(tracker, late_tracker, late_start):
    """Chunked ``record(latency)`` / ``flush()`` pair for sketch-mode runs.

    Latencies buffer into a bounded chunk and flush in bulk (the tracker's
    ndarray fast path).  A flush is forced exactly at the late-window
    boundary, so no chunk ever straddles it: every chunk at or past
    ``late_start`` measured samples feeds the late-window sketch too.
    """
    chunk: List[float] = []
    chunk_append = chunk.append
    state = [0]  # measured samples already flushed (chunk start index)

    def flush() -> None:
        if not chunk:
            return
        arr = np.asarray(chunk, dtype=np.float64)
        tracker.extend(arr)
        if state[0] >= late_start:
            late_tracker.extend(arr)
        state[0] += len(chunk)
        chunk.clear()

    def record(latency: float) -> None:
        chunk_append(latency)
        filled = state[0] + len(chunk)
        if filled == late_start or len(chunk) >= _SKETCH_CHUNK:
            flush()

    return record, flush


def _drain_events(events, ordered, cursor, next_arrival, kernel, last_completion):
    """Run the event loop to exhaustion without recording latencies.

    Used once a :class:`CertainAcceptance` certificate fires: the remaining
    completions cannot change the verdict, but the drain time (last
    completion after the last arrival) is part of the stability check, so
    the mechanics still run — submissions, completions, clock — with all
    per-query measurement skipped.  Returns the exact last completion time.
    """
    submit = kernel.submit
    retire = kernel.retire
    num_arrivals = len(ordered)
    while True:
        if events and events[0][0] <= next_arrival:
            now, _, _, _, query_id = heappop(events)
            retire(query_id)
            if now > last_completion:
                last_completion = now
            continue
        if cursor >= num_arrivals:
            return last_completion
        query = ordered[cursor]
        cursor += 1
        next_arrival = (
            ordered[cursor].arrival_time if cursor < num_arrivals else _INFINITY
        )
        submit(query, query.arrival_time)


class ServingSimulator:
    """Event-driven simulator for one inference server.

    ``latency_stats`` selects how measured latencies are aggregated:
    ``"exact"`` (default) buffers every sample — bit-identical statistics,
    memory linear in the trace; ``"sketch"`` streams samples into a
    fixed-space :class:`~repro.utils.sketch.QuantileSketch` — percentiles
    within the sketch's documented rank-error bound, peak memory O(1) in
    the trace length, and ``latencies_s`` left empty on the result.
    """

    def __init__(
        self,
        engines: EnginePair,
        config: ServingConfig,
        latency_stats: str = "exact",
    ) -> None:
        self._engines = engines
        self._num_cores = resolve_num_cores(engines, config)
        self._config = config
        self._latency_stats = _check_latency_stats(latency_stats)

    @property
    def config(self) -> ServingConfig:
        """The scheduling configuration being simulated."""
        return self._config

    @property
    def num_cores(self) -> int:
        """Number of CPU worker cores simulated."""
        return self._num_cores

    @property
    def latency_stats(self) -> str:
        """Latency aggregation mode: ``"exact"`` or ``"sketch"``."""
        return self._latency_stats

    # ------------------------------------------------------------------ #

    def run(
        self,
        queries: Sequence[Query],
        reject_above_sla_s: Optional[float] = None,
        accept_within_sla_s: Optional[float] = None,
    ) -> Union[SimulationResult, CertainRejection, CertainAcceptance]:
        """Simulate serving ``queries`` and return aggregate measurements.

        ``reject_above_sla_s`` arms the exact early-rejection exit: the run
        stops and returns a :class:`CertainRejection` the moment enough
        measured latencies exceed the target that the completed run's p95
        would provably exceed it too (:func:`certain_rejection_threshold`).
        With only rejection armed, runs that meet the target always complete
        and return the ordinary full result, so accepted measurements are
        unchanged bit for bit.

        ``accept_within_sla_s`` arms the dual early-acceptance exit: once so
        few measured latencies exceed the target that neither the full run's
        p95 nor its late-window p95 can end up over it
        (:func:`certain_acceptance_threshold`), latency recording stops, the
        event loop drains to the exact last completion, and a
        :class:`CertainAcceptance` carrying the measured drain time is
        returned instead of full statistics.  Callers that report a run's
        statistics must leave this unarmed (or re-run) — capacity searches
        arm it only for probe evaluations whose result objects are discarded.
        """
        if not queries:
            raise ValueError("cannot simulate an empty query stream")
        config = self._config

        ordered = sorted(queries, key=_arrival_key)
        warmup_count = int(len(ordered) * config.warmup_fraction)
        warmup_ids = {q.query_id for q in ordered[:warmup_count]}
        measured_total = len(ordered) - warmup_count
        reject_sla = reject_above_sla_s if reject_above_sla_s is not None else _INFINITY
        reject_needed = certain_rejection_threshold(measured_total)
        over_sla = 0

        # Certain-acceptance bookkeeping: the late-window boundary is known
        # up front (every measured query completes in a no-fault run), so
        # both the whole-run and late-window certificates can be tracked.
        accept_armed = accept_within_sla_s is not None
        accept_sla = accept_within_sla_s if accept_armed else _INFINITY
        late_start = measured_total // 2
        accept_allowed = certain_acceptance_threshold(measured_total)
        accept_allowed_late = certain_acceptance_threshold(measured_total - late_start)
        accept_over = 0
        accept_over_late = 0

        # Arrivals are consumed straight from the sorted list with a cursor;
        # only query completions (one per query) go through the event heap.
        # A completion at time t is processed before an arrival at the same
        # instant, which the kernel's plan assumes (a core freeing at t is
        # free for a query arriving at t).
        events: List[tuple] = []
        kernel = ServerKernel(
            self._engines, config, self._num_cores, events, itertools.count()
        )

        first_arrival = ordered[0].arrival_time
        last_completion = first_arrival

        # Hot loop: bind everything to locals.  In exact mode measured
        # latencies collect into a plain list and feed the tracker in one
        # vectorized pass; in sketch mode they flush chunk-wise into
        # fixed-space sketches so peak memory stays O(1) in the trace.
        submit = kernel.submit
        retire = kernel.retire
        measured_latencies: List[float] = []
        sketch_mode = self._latency_stats == "sketch"
        if sketch_mode:
            tracker = PercentileTracker(mode="sketch")
            late_tracker = PercentileTracker(mode="sketch")
            record, flush_chunks = _sketch_recorder(tracker, late_tracker, late_start)
        else:
            record = measured_latencies.append
        measured_count = 0
        num_arrivals = len(ordered)
        cursor = 0
        next_arrival = first_arrival
        with pause_gc():
            while True:
                if events:
                    head = events[0]
                    now = head[0]
                    if now <= next_arrival:
                        _, _, _, _, query_id = heappop(events)
                        completed = retire(query_id)
                        if now > last_completion:
                            last_completion = now
                        if query_id not in warmup_ids:
                            latency = now - completed.arrival_time
                            record(latency)
                            measured_count += 1
                            if latency > reject_sla:
                                over_sla += 1
                                if over_sla >= reject_needed:
                                    return CertainRejection(
                                        sla_latency_s=reject_sla,
                                        measured_queries=measured_count,
                                        over_sla_queries=over_sla,
                                    )
                            if accept_armed:
                                if latency > accept_sla:
                                    accept_over += 1
                                    if measured_count > late_start:
                                        accept_over_late += 1
                                remaining = measured_total - measured_count
                                if (
                                    accept_over + remaining <= accept_allowed
                                    and accept_over_late + remaining
                                    <= accept_allowed_late
                                ):
                                    last_completion = _drain_events(
                                        events,
                                        ordered,
                                        cursor,
                                        next_arrival,
                                        kernel,
                                        last_completion,
                                    )
                                    return CertainAcceptance(
                                        sla_latency_s=accept_sla,
                                        measured_queries=measured_count,
                                        over_sla_queries=accept_over,
                                        drain_s=max(
                                            0.0,
                                            last_completion
                                            - ordered[-1].arrival_time,
                                        ),
                                        arrival_span_s=max(
                                            ordered[-1].arrival_time - first_arrival,
                                            1e-9,
                                        ),
                                    )
                        continue
                if cursor >= num_arrivals:
                    break
                query = ordered[cursor]
                cursor += 1
                next_arrival = (
                    ordered[cursor].arrival_time if cursor < num_arrivals else _INFINITY
                )
                submit(query, query.arrival_time)

        if sketch_mode:
            flush_chunks()
            samples: List[float] = []
        else:
            tracker = PercentileTracker()
            tracker.extend(measured_latencies)

        duration = max(last_completion - first_arrival, 1e-9)
        offered_duration = max(ordered[-1].arrival_time - first_arrival, 1e-9)
        measured = tracker.count
        if measured == 0:
            raise ValueError(
                "no queries outside the warmup window; lower warmup_fraction or "
                "send more queries"
            )
        if sketch_mode:
            p95_late = (
                late_tracker.percentile(95) if late_tracker.raw_count else 0.0
            )
        else:
            samples = tracker.samples()
            p95_late = late_window_p95(samples)
        return SimulationResult(
            config=config,
            num_queries=len(ordered),
            measured_queries=measured,
            duration_s=duration,
            p50_latency_s=tracker.p50(),
            p95_latency_s=tracker.p95(),
            p99_latency_s=tracker.p99(),
            mean_latency_s=tracker.mean(),
            achieved_qps=len(ordered) / duration,
            offered_qps=len(ordered) / offered_duration,
            cpu_utilization=min(1.0, kernel.cpu_busy_time / (self._num_cores * duration)),
            gpu_utilization=min(1.0, kernel.gpu_busy_time / duration),
            gpu_work_fraction=(
                (kernel.gpu_items / kernel.total_items) if kernel.total_items else 0.0
            ),
            p95_late_window_s=p95_late,
            drain_s=max(0.0, last_completion - ordered[-1].arrival_time),
            arrival_span_s=offered_duration,
            latencies_s=samples,
        )
