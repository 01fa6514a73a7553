"""Fleet-scale serving: a multi-server cluster simulator with pluggable balancing.

The paper evaluates recommendation inference on production fleets of
heterogeneous servers, not on one machine.  :class:`ClusterSimulator` fans a
single query stream out across N simulated servers — each an independent
:class:`~repro.serving.simulator.ServerKernel`, optionally heterogeneous
(different platforms, core counts, batch sizes, with or without an attached
accelerator) — behind a pluggable load balancer, and aggregates fleet-level
tail latency, per-server utilisation, and QPS-at-SLA capacity.

Balancing decisions are made *online*, at each query's arrival instant,
against the servers' live outstanding-work counters; because every server
runs the same event mechanics as :class:`ServingSimulator` from a shared
event heap, a cluster of one server reproduces the single-server simulator's
measurements exactly.

Five balancing policies ship by default:

* ``random`` — assign each query to a uniformly random server, blind to load
  (the pre-partitioning scheme the datacenter simulation historically used);
* ``round-robin`` — cycle through servers regardless of load;
* ``least-outstanding`` — send each query to the server with the least
  outstanding work (items queued or in flight);
* ``weighted-least-outstanding`` — least outstanding work normalised by each
  node's speed factor, so a slow node carrying the same item count as a fast
  one is correctly seen as busier (weighted round-robin's load signal);
* ``power-of-two`` — sample two distinct servers uniformly and pick the less
  loaded one (the classic "power of two choices" scheme, which captures most
  of least-outstanding's benefit with O(1) state probes).
"""

from __future__ import annotations

import copy
import heapq
import itertools
import random
from abc import ABC, abstractmethod
from array import array
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Set, Union

import numpy as np

from repro.execution.engine import EnginePair, build_cpu_engine
from repro.execution.scaled_engine import ScaledCPUEngine
from repro.faults.plan import (
    KIND_CRASH,
    KIND_RECOVER,
    KIND_SLOW_OFF,
    KIND_SLOW_ON,
    FaultPlan,
    FaultStats,
    NodeHealth,
    NodeTimeline,
    RetryPolicy,
)
from repro.queries.generator import LoadGenerator
from repro.queries.query import Query
from repro.serving.capacity import (
    CapacityCache,
    CapacityResult,
    estimate_upper_bound_qps,
    offload_size_stats,
)
from repro.serving.simulator import (
    CertainAcceptance,
    CertainRejection,
    SLACriteriaMixin,
    ServerKernel,
    ServingConfig,
    _INFINITY,
    _arrival_key,
    _check_latency_stats,
    _sketch_recorder,
    certain_acceptance_threshold,
    certain_rejection_threshold,
    late_window_p95,
    pause_gc,
    resolve_num_cores,
)
from repro.utils.rng import SeedLike, derive_rng
from repro.utils.stats import PercentileTracker
from repro.utils.validation import check_positive


# --------------------------------------------------------------------------- #
# Load-balancing policies
# --------------------------------------------------------------------------- #


class LoadBalancer(ABC):
    """Chooses the destination server for each arriving query.

    Balancers are stateful across one simulated run (``reset`` is called at
    the start of every :meth:`ClusterSimulator.run`) and observe the fleet
    through each kernel's live ``outstanding_items`` counter — the same
    signal a production balancer gets from per-backend in-flight counters.
    """

    #: Registry name of the policy (e.g. ``"round-robin"``).
    name: str = ""

    def prepare(self, servers: Sequence["ClusterServer"]) -> None:
        """Observe the fleet's static description before a run.

        Called by :meth:`ClusterSimulator.run` before :meth:`reset` with the
        fleet's :class:`ClusterServer` entries, so policies that weight their
        load signal by static node properties (speed factors, core counts)
        can precompute per-node weights.  The default is a no-op.
        """

    def reset(self, num_servers: int) -> None:
        """Prepare for a fresh run over ``num_servers`` servers."""

    def observe_health(self, health: Sequence[NodeHealth]) -> None:
        """Receive the fleet's live health view (fault-injected runs only).

        Called by :meth:`ClusterSimulator.run` once before the first arrival
        and again after every fault transition, with a per-node list of
        :class:`~repro.faults.NodeHealth` the simulator mutates in place —
        the production analogue of a balancer's health-check feed.  Runs
        without a :class:`~repro.faults.FaultPlan` never call this, so
        health-blind policies stay bit-identical.  The default is a no-op.
        """

    @abstractmethod
    def choose(self, query: Query, servers: Sequence[ServerKernel]) -> int:
        """Index of the server that should execute ``query``."""


class RandomBalancer(LoadBalancer):
    """Assign each query to a uniformly random server, ignoring load.

    This is the legacy datacenter-cluster behaviour (random pre-partitioning
    of the stream) recast as an online policy, so the production-fleet
    experiments can compare it directly against load-aware balancing.  Like
    :class:`PowerOfTwoBalancer` it draws from the stdlib Mersenne-Twister
    generator — one bounded scalar per arrival on the hot path — and streams
    are seed-stable across platforms and Python versions.
    """

    name = "random"

    def __init__(self, seed: int = 0) -> None:
        self._seed = seed
        self._random = random.Random(seed)
        self._randrange = self._random.randrange

    def reset(self, num_servers: int) -> None:
        self._random.seed(self._seed)

    def choose(self, query: Query, servers: Sequence[ServerKernel]) -> int:
        return self._randrange(len(servers))


class RoundRobinBalancer(LoadBalancer):
    """Cycle through the fleet, ignoring load (the stateless baseline)."""

    name = "round-robin"

    def __init__(self) -> None:
        self._next = 0

    def reset(self, num_servers: int) -> None:
        self._next = 0

    def choose(self, query: Query, servers: Sequence[ServerKernel]) -> int:
        index = self._next % len(servers)
        self._next += 1
        return index


class LeastOutstandingBalancer(LoadBalancer):
    """Send each query to the server with the least outstanding work.

    Outstanding *items* (not query count) is the load signal, so a server
    chewing on one huge query is correctly seen as busier than one holding
    several small queries.  Ties break toward the lowest server index.
    """

    name = "least-outstanding"

    def choose(self, query: Query, servers: Sequence[ServerKernel]) -> int:
        # Equivalent to min(range(n), key=lambda i: (items, i)) but without
        # the per-query lambda/tuple allocations (this runs once per arrival).
        best_index = 0
        best_load = servers[0].outstanding_items
        for index in range(1, len(servers)):
            load = servers[index].outstanding_items
            if load < best_load:
                best_index = index
                best_load = load
        return best_index


class WeightedLeastOutstandingBalancer(LoadBalancer):
    """Least outstanding work normalised by each node's speed factor.

    ``outstanding_items`` counts *items*, but on a speed-heterogeneous fleet
    the same item count represents different amounts of remaining service
    time: a node whose ``speed_factor`` is 1.2 (20 % slower than nominal)
    holding 100 items is busier than a nominal node holding 110.  This
    policy weights each node's outstanding items by its service-time
    multiplier — the fleet analogue of weighted round-robin's capacity-aware
    load signal — and routes to the node with the least outstanding *work*.
    Nodes without a ``speed_factor`` (unscaled engines) weigh 1.0, so on a
    homogeneous fleet the policy degenerates to plain least-outstanding.
    Ties break toward the lowest server index.
    """

    name = "weighted-least-outstanding"

    def __init__(self) -> None:
        self._costs: List[float] = []
        self._prepared = False

    def prepare(self, servers: Sequence["ClusterServer"]) -> None:
        self._costs = [
            float(getattr(server.engines.cpu, "speed_factor", 1.0))
            for server in servers
        ]
        self._prepared = True

    def reset(self, num_servers: int) -> None:
        # Weights are valid for exactly one run: without a fresh prepare()
        # (e.g. bare kernels, or a reused instance pointed at a different
        # fleet) every node weighs 1.0 and the policy matches
        # least-outstanding exactly, instead of applying a stale fleet's
        # speed factors.
        if not self._prepared or len(self._costs) != num_servers:
            self._costs = [1.0] * num_servers
        self._prepared = False

    def choose(self, query: Query, servers: Sequence[ServerKernel]) -> int:
        costs = self._costs
        best_index = 0
        best_load = servers[0].outstanding_items * costs[0]
        for index in range(1, len(servers)):
            load = servers[index].outstanding_items * costs[index]
            if load < best_load:
                best_index = index
                best_load = load
        return best_index


class PowerOfTwoBalancer(LoadBalancer):
    """Probe two random servers, pick the less loaded (power-of-two-choices).

    Uses the stdlib Mersenne-Twister generator rather than a numpy
    ``Generator``: the balancer draws two bounded scalars per arriving query
    on the simulator's hot path, and ``random.Random.randrange`` is roughly
    an order of magnitude cheaper per scalar draw.  Streams are seed-stable
    across platforms and Python versions.
    """

    name = "power-of-two"

    def __init__(self, seed: int = 0) -> None:
        self._seed = seed
        self._random = random.Random(seed)
        self._randrange = self._random.randrange

    def reset(self, num_servers: int) -> None:
        self._random.seed(self._seed)

    def choose(self, query: Query, servers: Sequence[ServerKernel]) -> int:
        count = len(servers)
        if count == 1:
            return 0
        randrange = self._randrange
        first = randrange(count)
        second = randrange(count - 1)
        if second >= first:
            second += 1
        if servers[second].outstanding_items < servers[first].outstanding_items:
            return second
        return first


class FailureAwareBalancer(LoadBalancer):
    """Least outstanding work among *healthy* nodes, weighted by slowdown.

    The failure-aware counterpart of :class:`LeastOutstandingBalancer`: the
    simulator's health view (:meth:`LoadBalancer.observe_health`) marks
    crashed nodes, which are skipped entirely, and straggling nodes, whose
    outstanding items are weighted by their current ``slowdown`` so a node
    serving at a third of nominal speed is correctly seen as three times as
    busy.  Ties break toward the lowest server index.

    Without a health view — any run that injects no faults — every node is
    up with slowdown 1.0 and the policy is *exactly* least-outstanding
    (asserted in ``tests/test_faults.py``).  If the whole fleet is down the
    policy degrades to plain least-outstanding over all nodes: the dispatch
    is lost either way, and the retry layer decides what happens next.
    """

    name = "failure-aware"

    def __init__(self) -> None:
        self._health: Optional[Sequence[NodeHealth]] = None

    def reset(self, num_servers: int) -> None:
        # A health view is valid for exactly one run; the simulator pushes a
        # fresh one (via observe_health) after reset when faults are active.
        self._health = None

    def observe_health(self, health: Sequence[NodeHealth]) -> None:
        self._health = health

    def choose(self, query: Query, servers: Sequence[ServerKernel]) -> int:
        health = self._health
        if health is None:
            best_index = 0
            best_load = servers[0].outstanding_items
            for index in range(1, len(servers)):
                load = servers[index].outstanding_items
                if load < best_load:
                    best_index = index
                    best_load = load
            return best_index
        best_index = -1
        best_load = float("inf")
        for index in range(len(servers)):
            node = health[index]
            if not node.up:
                continue
            load = servers[index].outstanding_items * node.slowdown
            if load < best_load:
                best_index = index
                best_load = load
        if best_index >= 0:
            return best_index
        # Whole fleet down: any choice is lost; stay deterministic.
        best_index = 0
        best_load = servers[0].outstanding_items
        for index in range(1, len(servers)):
            load = servers[index].outstanding_items
            if load < best_load:
                best_index = index
                best_load = load
        return best_index


_BALANCER_REGISTRY = {
    RandomBalancer.name: RandomBalancer,
    RoundRobinBalancer.name: RoundRobinBalancer,
    LeastOutstandingBalancer.name: LeastOutstandingBalancer,
    WeightedLeastOutstandingBalancer.name: WeightedLeastOutstandingBalancer,
    PowerOfTwoBalancer.name: PowerOfTwoBalancer,
    FailureAwareBalancer.name: FailureAwareBalancer,
}

#: Policies whose decisions depend on a random stream (and hence on ``seed``).
_SEEDED_BALANCERS = (RandomBalancer, PowerOfTwoBalancer)


def available_balancers() -> List[str]:
    """Registered balancing-policy names, sorted."""
    return sorted(_BALANCER_REGISTRY)


def get_balancer(policy: Union[str, LoadBalancer], seed: int = 0) -> LoadBalancer:
    """Resolve a policy name (or pass through an instance) to a balancer.

    ``seed`` only affects randomised policies (random, power-of-two-choices).
    """
    if isinstance(policy, LoadBalancer):
        return policy
    key = str(policy).lower()
    if key not in _BALANCER_REGISTRY:
        raise KeyError(
            f"unknown balancing policy {policy!r}; available: {available_balancers()}"
        )
    factory = _BALANCER_REGISTRY[key]
    if factory in _SEEDED_BALANCERS:
        return factory(seed=seed)
    return factory()


# --------------------------------------------------------------------------- #
# Fleet description and results
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class ClusterServer:
    """One server of the fleet: its engines plus its scheduling configuration."""

    engines: EnginePair
    config: ServingConfig
    name: str = ""


def homogeneous_fleet(
    engines: EnginePair, config: ServingConfig, num_servers: int
) -> List[ClusterServer]:
    """A fleet of ``num_servers`` identical servers sharing one engine pair.

    Engines are pure latency models, so sharing one instance across servers
    is safe; all per-run state lives in each server's kernel.
    """
    check_positive("num_servers", num_servers)
    return [
        ClusterServer(engines=engines, config=config, name=f"server-{index}")
        for index in range(num_servers)
    ]


def heterogeneous_fleet(
    model: str,
    config: ServingConfig,
    num_servers: int,
    platform_mix: Optional[Dict[str, float]] = None,
    speed_spread: float = 0.06,
    rng: SeedLike = None,
) -> List[ClusterServer]:
    """A fleet drawn from a platform mix with a per-node speed spread.

    Each server's platform is sampled from ``platform_mix`` (weights need not
    be normalised; default an even Skylake/Broadwell mix) and its engine is a
    :class:`~repro.execution.scaled_engine.ScaledCPUEngine` whose
    ``speed_factor`` is drawn uniformly from ``1 +- speed_spread`` — the
    within-generation heterogeneity (DVFS, memory population, co-located
    workloads) of a production fleet.  One nominal engine is built per
    distinct platform and shared by all its nodes, so the fleet shares one
    latency-table build per platform and every node stays on the dense fast
    path (the scaled view is exactly ``speed_factor x`` the base table).

    ``rng`` accepts a seed or a ``numpy.random.Generator``; the per-node
    draw order (platform, then speed factor) is stable, so a fleet is fully
    reproducible from its seed.
    """
    check_positive("num_servers", num_servers)
    if not 0.0 <= speed_spread < 0.5:
        raise ValueError(f"speed_spread must be in [0, 0.5), got {speed_spread}")
    mix = platform_mix if platform_mix is not None else {"skylake": 0.5, "broadwell": 0.5}
    total = sum(mix.values())
    if total <= 0:
        raise ValueError("platform_mix weights must sum to a positive value")
    generator = derive_rng(rng)
    platform_names = list(mix)
    probabilities = np.array([mix[name] for name in platform_names]) / total
    base_engines: Dict[str, Any] = {}
    servers: List[ClusterServer] = []
    for index in range(num_servers):
        platform_name = str(generator.choice(platform_names, p=probabilities))
        speed_factor = float(1.0 + generator.uniform(-speed_spread, speed_spread))
        base = base_engines.get(platform_name)
        if base is None:
            base = build_cpu_engine(model, platform_name)
            base_engines[platform_name] = base
        servers.append(
            ClusterServer(
                engines=EnginePair(cpu=ScaledCPUEngine(base, speed_factor), gpu=None),
                config=config,
                name=f"node-{index}-{platform_name}",
            )
        )
    return servers


@dataclass(frozen=True)
class ServerLoadSummary:
    """Per-server slice of one cluster run."""

    name: str
    num_queries: int
    num_items: int
    cpu_utilization: float
    gpu_utilization: float
    gpu_work_fraction: float
    query_share: float


@dataclass
class ClusterSimulationResult(SLACriteriaMixin):
    """Fleet-level measurements from one cluster run.

    The SLA/stability acceptance criterion (``meets_sla`` / ``is_stable`` /
    ``acceptable``) is inherited from :class:`SLACriteriaMixin`, so fleet
    capacity searches judge runs by exactly the single-server rule — with
    one fault-aware refinement: a query lost to faults counts as an SLA
    miss (its latency is effectively infinite), so a balancer that
    blackholes traffic into a dead node cannot *flatter* its p95 by simply
    never completing the slow queries.  Runs with no failed queries use the
    inherited check verbatim.
    """

    policy: str
    num_servers: int
    num_queries: int
    measured_queries: int
    duration_s: float
    p50_latency_s: float
    p95_latency_s: float
    p99_latency_s: float
    mean_latency_s: float
    achieved_qps: float
    offered_qps: float
    fleet_cpu_utilization: float
    per_server: List[ServerLoadSummary]
    p95_late_window_s: float = 0.0
    drain_s: float = 0.0
    arrival_span_s: float = 0.0
    latencies_s: List[float] = field(default_factory=list, repr=False)
    #: Measured latencies per server (completion order), aligned with
    #: ``per_server``.  Only populated when the simulator was built with
    #: ``collect_per_server_latencies=True``.
    per_server_latencies: Optional[List[List[float]]] = field(
        default=None, repr=False
    )
    #: Fault-injection tally.  ``None`` on runs without a
    #: :class:`~repro.faults.FaultPlan`, so zero-plan results compare equal
    #: to pre-fault-support results field for field.
    fault_stats: Optional[FaultStats] = None

    @property
    def failed_queries(self) -> int:
        """Queries lost to faults after exhausting their retry budget."""
        return self.fault_stats.failed_queries if self.fault_stats else 0

    def meets_sla(self, sla_latency_s: float) -> bool:
        """p95 within target, with failed queries counted as SLA misses.

        A failed query never produces a latency sample, so judging a
        faulted run by the p95 of its *completions* rewards losing queries
        outright.  Instead the failed queries are folded back in at
        effectively infinite latency: the run meets the SLA only if at most
        5% of the *offered-and-measured* population (completions plus
        failures) missed it.  Fault-free runs (``failed_queries == 0``)
        take the inherited single-server check verbatim, keeping zero-plan
        results bit-identical.
        """
        if not self.failed_queries:
            return SLACriteriaMixin.meets_sla(self, sla_latency_s)
        if self.p95_latency_s > sla_latency_s:
            return False  # completions alone already miss the target
        over = self.failed_queries
        over += sum(1 for latency in self.latencies_s if latency > sla_latency_s)
        total = len(self.latencies_s) + self.failed_queries
        return over <= 0.05 * total

    def max_query_share(self) -> float:
        """Largest fraction of the stream any one server absorbed.

        0.0 when no per-server summaries exist (e.g. a result rebuilt from a
        partial serialisation) rather than raising on the empty ``max``.
        """
        if not self.per_server:
            return 0.0
        return max(summary.query_share for summary in self.per_server)


# --------------------------------------------------------------------------- #
# The cluster simulator
# --------------------------------------------------------------------------- #


class _FaultTrack:
    """Per-query fault bookkeeping, created lazily on first fault contact.

    Queries never touched by a fault (the overwhelming majority) have no
    track at all.  ``live`` counts dispatched attempts currently running on
    an up node; ``done`` flips when the query completes (first attempt wins)
    or permanently fails.
    """

    __slots__ = ("query", "attempts_left", "live", "done")

    def __init__(self, query: Query, attempts_left: int) -> None:
        self.query = query
        self.attempts_left = attempts_left
        self.live = 0
        self.done = False


def _healthy_least_loaded(
    kernels: Sequence[ServerKernel],
    health: Sequence[NodeHealth],
    exclude: int,
) -> int:
    """Least-loaded up node other than ``exclude``; -1 when none exists.

    The deterministic hedge-target rule: ties break toward the lowest index,
    so a fixed fault plan always hedges to the same nodes.
    """
    best_index = -1
    best_load = _INFINITY
    for index in range(len(kernels)):
        if index == exclude or not health[index].up:
            continue
        load = kernels[index].outstanding_items
        if load < best_load:
            best_index = index
            best_load = load
    return best_index


def _discard_latency(latency: float) -> None:
    """No-op recorder swapped in once a CertainAcceptance certificate fires.

    The loops keep running after the certificate (the drain time is part of
    the stability check, and the balancer still routes on live counters),
    so they just stop retaining latencies.
    """


#: Query ids below this pack into a resumable run's 64-bit id record.
_PACKED_ID_LIMIT = 2**64


def _fleet_result(
    simulator: "ClusterSimulator",
    kernels: Sequence[ServerKernel],
    tracker: PercentileTracker,
    late_tracker: Optional[PercentileTracker],
    first_arrival: float,
    last_arrival: float,
    last_completion: float,
    num_queries: int,
    per_server_latencies: Optional[List[List[float]]] = None,
    fault_stats: Optional[FaultStats] = None,
) -> ClusterSimulationResult:
    """Assemble one run's fleet measurements (shared by every cluster loop).

    ``tracker`` holds the measured latencies; ``late_tracker`` is the
    sketch-mode late-window tracker, and ``None`` means exact mode, where
    the late window is the second half of the retained samples.
    """
    duration = max(last_completion - first_arrival, 1e-9)
    offered_duration = max(last_arrival - first_arrival, 1e-9)
    measured = tracker.count
    if measured == 0:
        raise ValueError(
            "no queries outside the warmup window; lower warmup_fraction or "
            "send more queries"
        )
    if late_tracker is None:
        samples = tracker.samples()
        p95_late = late_window_p95(samples)
    else:
        samples = []
        p95_late = late_tracker.percentile(95) if late_tracker.raw_count else 0.0

    per_server: List[ServerLoadSummary] = []
    total_core_busy = 0.0
    total_cores = 0
    for server, kernel in zip(simulator.servers, kernels):
        total_core_busy += kernel.cpu_busy_time
        total_cores += kernel.num_cores
        per_server.append(
            ServerLoadSummary(
                name=server.name,
                num_queries=kernel.num_submitted,
                num_items=kernel.total_items,
                cpu_utilization=min(
                    1.0, kernel.cpu_busy_time / (kernel.num_cores * duration)
                ),
                gpu_utilization=min(1.0, kernel.gpu_busy_time / duration),
                gpu_work_fraction=(
                    kernel.gpu_items / kernel.total_items if kernel.total_items else 0.0
                ),
                query_share=kernel.num_submitted / num_queries,
            )
        )

    return ClusterSimulationResult(
        policy=simulator.policy,
        num_servers=len(kernels),
        num_queries=num_queries,
        measured_queries=measured,
        duration_s=duration,
        p50_latency_s=tracker.p50(),
        p95_latency_s=tracker.p95(),
        p99_latency_s=tracker.p99(),
        mean_latency_s=tracker.mean(),
        achieved_qps=num_queries / duration,
        offered_qps=num_queries / offered_duration,
        fleet_cpu_utilization=min(1.0, total_core_busy / (total_cores * duration)),
        per_server=per_server,
        p95_late_window_s=p95_late,
        drain_s=max(0.0, last_completion - last_arrival),
        arrival_span_s=offered_duration,
        latencies_s=samples,
        per_server_latencies=per_server_latencies,
        fault_stats=fault_stats,
    )


class ClusterRun:
    """One pass of the no-fault cluster event loop, resumable between arrivals.

    The run owns everything the loop mutates — the kernels, the shared
    completion heap, the heap's sequence counter and a balancer instance —
    so it can stop after any arrival and pick up again later.
    :meth:`ClusterSimulator.run` is one :meth:`_advance` over the whole
    sorted trace; :meth:`ClusterSimulator.start` opens a run that admits
    a stream piece by piece:

    * :meth:`advance` admits time-ordered arrivals, processing every
      completion at or before each one exactly as a single pass would, and
      stops right after the last of them;
    * :meth:`finish` drains a copy of the in-flight state (event heap, each
      kernel's core-free heap and query map, busy counters; engines and
      latency tables are shared) and measures it.  The live run is
      untouched, so the stream can continue, and each :meth:`finish`
      equals ``ClusterSimulator.run`` over every arrival admitted so far,
      bit for bit.

    Because the warmup window is a fraction of the *final* stream length, a
    resumable run records every completion as a ``(query_id, latency)``
    pair and applies :meth:`ClusterSimulator.run`'s warmup rule at
    :meth:`finish` time.  It retains a latency and an id per completion
    plus each arrival's id (24 bytes a query) in both statistics modes.
    The cost of an :meth:`advance` is its arrivals' events; the cost of a
    :meth:`finish` is the in-flight work plus one vectorised pass over that
    record.

    >>> from repro.execution.engine import EnginePair, build_cpu_engine
    >>> from repro.queries.generator import LoadGenerator
    >>> engines = EnginePair(cpu=build_cpu_engine("ncf", "broadwell"), gpu=None)
    >>> config = ServingConfig(batch_size=64, num_cores=4)
    >>> simulator = ClusterSimulator(homogeneous_fleet(engines, config, 2))
    >>> stream = LoadGenerator(seed=3).with_rate(200.0).generate(300)
    >>> live = simulator.start()
    >>> live.advance(stream[:150])
    >>> live.advance(stream[150:])
    >>> live.finish().latencies_s == simulator.run(stream).latencies_s
    True
    """

    def __init__(
        self,
        simulator: "ClusterSimulator",
        balancer: LoadBalancer,
        warmup_ids: Optional[Set[int]] = None,
        record: Optional[Callable[[float], None]] = None,
    ) -> None:
        self._simulator = simulator
        self._counter = itertools.count()
        self._events: List[tuple] = []
        self._kernels = [
            ServerKernel(server.engines, server.config, cores, self._events, self._counter, index)
            for index, (server, cores) in enumerate(
                zip(simulator._servers, simulator._cores)
            )
        ]
        balancer.prepare(simulator._servers)
        balancer.reset(len(self._kernels))
        self._choose = balancer.choose
        self._first_arrival: Optional[float] = None
        self._last_arrival = -_INFINITY
        self._last_completion = -_INFINITY
        self._per_server_latencies: Optional[List[List[float]]] = None
        self._latencies: Any
        self._completed_ids: Any
        if warmup_ids is None:
            # Resumable: the warmup window is not known yet, so every
            # completion is recorded with its id (packed, 16 bytes a query)
            # and the warmup rule is applied at finish().
            self._warmup_ids: Set[int] = set()
            self._latencies = array("d")
            self._completed_ids = array("Q")
            self._admitted: Any = array("Q")
        else:
            self._warmup_ids = warmup_ids
            self._latencies = []
            self._completed_ids = None
            if simulator._collect_per_server:
                self._per_server_latencies = [[] for _ in self._kernels]
        self._record = record if record is not None else self._latencies.append

    @property
    def last_arrival(self) -> float:
        """Arrival time of the latest admitted query (``-inf`` before any)."""
        return self._last_arrival

    def advance(self, arrivals: Sequence[Query]) -> None:
        """Admit ``arrivals``, sorted by arrival time and none before the last.

        Completions at or before each arrival are processed first, exactly
        as a single pass over the whole stream processes them; work still
        in flight after the last arrival stays in flight.  A call that
        raises after validation leaves the run part-advanced: discard it.
        """
        if not arrivals:
            return
        previous = self._last_arrival
        for query in arrivals:
            if query.arrival_time < previous:
                raise ValueError(
                    "advance() requires arrivals sorted by time and none "
                    f"earlier than the last admitted ({previous}); query "
                    f"{query.query_id} arrives at {query.arrival_time}"
                )
            previous = query.arrival_time
        ids = [query.query_id for query in arrivals]
        if isinstance(self._admitted, array) and max(ids) >= _PACKED_ID_LIMIT:
            # Ids too wide to pack: keep Python ints from here on.
            self._admitted = list(self._admitted)
            self._completed_ids = list(self._completed_ids)
        self._admitted.extend(ids)
        self._advance(arrivals, -_INFINITY)

    def finish(self) -> ClusterSimulationResult:
        """Measure the stream admitted so far, leaving this run resumable.

        Equal to :meth:`ClusterSimulator.run` over every admitted arrival.
        """
        if self._first_arrival is None:
            raise ValueError("cannot simulate an empty query stream")
        drained = copy.copy(self)
        drained._counter = itertools.count(next(self._counter))
        drained._events = list(self._events)
        drained._kernels = [
            kernel.fork(drained._events, drained._counter) for kernel in self._kernels
        ]
        drained._latencies = self._latencies[:0]
        drained._record = drained._latencies.append
        drained._completed_ids = self._completed_ids[:0]
        drained._advance((), _INFINITY)

        # run()'s warmup rule: no query whose id is among the first
        # warmup_count arrivals is measured.
        simulator = self._simulator
        num_queries = len(self._admitted)
        warmup_count = int(num_queries * simulator.warmup_fraction)
        latencies = np.concatenate((self._latencies, drained._latencies))
        if warmup_count:
            completed_ids = self._completed_ids + drained._completed_ids
            warmup_ids = self._admitted[:warmup_count]
            if isinstance(completed_ids, array):
                warmup = np.isin(np.asarray(completed_ids), np.asarray(warmup_ids))
            else:
                lookup = set(warmup_ids)
                warmup = np.fromiter(
                    (query_id in lookup for query_id in completed_ids),
                    dtype=bool,
                    count=len(completed_ids),
                )
            latencies = latencies[~warmup]
        if simulator.latency_stats == "sketch":
            tracker = PercentileTracker(mode="sketch")
            late_tracker: Optional[PercentileTracker] = PercentileTracker(mode="sketch")
            record, flush_chunks = _sketch_recorder(
                tracker, late_tracker, (num_queries - warmup_count) // 2
            )
            for latency in latencies.tolist():
                record(latency)
            flush_chunks()
        else:
            tracker = PercentileTracker()
            tracker.extend(latencies)
            late_tracker = None
        return _fleet_result(
            simulator,
            drained._kernels,
            tracker,
            late_tracker,
            self._first_arrival,
            self._last_arrival,
            drained._last_completion,
            num_queries,
        )

    def _advance(
        self,
        ordered: Sequence[Query],
        tail: float,
        measured_total: int = 0,
        reject_above_sla_s: Optional[float] = None,
        accept_within_sla_s: Optional[float] = None,
    ) -> Union[None, CertainRejection, CertainAcceptance]:
        """The event loop: admit ``ordered``, then run the heap up to ``tail``.

        ``tail`` stands in for the arrival after the last one: ``inf``
        drains every completion (a whole run), ``-inf`` stops right after
        the last arrival (a resumable step).  The certificates (see
        :meth:`ClusterSimulator.run`) are for whole runs only; they need
        ``measured_total`` and return the certificate instead of ``None``.
        """
        if ordered:
            if self._first_arrival is None:
                self._first_arrival = self._last_completion = ordered[0].arrival_time
            next_arrival = ordered[0].arrival_time
        else:
            next_arrival = tail
        reject_sla = reject_above_sla_s if reject_above_sla_s is not None else _INFINITY
        reject_needed = certain_rejection_threshold(measured_total)
        over_sla = 0

        # Certain-acceptance bookkeeping (see ServingSimulator.run): the
        # late-window boundary is known up front in a no-fault run, so both
        # the whole-run and late-window certificates can be tracked.
        accept_armed = accept_within_sla_s is not None
        accept_sla = accept_within_sla_s if accept_armed else _INFINITY
        late_start = measured_total // 2
        accept_allowed = certain_acceptance_threshold(measured_total)
        accept_allowed_late = certain_acceptance_threshold(measured_total - late_start)
        accept_over = 0
        accept_over_late = 0
        accepted: Optional[CertainAcceptance] = None

        # Arrivals are consumed straight from the sorted list with a cursor
        # (the balancer assigns their server at that point); only query
        # completions go through the event heap, one per query, as
        # (time, kind, seq, server, query_id).  A completion at time t is
        # processed before an arrival at the same instant, as the kernels'
        # plans assume.  Hot loop: bind everything to locals.
        events = self._events
        kernels = self._kernels
        heappop = heapq.heappop
        choose = self._choose
        warmup_ids = self._warmup_ids
        record = self._record
        completed_ids = self._completed_ids
        record_id = completed_ids.append if completed_ids is not None else None
        per_server_latencies = self._per_server_latencies
        last_completion = self._last_completion
        measured_count = 0
        num_kernels = len(kernels)
        num_arrivals = len(ordered)
        cursor = 0
        with pause_gc():
            while True:
                if events:
                    head = events[0]
                    now = head[0]
                    if now <= next_arrival:
                        _, _, _, server_index, query_id = heappop(events)
                        completed = kernels[server_index].retire(query_id)
                        if now > last_completion:
                            last_completion = now
                        if query_id not in warmup_ids:
                            latency = now - completed.arrival_time
                            record(latency)
                            measured_count += 1
                            if record_id is not None:
                                record_id(query_id)
                            if per_server_latencies is not None:
                                per_server_latencies[server_index].append(latency)
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
                                    # Certificate fired: stop measuring, but
                                    # run on to the last completion so the
                                    # drain time stays exact.
                                    accept_armed = False
                                    reject_sla = _INFINITY
                                    record = _discard_latency
                                    per_server_latencies = None
                                    accepted = CertainAcceptance(
                                        sla_latency_s=accept_sla,
                                        measured_queries=measured_count,
                                        over_sla_queries=accept_over,
                                        drain_s=0.0,
                                        arrival_span_s=0.0,
                                    )
                        continue
                if cursor >= num_arrivals:
                    break
                query = ordered[cursor]
                cursor += 1
                next_arrival = (
                    ordered[cursor].arrival_time if cursor < num_arrivals else tail
                )
                chosen = choose(query, kernels)
                if not 0 <= chosen < num_kernels:
                    raise ValueError(
                        f"balancer {self._simulator.policy!r} chose server "
                        f"{chosen} of {num_kernels}"
                    )
                kernels[chosen].submit(query, query.arrival_time)

        self._last_completion = last_completion
        if ordered:
            self._last_arrival = ordered[-1].arrival_time
        if accepted is not None:
            return CertainAcceptance(
                sla_latency_s=accepted.sla_latency_s,
                measured_queries=accepted.measured_queries,
                over_sla_queries=accepted.over_sla_queries,
                drain_s=max(0.0, last_completion - self._last_arrival),
                arrival_span_s=max(self._last_arrival - self._first_arrival, 1e-9),
            )
        return None


class ClusterSimulator:
    """Event-driven simulator for a fleet of inference servers.

    All servers share one event heap and one clock; the balancer routes each
    query at its arrival instant using the kernels' live outstanding-work
    counters, so balancing decisions see exactly the state a real balancer
    would.  With a single server every policy degenerates to pass-through and
    the run is event-for-event identical to :class:`ServingSimulator`.
    """

    def __init__(
        self,
        servers: Sequence[ClusterServer],
        balancer: Union[str, LoadBalancer] = "least-outstanding",
        warmup_fraction: Optional[float] = None,
        balancer_seed: int = 0,
        collect_per_server_latencies: bool = False,
        fault_plan: Optional[FaultPlan] = None,
        retry_policy: Optional[RetryPolicy] = None,
        latency_stats: str = "exact",
    ) -> None:
        if not servers:
            raise ValueError("a cluster needs at least one server")
        self._servers = [
            ClusterServer(
                engines=server.engines,
                config=server.config,
                name=server.name or f"server-{index}",
            )
            for index, server in enumerate(servers)
        ]
        # Validate every server's configuration up front (core counts,
        # offload thresholds) so a bad fleet fails fast, not mid-run.
        self._cores = [
            resolve_num_cores(server.engines, server.config) for server in self._servers
        ]
        self._balancer = get_balancer(balancer, seed=balancer_seed)
        if warmup_fraction is not None and not 0.0 <= warmup_fraction < 1.0:
            raise ValueError(
                f"warmup_fraction must be in [0, 1), got {warmup_fraction}"
            )
        self._warmup_fraction = warmup_fraction
        self._collect_per_server = collect_per_server_latencies
        # An empty plan is the "no faults" sentinel: run() then takes the
        # original code path, byte for byte, so zero-plan results stay
        # bit-identical to a simulator built without fault arguments.
        if fault_plan is not None and fault_plan.is_empty():
            fault_plan = None
        self._fault_plan = fault_plan
        self._retry_policy = retry_policy or RetryPolicy()
        self._latency_stats = _check_latency_stats(latency_stats)
        if self._latency_stats == "sketch":
            # Sketch mode trades retained samples for fixed space; both of
            # these consumers exist to *retain* per-sample data, so the
            # combination is a contradiction, rejected up front.
            if collect_per_server_latencies:
                raise ValueError(
                    "latency_stats='sketch' does not retain samples; "
                    "collect_per_server_latencies requires the exact mode"
                )
            if self._fault_plan is not None:
                raise ValueError(
                    "latency_stats='sketch' is not supported with a fault "
                    "plan: faulted runs are figure-sized and their SLA "
                    "verdict folds failed queries back into the retained "
                    "samples (ClusterSimulationResult.meets_sla)"
                )

    @property
    def servers(self) -> List[ClusterServer]:
        """The fleet's server descriptions."""
        return list(self._servers)

    @property
    def num_servers(self) -> int:
        """Fleet size."""
        return len(self._servers)

    @property
    def policy(self) -> str:
        """Name of the active balancing policy."""
        return self._balancer.name or type(self._balancer).__name__

    @property
    def latency_stats(self) -> str:
        """``"exact"`` (default, retains samples) or ``"sketch"`` (fixed space)."""
        return self._latency_stats

    @property
    def warmup_fraction(self) -> float:
        """Leading fraction of each run's arrivals excluded from measurement."""
        if self._warmup_fraction is not None:
            return self._warmup_fraction
        return self._servers[0].config.warmup_fraction

    @property
    def fault_plan(self) -> Optional[FaultPlan]:
        """The injected fault plan, or ``None`` (empty plans normalise to None)."""
        return self._fault_plan

    @property
    def retry_policy(self) -> RetryPolicy:
        """What happens to queries caught on a crashed node."""
        return self._retry_policy

    # ------------------------------------------------------------------ #

    def run(
        self,
        queries: Sequence[Query],
        reject_above_sla_s: Optional[float] = None,
        accept_within_sla_s: Optional[float] = None,
    ) -> Union[ClusterSimulationResult, CertainRejection, CertainAcceptance]:
        """Serve ``queries`` across the fleet and return fleet measurements.

        ``reject_above_sla_s`` arms the exact early-rejection exit shared
        with :class:`~repro.serving.simulator.ServingSimulator`: the run
        stops with a :class:`~repro.serving.simulator.CertainRejection` once
        the full run's p95 provably exceeds the target, and always completes
        (bit-identically) otherwise.  Capacity searches use it to cut short
        overloaded probe evaluations whose results are discarded anyway.

        ``accept_within_sla_s`` arms the dual early-acceptance exit: once
        neither the full run's p95 nor its late-window p95 can end up over
        the target, recording stops, the event loop drains (balancer
        included), and a
        :class:`~repro.serving.simulator.CertainAcceptance` carrying the
        exact measured drain time is returned instead of full statistics.
        Fault-injected runs ignore it: queries lost to faults shrink the
        measured population after the fact, so a certificate computed from
        the zero-failure total would not be sound there — and the
        fault-aware SLA verdict additionally folds failures back in as
        misses, which no completion-count certificate can anticipate.

        With a non-empty :class:`~repro.faults.FaultPlan`, the run is
        delegated to the fault-injected loop: servers crash (losing in-flight
        work, handled per the :class:`~repro.faults.RetryPolicy`), recover,
        and straggle mid-trace, and the result carries a
        :class:`~repro.faults.FaultStats`.  Without a plan the run is one
        :class:`ClusterRun` pass over the sorted trace — the same loop
        :meth:`start` resumes — and zero-plan runs are bit-identical to
        pre-fault-support builds (``tests/test_faults.py``).
        """
        if not queries:
            raise ValueError("cannot simulate an empty query stream")
        if self._fault_plan is not None:
            return self._run_with_faults(queries, reject_above_sla_s)

        ordered = sorted(queries, key=_arrival_key)
        warmup_count = int(len(ordered) * self.warmup_fraction)
        measured_total = len(ordered) - warmup_count
        sketch_mode = self._latency_stats == "sketch"
        if sketch_mode:
            tracker = PercentileTracker(mode="sketch")
            late_tracker: Optional[PercentileTracker] = PercentileTracker(mode="sketch")
            record, flush_chunks = _sketch_recorder(
                tracker, late_tracker, measured_total // 2
            )
        else:
            record = None
        live = ClusterRun(
            self,
            self._balancer,
            warmup_ids={q.query_id for q in ordered[:warmup_count]},
            record=record,
        )
        outcome = live._advance(
            ordered, _INFINITY, measured_total, reject_above_sla_s, accept_within_sla_s
        )
        if outcome is not None:
            return outcome
        if sketch_mode:
            flush_chunks()
        else:
            tracker = PercentileTracker()
            tracker.extend(live._latencies)
            late_tracker = None
        return _fleet_result(
            self,
            live._kernels,
            tracker,
            late_tracker,
            live._first_arrival,
            ordered[-1].arrival_time,
            live._last_completion,
            len(ordered),
            live._per_server_latencies,
        )

    def start(self) -> ClusterRun:
        """Open a resumable run over a stream admitted piece by piece.

        The run gets its own copy of the balancer (reset as :meth:`run`
        resets it), so it keeps its routing state across
        :meth:`ClusterRun.advance` calls while this simulator serves other
        runs.  Every :meth:`ClusterRun.finish` equals :meth:`run` over the
        arrivals admitted so far.  Fault plans and per-server latency
        collection are whole-run features and are not supported.
        """
        if self._fault_plan is not None:
            raise ValueError("resumable runs do not support fault injection; use run()")
        if self._collect_per_server:
            raise ValueError(
                "resumable runs do not collect per-server latencies; use run()"
            )
        return ClusterRun(self, copy.deepcopy(self._balancer))

    # ------------------------------------------------------------------ #

    def run_stream(
        self,
        queries: Iterable[Query],
        num_queries: int,
        reject_above_sla_s: Optional[float] = None,
        accept_within_sla_s: Optional[float] = None,
    ) -> Union[ClusterSimulationResult, CertainRejection, CertainAcceptance]:
        """Serve a streamed query iterable without materialising the trace.

        The constant-memory companion to :meth:`run` for million-query
        traces: ``queries`` is consumed one arrival ahead of the event
        clock, so at any instant the simulator holds only the in-flight
        queries — pair it with the chunked synthesis iterators
        (:func:`repro.queries.trace.iter_diurnal_trace`) and
        ``latency_stats="sketch"`` and peak memory is O(1) in the trace
        length.  In exchange the stream must satisfy what :meth:`run`
        normalises for itself:

        * arrivals come **pre-sorted** by arrival time (the generator
          paths already emit them sorted);
        * ``query_id`` equals the arrival index (0, 1, 2, ...), which is
          how the generators number queries — the warmup window is the
          first ``num_queries * warmup_fraction`` arrivals, tested by id;
        * ``num_queries`` states the stream's exact length up front (the
          warmup count and the early-exit certificates need the total
          before the stream ends); a mismatch raises at the end.

        Fault plans are not supported — faulted runs retain samples for
        their SLA verdict and are figure-sized; use :meth:`run`.
        ``reject_above_sla_s`` / ``accept_within_sla_s`` arm the same exact
        early exits as :meth:`run`.
        """
        if self._fault_plan is not None:
            raise ValueError(
                "run_stream does not support fault injection; use run()"
            )
        check_positive("num_queries", num_queries)
        iterator = iter(queries)
        pending = next(iterator, None)
        if pending is None:
            raise ValueError("cannot simulate an empty query stream")

        warmup_count = int(num_queries * self.warmup_fraction)
        measured_total = num_queries - warmup_count
        reject_sla = reject_above_sla_s if reject_above_sla_s is not None else _INFINITY
        reject_needed = certain_rejection_threshold(measured_total)
        over_sla = 0

        accept_armed = accept_within_sla_s is not None
        accept_sla = accept_within_sla_s if accept_armed else _INFINITY
        late_start = measured_total // 2
        accept_allowed = certain_acceptance_threshold(measured_total)
        accept_allowed_late = certain_acceptance_threshold(measured_total - late_start)
        accept_over = 0
        accept_over_late = 0

        counter = itertools.count()
        events: List[tuple] = []
        kernels = [
            ServerKernel(server.engines, server.config, cores, events, counter, index)
            for index, (server, cores) in enumerate(zip(self._servers, self._cores))
        ]
        self._balancer.prepare(self._servers)
        self._balancer.reset(len(kernels))

        first_arrival = pending.arrival_time
        last_arrival = first_arrival
        last_completion = first_arrival

        heappop = heapq.heappop
        choose = self._balancer.choose
        measured_latencies: List[float] = []
        sketch_mode = self._latency_stats == "sketch"
        if sketch_mode:
            tracker = PercentileTracker(mode="sketch")
            late_tracker = PercentileTracker(mode="sketch")
            record, flush_chunks = _sketch_recorder(tracker, late_tracker, late_start)
        else:
            record = measured_latencies.append
        measured_count = 0
        per_server_latencies: Optional[List[List[float]]] = (
            [[] for _ in kernels] if self._collect_per_server else None
        )
        num_kernels = len(kernels)
        consumed = 0
        next_arrival = first_arrival
        accepted: Optional[CertainAcceptance] = None
        with pause_gc():
            while True:
                if events:
                    head = events[0]
                    now = head[0]
                    if now <= next_arrival:
                        _, _, _, server_index, query_id = heappop(events)
                        completed = kernels[server_index].retire(query_id)
                        if now > last_completion:
                            last_completion = now
                        if query_id >= warmup_count:
                            latency = now - completed.arrival_time
                            record(latency)
                            measured_count += 1
                            if per_server_latencies is not None:
                                per_server_latencies[server_index].append(latency)
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
                                    # Certificate fired: stop recording, but
                                    # keep consuming and completing so the
                                    # drain time (and the stream-length
                                    # check) stays exact.
                                    accept_armed = False
                                    reject_sla = _INFINITY
                                    record = _discard_latency
                                    accepted = CertainAcceptance(
                                        sla_latency_s=accept_sla,
                                        measured_queries=measured_count,
                                        over_sla_queries=accept_over,
                                        drain_s=0.0,
                                        arrival_span_s=0.0,
                                    )
                        continue
                if pending is None:
                    break
                query = pending
                if query.query_id != consumed:
                    raise ValueError(
                        "run_stream requires query_id to equal the arrival "
                        f"index: got id {query.query_id} at position {consumed}"
                    )
                if query.arrival_time < last_arrival:
                    raise ValueError(
                        "run_stream requires arrivals pre-sorted by time: "
                        f"query {query.query_id} arrives at "
                        f"{query.arrival_time} after {last_arrival}"
                    )
                last_arrival = query.arrival_time
                consumed += 1
                pending = next(iterator, None)
                next_arrival = (
                    pending.arrival_time if pending is not None else _INFINITY
                )
                chosen = choose(query, kernels)
                if not 0 <= chosen < num_kernels:
                    raise ValueError(
                        f"balancer {self.policy!r} chose server {chosen} of "
                        f"{num_kernels}"
                    )
                kernels[chosen].submit(query, query.arrival_time)

        if consumed != num_queries:
            raise ValueError(
                f"num_queries={num_queries} but the stream yielded {consumed}"
            )
        offered_duration = max(last_arrival - first_arrival, 1e-9)
        if accepted is not None:
            return CertainAcceptance(
                sla_latency_s=accepted.sla_latency_s,
                measured_queries=accepted.measured_queries,
                over_sla_queries=accepted.over_sla_queries,
                drain_s=max(0.0, last_completion - last_arrival),
                arrival_span_s=offered_duration,
            )

        if sketch_mode:
            flush_chunks()
        else:
            tracker = PercentileTracker()
            tracker.extend(measured_latencies)
            late_tracker = None
        return _fleet_result(
            self,
            kernels,
            tracker,
            late_tracker,
            first_arrival,
            last_arrival,
            last_completion,
            num_queries,
            per_server_latencies,
        )

    # ------------------------------------------------------------------ #

    def _run_with_faults(
        self,
        queries: Sequence[Query],
        reject_above_sla_s: Optional[float] = None,
    ) -> Union[ClusterSimulationResult, CertainRejection]:
        """The fault-injected event loop: four merged, deterministic streams.

        Completions (shared heap), fault transitions (the plan, pre-sorted),
        retry detections (their own small heap), and arrivals (sorted-list
        cursor) merge on simulated time; ties at one instant resolve in that
        order, so a fixed plan over a fixed trace replays bit-identically.

        Crash mechanics: a crashed kernel's heap *slot* is retired, so its
        already-pushed completions arrive as stale no-ops, and the kernel is
        rebound to a fresh slot for its life after recovery — one kernel per
        node for the whole run, which keeps busy-time/work accounting
        cumulative.  Each kernel plans against its node's
        :class:`~repro.faults.NodeTimeline`, so a query whose work would
        start after the node's next crash gets no completion event and is
        returned by the crash as lost.  A down node still *exists* to
        health-blind balancers (cleared, outstanding 0 — they actively
        prefer it, which is exactly the naive-policy failure mode the
        degraded-fleet experiment shows); dispatches to it are black-holed
        and noticed ``detect_delay_s`` later.
        """
        ordered = sorted(queries, key=_arrival_key)
        warmup_count = int(len(ordered) * self.warmup_fraction)
        warmup_ids = {q.query_id for q in ordered[:warmup_count]}
        reject_sla = reject_above_sla_s if reject_above_sla_s is not None else _INFINITY
        # Computed from the zero-failure measured count: with failures the
        # true threshold only shrinks, so triggering on this larger count is
        # still an exact (never premature) rejection.
        reject_needed = certain_rejection_threshold(len(ordered) - warmup_count)
        over_sla = 0

        transitions = self._fault_plan.events(len(self._servers))
        timelines = NodeTimeline.per_node(transitions, len(self._servers))
        counter = itertools.count()
        events: List[tuple] = []
        kernels = [
            ServerKernel(
                server.engines, server.config, cores, events, counter, index, timelines[index]
            )
            for index, (server, cores) in enumerate(zip(self._servers, self._cores))
        ]
        num_kernels = len(kernels)
        self._balancer.prepare(self._servers)
        self._balancer.reset(num_kernels)

        health = [NodeHealth() for _ in kernels]
        observe_health = self._balancer.observe_health
        observe_health(health)
        stats = FaultStats()
        retry_policy = self._retry_policy
        detect_delay = retry_policy.detect_delay_s
        max_retries = retry_policy.max_retries
        hedge = retry_policy.hedge

        num_transitions = len(transitions)
        t_cursor = 0
        next_transition = transitions[0].time_s if transitions else _INFINITY

        # Completion routing: slot -> node (None = retired slot, stale
        # events), node -> current slot.  Slots only grow, one per crash.
        slot_node: List[Optional[int]] = list(range(num_kernels))
        node_slot: List[int] = list(range(num_kernels))

        retry_heap: List[tuple] = []  # (due_time, seq, query_id)
        retry_seq = itertools.count()
        tracked: Dict[int, _FaultTrack] = {}

        heappop = heapq.heappop
        heappush = heapq.heappush
        choose = self._balancer.choose

        def handle_lost(query: Query, now: float) -> None:
            """One live attempt for ``query`` died with its node."""
            track = tracked.get(query.query_id)
            if track is None:
                track = _FaultTrack(query, max_retries)
                tracked[query.query_id] = track
            elif track.live > 0:
                track.live -= 1
            if track.done or track.live > 0:
                return  # already completed/failed, or a hedge twin survives
            if track.attempts_left > 0:
                heappush(
                    retry_heap,
                    (now + detect_delay, next(retry_seq), query.query_id),
                )
            else:
                track.done = True
                stats.failed_queries += 1

        def dispatch_retry(track: _FaultTrack, now: float) -> None:
            """Consume one retry: re-dispatch (optionally hedged)."""
            query = track.query
            track.attempts_left -= 1
            stats.retries += 1
            chosen = choose(query, kernels)
            if not 0 <= chosen < num_kernels:
                raise ValueError(
                    f"balancer {self.policy!r} chose server {chosen} of "
                    f"{num_kernels}"
                )
            if health[chosen].up:
                kernels[chosen].submit(query, now)
                track.live += 1
            else:
                stats.blackholed_dispatches += 1
            if hedge:
                second = _healthy_least_loaded(kernels, health, exclude=chosen)
                if second >= 0:
                    kernels[second].submit(query, now)
                    stats.hedged_dispatches += 1
                    track.live += 1
            if track.live == 0:
                if track.attempts_left > 0:
                    heappush(
                        retry_heap,
                        (now + detect_delay, next(retry_seq), query.query_id),
                    )
                else:
                    track.done = True
                    stats.failed_queries += 1

        first_arrival = ordered[0].arrival_time
        last_completion = first_arrival
        measured_latencies: List[float] = []
        record = measured_latencies.append
        per_server_latencies: Optional[List[List[float]]] = (
            [[] for _ in kernels] if self._collect_per_server else None
        )
        num_arrivals = len(ordered)
        cursor = 0
        next_arrival = first_arrival
        with pause_gc():
            while True:
                next_completion = events[0][0] if events else _INFINITY
                next_retry = retry_heap[0][0] if retry_heap else _INFINITY
                if (
                    events
                    and next_completion <= next_transition
                    and next_completion <= next_retry
                    and next_completion <= next_arrival
                ):
                    now, _, _, slot, query_id = heappop(events)
                    node = slot_node[slot]
                    if node is None:
                        continue  # stale: pushed before its node crashed
                    completed = kernels[node].retire(query_id)
                    if now > last_completion:
                        last_completion = now
                    track = tracked.get(query_id)
                    if track is not None:
                        if track.done:
                            continue  # a hedge twin already finished first
                        track.done = True
                        track.live -= 1
                    if completed.query_id not in warmup_ids:
                        latency = now - completed.arrival_time
                        record(latency)
                        if per_server_latencies is not None:
                            per_server_latencies[node].append(latency)
                        if latency > reject_sla:
                            over_sla += 1
                            if over_sla >= reject_needed:
                                return CertainRejection(
                                    sla_latency_s=reject_sla,
                                    measured_queries=len(measured_latencies),
                                    over_sla_queries=over_sla,
                                )
                    continue
                if (
                    t_cursor < num_transitions
                    and next_transition <= next_retry
                    and next_transition <= next_arrival
                ):
                    transition = transitions[t_cursor]
                    t_cursor += 1
                    next_transition = (
                        transitions[t_cursor].time_s
                        if t_cursor < num_transitions
                        else _INFINITY
                    )
                    node = transition.node
                    kernel = kernels[node]
                    kind_t = transition.kind
                    if kind_t == KIND_CRASH:
                        if health[node].up:
                            health[node].up = False
                            stats.crashes += 1
                            old_slot = node_slot[node]
                            slot_node[old_slot] = None
                            new_slot = len(slot_node)
                            slot_node.append(node)
                            node_slot[node] = new_slot
                            kernel.set_server_index(new_slot)
                            lost = kernel.crash()
                            stats.crash_killed_in_flight += len(lost)
                            observe_health(health)
                            for query in lost:
                                handle_lost(query, transition.time_s)
                    elif kind_t == KIND_RECOVER:
                        if not health[node].up:
                            health[node].up = True
                            stats.recoveries += 1
                            observe_health(health)
                    elif kind_t == KIND_SLOW_ON:
                        # The kernel already planned with this slowdown (its
                        # timeline); only the balancer's view changes here.
                        health[node].slowdown = transition.slowdown
                        observe_health(health)
                    else:  # KIND_SLOW_OFF
                        health[node].slowdown = 1.0
                        observe_health(health)
                    continue
                if retry_heap and next_retry <= next_arrival:
                    due, _, query_id = heappop(retry_heap)
                    track = tracked[query_id]
                    if not track.done and track.live == 0:
                        dispatch_retry(track, due)
                    continue
                if cursor >= num_arrivals:
                    break
                query = ordered[cursor]
                cursor += 1
                next_arrival = (
                    ordered[cursor].arrival_time if cursor < num_arrivals else _INFINITY
                )
                chosen = choose(query, kernels)
                if not 0 <= chosen < num_kernels:
                    raise ValueError(
                        f"balancer {self.policy!r} chose server {chosen} of "
                        f"{num_kernels}"
                    )
                if health[chosen].up:
                    kernels[chosen].submit(query, query.arrival_time)
                else:
                    # Black-holed: the dispatch is lost and noticed
                    # detect_delay_s later, where the retry budget decides.
                    stats.blackholed_dispatches += 1
                    track = _FaultTrack(query, max_retries)
                    tracked[query.query_id] = track
                    if track.attempts_left > 0:
                        heappush(
                            retry_heap,
                            (
                                query.arrival_time + detect_delay,
                                next(retry_seq),
                                query.query_id,
                            ),
                        )
                    else:
                        track.done = True
                        stats.failed_queries += 1

        tracker = PercentileTracker()
        tracker.extend(measured_latencies)
        if tracker.count == 0:
            if reject_above_sla_s is not None:
                # A capacity probe where every measured query died (e.g. a
                # balancer blackholing the whole stream into a crashed
                # node): 100% of the offered population missed the SLA, so
                # the verdict is certain — reject, don't crash the search.
                return CertainRejection(
                    sla_latency_s=reject_above_sla_s,
                    measured_queries=0,
                    over_sla_queries=stats.failed_queries,
                )
            raise ValueError(
                "no queries completed outside the warmup window; lower the "
                "fault rates, the warmup_fraction, or send more queries"
            )
        return _fleet_result(
            self,
            kernels,
            tracker,
            None,
            first_arrival,
            ordered[-1].arrival_time,
            last_completion,
            len(ordered),
            per_server_latencies,
            stats,
        )


# --------------------------------------------------------------------------- #
# Fleet capacity
# --------------------------------------------------------------------------- #


def estimate_fleet_upper_bound_qps(
    servers: Sequence[ClusterServer], load_generator: LoadGenerator
) -> float:
    """Optimistic fleet throughput bound: the sum of per-server bounds."""
    if not servers:
        raise ValueError("a cluster needs at least one server")
    sizes = load_generator.sizes
    mean_size = sizes.mean()
    total = 0.0
    for server in servers:
        large_fraction, mean_large = offload_size_stats(
            sizes, server.config.offload_threshold
        )
        total += estimate_upper_bound_qps(
            server.engines, server.config, mean_size, large_fraction, mean_large
        )
    return total


def warm_latency_tables(
    servers: Sequence[ClusterServer], max_query_size: Optional[int] = None
) -> None:
    """Pre-fill the engines' latency-table columns every kernel will index.

    Called before forking capacity-search workers so the (possibly shared)
    engines carry fully built tables into the child processes instead of
    each worker rebuilding them lazily.  ``max_query_size`` (e.g. the size
    distribution's ``max_size``) additionally warms the GPU query-size
    column of accelerator-attached servers that offload.
    """
    for server in servers:
        cores = resolve_num_cores(server.engines, server.config)
        cpu_table = getattr(server.engines.cpu, "latency_table", None)
        if cpu_table is not None:
            for active_cores in range(1, cores + 1):
                cpu_table.column(server.config.batch_size, active_cores)
        if (
            max_query_size
            and server.engines.gpu is not None
            and server.config.offload_threshold is not None
        ):
            gpu_table = getattr(server.engines.gpu, "latency_table", None)
            if gpu_table is not None:
                gpu_table.totals(max_query_size)


def find_cluster_max_qps(
    servers: Sequence[ClusterServer],
    balancer: Union[str, LoadBalancer],
    sla_latency_s: float,
    load_generator: LoadGenerator,
    num_queries: int = 600,
    iterations: int = 6,
    headroom: float = 1.3,
    max_queries: int = 8000,
    warmup_fraction: Optional[float] = None,
    balancer_seed: int = 0,
    jobs: int = 1,
    warm_start_cache: Union[CapacityCache, str, Path, None] = None,
    pool: Optional[Any] = None,
    bracket_hints: bool = False,
    fault_plan: Optional[FaultPlan] = None,
    retry_policy: Optional[RetryPolicy] = None,
    accept_early: bool = False,
) -> CapacityResult:
    """Bisection search for the fleet's maximum QPS under the p95 SLA.

    The fleet analogue of :func:`repro.serving.capacity.find_max_qps`: the
    offered stream is generated once per candidate rate and routed by the
    balancer, so the measured capacity includes balancing losses (a skewed
    policy saturates one server before the fleet is nominally full).

    A thin wrapper over :class:`repro.runtime.capacity.CapacitySearch`.
    With ``jobs > 1`` the candidate rates of each bisection round are
    evaluated speculatively on the invocation's shared worker pool (or
    ``pool``, if given), returning a result identical to the serial search
    in a fraction of the wall-clock time; servers and balancer must then be
    picklable.  Inside a pool worker the search silently runs serially —
    nested pools are never forked.

    ``warm_start_cache`` (a :class:`~repro.serving.capacity.CapacityCache`
    or a directory path, typically the sweep runner's cache directory)
    replays a previously recorded identical search — verified by one
    evaluation at the cached rate — and records this search's outcome for
    future runs.  Because the schema-versioned signature pins every decision
    input, a warm-started search returns **bit-identical** results to the
    cold serial run.  ``bracket_hints=True`` opts into the near-miss
    warm-start tier: adjacent entries (SLA, batch size, policy, scaled
    fleet size) tighten the initial bracket — fewer evaluations, same
    capacity within the cold search's bracket tolerance, not bit-identical
    (see :meth:`repro.runtime.capacity.CapacitySearch.run`).

    ``fault_plan`` / ``retry_policy`` inject a deterministic
    :class:`~repro.faults.FaultPlan` into every candidate-rate evaluation,
    so the measured capacity is the fleet's capacity *under* those faults;
    the plan is folded into the warm-start signature, so faulted and
    fault-free searches never share cache entries.

    ``accept_early=True`` arms the certain-acceptance exit on probe
    evaluations — same answer, bit-identical reported result, less
    simulated work per accepted probe (ignored under a fault plan).
    """
    check_positive("num_queries", num_queries)
    from repro.runtime.capacity import CapacitySearch

    return CapacitySearch.for_fleet(
        servers,
        balancer,
        sla_latency_s,
        load_generator,
        num_queries=num_queries,
        iterations=iterations,
        headroom=headroom,
        max_queries=max_queries,
        warmup_fraction=warmup_fraction,
        balancer_seed=balancer_seed,
        fault_plan=fault_plan,
        retry_policy=retry_policy,
        accept_early=accept_early,
    ).run(
        jobs=jobs,
        warm_start_cache=warm_start_cache,
        pool=pool,
        bracket_hints=bracket_hints,
    )
