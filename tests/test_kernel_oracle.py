"""Differential tests: the planned event core against a naive reference.

``ServerKernel`` plans each query's whole execution when it arrives and
pushes one completion event per query.  The reference below does the
obvious thing instead: one heap event per CPU request, cores and the
accelerator fed from FIFO queues at every completion, each request served
in ``row[busy]`` (the service time with ``busy`` cores active, counting
itself) times the node's slowdown *at dispatch*, a crash dropping every
queued and running request, and busy time counted for dispatched requests
only.  Its event loop merges completions, fault transitions, retries and
arrivals with ``_run_with_faults``'s tie order.

The one convention the reference states explicitly is how equal-time
completions are ordered: by kind, then by when the query was submitted to
its server.  Within a server that is the order per-request dispatch gives
(both queues are FIFO); across servers it is the documented convention of
the planned kernel, pinned separately by :class:`TestTieConvention`.

Hypothesis draws small fleets, traces, batch sizes, offload thresholds,
fault plans and retry policies, half of them on an engine whose service
times are exact binary fractions so that equal-time events (completions
at an arrival, at a crash, at a straggler boundary, at each other) are
common rather than accidental.
"""

import heapq
import itertools
from collections import deque
from contextlib import contextmanager
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.execution.engine import EnginePair, build_engine_pair
from repro.faults import (
    CrashWindow,
    FaultPlan,
    FaultStats,
    NodeFaultSchedule,
    NodeHealth,
    RetryPolicy,
    StragglerEpisode,
)
from repro.faults.plan import KIND_CRASH, KIND_RECOVER, KIND_SLOW_ON
from repro.queries.query import Query
from repro.serving.cluster import (
    ClusterServer,
    ClusterSimulator,
    available_balancers,
    get_balancer,
)
from repro.serving.simulator import (
    ServerKernel,
    ServingConfig,
    ServingSimulator,
    resolve_num_cores,
)

INF = float("inf")
CPU_DONE, GPU_DONE = 0, 1
TICK = 1.0 / 32.0  # the dyadic engine's time grain


class DyadicCPU:
    """CPU engine whose service times are exact binary fractions."""

    platform = SimpleNamespace(num_cores=4)

    def request_latency_s(self, batch_size, active_cores):
        return (2 * batch_size + active_cores) * TICK


class DyadicGPU:
    """Accelerator engine whose service times are exact binary fractions."""

    def query_latency_s(self, size):
        return (size // 8 + 1) * TICK


DYADIC = EnginePair(cpu=DyadicCPU(), gpu=DyadicGPU())
REAL = build_engine_pair("dlrm-rmc1", "skylake", "gtx1080ti")
#: Time grain for traces and plans on the real engine: a quarter request.
REAL_GRAIN = REAL.cpu.request_latency_s(16, 1) / 4


# --------------------------------------------------------------------------- #
# The reference


class _Node:
    """One server, request by request."""

    def __init__(self, engines, config):
        self.cores = resolve_num_cores(engines, config)
        self.cpu = engines.cpu
        self.gpu = engines.gpu
        self.batch = config.batch_size
        self.threshold = config.offload_threshold if engines.gpu is not None else None
        self.scale = 1.0
        self.cpu_busy_time = 0.0
        self.gpu_busy_time = 0.0
        self.clear()

    def clear(self):
        self.queue = deque()  # (query id, request batch)
        self.gpu_queue = deque()  # query ids
        self.busy = 0
        self.gpu_busy = False
        self.held = {}  # query id -> [query, submission seq, unfinished requests]
        self.outstanding_items = 0


class Reference:
    """Naive per-request fleet simulator, fault loop included."""

    def __init__(self, servers, policy="round-robin", seed=0, plan=None, retry=None):
        self.nodes = [_Node(server.engines, server.config) for server in servers]
        self.balancer = get_balancer(policy, seed=seed)
        self.balancer.prepare(servers)
        self.balancer.reset(len(servers))
        self.health = [NodeHealth() for _ in servers]
        faulted = plan is not None and not plan.is_empty()
        if faulted:
            self.balancer.observe_health(self.health)
        self.transitions = deque(plan.events(len(servers)) if faulted else ())
        self.retry = retry or RetryPolicy()
        self.events = []  # (time, kind, submission seq, dispatch seq, slot, query id)
        self.slot_node = list(range(len(servers)))
        self.node_slot = list(range(len(servers)))
        self.seq = itertools.count()
        self.retries = []  # (due, seq, query id)
        self.tracks = {}  # query id -> [query, attempts left, live attempts, done]
        self.stats = FaultStats()
        self.order = []
        self.latency = {}

    def run(self, queries):
        arrivals = deque(sorted(queries, key=lambda query: query.arrival_time))
        while True:
            heads = (
                self.events[0][0] if self.events else INF,
                self.transitions[0].time_s if self.transitions else INF,
                self.retries[0][0] if self.retries else INF,
                arrivals[0].arrival_time if arrivals else INF,
            )
            first = min(heads)
            if first == INF:
                return self
            step = heads.index(first)  # ties: completion, transition, retry, arrival
            if step == 0:
                self.complete(*heapq.heappop(self.events))
            elif step == 1:
                self.transition(self.transitions.popleft())
            elif step == 2:
                due, _, query_id = heapq.heappop(self.retries)
                track = self.tracks[query_id]
                if not track[3] and track[2] == 0:
                    self.redispatch(track, due)
            else:
                query = arrivals.popleft()
                index = self.balancer.choose(query, self.nodes)
                if self.health[index].up:
                    self.submit(index, query, query.arrival_time)
                else:
                    self.stats.blackholed_dispatches += 1
                    self.tracks[query.query_id] = [query, self.retry.max_retries, 0, False]
                    self.schedule_retry(self.tracks[query.query_id], query.arrival_time)

    def submit(self, index, query, now):
        node = self.nodes[index]
        node.outstanding_items += query.size
        seq = next(self.seq)
        if node.threshold is not None and query.size > node.threshold:
            node.held[query.query_id] = [query, seq, 1]
            node.gpu_queue.append(query.query_id)
        else:
            full, remainder = divmod(query.size, node.batch)
            batches = [node.batch] * full + ([remainder] if remainder else [])
            node.held[query.query_id] = [query, seq, len(batches)]
            node.queue.extend((query.query_id, batch) for batch in batches)
        self.dispatch(index, now)

    def dispatch(self, index, now):
        node = self.nodes[index]
        slot = self.node_slot[index]
        while node.queue and node.busy < node.cores:
            query_id, batch = node.queue.popleft()
            node.busy += 1
            service = node.cpu.request_latency_s(batch, node.busy) * node.scale
            node.cpu_busy_time += service
            event = (now + service, CPU_DONE, node.held[query_id][1], next(self.seq), slot, query_id)
            heapq.heappush(self.events, event)
        if node.gpu_queue and not node.gpu_busy:
            query_id = node.gpu_queue.popleft()
            node.gpu_busy = True
            query, seq, _ = node.held[query_id]
            service = node.gpu.query_latency_s(query.size) * node.scale
            node.gpu_busy_time += service
            event = (now + service, GPU_DONE, seq, next(self.seq), slot, query_id)
            heapq.heappush(self.events, event)

    def complete(self, now, kind, _seq, _dispatch, slot, query_id):
        index = self.slot_node[slot]
        if index is None:
            return  # its node crashed after it started
        node = self.nodes[index]
        if kind == CPU_DONE:
            node.busy -= 1
        else:
            node.gpu_busy = False
        held = node.held[query_id]
        held[2] -= 1
        if held[2] == 0:
            del node.held[query_id]
            node.outstanding_items -= held[0].size
            self.finish(held[0], now)
        self.dispatch(index, now)

    def finish(self, query, now):
        track = self.tracks.get(query.query_id)
        if track is not None:
            if track[3]:
                return  # a hedged twin finished first
            track[3] = True
            track[2] -= 1
        self.order.append(query.query_id)
        self.latency[query.query_id] = now - query.arrival_time

    def transition(self, event):
        index = event.node
        node, health = self.nodes[index], self.health[index]
        if event.kind == KIND_CRASH:
            if not health.up:
                return
            health.up = False
            self.stats.crashes += 1
            self.slot_node[self.node_slot[index]] = None
            self.node_slot[index] = len(self.slot_node)
            self.slot_node.append(index)
            lost = [held[0] for held in node.held.values()]
            node.clear()
            self.stats.crash_killed_in_flight += len(lost)
            self.balancer.observe_health(self.health)
            for query in lost:
                self.lose(query, event.time_s)
            return
        if event.kind == KIND_RECOVER:
            if health.up:
                return
            health.up = True
            self.stats.recoveries += 1
        else:
            node.scale = event.slowdown if event.kind == KIND_SLOW_ON else 1.0
            health.slowdown = node.scale
        self.balancer.observe_health(self.health)

    def lose(self, query, now):
        track = self.tracks.get(query.query_id)
        if track is None:
            track = self.tracks[query.query_id] = [query, self.retry.max_retries, 0, False]
        elif track[2] > 0:
            track[2] -= 1
        if not track[3] and track[2] == 0:
            self.schedule_retry(track, now)

    def schedule_retry(self, track, now):
        if track[1] > 0:
            heapq.heappush(self.retries, (now + self.retry.detect_delay_s, next(self.seq), track[0].query_id))
        else:
            track[3] = True
            self.stats.failed_queries += 1

    def redispatch(self, track, now):
        query = track[0]
        track[1] -= 1
        self.stats.retries += 1
        chosen = self.balancer.choose(query, self.nodes)
        if self.health[chosen].up:
            self.submit(chosen, query, now)
            track[2] += 1
        else:
            self.stats.blackholed_dispatches += 1
        if self.retry.hedge:
            up = [i for i in range(len(self.nodes)) if i != chosen and self.health[i].up]
            if up:
                second = min(up, key=lambda i: (self.nodes[i].outstanding_items, i))
                self.submit(second, query, now)
                self.stats.hedged_dispatches += 1
                track[2] += 1
        if track[2] == 0:
            self.schedule_retry(track, now)


# --------------------------------------------------------------------------- #
# Observing the real kernels


@contextmanager
def observed_kernels():
    """Collect every kernel a run builds and every query id it retires."""
    kernels, retired = [], []
    init, retire = ServerKernel.__init__, ServerKernel.retire

    def observed_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        kernels.append(self)

    def observed_retire(self, query_id):
        retired.append(query_id)
        return retire(self, query_id)

    with mock.patch.object(ServerKernel, "__init__", observed_init), mock.patch.object(
        ServerKernel, "retire", observed_retire
    ):
        yield kernels, retired


def recorded_order(retired):
    """Query ids in recording order: a hedged twin's later finish is skipped."""
    return list(dict.fromkeys(retired))


def assert_matches(reference, queries, result, kernels, retired):
    order = recorded_order(retired)
    assert order == reference.order
    assert dict(zip(order, result.latencies_s)) == reference.latency
    assert len(result.latencies_s) == len(order)
    assert [k.cpu_busy_time for k in kernels] == [n.cpu_busy_time for n in reference.nodes]
    assert [k.gpu_busy_time for k in kernels] == [n.gpu_busy_time for n in reference.nodes]
    failed = {q.query_id for q in queries} - set(reference.latency)
    assert {q.query_id for q in queries} - set(order) == failed


# --------------------------------------------------------------------------- #
# Strategies


@st.composite
def scenarios(draw, max_servers=3, faults=True):
    dyadic = draw(st.booleans())
    engines = DYADIC if dyadic else REAL
    grain = TICK if dyadic else REAL_GRAIN
    servers = []
    for index in range(draw(st.integers(1, max_servers))):
        offload = draw(st.none() | st.sampled_from([1, 4, 16, 48]))
        config = ServingConfig(
            batch_size=draw(st.sampled_from([1, 2, 3, 4, 8, 16])),
            num_cores=draw(st.integers(1, 4)),
            offload_threshold=offload,
            warmup_fraction=0.0,
        )
        servers.append(ClusterServer(engines=engines, config=config, name=f"s{index}"))
    # Arrivals, fault transitions and (on the dyadic engine) service times
    # all sit on one grid, so coincidences are the rule.
    gaps = draw(st.lists(st.integers(0, 6), min_size=1, max_size=40))
    sizes = draw(st.lists(st.integers(1, 96), min_size=len(gaps), max_size=len(gaps)))
    queries, ticks = [], 0
    for query_id, (gap, size) in enumerate(zip(gaps, sizes)):
        ticks += gap
        queries.append(Query(query_id, ticks * grain, size))
    plan = None
    if faults and draw(st.booleans()):
        horizon = ticks + 8
        nodes = {}
        for index in range(len(servers)):
            nodes[index] = NodeFaultSchedule(
                crashes=tuple(
                    CrashWindow(start * grain, end * grain)
                    for start, end in draw(intervals(horizon))
                ),
                stragglers=tuple(
                    StragglerEpisode(start * grain, end * grain, draw(st.sampled_from([1.5, 2.0, 4.0])))
                    for start, end in draw(intervals(horizon))
                ),
            )
        plan = FaultPlan(nodes)
    retry = RetryPolicy(
        max_retries=draw(st.integers(0, 2)),
        hedge=draw(st.booleans()),
        detect_delay_s=draw(st.sampled_from([0.0, 1.0, 4.0])) * grain,
    )
    policy = draw(st.sampled_from(available_balancers()))
    return servers, queries, plan, retry, policy, draw(st.integers(0, 3))


@st.composite
def intervals(draw, horizon):
    """Up to two disjoint ``[start, end)`` pairs of grid points before ``horizon``."""
    points = sorted(draw(st.lists(st.integers(0, horizon), max_size=4, unique=True)))
    return list(zip(points[::2], points[1::2]))


ORACLE_SETTINGS = settings(
    max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


# --------------------------------------------------------------------------- #


class TestServingSimulatorAgainstReference:
    @ORACLE_SETTINGS
    @given(scenario=scenarios(max_servers=1, faults=False))
    def test_single_server_matches(self, scenario):
        servers, queries, _, _, _, _ = scenario
        server = servers[0]
        with observed_kernels() as (kernels, retired):
            result = ServingSimulator(server.engines, server.config).run(queries)
        reference = Reference(servers).run(queries)
        assert_matches(reference, queries, result, kernels, retired)


def check_fleet(servers, queries, plan=None, retry=None, policy="round-robin", seed=0):
    """Run the fleet both ways, assert they agree, return (reference, kernels)."""
    simulator = ClusterSimulator(
        servers, policy, warmup_fraction=0.0, balancer_seed=seed,
        fault_plan=plan, retry_policy=retry,
    )
    reference = Reference(servers, policy, seed, plan, retry).run(queries)
    with observed_kernels() as (kernels, retired):
        if not reference.latency:
            with pytest.raises(ValueError, match="no queries completed"):
                simulator.run(queries)
            return reference, kernels
        result = simulator.run(queries)
    assert_matches(reference, queries, result, kernels, retired)
    if simulator.fault_plan is None:
        assert result.fault_stats is None
    else:
        assert result.fault_stats == reference.stats
    return reference, kernels


class TestClusterSimulatorAgainstReference:
    @ORACLE_SETTINGS
    @given(scenario=scenarios(faults=False))
    def test_fault_free_fleet_matches(self, scenario):
        servers, queries, _, _, policy, seed = scenario
        check_fleet(servers, queries, policy=policy, seed=seed)

    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(scenario=scenarios())
    def test_faulted_fleet_matches(self, scenario):
        servers, queries, plan, retry, policy, seed = scenario
        check_fleet(servers, queries, plan, retry, policy, seed)


def one_node(batch_size=1, offload_threshold=None):
    config = ServingConfig(batch_size, num_cores=1, offload_threshold=offload_threshold)
    return [ClusterServer(DYADIC, config)]


def node_plan(crashes=(), stragglers=()):
    return FaultPlan({0: NodeFaultSchedule(
        crashes=tuple(CrashWindow(a * TICK, b * TICK) for a, b in crashes),
        stragglers=tuple(StragglerEpisode(a * TICK, b * TICK, 2.0) for a, b in stragglers),
    )})


class TestFaultCoincidences:
    """Work freeing up exactly at a fault transition, on both engines' queues.

    One dyadic node with one core: a request of one item runs 3 ticks, an
    accelerator query of 8 items runs 2.  Each case is also checked against
    the reference; the explicit numbers say what the rule means.
    """

    def test_request_starting_at_a_crash_is_dispatched_then_lost(self):
        # b waits for a's core, which frees at 3 = the crash: a completes,
        # b starts (3 ticks of busy time) and is lost.
        queries = [Query(0, 0.0, 1), Query(1, TICK, 1)]
        reference, kernels = check_fleet(one_node(), queries, node_plan(crashes=[(3, 9)]))
        assert reference.latency == {0: 3 * TICK}
        assert kernels[0].cpu_busy_time == 6 * TICK

    def test_accelerator_query_starting_at_a_crash_is_dispatched_then_lost(self):
        queries = [Query(0, 0.0, 8), Query(1, TICK, 8)]
        plan = node_plan(crashes=[(2, 9)])
        reference, kernels = check_fleet(one_node(offload_threshold=1), queries, plan)
        assert reference.latency == {0: 2 * TICK}
        assert kernels[0].gpu_busy_time == 4 * TICK

    def test_request_starting_at_a_slowdown_uses_the_old_scale(self):
        # b starts when a's core frees at 3, the instant the episode begins:
        # the completion comes first, so b runs at nominal speed.  c, queued
        # behind b, starts at 6 inside the episode and runs twice as long.
        queries = [Query(0, 0.0, 1), Query(1, TICK, 1), Query(2, 3 * TICK, 1)]
        reference, _ = check_fleet(one_node(), queries, node_plan(stragglers=[(3, 20)]))
        assert reference.latency == {0: 3 * TICK, 1: 5 * TICK, 2: 9 * TICK}

    def test_query_arriving_at_a_slowdown_uses_the_new_scale(self):
        # The accelerator frees at 2, when b arrives and the episode begins:
        # b starts at once, after the transition, so at half speed.
        queries = [Query(0, 0.0, 8), Query(1, 2 * TICK, 8)]
        plan = node_plan(stragglers=[(2, 20)])
        reference, _ = check_fleet(one_node(offload_threshold=1), queries, plan)
        assert reference.latency == {0: 2 * TICK, 1: 4 * TICK}

    def test_request_starting_at_a_slowdown_end_still_runs_slow(self):
        # a runs [0, 6) at half speed; the episode ends at 6, as a's core
        # frees.  The completion comes first, so b, queued, starts before
        # the transition and runs slow too: [6, 12).
        queries = [Query(0, 0.0, 1), Query(1, TICK, 1)]
        reference, _ = check_fleet(one_node(), queries, node_plan(stragglers=[(0, 6)]))
        assert reference.latency == {0: 6 * TICK, 1: 11 * TICK}


class ConstantCPU:
    """CPU engine serving every request in ``service_s`` seconds."""

    def __init__(self, service_s, num_cores=2):
        self.platform = SimpleNamespace(num_cores=num_cores)
        self._service_s = service_s

    def request_latency_s(self, batch_size, active_cores):
        return self._service_s * batch_size


class TestTieConvention:
    """Equal-time completions are recorded in the order queries were submitted."""

    def test_one_server_records_equal_time_completions_in_fifo_order(self):
        # A (2 items, arrives at 0) and B (1 item, arrives at 0.5) both
        # finish at 1.0 on a two-core server: A is recorded first.
        server = EnginePair(cpu=ConstantCPU(0.5), gpu=None)
        config = ServingConfig(batch_size=4, num_cores=2, warmup_fraction=0.0)
        queries = [Query(0, 0.0, 2), Query(1, 0.5, 1)]
        result = ServingSimulator(server, config).run(queries)
        assert result.latencies_s == [1.0, 0.5]

    def test_two_servers_record_in_submission_not_final_dispatch_order(self):
        # Server 0 (one core, batch 1) gets A at 0: its requests run [0, 1)
        # and [1, 2), so A's final request is dispatched at 1.  Server 1
        # gets B at 0.5, dispatched at once and finishing at 2 as well.
        # Per-request dispatch order would record B first; submission
        # order records A first.
        fleet = [
            ClusterServer(
                EnginePair(cpu=ConstantCPU(1.0, num_cores=1), gpu=None),
                ServingConfig(batch_size=1, num_cores=1),
            ),
            ClusterServer(
                EnginePair(cpu=ConstantCPU(1.5, num_cores=1), gpu=None),
                ServingConfig(batch_size=1, num_cores=1),
            ),
        ]
        queries = [Query(0, 0.0, 2), Query(1, 0.5, 1)]
        simulator = ClusterSimulator(fleet, "round-robin", warmup_fraction=0.0)
        assert simulator.run(queries).latencies_s == [2.0, 1.5]
        live = simulator.start()
        live.advance(queries)
        assert live.finish().latencies_s == [2.0, 1.5]
        streamed = simulator.run_stream(iter(queries), len(queries))
        assert streamed.latencies_s == [2.0, 1.5]
