"""The resumable cluster run and the digital twin built on it.

``ClusterSimulator.start()`` opens a run that admits a stream piece by piece;
every ``finish()`` must equal one ``ClusterSimulator.run`` over the arrivals
admitted so far.  The twin keeps one such run per fleet, so every window
report must equal a fresh batch run over windows 0..k — checked here on
random traces, window sizes, policies and statistics modes, including
duplicate query ids, absorbed windows and windows that reach back in time.
"""

from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.execution.engine import EnginePair, build_cpu_engine, build_engine_pair
from repro.faults import FaultPlan
from repro.queries.generator import LoadGenerator
from repro.queries.query import Query
from repro.serving.cluster import ClusterRun, ClusterSimulator, homogeneous_fleet
from repro.serving.simulator import ServerKernel, ServingConfig
from repro.service.shadow import FleetSpec
from repro.service.twin import DigitalTwin
from repro.service.windows import Window, WindowManager

#: Every policy that runs without a fault plan.
POLICIES = (
    "random",
    "round-robin",
    "least-outstanding",
    "weighted-least-outstanding",
    "power-of-two",
    "failure-aware",
)

ENGINES = EnginePair(cpu=build_cpu_engine("ncf", "broadwell"), gpu=None)
GPU_ENGINES = build_engine_pair("ncf", "broadwell", "gtx1080ti")


def fleet(num_servers=2, gpu=False):
    """Small fleet; with ``gpu``, queries above 100 items are offloaded."""
    config = ServingConfig(
        batch_size=64, num_cores=2, offload_threshold=100 if gpu else None
    )
    return homogeneous_fleet(GPU_ENGINES if gpu else ENGINES, config, num_servers)


def outcome(compute):
    """A computation's result, or the type of the exception it raised."""
    try:
        return compute()
    except (KeyError, ValueError) as error:
        return type(error)


@st.composite
def traces(draw, max_queries=60):
    """Queries with random arrivals and sizes, ids unique or duplicated."""
    count = draw(st.integers(1, max_queries))
    times = draw(
        st.lists(
            st.floats(0.0, 2.0, allow_nan=False), min_size=count, max_size=count
        )
    )
    sizes = draw(st.lists(st.integers(1, 300), min_size=count, max_size=count))
    if draw(st.booleans()):
        ids = list(range(count))
    else:
        ids = draw(st.lists(st.integers(0, 8), min_size=count, max_size=count))
    return [Query(qid, t, size) for qid, t, size in zip(ids, times, sizes)]


# --------------------------------------------------------------------------- #
# ClusterRun: resume == one batch run over the arrivals admitted so far
# --------------------------------------------------------------------------- #


class TestClusterRun:
    @settings(max_examples=60, deadline=None)
    @given(
        queries=traces(),
        cuts=st.lists(st.integers(1, 20), min_size=1, max_size=8),
        policy=st.sampled_from(POLICIES),
        seed=st.integers(0, 3),
        mode=st.sampled_from(("exact", "sketch")),
        gpu=st.booleans(),
    )
    def test_every_finish_equals_a_batch_run(self, queries, cuts, policy, seed, mode, gpu):
        simulator = ClusterSimulator(
            fleet(3, gpu), balancer=policy, balancer_seed=seed, latency_stats=mode
        )
        ordered = sorted(queries, key=lambda q: q.arrival_time)
        live = simulator.start()
        position = 0
        for cut in cuts + [len(ordered)]:
            if position >= len(ordered):
                break
            step = ordered[position : position + cut]
            position += len(step)
            expected = outcome(lambda: simulator.run(ordered[:position]))
            advanced = outcome(lambda: live.advance(step))
            if advanced is not None:
                assert advanced is expected
                return
            assert outcome(live.finish) == expected
            if isinstance(expected, type):
                return

    def test_finish_leaves_the_run_resumable(self):
        simulator = ClusterSimulator(fleet(2), balancer="power-of-two")
        stream = LoadGenerator(seed=5).with_rate(400.0).generate(600)
        live = simulator.start()
        live.advance(stream[:300])
        first = live.finish()
        assert live.finish() == first  # draining a copy changes nothing
        live.advance(stream[300:])
        assert live.finish() == simulator.run(stream)

    def test_own_balancer_state_survives_interleaved_runs(self):
        simulator = ClusterSimulator(fleet(3), balancer="random", balancer_seed=2)
        stream = LoadGenerator(seed=6).with_rate(300.0).generate(400)
        live = simulator.start()
        live.advance(stream[:200])
        simulator.run(stream[:50])  # reseeds the simulator's own balancer
        live.advance(stream[200:])
        assert live.finish() == simulator.run(stream)

    def test_ids_wider_than_64_bits_fall_back_exactly(self):
        simulator = ClusterSimulator(fleet(2))
        stream = [
            Query(2**70 + index, 0.002 * index, 40 + index % 90) for index in range(200)
        ]
        live = simulator.start()
        live.advance(stream[:120])
        live.advance(stream[120:])
        assert live.finish() == simulator.run(stream)

    def test_out_of_order_advance_rejected(self):
        live = ClusterSimulator(fleet(1)).start()
        live.advance([Query(0, 1.0, 8)])
        with pytest.raises(ValueError, match="sorted by time"):
            live.advance([Query(1, 0.5, 8)])
        with pytest.raises(ValueError, match="sorted by time"):
            live.advance([Query(2, 2.0, 8), Query(3, 1.5, 8)])

    def test_empty_run_cannot_finish(self):
        with pytest.raises(ValueError, match="empty"):
            ClusterSimulator(fleet(1)).start().finish()

    def test_whole_run_features_rejected(self):
        with pytest.raises(ValueError, match="fault injection"):
            ClusterSimulator(
                fleet(2), fault_plan=FaultPlan.generate(2, 10.0, crash_rate_hz=1.0, seed=1)
            ).start()
        with pytest.raises(ValueError, match="per-server"):
            ClusterSimulator(fleet(2), collect_per_server_latencies=True).start()


# --------------------------------------------------------------------------- #
# DigitalTwin: every report == a fresh batch run over windows 0..k
# --------------------------------------------------------------------------- #


def no_capacity_search(twin):
    """Stand-in for the capacity prediction, which these tests do not cover."""
    return [SimpleNamespace(max_qps=1.0, evaluations=0) for _ in twin.specs()]


def spec(name, policy, num_servers, num_cores):
    return FleetSpec(
        name=name,
        model="ncf",
        platform="broadwell",
        num_servers=num_servers,
        batch_size=64,
        num_cores=num_cores,
        policy=policy,
    )


def chunk_windows(queries, sizes):
    """Consecutive chunks of ``queries`` as windows, in stream order."""
    windows, position = [], 0
    for size in sizes + [len(queries)]:
        chunk = tuple(queries[position : position + size])
        if not chunk:
            break
        position += len(chunk)
        start = min(q.arrival_time for q in chunk)
        end = max(q.arrival_time for q in chunk) + 1.0
        windows.append(Window(len(windows), start, end, chunk))
    return windows


class TestTwinDifferential:
    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        queries=traces(),
        shuffled=st.booleans(),
        window_s=st.floats(0.05, 1.0),
        chunk_sizes=st.lists(st.integers(1, 15), max_size=6),
        policies=st.tuples(st.sampled_from(POLICIES), st.sampled_from(POLICIES)),
        mode=st.sampled_from(("exact", "sketch")),
        absorb=st.lists(st.booleans(), min_size=12, max_size=12),
    )
    def test_every_window_matches_a_batch_run(
        self, queries, shuffled, window_s, chunk_sizes, policies, mode, absorb
    ):
        if shuffled:
            # Windows straight from the arbitrary stream order: later windows
            # reach back before earlier ones, forcing rebuilds.
            windows = chunk_windows(queries, chunk_sizes)
        else:
            manager = WindowManager(window_s=window_s)
            windows = manager.extend(
                sorted(queries, key=lambda q: q.arrival_time)
            ) + manager.flush()
        specs = [spec("real", policies[0], 2, 2), spec("what-if", policies[1], 1, 3)]
        references = [
            ClusterSimulator(s.build_servers(), balancer=s.policy, latency_stats=mode)
            for s in specs
        ]
        history = []
        with mock.patch.object(DigitalTwin, "_predict_capacities", no_capacity_search):
            twin = DigitalTwin(
                specs[0], 0.05, LoadGenerator(seed=1), what_if=specs[1],
                latency_stats=mode,
            )
            with twin:
                for index, window in enumerate(windows):
                    history.extend(window.queries)
                    expected = [
                        outcome(lambda: ref.run(history)) for ref in references
                    ]
                    if index < len(absorb) and absorb[index]:
                        twin.absorb(window)
                    else:
                        report = outcome(lambda: twin.observe(window))
                        if isinstance(report, type):
                            assert report in expected
                            return
                        for verdict, result in zip((report.real, report.what_if), expected):
                            assert verdict.p95_latency_s == result.p95_latency_s
                            assert verdict.meets_sla == result.meets_sla(0.05)
                            assert verdict.stable == result.is_stable(0.05)
                    for s, result in zip(specs, expected):
                        assert outcome(lambda: twin.last_cumulative_result(s.name)) == result
                    if any(isinstance(result, type) for result in expected):
                        return


# --------------------------------------------------------------------------- #
# O(window) cost: each event is admitted into each live run once
# --------------------------------------------------------------------------- #


class TestIncrementalCost:
    def count_admissions(self, admitted):
        original = ClusterRun.advance

        def counting(run, arrivals):
            admitted.append(len(arrivals))
            return original(run, arrivals)

        return mock.patch.object(ClusterRun, "advance", counting)

    def test_observing_admits_each_event_once_per_fleet(self):
        stream = LoadGenerator(seed=9).with_rate(120.0).generate(900)
        manager = WindowManager(window_s=0.5)
        windows = manager.extend(stream) + manager.flush()
        assert len(windows) > 10
        admitted = []
        specs = [spec("real", "least-outstanding", 2, 2), spec("what-if", "random", 1, 4)]
        with mock.patch.object(DigitalTwin, "_predict_capacities", no_capacity_search):
            with DigitalTwin(
                specs[0], 0.05, LoadGenerator(seed=1), what_if=specs[1]
            ) as twin, self.count_admissions(admitted):
                half = len(windows) // 2
                for window in windows[:half]:
                    twin.observe(window)
                observed = sum(len(w.queries) for w in windows[:half])
                # Σ events, not Σ over windows of the cumulative history.
                assert sum(admitted) == 2 * observed
                before = len(admitted)
                for window in windows[half:]:
                    twin.observe(window)
                    twin.last_cumulative_result()
                # The later windows admit only their own events.
                later = sum(len(w.queries) for w in windows[half:])
                assert sum(admitted[before:]) == 2 * later
                assert sum(admitted) == 2 * len(stream)

    def test_absorbed_windows_are_admitted_once_on_next_observe(self):
        stream = LoadGenerator(seed=4).with_rate(120.0).generate(400)
        manager = WindowManager(window_s=0.5)
        windows = manager.extend(stream) + manager.flush()
        admitted = []
        with mock.patch.object(DigitalTwin, "_predict_capacities", no_capacity_search):
            with DigitalTwin(
                spec("real", "round-robin", 2, 2), 0.05, LoadGenerator(seed=1)
            ) as twin, self.count_admissions(admitted):
                twin.observe(windows[0])
                for window in windows[1:-1]:
                    twin.absorb(window)
                assert sum(admitted) == len(windows[0].queries)  # absorb is free
                twin.observe(windows[-1])
                assert sum(admitted) == len(stream)


class TestInterruptedAdvance:
    def test_run_interrupted_mid_window_is_rebuilt(self):
        stream = LoadGenerator(seed=8).with_rate(150.0).generate(400)
        manager = WindowManager(window_s=0.5)
        windows = manager.extend(stream) + manager.flush()
        real = spec("real", "power-of-two", 2, 2)
        original = ServerKernel.submit
        submitted = []

        def interrupt_half_way(kernel, query, now):
            # A SIGTERM landing half-way through admitting the window.
            if len(submitted) == len(windows[1].queries) // 2:
                raise KeyboardInterrupt
            submitted.append(query)
            return original(kernel, query, now)

        with mock.patch.object(DigitalTwin, "_predict_capacities", no_capacity_search):
            with DigitalTwin(real, 0.05, LoadGenerator(seed=1)) as twin:
                twin.observe(windows[0])
                with mock.patch.object(ServerKernel, "submit", interrupt_half_way):
                    with pytest.raises(KeyboardInterrupt):
                        twin.observe(windows[1])
                for window in windows[2:]:
                    twin.observe(window)
                result = twin.last_cumulative_result()
        batch = ClusterSimulator(real.build_servers(), balancer=real.policy).run(stream)
        assert result == batch
