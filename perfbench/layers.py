"""Which public calls belong to which layer, and the per-layer metrics.

:func:`install` wraps the program's public entry points of every layer with
the tracer's spans and hot counters; :func:`layer_metrics` turns a traced
run into the ``per_layer`` metrics named in ``BENCHMARK.json``.  The
``PARTITION`` metrics are self times: together with ``trace.unattributed_s``
they add up to ``trace.wall_s``.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Iterator

from repro.core import BatchSizeTuner, DeepRecSched, OffloadThresholdTuner
from repro.execution.latency_table import CPULatencyTable, GPULatencyTable
from repro.queries.generator import LoadGenerator
from repro.runtime import capacity as runtime_capacity
from repro.runtime.capacity import CapacitySearch
from repro.serving.cluster import ClusterSimulator, available_balancers, get_balancer
from repro.serving.simulator import CertainAcceptance, CertainRejection, ServingSimulator
from repro.service import ingest as service_ingest
from repro.service import twin as service_twin
from repro.service.twin import DigitalTwin
from repro.service.windows import WindowManager
from repro.utils.sketch import QuantileSketch
from repro.utils.stats import PercentileTracker

from tracer import UNATTRIBUTED, Tracer

#: Self-time metric of each tracer layer.  These partition the traced wall.
PARTITION = {
    "queries": "queries.synth_s",
    "serving": "serving.sim_self_s",
    "balancer": "balancer.choose_s",
    "stats.tracker": "stats.tracker_s",
    "stats.sketch": "stats.sketch_s",
    "capacity": "capacity.self_s",
    "core": "core.tuner_self_s",
    "execution": "execution.table_build_s",
    "service.parse": "service.parse_s",
    "service.window": "service.window_s",
    "service.observe": "service.observe_self_s",
    "service.idle": "service.feeder_idle_s",
    UNATTRIBUTED: "trace.unattributed_s",
}

#: Counters read from the program's own stats objects, by metric name.
CACHE_COUNTERS = {
    "cache.exact_hits": "exact_hits",
    "cache.memo_hits": "memo_hits",
    "cache.stores": "stores",
}
SERVICE_COUNTERS = (
    "service.resim_queries",
    "service.generator_lag_p50_s",
    "service.generator_lag_max_s",
    "service.shed_windows",
    "service.late_events",
)
POOL_COUNTERS = ("pool.submitted", "pool.completed", "pool.retries")

#: Metrics a traced run of each workload must report nonzero: the layers the
#: workload exists to load.  The partition balances even when a wrapper misses
#: a layer's calls (their time is charged to the caller), so this check is
#: what catches a missed layer.
LOADED = {
    "replay": ("queries.generated", "serving.sim_calls", "balancer.calls", "stats.sketch_s"),
    "tune": ("queries.generated", "serving.sim_calls", "capacity.searches",
             "capacity.evaluations", "core.points", "execution.table_build_s"),
    "fleet-sweep": ("serving.sim_calls", "balancer.calls", "capacity.searches",
                    "cache.stores", "cache.exact_hits", "pool.submitted", "faults.crashes"),
    "fleet-sweep-warm": ("serving.sim_calls", "capacity.searches", "cache.exact_hits",
                         "pool.submitted"),
    "twin": ("serving.sim_calls", "service.parse_s", "service.window_s",
             "service.observe_self_s", "service.resim_queries"),
}


def _counting(tracer: Tracer, key: str, amount: Any = lambda result: 1) -> Any:
    def on_result(args: tuple, kwargs: dict, result: Any, seconds: float) -> None:
        tracer.counters[key] += amount(result)

    return on_result


def _serving_result(tracer: Tracer, streamed: bool) -> Any:
    counters = tracer.counters

    def on_result(args: tuple, kwargs: dict, result: Any, seconds: float) -> None:
        if streamed:
            counters["serving.sim_queries"] += (
                args[2] if len(args) > 2 else kwargs["num_queries"]
            )
        else:
            counters["serving.sim_queries"] += len(args[1] if len(args) > 1 else kwargs["queries"])
        counters["serving.sim_calls"] += 1
        if isinstance(result, (CertainRejection, CertainAcceptance)):
            counters["serving.early_exits"] += 1
        if getattr(args[0], "fault_plan", None) is not None:
            counters["faults.sim_s"] += seconds
            stats = getattr(result, "fault_stats", None)
            if stats is not None:
                counters["faults.crashes"] += stats.crashes
                counters["faults.retries"] += stats.retries
                counters["faults.failed_queries"] += stats.failed_queries

    return on_result


def _capacity_result(tracer: Tracer) -> Any:
    def on_result(args: tuple, kwargs: dict, result: Any, seconds: float) -> None:
        if tracer.depth("capacity") == 0:  # outermost: count each search once
            results = result if isinstance(result, list) else [result]
            tracer.counters["capacity.searches"] += len(results)
            tracer.counters["capacity.evaluations"] += sum(r.evaluations for r in results)

    return on_result


def _balancer_classes() -> Iterable[type]:
    seen = []
    for name in available_balancers():
        cls = type(get_balancer(name))
        if cls not in seen and "choose" in cls.__dict__:
            seen.append(cls)
    return seen


def install(tracer: Tracer) -> None:
    """Wrap every layer's public calls; :meth:`Tracer.restore` undoes it."""

    def span(name: str, layer: str, on_result: Any = None) -> Any:
        return lambda fn: tracer.traced(fn, name, layer, on_result)

    def hot(name: str, layer: str) -> Any:
        return lambda fn: tracer.hot(fn, name, layer)

    patch = tracer.patch
    patch(LoadGenerator, "generate",
          span("queries.generate", "queries", _counting(tracer, "queries.generated", len)))
    patch(ServingSimulator, "run", span("serving.run", "serving", _serving_result(tracer, False)))
    patch(ClusterSimulator, "run", span("cluster.run", "serving", _serving_result(tracer, False)))
    patch(ClusterSimulator, "run_stream",
          span("cluster.run_stream", "serving", _serving_result(tracer, True)))
    for cls in _balancer_classes():
        patch(cls, "choose", hot("balancer.choose", "balancer"))
    for method in ("extend", "merge", "percentile"):
        patch(PercentileTracker, method, span(f"tracker.{method}", "stats.tracker"))
        patch(QuantileSketch, method, span(f"sketch.{method}", "stats.sketch"))
    capacity_span = span("capacity.run_searches", "capacity", _capacity_result(tracer))
    # The twin imported the function by name, so wrap its reference too.
    patch(runtime_capacity, "run_capacity_searches", capacity_span)
    patch(service_twin, "run_capacity_searches", capacity_span)
    # find_max_qps, and so every DeepRecSched tuner, searches through here.
    patch(CapacitySearch, "run",
          span("capacity.search", "capacity", _capacity_result(tracer)))
    patch(BatchSizeTuner, "tune", span("core.batch_tune", "core"))
    patch(OffloadThresholdTuner, "tune", span("core.offload_tune", "core"))
    for method in ("optimize_cpu", "optimize_gpu"):
        patch(DeepRecSched, method,
              span(f"core.{method}", "core", _counting(tracer, "core.points")))
    patch(CPULatencyTable, "column", hot("execution.column", "execution"))
    patch(GPULatencyTable, "totals", hot("execution.totals", "execution"))
    patch(service_ingest, "parse_event", hot("service.parse_event", "service.parse"))
    patch(WindowManager, "add", hot("service.window_add", "service.window"))
    patch(DigitalTwin, "observe", span("service.observe", "service.observe"))


def install_pool_wait(tracer: Tracer) -> None:
    """Time how long the capacity driver blocks in ``as_completed``."""

    def timed(original: Any) -> Any:
        def as_completed(futures: Any) -> Iterator[Any]:
            return tracer.hot_iter(original(futures), "pool.wait", "pool")

        return as_completed

    tracer.patch(runtime_capacity, "as_completed", timed)


def layer_metrics(
    tracer: Tracer,
    counters: Dict[str, float],
    pool: Dict[str, float],
) -> Dict[str, float]:
    """The per-layer metrics of one traced run.

    ``counters`` come from the traced workload's own stats objects;
    ``pool`` holds the pool counters and parent wait measured on the untraced
    pooled run (empty for workloads that never use a pool).
    """
    seconds = tracer.self_seconds()
    metrics: Dict[str, float] = {name: seconds.get(layer, 0.0) for layer, name in PARTITION.items()}
    unknown = set(seconds) - set(PARTITION)
    if unknown:
        raise RuntimeError(f"layers outside the partition: {sorted(unknown)}")
    traced = tracer.counters
    metrics["queries.generated"] = traced["queries.generated"] + tracer.hot_calls("queries.next")
    metrics["serving.sim_calls"] = traced["serving.sim_calls"]
    metrics["serving.sim_queries"] = traced["serving.sim_queries"]
    metrics["serving.early_exit_frac"] = (
        traced["serving.early_exits"] / traced["serving.sim_calls"]
        if traced["serving.sim_calls"] else 0.0
    )
    metrics["balancer.calls"] = tracer.hot_calls("balancer.choose")
    searches = traced["capacity.searches"]
    metrics["capacity.searches"] = searches
    metrics["capacity.evaluations"] = traced["capacity.evaluations"]
    metrics["capacity.evals_per_search"] = (
        traced["capacity.evaluations"] / searches if searches else 0.0
    )
    for name, key in CACHE_COUNTERS.items():
        metrics[name] = counters.get(key, 0)
    lookups = sum(counters.get(key, 0) for key in ("exact_hits", "exact_misses", "memo_hits"))
    metrics["cache.hit_frac"] = (
        (counters.get("exact_hits", 0) + counters.get("memo_hits", 0)) / lookups
        if lookups else 0.0
    )
    for name in POOL_COUNTERS:
        metrics[name] = pool.get(name, 0)
    metrics["pool.wait_s"] = pool.get("wait_s", 0.0)
    for name in ("faults.crashes", "faults.retries", "faults.failed_queries", "faults.sim_s"):
        metrics[name] = traced[name]
    metrics["core.points"] = traced["core.points"]
    for name in SERVICE_COUNTERS:
        metrics[name] = counters.get(name, 0)
    metrics["trace.wall_s"] = tracer.root_wall
    return metrics
