"""Tests for the batch-size and offload-threshold tuners and the scheduler facade.

These run the real serving simulator at reduced fidelity (few queries, few
bisection iterations) so the suite stays fast while still exercising the full
DeepRecSched pipeline.
"""

from unittest import mock

import pytest

from repro.core.batch_tuner import BatchSizeTuner
from repro.core.offload_tuner import OffloadThresholdTuner
from repro.core.scheduler import DeepRecSched
from repro.execution.engine import build_engine_pair
from repro.queries.generator import LoadGenerator
from repro.runtime.capacity import CapacitySearch
from repro.serving.capacity import find_max_qps
from repro.serving.simulator import ServingConfig
from repro.serving.sla import SLATier, sla_target

FAST = dict(num_queries=150, capacity_iterations=3)


@pytest.fixture(scope="module")
def engines():
    return build_engine_pair("dlrm-rmc1", "skylake", "gtx1080ti")


@pytest.fixture(scope="module")
def generator():
    return LoadGenerator(seed=11)


class TestBatchSizeTuner:
    def test_candidates_are_powers_of_two(self, engines, generator):
        tuner = BatchSizeTuner(engines, generator, **FAST)
        candidates = tuner.candidates()
        assert candidates[0] == 1
        assert candidates[-1] == 1000
        assert all(b > a for a, b in zip(candidates, candidates[1:]))

    def test_restricted_candidate_range(self, engines, generator):
        tuner = BatchSizeTuner(
            engines, generator, min_batch_size=32, max_batch_size=256, **FAST
        )
        candidates = tuner.candidates()
        assert candidates[0] == 32
        assert candidates[-1] == 256

    def test_tuned_batch_beats_static_baseline(self, engines, generator):
        tuner = BatchSizeTuner(
            engines, generator, min_batch_size=16, max_batch_size=1000,
            num_queries=200, capacity_iterations=3,
        )
        tuning = tuner.tune(sla_latency_s=0.1)
        static_qps = tuner.capacity_at(25, sla_latency_s=0.1)
        assert tuning.best_batch_size > 25
        assert tuning.best_qps > static_qps

    def test_result_records_evaluations(self, engines, generator):
        tuner = BatchSizeTuner(
            engines, generator, min_batch_size=64, max_batch_size=256, **FAST
        )
        tuning = tuner.tune(sla_latency_s=0.1)
        assert tuning.num_evaluations >= 2
        assert tuning.best_batch_size in tuning.qps_by_batch_size
        assert tuning.sla_latency_s == 0.1

    def test_invalid_parameters(self, engines, generator):
        with pytest.raises(ValueError):
            BatchSizeTuner(engines, generator, min_batch_size=64, max_batch_size=32)
        with pytest.raises(ValueError):
            BatchSizeTuner(engines, generator, num_queries=0)
        tuner = BatchSizeTuner(engines, generator, **FAST)
        with pytest.raises(ValueError):
            tuner.tune(sla_latency_s=0.0)


class TestOffloadThresholdTuner:
    def test_requires_accelerator(self, generator):
        cpu_only = build_engine_pair("dlrm-rmc1", "skylake", None)
        with pytest.raises(ValueError):
            OffloadThresholdTuner(cpu_only, generator)

    def test_candidates_start_at_unit_threshold(self, engines, generator):
        tuner = OffloadThresholdTuner(engines, generator, **FAST)
        candidates = tuner.candidates()
        assert candidates[0] == 1
        assert candidates[-1] == 1000

    def test_optimum_is_interior(self, engines, generator):
        # The tuned threshold should neither send everything to the GPU nor
        # keep everything on the CPU (the Fig. 10 hump).
        tuner = OffloadThresholdTuner(
            engines, generator, num_queries=200, capacity_iterations=3
        )
        tuning = tuner.tune(batch_size=256, sla_latency_s=0.1)
        assert 16 < tuning.best_threshold <= 1000
        assert 0.0 <= tuning.gpu_work_fraction < 1.0

    def test_result_metadata(self, engines, generator):
        tuner = OffloadThresholdTuner(engines, generator, **FAST)
        tuning = tuner.tune(batch_size=128, sla_latency_s=0.1)
        assert tuning.batch_size == 128
        assert tuning.num_evaluations >= 2

    def test_invalid_arguments(self, engines, generator):
        tuner = OffloadThresholdTuner(engines, generator, **FAST)
        with pytest.raises(ValueError):
            tuner.tune(batch_size=0, sla_latency_s=0.1)
        with pytest.raises(ValueError):
            tuner.tune(batch_size=64, sla_latency_s=0.0)


class TestDeepRecSchedFacade:
    @pytest.fixture(scope="class")
    def scheduler(self):
        return DeepRecSched(
            "dlrm-rmc1", num_queries=150, capacity_iterations=3, seed=11
        )

    def test_baseline_uses_static_batch(self, scheduler):
        point = scheduler.baseline(SLATier.MEDIUM)
        assert point.scheduler == "static"
        assert point.batch_size == 25
        assert point.offload_threshold is None
        assert point.qps > 0

    def test_cpu_optimisation_beats_baseline(self, scheduler):
        baseline = scheduler.baseline(SLATier.MEDIUM)
        tuned = scheduler.optimize_cpu(SLATier.MEDIUM)
        assert tuned.scheduler == "deeprecsched-cpu"
        assert tuned.qps > baseline.qps
        assert tuned.batch_size > baseline.batch_size

    def test_gpu_optimisation_beats_cpu(self, scheduler):
        cpu_point = scheduler.optimize_cpu(SLATier.MEDIUM)
        gpu_point = scheduler.optimize_gpu(SLATier.MEDIUM, batch_size=cpu_point.batch_size)
        assert gpu_point.scheduler == "deeprecsched-gpu"
        assert gpu_point.uses_accelerator
        assert gpu_point.qps > cpu_point.qps
        assert 0.0 < gpu_point.gpu_work_fraction < 1.0

    def test_power_accounting(self, scheduler):
        cpu_point = scheduler.optimize_cpu(SLATier.MEDIUM)
        gpu_point = scheduler.optimize_gpu(SLATier.MEDIUM, batch_size=cpu_point.batch_size)
        assert cpu_point.qps_per_watt > 0
        assert gpu_point.qps_per_watt > 0
        # The GPU adds at least its idle power, so QPS/Watt gains are smaller
        # than QPS gains.
        assert (gpu_point.qps_per_watt / cpu_point.qps_per_watt) < (
            gpu_point.qps / cpu_point.qps
        )

    def test_tuned_points_reuse_the_climbs_search(self):
        # optimize_cpu / optimize_gpu report the search the climb already ran
        # at the winning config: one search per climb step, none after it,
        # and the reported point equals a fresh search there.
        scheduler = DeepRecSched("dlrm-rmc1", num_queries=150, capacity_iterations=3, seed=11)
        searches = []
        original = CapacitySearch.run

        def counting(search, *args, **kwargs):
            searches.append(search)
            return original(search, *args, **kwargs)

        with mock.patch.object(CapacitySearch, "run", counting):
            cpu = scheduler.optimize_cpu(SLATier.MEDIUM)
            cpu_searches = len(searches)
            gpu = scheduler.optimize_gpu(SLATier.MEDIUM, batch_size=cpu.batch_size)
        sla = sla_target("dlrm-rmc1", SLATier.MEDIUM).latency_s
        load = LoadGenerator(seed=11)
        cpu_steps = len(BatchSizeTuner(scheduler.engines, load, **FAST).tune(sla).qps_by_batch_size)
        gpu_steps = len(
            OffloadThresholdTuner(scheduler.engines, load, **FAST)
            .tune(cpu.batch_size, sla)
            .qps_by_threshold
        )
        assert cpu_searches == cpu_steps
        assert len(searches) == cpu_steps + gpu_steps
        for point in (cpu, gpu):
            fresh = find_max_qps(
                scheduler.engines,
                ServingConfig(batch_size=point.batch_size, offload_threshold=point.offload_threshold),
                sla,
                load,
                num_queries=150,
                iterations=3,
            )
            assert point.qps == fresh.max_qps
            assert point.cpu_utilization == fresh.result.cpu_utilization
            assert point.gpu_work_fraction == fresh.result.gpu_work_fraction

    def test_gpu_scheduler_requires_accelerator(self):
        scheduler = DeepRecSched(
            "ncf", gpu_platform=None, num_queries=100, capacity_iterations=2, seed=0
        )
        with pytest.raises(ValueError):
            scheduler.optimize_gpu(SLATier.MEDIUM)

    def test_scheduler_exposes_model_and_engines(self, scheduler):
        assert scheduler.model_name == "dlrm-rmc1"
        assert scheduler.engines.has_accelerator
