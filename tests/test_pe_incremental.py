"""The PE schedule is incremental across resource budgets: every
analysed kernel's budget-independent schedule work is done once and
reused, and the predictions are exactly those of scheduling each budget
from scratch."""

import importlib.util
import sys
import threading
from pathlib import Path

import pytest

from repro.devices import VIRTEX7
from repro.dse import DesignSpace, explore
from repro.dse.space import Design
from repro.evaluation import make_analyzer
from repro.model import FlexCL
from repro.model.pe import (
    PEModelResult,
    PESchedule,
    critical_path_depth,
    pe_model,
)
from repro.scheduling import (
    ModuloScheduleMemo,
    ResourceBudget,
    compute_mii,
    list_schedule,
    swing_modulo_schedule,
)
from repro.workloads import get_workload

BENCH_DSE_PERF = (Path(__file__).resolve().parent.parent
                  / "benchmarks" / "bench_dse_perf.py")


def from_scratch(info, budget, pipelined, wg) -> PEModelResult:
    """The PE model composed directly from the schedulers, with nothing
    shared between budgets."""
    blocks = {name: list_schedule(dfg, budget).latency
              for name, dfg in info.block_dfgs.items()}
    depth = max(critical_path_depth(info.fn, blocks, info.loop_nest), 1.0)
    if pipelined:
        mii = compute_mii(info.function_dfg, budget, info.traces,
                          info.dsp_cost_per_wi)
        ii = swing_modulo_schedule(info.function_dfg, budget, mii.mii).ii
        rec_mii, res_mii = mii.rec_mii, mii.res_mii
    else:
        ii = rec_mii = res_mii = depth
    return PEModelResult(ii=ii, depth=depth,
                         latency_wg=ii * max(wg - 1, 0) + depth,
                         block_latencies=blocks,
                         rec_mii=rec_mii, res_mii=res_mii)


def sweep(key):
    """Every feasible design of the kernel's default space, explored
    with one memoized model: [(info, design, budget, pe)]."""
    workload = get_workload(*key.split("/"))
    model = FlexCL(VIRTEX7)
    seen = []

    def cycles(info, design):
        prediction = model.predict(info, design)
        budget = ResourceBudget.for_pe(VIRTEX7, design.effective_pe_slots,
                                       design.num_cu)
        seen.append((info, design, budget, prediction.pe))
        return prediction.cycles

    explore(DesignSpace.default_for(workload.global_size),
            make_analyzer(workload, VIRTEX7), cycles, VIRTEX7)
    return seen


#: kernel -> what makes it a distinct case
KERNELS = {
    "rodinia/hybridsort/prefix": "recurrence",
    "rodinia/pathfinder/dynproc": "local ports",
    "rodinia/cfd/compute": "interpreted",
}


class TestIncrementalEqualsFromScratch:
    @pytest.mark.parametrize("key", sorted(KERNELS))
    def test_every_feasible_design(self, key):
        seen = sweep(key)
        assert seen
        reference = {}
        for info, design, budget, pe in seen:
            wg, pipelined = design.work_group_size, design.work_item_pipeline
            ref_key = (id(info), budget, pipelined)
            if ref_key not in reference:
                reference[ref_key] = from_scratch(info, budget, pipelined, wg)
                # A call without a schedule (memoize=False) agrees too.
                assert pe_model(info, budget, pipelined, wg) \
                    == reference[ref_key]
            assert pe == reference[ref_key], design

        infos = {id(info): info for info, *_ in seen}.values()
        pipelined = [pe for _, d, _, pe in seen if d.work_item_pipeline]
        case = KERNELS[key]
        if case == "recurrence":
            assert max(pe.rec_mii for pe in pipelined) > 1.0
        elif case == "local ports":
            assert max(compute_mii(i.function_dfg, ResourceBudget.for_pe(
                VIRTEX7), i.traces, i.dsp_cost_per_wi).res_mii_mem
                for i in infos) > 1.0
        else:
            assert all(i.trace_source != "synth" for i in infos)


class TestDSPFallback:
    def _info(self):
        workload = get_workload("rodinia", "srad", "srad")
        return make_analyzer(workload, VIRTEX7)(workload.default_local_size)

    def test_budget_below_peak_reschedules_the_block(self):
        info = self._info()
        schedule = PESchedule(info)
        roomy = ResourceBudget.for_pe(VIRTEX7)
        schedule.blocks(roomy)
        unbounded = list(schedule._blocks.values())[0]
        peaks = unbounded[1]
        tight = ResourceBudget(
            local_read_ports=roomy.local_read_ports,
            local_write_ports=roomy.local_write_ports,
            dsp_budget=max(peaks.values()) - 1)
        assert tight.ports == roomy.ports
        assert any(peak > tight.dsp_budget for peak in peaks.values())

        latencies, _ = schedule.blocks(tight)
        assert latencies == {name: list_schedule(dfg, tight).latency
                             for name, dfg in info.block_dfgs.items()}
        for budget in (tight, ResourceBudget(dsp_budget=1), roomy):
            for pipelined in (True, False):
                assert pe_model(info, budget, pipelined, schedule=schedule) \
                    == from_scratch(info, budget, pipelined,
                                    info.work_group_size)


class TestModuloScheduleMemo:
    def _info(self):
        workload = get_workload("rodinia", "hybridsort", "prefix")
        return make_analyzer(workload, VIRTEX7)(workload.default_local_size)

    def test_infeasible_fallback_is_reproduced(self):
        graph = self._info().function_dfg
        memo = ModuloScheduleMemo(graph)
        budget = ResourceBudget.for_pe(VIRTEX7)
        for mii, max_ii in ((2.0, 1.0), (2.0, None), (40.0, 39.0)):
            fresh = swing_modulo_schedule(graph, budget, mii, max_ii)
            assert swing_modulo_schedule(graph, budget, mii, max_ii,
                                         memo=memo) == fresh
        assert not swing_modulo_schedule(graph, budget, 2.0, 1.0,
                                         memo=memo).feasible

    def test_memo_of_another_graph_is_refused(self):
        info, other = self._info(), self._info()
        with pytest.raises(ValueError):
            swing_modulo_schedule(info.function_dfg,
                                  ResourceBudget.for_pe(VIRTEX7), 1.0,
                                  memo=ModuloScheduleMemo(other.function_dfg))


def _bench_dse_perf():
    spec = importlib.util.spec_from_file_location("bench_dse_perf",
                                                  BENCH_DSE_PERF)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestScheduleStateLifetime:
    def test_full_sweep_statistics_are_unchanged(self):
        """The schedule state is not a memo row: the hit counts and the
        row count of the benchmark's sweep read as they always have."""
        bench = _bench_dse_perf()
        model = FlexCL(VIRTEX7)
        result = explore(DesignSpace.default_for(4096),
                         bench._make_analyzer(4096),
                         lambda info, d: model.predict(info, d).cycles,
                         VIRTEX7)
        stats = model.cache_stats
        assert len(result.feasible) == 600
        assert (stats.pe_hits, stats.pe_hits + stats.pe_misses) == (530, 600)
        assert (stats.memory_hits,
                stats.memory_hits + stats.memory_misses) == (590, 600)
        assert len(model._cache) == 80

        infos = [entry[0] for entry in model._cache._tables.values()]
        states = [model._cache.state(info, PESchedule) for info in infos]
        assert all(s._blocks for s in states)
        assert len({id(s) for s in states}) == len(infos)

        model.clear_cache()
        assert len(model._cache) == 0
        assert not model._cache._tables
        assert model.cache_stats.lookups == 1200

    def test_distinct_infos_never_share_state(self):
        bench = _bench_dse_perf()
        analyzer = bench._make_analyzer(256)
        a, b = analyzer(64), analyzer(64)
        model = FlexCL(VIRTEX7)
        state_a = model._cache.state(a, PESchedule)
        assert model._cache.state(a, PESchedule) is state_a
        state_b = model._cache.state(b, PESchedule)
        assert state_b is not state_a
        assert state_a.info is a and state_b.info is b

    def test_clear_cache_drops_state(self):
        bench = _bench_dse_perf()
        info = bench._make_analyzer(256)(64)
        model = FlexCL(VIRTEX7)
        state = model._cache.state(info, PESchedule)
        model.clear_cache()
        assert model._cache.state(info, PESchedule) is not state


class TestConcurrentMisses:
    def test_threads_sharing_one_model_agree_with_a_serial_one(self):
        """Concurrent misses may build a schedule entry twice; both
        copies are the same, so every thread predicts what a model
        without shared state does."""
        info = _bench_dse_perf()._make_analyzer(256)(64)
        designs = [Design(work_group_size=64, num_pe=pe, num_cu=cu,
                          work_item_pipeline=pipelined)
                   for pe in (1, 2, 4, 8) for cu in (1, 2, 4)
                   for pipelined in (True, False)]
        serial = FlexCL(VIRTEX7, memoize=False)
        expected = {d: serial.predict(info, d).pe for d in designs}
        shared = FlexCL(VIRTEX7)
        results = {}

        def work(k):
            order = designs[k:] + designs[:k]
            results[k] = {d: shared.predict(info, d).pe for d in order}

        threads = [threading.Thread(target=work, args=(k,))
                   for k in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert sorted(results) == list(range(8))
        for got in results.values():
            assert got == expected
