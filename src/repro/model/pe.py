"""Processing-element model (paper §3.3.1).

A PE executes one work-item at a time; with work-item pipelining the PE
overlaps successive work-items at initiation interval II_comp^wi.  The
model:

1. estimates every basic block's latency with resource-aware
   priority-ordered list scheduling (ASAP);
2. derives the pipeline depth D_comp^PE as the summed block latency
   along the critical path of the simplified CDFG (loop regions
   contribute trip_count × per-iteration latency);
3. computes MII = max(RecMII, ResMII) (Eqs. 2–4) and refines
   II_comp^wi with Swing Modulo Scheduling;
4. applies Eq. 1:  L_comp^PE = II · (N_wi^wg − 1) + D.

Designs of one analysed kernel differ only in their per-PE DSP budget,
so :class:`PESchedule` computes steps 1–3's budget-independent parts
once per kernel and every budget reuses them.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Dict, Optional, Tuple

from repro.analysis.kernel_info import KernelInfo
from repro.analysis.loops import LoopInfo, LoopNest
from repro.ir.function import Function
from repro.scheduling import (
    ModuloScheduleMemo,
    ResourceBudget,
    compute_rec_mii,
    compute_res_mii,
    list_schedule,
    swing_modulo_schedule,
)

#: A DSP budget no block reaches: the list scheduler never waits on DSPs.
_UNBOUNDED_DSP = sys.maxsize


@dataclass
class PEModelResult:
    """(II, D) of one PE plus the derived work-group latency."""

    ii: float                      # II_comp^wi
    depth: float                   # D_comp^PE
    latency_wg: float              # L_comp^PE (Eq. 1)
    block_latencies: Dict[str, float] = None
    rec_mii: float = 1.0
    res_mii: float = 1.0


class PESchedule:
    """One analysed kernel's PE-schedule work that every resource budget
    shares.

    - Block latencies: each block is list-scheduled once with an
      unbounded DSP budget.  A budget at or above the block's
      :attr:`~repro.scheduling.ScheduleResult.dsp_peak` yields exactly
      that schedule; below it the block is rescheduled at the budget.
    - The pipeline depth of those latencies, RecMII, and the function
      graph's :class:`~repro.scheduling.ModuloScheduleMemo` (critical
      path and per-II placement attempts).

    Per budget, only ResMII (Eqs. 3–4) and the II walk up from
    ``ceil(MII)`` remain, and the walk mostly hits memoized attempts.
    Entries are built without a lock: threads missing together may
    build one twice, and both copies are equal.
    """

    def __init__(self, info: KernelInfo) -> None:
        self.info = info
        #: port counts -> (latencies, per-block dsp_peak, depth)
        self._blocks: Dict[tuple, tuple] = {}

    def blocks(self, budget: ResourceBudget
               ) -> Tuple[Dict[str, float], float]:
        """List-scheduled block latencies under *budget* and the
        pipeline depth D_comp^PE they give."""
        entry = self._blocks.get(budget.ports)
        if entry is None:
            unbounded = replace(budget, dsp_budget=_UNBOUNDED_DSP)
            schedules = {name: list_schedule(dfg, unbounded)
                         for name, dfg in self.info.block_dfgs.items()}
            latencies = {name: s.latency for name, s in schedules.items()}
            peaks = {name: s.dsp_peak for name, s in schedules.items()}
            entry = (latencies, peaks, self._depth(latencies))
            self._blocks[budget.ports] = entry
        latencies, peaks, depth = entry
        dsp = budget.dsp_budget
        if all(peak <= dsp for peak in peaks.values()):
            return dict(latencies), depth
        latencies = {
            name: (latency if peaks[name] <= dsp else
                   list_schedule(self.info.block_dfgs[name],
                                 budget).latency)
            for name, latency in latencies.items()}
        return latencies, self._depth(latencies)

    def _depth(self, latencies: Dict[str, float]) -> float:
        info = self.info
        return max(critical_path_depth(info.fn, latencies,
                                       info.loop_nest), 1.0)

    @cached_property
    def rec_mii(self) -> float:
        return compute_rec_mii(self.info.function_dfg,
                               self.info.traces.recurrences)

    @cached_property
    def sms(self) -> ModuloScheduleMemo:
        return ModuloScheduleMemo(self.info.function_dfg)


def critical_path_depth(fn: Function, block_latencies: Dict[str, float],
                        loop_nest: LoopNest) -> float:
    """D_comp^PE: summed block latencies along the CDFG critical path.

    Loops are collapsed into region nodes whose latency is
    trip_count × per-iteration critical path (computed recursively for
    nested loops); if/else arms contribute the longer arm.
    """
    memo: Dict[str, float] = {}

    def loop_latency(loop: LoopInfo) -> float:
        key = f"loop:{loop.header}"
        if key in memo:
            return memo[key]
        per_iter = _longest_path(
            fn, block_latencies, loop_nest,
            entry=loop.header, within=loop.blocks, current_loop=loop,
            loop_latency_fn=loop_latency)
        total = loop.trip_count * per_iter \
            + block_latencies.get(loop.header, 0.0)  # final cond check
        memo[key] = total
        return total

    return _longest_path(fn, block_latencies, loop_nest,
                         entry=fn.entry.name, within=None,
                         current_loop=None, loop_latency_fn=loop_latency)


def _longest_path(fn: Function, block_latencies: Dict[str, float],
                  loop_nest: LoopNest, entry: str,
                  within: Optional[set], current_loop: Optional[LoopInfo],
                  loop_latency_fn) -> float:
    """Longest latency path from *entry*, collapsing loops nested below
    *current_loop* and never leaving *within* (when given)."""
    blocks = {b.name: b for b in fn.blocks}
    best: Dict[str, float] = {}

    def visit(name: str, on_stack: set) -> float:
        if name in best:
            return best[name]
        if name in on_stack:      # irreducible/cycle guard
            return 0.0
        block = blocks.get(name)
        if block is None:
            return 0.0
        on_stack = on_stack | {name}

        # Collapse a loop when we stand at its header from outside it.
        header_loop = loop_nest.by_header(name)
        if header_loop is not None and header_loop is not current_loop \
                and (current_loop is None
                     or header_loop.header != current_loop.header):
            node_latency = loop_latency_fn(header_loop)
            successors = _loop_exits(fn, header_loop)
        else:
            node_latency = block_latencies.get(name, 0.0)
            successors = [s.name for s in block.successors()]

        follow = 0.0
        for succ in successors:
            if within is not None and succ not in within:
                continue
            if current_loop is not None and succ == current_loop.header:
                continue   # back edge: one iteration only
            follow = max(follow, visit(succ, on_stack))
        result = node_latency + follow
        best[name] = result
        return result

    return visit(entry, frozenset())


def _loop_exits(fn: Function, loop: LoopInfo) -> list:
    exits = []
    blocks = {b.name: b for b in fn.blocks}
    for name in loop.blocks:
        block = blocks.get(name)
        if block is None:
            continue
        for succ in block.successors():
            if succ.name not in loop.blocks:
                exits.append(succ.name)
    return exits


def pe_model(info: KernelInfo, budget: ResourceBudget,
             pipelined: bool = True,
             wg_size: Optional[int] = None,
             schedule: Optional[PESchedule] = None) -> PEModelResult:
    """Run the full PE model for one design's budget.

    *schedule* is *info*'s :class:`PESchedule` to reuse across budgets;
    without one, a fresh one serves this call only.
    """
    if schedule is None:
        schedule = PESchedule(info)
    block_latencies, depth = schedule.blocks(budget)

    if pipelined:
        mii = compute_res_mii(
            budget,
            local_reads_per_wi=info.traces.local_reads_per_wi,
            local_writes_per_wi=info.traces.local_writes_per_wi,
            dsp_cost_per_wi=info.dsp_cost_per_wi)
        mii.rec_mii = schedule.rec_mii
        sms = swing_modulo_schedule(info.function_dfg, budget, mii.mii,
                                    memo=schedule.sms)
        ii = sms.ii
        rec_mii, res_mii = mii.rec_mii, mii.res_mii
        # Work-item pipelining cannot initiate through a barrier: every
        # work-item must arrive before any proceeds, which serialises
        # the stage; the II grows by the barrier's drain effect only in
        # so far as SMS already orders memory ops around it, so no extra
        # term is added here (the simulator models the actual drain).
    else:
        ii = depth                       # serial: next WI starts after D
        rec_mii = res_mii = depth

    n_wg = wg_size if wg_size is not None else info.work_group_size
    latency_wg = ii * max(n_wg - 1, 0) + depth      # Eq. 1
    return PEModelResult(ii=ii, depth=depth, latency_wg=latency_wg,
                         block_latencies=block_latencies,
                         rec_mii=rec_mii, res_mii=res_mii)
