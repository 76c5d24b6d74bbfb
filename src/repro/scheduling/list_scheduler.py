"""Resource-aware priority-ordered list scheduling (ASAP policy).

Estimates the execution latency of one basic block (paper §3.3.1): the
input is the block's data-flow graph; operations are scheduled as soon
as their predecessors finish, subject to local-memory port and DSP
constraints; the output is the block latency in cycles.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict, List

from repro.analysis.dfg import DataFlowGraph, DFGNode
from repro.scheduling.resources import ResourceBudget


@dataclass
class ScheduleResult:
    """The outcome of scheduling one basic block."""

    latency: float                       # cycles from start to last finish
    start_times: Dict[int, float] = field(default_factory=dict)
    #: largest ``dsp_used + cost`` of a DSP op issued while another DSP
    #: op was in flight: the DSP budget is only ever tested there, so
    #: any budget >= dsp_peak yields exactly this schedule.
    dsp_peak: int = 0

    def start_of(self, node: DFGNode) -> float:
        return self.start_times.get(node.index, 0.0)


def _priorities(graph: DataFlowGraph) -> List[float]:
    """Priority = height: longest latency path from the node to a sink
    (classic critical-path list-scheduling priority)."""
    height = [0.0] * len(graph.nodes)
    for node in reversed(graph.nodes):
        succ_best = 0.0
        for succ_idx, dist in node.succs:
            if dist == 0 and succ_idx > node.index:
                succ_best = max(succ_best, height[succ_idx])
        height[node.index] = node.latency + succ_best
    return height


def list_schedule(graph: DataFlowGraph,
                  budget: ResourceBudget) -> ScheduleResult:
    """Schedule *graph* (one basic block) and return its latency.

    Per cycle, ready operations are issued in priority order while the
    cycle's port budgets allow; DSP-consuming operations additionally
    hold their DSP slices for their full latency (in-flight occupancy).
    """
    nodes = graph.nodes
    if not nodes:
        return ScheduleResult(latency=0.0)
    height = _priorities(graph)

    indegree = [0] * len(nodes)
    for node in nodes:
        indegree[node.index] = sum(
            1 for p, d in node.preds if d == 0 and p < node.index)

    #: earliest data-ready time per node
    ready_time = [0.0] * len(nodes)
    # Ready heap keyed by (ready cycle, -priority, index).
    heap: List = []
    for node in nodes:
        if indegree[node.index] == 0:
            heapq.heappush(heap, (0.0, -height[node.index], node.index))

    start: Dict[int, float] = {}
    finish = [0.0] * len(nodes)
    # per-cycle port usage: (cycle, class) -> used
    port_used: Dict[tuple, int] = {}
    # in-flight DSP usage as a list of (release_cycle, cost)
    dsp_inflight: List = []
    dsp_used = 0
    dsp_peak = 0
    scheduled = 0
    cycle_guard = 0

    while heap:
        ready_at, neg_prio, idx = heapq.heappop(heap)
        node = nodes[idx]
        t = ready_at
        cycle_guard += 1
        if cycle_guard > 10 * len(nodes) * (len(nodes) + 64):
            raise RuntimeError("list scheduler failed to converge")

        # Retire finished DSP ops before checking occupancy at t.
        while dsp_inflight and dsp_inflight[0][0] <= t:
            _, cost = heapq.heappop(dsp_inflight)
            dsp_used -= cost

        limit = budget.issue_limit(node.op_class)
        cost = budget.dsp_cost(node.op_class)
        blocked = False
        if limit > 0 and port_used.get((t, node.op_class), 0) >= limit:
            blocked = True
        if cost > 0 and dsp_used + cost > budget.dsp_budget \
                and dsp_inflight:
            blocked = True
        if blocked:
            heapq.heappush(heap, (t + 1.0, neg_prio, idx))
            continue

        start[idx] = t
        finish[idx] = t + node.latency
        if limit > 0:
            port_used[(t, node.op_class)] = \
                port_used.get((t, node.op_class), 0) + 1
        if cost > 0:
            if dsp_inflight:
                dsp_peak = max(dsp_peak, dsp_used + cost)
            heapq.heappush(dsp_inflight, (t + max(node.latency, 1.0), cost))
            dsp_used += cost
        scheduled += 1

        for succ_idx, dist in node.succs:
            if dist != 0 or succ_idx < idx:
                continue
            ready_time[succ_idx] = max(ready_time[succ_idx], finish[idx])
            indegree[succ_idx] -= 1
            if indegree[succ_idx] == 0:
                heapq.heappush(heap, (ready_time[succ_idx],
                                      -height[succ_idx], succ_idx))

    if scheduled != len(nodes):
        raise RuntimeError(
            f"list scheduler left {len(nodes) - scheduled} ops unscheduled "
            f"(cyclic distance-0 dependence?)")
    return ScheduleResult(latency=max(finish, default=0.0),
                          start_times=start, dsp_peak=dsp_peak)
