"""Design-space exploration and the one shard runner behind every sweep.

An *evaluator* is any callable ``(info, design) -> cycles`` — the FlexCL
model, a baseline estimator, or the ground-truth simulator.  Because the
work-group size changes the kernel's analysed behaviour, the explorer
takes an ``analyze`` callable that produces (and caches) a
:class:`~repro.analysis.KernelInfo` per work-group size.

:func:`run_shards` maps the shards of both exhaustive sweeps in
the package: :func:`explore` splits the space into one shard per
work-group size, :func:`repro.evaluation.run_suite` into one shard per
catalog workload.  With one worker the shards run inline; with more
they run on a forked ``concurrent.futures`` process pool, so the
``analyze``/``evaluator`` closures are inherited rather than pickled
and each worker analyses only the work-group sizes of its own shards.
Results are merged in enumeration order, so a parallel sweep is
design-for-design and cycle-for-cycle identical to the serial one.
The CLI and the serve daemon call these sweeps and only render their
results.
"""

from __future__ import annotations

import concurrent.futures
import multiprocessing
import os
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.cache.store import StoreStats
from repro.dse.space import Design, DesignSpace, check_feasibility
from repro.model.memo import CacheStats


@dataclass
class EvaluatedDesign:
    """One explored design point."""

    design: Design
    cycles: float
    feasible: bool = True
    reject_reason: Optional[str] = None
    #: where the cycle count came from: ``"model"`` (exact analytical
    #: evaluation) or ``"surrogate"`` (approximate pre-filter score)
    source: str = "model"


@dataclass
class ExplorationResult:
    """The outcome of sweeping a design space.

    The feasible subset and its cycle-sorted order are computed once and
    cached; :meth:`append` invalidates the cache.  Mutate ``evaluated``
    through :meth:`append` (or call :meth:`invalidate` after touching the
    list directly).
    """

    evaluated: List[EvaluatedDesign] = field(default_factory=list)
    elapsed_seconds: float = 0.0
    #: sub-model cache hit/miss counters of the sweep (None when the
    #: evaluator exposed no cache)
    cache_stats: Optional[CacheStats] = None
    #: persistent (on-disk) cache activity of the sweep, aggregated
    #: across workers (None when no persistent cache was in play)
    store_stats: Optional[StoreStats] = None
    #: worker processes the sweep ran on (1 == serial)
    jobs: int = 1
    #: pre-filter mode the sweep ran under (None == exhaustive)
    prefilter: Optional[str] = None
    #: exact analytical evaluations performed (== feasible count for an
    #: exhaustive sweep; the point of the surrogate pre-filter is to
    #: make this much smaller than the space)
    exact_evaluations: int = 0
    _feasible: Optional[List[EvaluatedDesign]] = field(
        default=None, init=False, repr=False, compare=False)
    _ordered: Optional[List[EvaluatedDesign]] = field(
        default=None, init=False, repr=False, compare=False)

    def append(self, entry: EvaluatedDesign) -> None:
        """Add one evaluated point, invalidating cached orderings."""
        self.evaluated.append(entry)
        self.invalidate()

    def invalidate(self) -> None:
        """Drop the cached feasible list / sort order (call after
        mutating ``evaluated`` directly)."""
        self._feasible = None
        self._ordered = None

    @property
    def feasible(self) -> List[EvaluatedDesign]:
        if self._feasible is None:
            self._feasible = [e for e in self.evaluated if e.feasible]
        return self._feasible

    def ranked(self) -> List[EvaluatedDesign]:
        """Feasible points sorted by cycles (cached; stable order).

        Exactly evaluated points always order before surrogate-scored
        ones, so :attr:`best` is an exact result even in a pre-filtered
        sweep (approximate scores only rank the tail)."""
        if self._ordered is None:
            self._ordered = sorted(
                self.feasible,
                key=lambda e: (0 if e.source == "model" else 1, e.cycles))
        return self._ordered

    @property
    def best(self) -> Optional[EvaluatedDesign]:
        ordered = self.ranked()
        return ordered[0] if ordered else None

    def rank(self, design: Design) -> Optional[int]:
        """1-based rank of *design* among feasible points by cycles."""
        for i, e in enumerate(self.ranked()):
            if e.design == design:
                return i + 1
        return None


def _evaluate_design(info, design: Design, evaluator, device
                     ) -> EvaluatedDesign:
    """Evaluate one point (shared by the exhaustive and pre-filtered
    paths)."""
    if info is None:
        return EvaluatedDesign(
            design, float("inf"), feasible=False,
            reject_reason="analysis failed for this work-group size")
    reason = check_feasibility(info, design, device)
    if reason is not None:
        return EvaluatedDesign(design, float("inf"), feasible=False,
                               reject_reason=reason)
    return EvaluatedDesign(design, evaluator(info, design))


def resolve_jobs(jobs, limit: Optional[int] = None) -> int:
    """Normalise a ``jobs`` request: None/1 → serial, 'auto'/0 → one
    worker per core.

    *limit* caps the ``'auto'`` answer at the available shard count
    (work-group sizes for an explore, workloads for a suite run), so
    small spaces stop forking workers that would never receive a shard.
    An explicit integer request is honoured as given —
    :func:`run_shards` never starts more workers than shards."""
    if jobs is None:
        return 1
    if jobs in ("auto", 0):
        n = max(os.cpu_count() or 1, 1)
        if limit is not None and limit > 0:
            n = min(n, limit)
        return n
    jobs = int(jobs)
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1 or 'auto', got {jobs}")
    return jobs


#: the shard function of the :func:`run_shards` call that forked this
#: worker process (handed over by fork, never pickled)
_shard_work: Optional[Callable] = None


def _init_shard_worker(work: Callable) -> None:
    global _shard_work
    _shard_work = work


def _run_forked_shard(shard):
    return _shard_work(shard)


def run_shards(work: Callable, shards: Sequence, jobs=None
               ) -> Tuple[list, int]:
    """``[work(shard) for shard in shards]`` and the worker count it
    ran on.

    *jobs* is resolved by :func:`resolve_jobs` and capped at the shard
    count.  One worker (or a platform without ``fork``) maps the shards
    inline; more map them over a forked ``ProcessPoolExecutor``.
    Workers inherit *work* — typically a closure over analyze/evaluator
    callables — through fork; only shards and their results cross the
    process boundary.  Results come back in shard order either way.
    """
    workers = min(resolve_jobs(jobs, limit=len(shards)), len(shards))
    fork = "fork" in multiprocessing.get_all_start_methods()
    if workers <= 1 or not fork:
        return [work(shard) for shard in shards], 1
    with concurrent.futures.ProcessPoolExecutor(
            max_workers=workers,
            mp_context=multiprocessing.get_context("fork"),
            initializer=_init_shard_worker, initargs=(work,)) as pool:
        return list(pool.map(_run_forked_shard, shards)), workers


def _activity(cache_stats, store_stats) -> Tuple[CacheStats, StoreStats]:
    """Current sub-model memo and persistent-store counters (zeros for
    a counter the caller did not ask for)."""
    return (cache_stats() if cache_stats is not None else CacheStats(),
            store_stats() if store_stats is not None else StoreStats())


#: default exact-evaluation slice of a pre-filtered sweep: top tenth of
#: the surrogate ranking, but never fewer than 64 points
def default_top_k(n_feasible: int) -> int:
    """How many surrogate-ranked points the prefilter evaluates
    exactly by default: 10% of the feasible space, floored at 64."""
    return max(64, n_feasible // 10)


def _explore_prefiltered(designs: List[Design], analyze, evaluator,
                         device, surrogate, top_k: Optional[int],
                         explore_band: int,
                         result: ExplorationResult) -> None:
    """Score every feasible design with the surrogate, evaluate only
    the promising slice exactly.

    The exact set is the surrogate's top-K plus a stratified
    exploration band across the remainder (insurance against a locally
    mis-ranked region) plus the surrogate-best point of every
    work-group size (the axis the analysis itself depends on).  The
    winner is then refined by a greedy hill-climb over single-knob
    neighbours: the surrogate's ranking errors are overwhelmingly
    local (a neighbouring cu/pe count edging out the picked point), so
    exactly evaluating the immediate neighbourhood of the running best
    until no neighbour improves recovers the exhaustive argmax at a
    cost of a few dozen extra evaluations.  All other feasible points
    keep their approximate score, tagged ``source="surrogate"``;
    :meth:`ExplorationResult.ranked` orders exact points first, so
    ``result.best`` is always an exact answer.
    """
    from repro.surrogate.features import design_matrix

    infos: Dict[int, object] = {}
    for design in designs:
        wg = design.work_group_size
        if wg not in infos:
            try:
                infos[wg] = analyze(wg)
            except Exception:
                infos[wg] = None

    entries: List[Optional[EvaluatedDesign]] = [None] * len(designs)
    feasible_idx: List[int] = []
    for i, design in enumerate(designs):
        info = infos[design.work_group_size]
        if info is None:
            entries[i] = EvaluatedDesign(
                design, float("inf"), feasible=False,
                reject_reason="analysis failed for this work-group size")
            continue
        reason = check_feasibility(info, design, device)
        if reason is not None:
            entries[i] = EvaluatedDesign(design, float("inf"),
                                         feasible=False,
                                         reject_reason=reason)
        else:
            feasible_idx.append(i)

    # surrogate scores, kernel features extracted once per wg shard
    scores: Dict[int, float] = {}
    by_wg: Dict[int, List[int]] = {}
    for i in feasible_idx:
        by_wg.setdefault(designs[i].work_group_size, []).append(i)
    for wg in sorted(by_wg):
        idxs = by_wg[wg]
        matrix = design_matrix(infos[wg], [designs[i] for i in idxs])
        for i, cycles in zip(idxs, surrogate.predict_cycles(matrix)):
            scores[i] = float(cycles)

    order = sorted(feasible_idx, key=lambda i: (scores[i], i))
    k = top_k if top_k is not None else default_top_k(len(order))
    exact_set = set(order[:k])
    rest = order[k:]
    if rest and explore_band > 0:
        step = max(len(rest) // explore_band, 1)
        exact_set.update(rest[::step][:explore_band])
    for wg in sorted(by_wg):
        exact_set.add(min(by_wg[wg], key=lambda i: (scores[i], i)))

    for i in sorted(exact_set):
        entries[i] = _evaluate_design(infos[designs[i].work_group_size],
                                      designs[i], evaluator, device)

    # greedy refinement: walk single-knob neighbours of the running
    # best until no exact neighbour improves on it
    def neighbours(i: int) -> List[int]:
        d = designs[i]
        out = []
        for j in feasible_idx:
            if j == i or j in exact_set:
                continue
            o = designs[j]
            diffs = sum((
                d.work_group_size != o.work_group_size,
                d.work_item_pipeline != o.work_item_pipeline,
                d.work_group_pipeline != o.work_group_pipeline,
                d.num_pe != o.num_pe,
                d.num_cu != o.num_cu,
                d.vector_width != o.vector_width,
                d.comm_mode != o.comm_mode,
            ))
            if diffs == 1:
                out.append(j)
        return out

    def best_exact() -> Optional[int]:
        cands = [i for i in exact_set
                 if entries[i] is not None and entries[i].feasible]
        return min(cands, key=lambda i: (entries[i].cycles, i),
                   default=None)

    current = best_exact()
    while current is not None:
        fresh = neighbours(current)
        for j in fresh:
            entries[j] = _evaluate_design(
                infos[designs[j].work_group_size], designs[j],
                evaluator, device)
            exact_set.add(j)
        nxt = best_exact()
        if nxt == current:
            break
        current = nxt

    for i in feasible_idx:
        if entries[i] is None:
            entries[i] = EvaluatedDesign(designs[i], scores[i],
                                         source="surrogate")
    for entry in entries:
        result.append(entry)
    result.prefilter = "surrogate"
    result.exact_evaluations = len(exact_set)


def explore(space: DesignSpace, analyze: Callable[[int], object],
            evaluator: Callable[[object, Design], float],
            device, jobs=None,
            cache_stats: Optional[Callable[[], CacheStats]] = None,
            store_stats: Optional[Callable[[], StoreStats]] = None,
            prefilter: Optional[str] = None, surrogate=None,
            top_k: Optional[int] = None, explore_band: int = 32
            ) -> ExplorationResult:
    """Exhaustively evaluate every feasible design in *space*.

    The space is split into one shard per work-group size (the kernel
    is analysed once per shard) and the shards go through
    :func:`run_shards`: *jobs* ``None``/1 runs them inline, an int fans
    them out over that many forked processes, ``'auto'`` uses one per
    core.  Parallel results are bit-identical to serial ones.  Pass
    *cache_stats* (e.g. ``lambda: model.cache_stats``) to record the
    sweep's sub-model cache activity in the result, and *store_stats*
    (e.g. ``lambda: cache.stats.copy()``) to record the persistent
    store's.  Forked workers inherit the analyze/evaluator closures and
    share one on-disk store, so a sweep that warmed the cache speeds up
    every later process, not just this one.

    ``prefilter="surrogate"`` switches to the learned fast path: a
    trained :class:`~repro.surrogate.SurrogateModel` (pass it as
    *surrogate*) scores the whole space and only the top *top_k* points
    (default: a tenth of the feasible set, at least 64), a stratified
    *explore_band*, and the per-work-group-size surrogate favourites
    are evaluated exactly; everything else carries its approximate
    score tagged ``source="surrogate"``.  ``result.best`` remains an
    exactly evaluated point and ``result.exact_evaluations`` records
    how much of the space the analytical model actually touched.
    """
    if prefilter not in (None, "none", "surrogate"):
        raise ValueError(f"unknown prefilter {prefilter!r}")
    if prefilter == "surrogate" and surrogate is None:
        raise ValueError("prefilter='surrogate' requires a trained "
                         "surrogate model (repro surrogate train)")
    start = time.perf_counter()
    result = ExplorationResult()
    designs = list(space)

    if prefilter == "surrogate":
        before = _activity(cache_stats, store_stats)
        _explore_prefiltered(designs, analyze, evaluator, device,
                             surrogate, top_k, explore_band, result)
        after = _activity(cache_stats, store_stats)
        memo, store = after[0] - before[0], after[1] - before[1]
    else:
        shards: Dict[int, List[int]] = {}
        for index, design in enumerate(designs):
            shards.setdefault(design.work_group_size, []).append(index)

        def run(indices: List[int]):
            before = _activity(cache_stats, store_stats)
            try:
                info = analyze(designs[indices[0]].work_group_size)
            except Exception:
                info = None
            entries = [_evaluate_design(info, designs[i], evaluator,
                                        device) for i in indices]
            after = _activity(cache_stats, store_stats)
            return entries, after[0] - before[0], after[1] - before[1]

        outcomes, result.jobs = run_shards(run, list(shards.values()),
                                           jobs)
        merged: List[Optional[EvaluatedDesign]] = [None] * len(designs)
        memo, store = CacheStats(), StoreStats()
        for indices, (entries, memo_delta, store_delta) in zip(
                shards.values(), outcomes):
            memo, store = memo + memo_delta, store + store_delta
            for index, entry in zip(indices, entries):
                merged[index] = entry
        for entry in merged:
            result.append(entry)
        result.exact_evaluations = len(result.feasible)
    if cache_stats is not None:
        result.cache_stats = memo
    if store_stats is not None:
        result.store_stats = store
    result.elapsed_seconds = time.perf_counter() - start
    return result


#: Back-compat alias: exhaustive search == explore.
exhaustive_search = explore
