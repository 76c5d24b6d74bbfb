"""Span recorder for the benchmark's traced runs.

The recorder wraps public functions of ``repro`` where they are called.
Callers bind names with ``from ... import``, so a function is replaced
in every loaded ``repro`` module that holds it, not only in the module
that defines it; methods are replaced on their class.  Each call records
one span ``(id, parent, name, start, end, attrs)``.  The parent is the
innermost open span of the same thread.  Spans stay in memory and are
written to ``<out_dir>/spans-<pid>.json`` when the process exits.
Worker processes forked by ``multiprocessing`` inherit the wrappers,
drop the spans they inherited, and write their own file at exit.

Nothing here changes what a wrapped function computes or returns.
"""

from __future__ import annotations

import atexit
import functools
import importlib
import itertools
import json
import multiprocessing.util
import os
import statistics
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, List, Optional


class SpanRecorder:
    """In-memory spans of one process, flushed to *out_dir* at exit."""

    def __init__(self, out_dir) -> None:
        self.out_dir = Path(out_dir)
        self.spans: List[list] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._pid = os.getpid()
        os.register_at_fork(after_in_child=self._after_fork)
        multiprocessing.util.register_after_fork(
            self, SpanRecorder._after_mp_fork)
        atexit.register(self.flush)

    # -- recording -----------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn: Callable, name: str,
             observe: Optional[Callable] = None,
             before: Optional[Callable] = None) -> Callable:
        """A wrapper recording one span per call of *fn*.  *observe*
        (``observe(attrs, args, result, ctx) -> None``) may add
        attributes from the call's result; *ctx* is what
        ``before(args)`` returned ahead of the call."""
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = recorder._stack()
            span_id = next(recorder._ids)
            parent = stack[-1] if stack else 0
            stack.append(span_id)
            attrs: Dict[str, object] = {}
            ctx = before(args) if before is not None else None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                attrs["error"] = type(exc).__name__
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                recorder.spans.append(
                    [span_id, parent, name, start, end, attrs])
            if observe is not None:
                observe(attrs, args, result, ctx)
            return result

        return wrapper

    # -- process lifetime ----------------------------------------------

    def _after_fork(self) -> None:
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._pid = os.getpid()

    @staticmethod
    def _after_mp_fork(recorder: "SpanRecorder") -> None:
        # multiprocessing workers leave through os._exit, which skips
        # atexit; its own exit hook runs Finalize callbacks instead.
        multiprocessing.util.Finalize(recorder, recorder.flush,
                                      exitpriority=10)

    def flush(self) -> None:
        self.out_dir.mkdir(parents=True, exist_ok=True)
        path = self.out_dir / f"spans-{self._pid}.json"
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps({"pid": self._pid,
                                   "spans": self.spans}))
        os.replace(tmp, path)


# ---------------------------------------------------------------------
# installing the wrappers
# ---------------------------------------------------------------------

#: modules imported before patching, so every import site exists
_PRELOAD = (
    "repro.frontend", "repro.analysis", "repro.interp",
    "repro.interp.synth", "repro.interp.vexec", "repro.lint.summary",
    "repro.model", "repro.model.area", "repro.cache", "repro.dse",
    "repro.evaluation", "repro.serve", "repro.serve.pool", "repro.cli",
)

#: (module, function) -> layer
FUNCTIONS = {
    ("repro.frontend.lowering", "compile_opencl"): "frontend",
    ("repro.model.memory", "pattern_table_for"): "dram.microbench",
    ("repro.lint.summary.engine", "summarize_kernel"): "lint.summary",
    ("repro.analysis.kernel_info", "analyze_kernel"): "analysis",
    ("repro.analysis.memtrace", "analyze_traces"): "analysis.memtrace",
    ("repro.analysis.dfg", "build_function_dfg"): "analysis.dfg",
    ("repro.model.memory", "memory_model"): "model.memory",
    ("repro.model.pe", "pe_model"): "model.pe",
    ("repro.model.area", "estimate_area"): "model.area",
    ("repro.analysis.kernel_info", "analysis_fingerprint"): "cache.keys",
    ("repro.cache.keys", "digest"): "cache.keys",
    ("repro.cache.keys", "device_fingerprint"): "cache.keys",
    ("repro.cache.keys", "function_fingerprint"): "cache.keys",
    ("repro.cache.keys", "buffers_fingerprint"): "cache.keys",
    ("repro.cache.keys", "ndrange_fingerprint"): "cache.keys",
    ("repro.cache.keys", "scalars_fingerprint"): "cache.keys",
    ("repro.cache.keys", "analysis_key"): "cache.keys",
    ("repro.cache.keys", "submodel_key"): "cache.keys",
    ("repro.cache.keys", "table1_key"): "cache.keys",
    ("repro.dse.explorer", "explore"): "dse.explore",
    ("repro.evaluation.suite", "run_suite"): "evaluation.suite",
    ("repro.serve.api", "run_task"): "serve.run_task",
}

#: (module, class, method) -> layer
METHODS = {
    ("repro.interp.synth", "TraceSynthesizer", "run"): "interp.synth",
    ("repro.interp.vexec", "VectorizedExecutor", "run"): "interp.vexec",
    ("repro.interp.executor", "KernelExecutor", "run"):
        "interp.executor",
    ("repro.model.flexcl", "FlexCL", "predict"): "model.flexcl",
    ("repro.cache.store", "ArtifactCache", "get"): "cache.store.get",
    ("repro.cache.store", "ArtifactCache", "put"): "cache.store.put",
}


def request_id(spec: dict) -> str:
    """The id a served request and its worker span share: the spec's
    canonical JSON (the client sends it, the daemon forwards it)."""
    return json.dumps(spec, sort_keys=True)


def _entry_bytes(store, layer: str, key: str) -> int:
    try:
        return os.path.getsize(store._entry_path(layer, key))
    except OSError:
        return 0


def _observe_get(attrs, args, result, ctx) -> None:
    store, layer, key = args[0], args[1], args[2]
    if result[0]:
        attrs["hit"] = 1
        attrs["bytes"] = _entry_bytes(store, layer, key)


def _observe_explore(attrs, args, result, ctx) -> None:
    attrs["evaluated"] = len(result.evaluated)
    attrs["feasible"] = len(result.feasible)


def _observe_task(attrs, args, result, ctx) -> None:
    attrs["rid"] = request_id(args[0]["spec"])


def _evictions_before(args) -> int:
    return args[0].stats.evictions


def _observe_put(attrs, args, result, evictions_before) -> None:
    store, layer, key = args[0], args[1], args[2]
    attrs["bytes"] = _entry_bytes(store, layer, key)
    attrs["evictions"] = store.stats.evictions - evictions_before


def _replace_everywhere(original, wrapped) -> None:
    for module in list(sys.modules.values()):
        name = getattr(module, "__name__", "") or ""
        if not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapped)


def install(recorder: SpanRecorder) -> None:
    """Wrap every function and method in :data:`FUNCTIONS` and
    :data:`METHODS` at each of its import sites."""
    for name in _PRELOAD:
        importlib.import_module(name)
    observers = {"dse.explore": _observe_explore,
                 "serve.run_task": _observe_task,
                 "cache.store.get": _observe_get,
                 "cache.store.put": _observe_put}
    for (module_name, attr), layer in FUNCTIONS.items():
        original = getattr(importlib.import_module(module_name), attr)
        wrapped = recorder.wrap(original, layer, observers.get(layer))
        _replace_everywhere(original, wrapped)
    for (module_name, cls_name, attr), layer in METHODS.items():
        cls = getattr(importlib.import_module(module_name), cls_name)
        before = _evictions_before if layer == "cache.store.put" else None
        setattr(cls, attr, recorder.wrap(cls.__dict__[attr], layer,
                                         observers.get(layer), before))


# ---------------------------------------------------------------------
# reading spans back
# ---------------------------------------------------------------------

def load_spans(out_dir) -> Dict[int, List[list]]:
    """pid -> spans of every flushed process under *out_dir*."""
    out = {}
    for path in sorted(Path(out_dir).glob("spans-*.json")):
        data = json.loads(path.read_text())
        out[data["pid"]] = data["spans"]
    return out


class LayerStats:
    """Per-layer totals over the spans of many processes.

    A span nested in a span of the same layer (``digest`` inside
    ``analysis_key``, say) is part of its outer span: it adds to
    neither ``calls`` nor ``busy_s``.  ``self_s`` is busy time minus
    the time that direct child spans of another layer cover.
    """

    def __init__(self, spans_by_pid: Dict[int, List[list]]) -> None:
        self.calls: Dict[str, int] = defaultdict(int)
        self.busy: Dict[str, float] = defaultdict(float)
        self.self_time: Dict[str, float] = defaultdict(float)
        self.outer: Dict[str, List[list]] = defaultdict(list)
        for spans in spans_by_pid.values():
            self._add_process(spans)

    def _add_process(self, spans: List[list]) -> None:
        by_id = {s[0]: s for s in spans}
        child_time: Dict[int, float] = defaultdict(float)
        for span_id, parent, name, start, end, _ in spans:
            if parent in by_id and by_id[parent][2] != name:
                child_time[parent] += end - start
        for span in spans:
            span_id, parent, name, start, end, _ = span
            if self._inside_same_layer(by_id, parent, name):
                continue
            self.calls[name] += 1
            self.busy[name] += end - start
            self.self_time[name] += end - start - child_time[span_id]
            self.outer[name].append(span)

    @staticmethod
    def _inside_same_layer(by_id, parent: int, name: str) -> bool:
        while parent in by_id:
            span = by_id[parent]
            if span[2] == name:
                return True
            parent = span[1]
        return False

    def attr_sum(self, name: str, attr: str) -> float:
        return sum(s[5].get(attr, 0) for s in self.outer[name])

    def durations_ms(self, name: str) -> List[float]:
        return [(s[4] - s[3]) * 1e3 for s in self.outer[name]]


def median_or_zero(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0
