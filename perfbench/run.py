"""The repository benchmark: ``catalog``, ``dse`` and ``serve`` workloads.

Usage, from the repository root::

    python3 perfbench/run.py --workload catalog --seed 1 --seconds 12 --trace 0

Each workload runs against the public entry points of ``repro``:

- ``catalog``: ``repro.evaluation.run_suite`` over the 67 catalog kernels,
  8 designs per kernel, ``jobs=1``, one cold pass against an empty store
  and then warm passes against the filled store;
- ``dse``: a serial exhaustive ``repro.dse.explore`` of the default
  960-point space of 18 catalog kernels, each kernel against its own
  store, cold and then warm;
- ``serve``: ``repro serve`` in its own process with its default worker
  count, driven by one closed-loop HTTP client with a seeded stream of
  exact ``/predict`` requests, first against an empty store and then,
  restarted, against the filled one.

Every pass runs in a fresh interpreter (``passes.py``), as a user
re-running the CLI would.  Every time is reported at a fixed reference
machine speed: each pass samples the host's speed as it goes
(``speed.py``) and its times are divided by its measured slowdown.  The
seed only orders the kernels (each pass its own order) and draws the
serve stream.  Each run makes one cold pass; warm passes then repeat
until they have taken ``--seconds`` (at least one, at most eight).  The
last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` the
workload runs once untraced and once with the span recorder
(``spans.py``) and the metrics are the per-layer ones plus the tracing
overhead.  See ``README.md`` in this directory for the metric list.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import http.client
import json
import math
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "system_run_reference.json"
sys.path.insert(0, str(HERE))

from passes import percentile  # noqa: E402
from speed import SETUP_SAMPLES, SpeedProbe, slowdown  # noqa: E402

#: the cap on warm passes per run, and the least number of set-up
#: samples per run (their median is ``setup_s``)
MAX_WARM, MIN_SETUPS = 8, 4
#: a run that has not finished by then stops its children and fails
RUN_DEADLINE_S = 170
#: dse: 11 kernels the access summary proves static (synthesized
#: traces) and 7 interpreted ones, spanning cheap to costly explores
DSE_KERNELS = (
    "polybench/atax/atax", "polybench/correlation/correlation",
    "polybench/covariance/covariance", "polybench/gemm/gemm",
    "polybench/gemver/gemver", "polybench/jacobi-2d/jacobi2d",
    "polybench/syr2k/syr2k", "rodinia/backprop/adjust",
    "rodinia/bfs/bfs_1", "rodinia/btree/findK", "rodinia/cfd/compute",
    "rodinia/hotspot/hotspot", "rodinia/kmeans/center",
    "rodinia/lavaMD/lavaMD", "rodinia/leukocyte/gicov",
    "rodinia/nw/nw1", "rodinia/pathfinder/dynproc", "rodinia/srad/srad",
)
#: serve: kernels whose (kernel, work-group size) pairs the stream
#: analyses, mixing statically synthesized and interpreted kernels
SERVE_KERNELS = (
    "polybench/atax/atax", "polybench/gemm/gemm",
    "polybench/jacobi-2d/jacobi2d", "polybench/syr2k/syr2k",
    "rodinia/backprop/adjust", "rodinia/bfs/bfs_1",
    "rodinia/cfd/compute", "rodinia/hotspot/hotspot",
    "rodinia/kmeans/center", "rodinia/nw/nw1",
    "rodinia/pathfinder/dynproc", "rodinia/srad/srad",
)
SERVE_REQUESTS = 1200
#: share of the non-analysing requests that repeat an earlier one
SERVE_REPEAT = 0.16
SERVE_CHECK_SAMPLE = 24


class BenchmarkError(Exception):
    """A pass or the daemon did not complete."""


# ---------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------

def dir_bytes(path: Path) -> int:
    total = 0
    for base, _, files in os.walk(path):
        for name in files:
            try:
                total += os.path.getsize(os.path.join(base, name))
            except OSError:
                pass
    return total


def run_stamp(args) -> dict:
    """Where and what this run measured."""
    source = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        source.update(str(path.relative_to(ROOT)).encode())
        source.update(path.read_bytes())
    return {"git_sha": _git_sha(), "source_sha256": source.hexdigest(),
            "nproc": os.cpu_count(), "python": platform.python_version(),
            "loadavg": list(os.getloadavg()), "seed": args.seed,
            "workload": args.workload, "seconds": args.seconds,
            "trace": args.trace}


def _git_sha() -> Optional[str]:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


class RssSampler:
    """Peak RSS of this process and all its descendants: the largest sum,
    over the processes alive at one sample, of each one's own peak RSS
    (``VmHWM``, which the kernel keeps, so a short spike between two
    samples still counts)."""

    def __init__(self, interval: float = 0.2) -> None:
        self.interval = interval
        self.peak_bytes = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def __enter__(self) -> "RssSampler":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        self.sample()

    def _loop(self) -> None:
        while not self._stop.wait(self.interval):
            self.sample()

    def sample(self) -> None:
        children: Dict[int, List[int]] = {}
        for entry in os.listdir("/proc"):
            if not entry.isdigit():
                continue
            try:
                with open(f"/proc/{entry}/stat") as fh:
                    stat = fh.read()
            except OSError:
                continue
            ppid = int(stat.rsplit(")", 1)[1].split()[1])
            children.setdefault(ppid, []).append(int(entry))
        total, todo = 0, [os.getpid()]
        while todo:
            pid = todo.pop()
            todo.extend(children.get(pid, ()))
            try:
                with open(f"/proc/{pid}/status") as fh:
                    for line in fh:
                        if line.startswith("VmHWM:"):
                            total += int(line.split()[1]) * 1024
                            break
            except OSError:
                pass
        self.peak_bytes = max(self.peak_bytes, total)


# ---------------------------------------------------------------------
# passes in fresh interpreters
# ---------------------------------------------------------------------

class Bench:
    """Work directory, child processes and counters of one run."""

    def __init__(self, work: Path) -> None:
        self.work = work
        self._n = 0
        self.env = dict(os.environ)
        self.env.pop("PYTHONPATH", None)
        # Anything that falls back to the default store stays in here.
        self.env["REPRO_CACHE_DIR"] = str(work / "default-store")
        self.env["PYTHONUNBUFFERED"] = "1"

    def fresh(self, stem: str) -> Path:
        self._n += 1
        return self.work / f"{self._n:03d}-{stem}"

    def run_pass(self, phase: str, spec: dict, store: Path,
                 trace_dir: Optional[Path] = None) -> Tuple[dict, float]:
        """Run one pass; returns its output and its set-up time (from
        process start until it reported ready)."""
        base = self.fresh(phase)
        inp, out = base.with_suffix(".in.json"), base.with_suffix(".out.json")
        inp.write_text(json.dumps(spec))
        argv = [sys.executable, str(HERE / "passes.py"), phase, str(inp),
                str(out), "--store", str(store),
                "--setup-store", str(base.with_suffix(".setup"))]
        if trace_dir is not None:
            argv += ["--trace-dir", str(trace_dir)]
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True,
                                env=self.env, cwd=ROOT)
        try:
            line = proc.stdout.readline()
            setup_s = time.perf_counter() - start
            proc.stdout.read()
            code = proc.wait()
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        if line.strip() != "ready" or code != 0:
            raise BenchmarkError(f"{phase} pass failed (exit {code})")
        return at_reference_speed(json.loads(out.read_text()), setup_s)


def at_reference_speed(out: dict, setup_s: float) -> Tuple[dict, float]:
    """A pass's output and set-up time at the reference speed: the pass
    time divided by the pass's mean slowdown, set-up by that of the
    samples around set-up.  The pass already scaled its operations."""
    factor = out["slowdown"] = slowdown(out["speed"])
    if "pass_s" in out:
        out["pass_s"] /= factor
    return out, setup_s / slowdown(out["setup_speed"])


class Daemon:
    """One ``repro serve`` process on an ephemeral port."""

    def __init__(self, bench: Bench, store: Path, probe: SpeedProbe,
                 trace_dir: Optional[Path] = None) -> None:
        argv = [sys.executable, str(HERE / "serve_launcher.py")]
        if trace_dir is not None:
            argv += ["--trace-dir", str(trace_dir)]
        argv += ["serve", "--port", "0", "--cache-dir", str(store)]
        first = len(probe.samples)
        probe.sample(SETUP_SAMPLES)
        start = time.perf_counter()
        self.proc = subprocess.Popen(argv, stdout=subprocess.PIPE,
                                     text=True, env=bench.env, cwd=ROOT,
                                     start_new_session=True)
        try:
            line = self.proc.stdout.readline()
            if "listening on http://" not in line:
                raise BenchmarkError(f"serve did not start: {line!r}")
            self.port = int(line.split("http://", 1)[1].split()[0]
                            .rsplit(":", 1)[1])
            self._wait_healthy()
        except BaseException:
            self.stop()
            raise
        setup_s = time.perf_counter() - start
        probe.sample(SETUP_SAMPLES)
        self.setup_s = setup_s / slowdown(probe.samples[first:])

    def _wait_healthy(self) -> None:
        deadline = time.monotonic() + 30
        while True:
            try:
                conn = http.client.HTTPConnection("127.0.0.1", self.port,
                                                  timeout=5)
                conn.request("GET", "/healthz")
                if conn.getresponse().status == 200:
                    conn.close()
                    return
            except OSError:
                pass
            if time.monotonic() > deadline:
                raise BenchmarkError("serve never became healthy")
            time.sleep(0.01)

    def metrics(self) -> dict:
        conn = http.client.HTTPConnection("127.0.0.1", self.port,
                                          timeout=30)
        conn.request("GET", "/metrics")
        body = conn.getresponse().read()
        conn.close()
        return json.loads(body)

    def stop(self) -> None:
        """Interrupt the daemon so it shuts its pool down (traced
        workers write their spans), then make sure its whole process
        group is gone."""
        proc = self.proc
        if proc.poll() is None:
            proc.send_signal(signal.SIGINT)
            try:
                proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                pass
        deadline = time.monotonic() + 10
        while _group_alive(proc.pid) and time.monotonic() < deadline:
            time.sleep(0.05)
        if _group_alive(proc.pid):
            os.killpg(proc.pid, signal.SIGKILL)
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()


def _group_alive(pgid: int) -> bool:
    try:
        os.killpg(pgid, 0)
        return True
    except ProcessLookupError:
        return False


def run_stream(port: int, stream: List[dict]) -> dict:
    """Send *stream* over one keep-alive connection as a closed loop:
    each request goes out only after the previous answer is in.  The
    client samples the host's speed between requests; ``pass_s`` and
    ``latencies_ms`` are at the reference speed (the stream's mean
    slowdown, each request's local one), ``results`` keep the raw
    clock."""
    headers = {"Content-Type": "application/json"}
    results = []
    probe = SpeedProbe()
    probe.sample(SETUP_SAMPLES)
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
    spent, start, marks = probe.spent, time.perf_counter(), []
    try:
        for spec in stream:
            probe.maybe()
            marks.append(probe.mark())
            sent = time.perf_counter()
            try:
                conn.request("POST", "/predict", json.dumps(spec).encode(),
                             headers)
                resp = conn.getresponse()
                status, data = resp.status, resp.read()
            except (OSError, http.client.HTTPException):
                status, data = 0, b""
                conn.close()
            results.append((sent, time.perf_counter(), status,
                            data.decode("utf-8", "replace")))
    finally:
        conn.close()
    wall = time.perf_counter() - start - (probe.spent - spent)
    probe.sample(SETUP_SAMPLES)
    factor = slowdown(probe.samples)
    return {"pass_s": wall / factor, "slowdown": factor, "results": results,
            "latencies_ms": [(r[1] - r[0]) * 1e3 / probe.local_slowdown(m)
                             if r[2] == 200 else math.inf
                             for r, m in zip(results, marks)]}


# ---------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------

def load_reference() -> dict:
    return json.loads(REFERENCE.read_text())["kernels"]


def model_error_pct(pairs: List[Tuple[float, float]]) -> float:
    """Mean |predicted - simulated| / simulated, in percent."""
    return 100.0 * statistics.fmean(abs(p - s) / s for p, s in pairs)


def warm_rounds(seconds: float, fixed: Optional[int] = None):
    """Count warm passes: they repeat until the warm phase has lasted
    *seconds* (at least one, at most :data:`MAX_WARM`), or exactly
    *fixed* times."""
    start = time.perf_counter()
    n = 0
    while n < (fixed or MAX_WARM) and (
            n == 0 or fixed or time.perf_counter() - start < seconds):
        yield n
        n += 1


def summarize(cold: dict, warms: List[dict], setups: List[float],
              latency: Dict[str, float], completed: int, errors,
              store_bytes: int) -> dict:
    """End-to-end metrics of one run; *latency* holds the ``p50`` and
    ``p99`` the workload reports, and *completed* counts the cold pass's
    successful operations."""
    return {
        "setup_s": statistics.median(setups),
        "cold_s": cold["pass_s"],
        "warm_s": statistics.median(w["pass_s"] for w in warms),
        "p50_ms": latency["p50"],
        "p99_ms": latency["p99"],
        "rps": completed / cold["pass_s"],
        "model_error_pct": model_error_pct(errors),
        "store_mb": store_bytes / 1e6,
    }


def catalog_like(bench: Bench, seed: int, seconds: float,
                 passes: Optional[int] = None,
                 trace_dir: Optional[Path] = None, *, kind: str) -> dict:
    """``catalog`` and ``dse``: one cold pass on an empty store, then
    warm passes on the store it filled.  *passes* fixes the number of
    warm passes (the traced run).  Every pass runs the kernels in its
    own seeded order.

    ``dse``'s latency percentiles cover the ~10,800 predictions of its
    cold pass.  ``catalog`` times only whole ``run_suite`` calls, so its
    percentiles cover the kernels' warm latencies, each kernel's mean
    over the warm passes.  Cold ones would not do: a cold ``catalog``
    kernel pays a store rescan per write that grows with everything
    written before it, so its cost depends on its place in the order.  A
    warm kernel takes ~10-40 ms, and a pause of ~20 ms (a garbage
    collection) falls on whichever kernel runs at that point of the
    pass; with one order per pass it does not stick to one kernel."""
    reference = load_reference()
    if kind == "dse":
        reference = {k: reference[k] for k in DSE_KERNELS}

    def run(n: int):
        order = sorted(reference)
        random.Random(f"{seed}:{n}").shuffle(order)
        spec = {"order": order}
        if kind == "dse":
            spec["reference"] = {k: sorted(v["designs"])
                                 for k, v in reference.items()}
        out, setup_s = bench.run_pass(kind, spec, store, trace_dir)
        out["latency_of"] = dict(zip(order, out["latencies_ms"]))
        return out, setup_s

    store = bench.fresh(f"{kind}-store")
    cold, setup_s = run(0)
    store_bytes = dir_bytes(store)
    warms, setups = [], [setup_s]
    for n in warm_rounds(seconds, passes):
        out, setup_s = run(n + 1)
        warms.append(out)
        setups.append(setup_s)
    while passes is None and len(setups) < MIN_SETUPS:
        setups.append(bench.run_pass("probe", {}, store)[1])

    check = check_catalog if kind == "catalog" else check_dse
    attempted, failed, errors = check(cold, warms, reference)
    if kind == "dse":
        latency = cold["predict_ms"]
    else:
        means = [statistics.fmean(w["latency_of"][name] for w in warms)
                 for name in reference]
        latency = {"p50": percentile(means, 0.50),
                   "p99": percentile(means, 0.99)}
    return {
        "attempted": attempted, "failed": failed,
        "pass_s": [p["pass_s"] for p in [cold] + warms],
        "slowdowns": [p["slowdown"] for p in [cold] + warms],
        "metrics": summarize(cold, warms, setups, latency,
                             len(cold["latencies_ms"]), errors,
                             store_bytes),
    }


def check_catalog(cold, warms, reference):
    """Every prediction is an operation.  A warm row that no cold row
    equals (the passes run in different orders), or a cold row without a
    System-Run reference, fails."""
    rows = cold["rows"]
    attempted = len(rows) + sum(len(w["rows"]) for w in warms)
    failed = 0
    expected = Counter(map(tuple, rows))
    for warm in warms:
        got = Counter(map(tuple, warm["rows"]))
        failed += max(sum((expected - got).values()),
                      sum((got - expected).values()))
    errors = []
    for workload, design, cycles in rows:
        simulated = reference.get(workload, {}).get("designs", {}) \
            .get(design)
        if simulated is None:
            failed += 1
        else:
            errors.append((cycles, simulated))
    return attempted, failed, errors


def check_dse(cold, warms, reference):
    """Every explore is an operation.  It fails when its warm ranked
    list differs from the cold one, when ``best`` is not the argmin of
    the feasible rows, or when a System-Run reference design is missing
    from its feasible rows."""
    kernels = cold["kernels"]
    attempted = len(kernels) * (1 + len(warms))
    failed, errors = 0, []
    for name, result in kernels.items():
        failed += not result["best_is_argmin"]
        for warm in warms:
            again = warm["kernels"].get(name)
            failed += (again is None or again["ranked"] != result["ranked"]
                       or not again["best_is_argmin"])
        designs = reference[name]["designs"]
        if set(result["reference_cycles"]) != set(designs):
            failed += 1
        errors.extend((cycles, designs[sig]) for sig, cycles
                      in result["reference_cycles"].items())
    return attempted, failed, errors


def serve(bench: Bench, seed: int, seconds: float,
          passes: Optional[int] = None,
          trace_dir: Optional[Path] = None) -> dict:
    """The stream against a daemon on an empty store, then against
    daemons restarted on the store it filled.  Before every restart, a
    fresh interpreter recomputes the sampled bodies (its set-up time
    pairs with the daemon's)."""
    reference = load_reference()
    spec = {"seed": seed, "kernels": list(SERVE_KERNELS),
            "reference": {k: reference[k] for k in SERVE_KERNELS},
            "requests": SERVE_REQUESTS, "repeat": SERVE_REPEAT,
            "check_sample": SERVE_CHECK_SAMPLE}
    store = bench.fresh("serve-store")
    generated, probe_s = bench.run_pass("serve-gen", spec, store,
                                        trace_dir)
    stream = generated["stream"]
    setups, daemon_metrics = [], []
    counts = {"checked": 0, "mismatched": 0}
    checks: List[dict] = []

    def check() -> float:
        out, probe_s = bench.run_pass("serve-check", {"checks": checks},
                                      store)
        counts["checked"] += out["checked"]
        counts["mismatched"] += len(out["mismatches"])
        return probe_s

    def daemon_round(probe_s: float,
                     stream_it: bool = True) -> Optional[dict]:
        daemon = Daemon(bench, store, SpeedProbe(),
                        trace_dir if stream_it else None)
        setups.append(probe_s + daemon.setup_s)
        try:
            if not stream_it:
                return None
            result = run_stream(daemon.port, stream)
            daemon_metrics.append(daemon.metrics())
            return result
        finally:
            daemon.stop()

    cold = daemon_round(probe_s)
    store_bytes = dir_bytes(store)
    checks.extend({"index": i, "spec": stream[i],
                   "body": cold["results"][i][3]}
                  for i in generated["sample"])
    warms = [daemon_round(check())
             for _ in warm_rounds(seconds, passes)]
    while passes is None and len(setups) < MIN_SETUPS:
        daemon_round(check(), stream_it=False)

    runs = [cold] + warms
    attempted = len(stream) * len(runs) + counts["checked"]
    failed = counts["mismatched"]
    for run in runs:
        failed += sum(1 for r in run["results"] if r[2] != 200)
    for warm in warms:
        failed += sum(1 for a, b in zip(cold["results"], warm["results"])
                      if a[3] != b[3])
    errors, seen = [], set()
    for result in cold["results"]:
        if result[2] != 200:
            continue
        body = json.loads(result[3])
        key = (body.get("workload"), body["design"]["signature"])
        simulated = reference[key[0]]["designs"].get(key[1])
        if simulated is not None and key not in seen:
            seen.add(key)
            errors.append((body["prediction"]["cycles"], simulated))
    failed += sum(len(reference[k]["designs"]) for k in SERVE_KERNELS) \
        - len(seen)

    latencies = cold["latencies_ms"]
    return {
        "attempted": attempted, "failed": failed,
        "pass_s": [r["pass_s"] for r in runs],
        "slowdowns": [r["slowdown"] for r in runs],
        "stream": stream, "streams": runs,
        "daemon_metrics": daemon_metrics,
        "metrics": summarize(cold, warms, setups,
                             {"p50": percentile(latencies, 0.50),
                              "p99": percentile(latencies, 0.99)},
                             sum(1 for x in latencies if x != math.inf),
                             errors, store_bytes),
    }


WORKLOADS = {
    "catalog": functools.partial(catalog_like, kind="catalog"),
    "dse": functools.partial(catalog_like, kind="dse"),
    "serve": serve,
}


# ---------------------------------------------------------------------
# traced run -> per-layer metrics
# ---------------------------------------------------------------------

#: layers reported with calls and busy_s
SPAN_LAYERS = (
    "frontend", "dram.microbench", "lint.summary", "interp.synth",
    "interp.vexec", "interp.executor", "analysis", "analysis.memtrace",
    "analysis.dfg", "model.memory", "model.pe", "model.flexcl",
    "model.area", "cache.keys", "cache.store.get", "cache.store.put",
    "dse.explore", "evaluation.suite",
)


def layer_metrics(trace_dir: Path, traced: dict, untraced: dict) -> dict:
    from spans import LayerStats, load_spans, median_or_zero

    stats = LayerStats(load_spans(trace_dir))
    m: Dict[str, float] = {}
    for layer in SPAN_LAYERS:
        m[f"{layer}.calls"] = stats.calls[layer]
        m[f"{layer}.busy_s"] = stats.busy[layer]
    for layer in ("analysis", "model.flexcl"):
        m[f"{layer}.self_s"] = stats.self_time[layer]
    m["interp.vexec.fallbacks"] = sum(
        1 for s in stats.outer["interp.vexec"]
        if s[5].get("error") == "VectorizationError")
    predicts = stats.calls["model.flexcl"]
    for sub in ("pe", "memory"):
        m[f"model.memo.{sub}_hit_ratio"] = (
            1 - stats.calls[f"model.{sub}"] / predicts if predicts else 0)
    m["cache.store.get.hits"] = stats.attr_sum("cache.store.get", "hit")
    m["cache.store.get.bytes"] = stats.attr_sum("cache.store.get", "bytes")
    m["cache.store.put.bytes"] = stats.attr_sum("cache.store.put", "bytes")
    puts = stats.durations_ms("cache.store.put")
    m["cache.store.put.p50_ms"] = median_or_zero(puts)
    m["cache.store.put.max_ms"] = max(puts, default=0.0)
    m["cache.store.evictions"] = stats.attr_sum("cache.store.put",
                                                "evictions")
    evaluated = stats.attr_sum("dse.explore", "evaluated")
    m["dse.explore.feasible_ratio"] = (
        stats.attr_sum("dse.explore", "feasible") / evaluated
        if evaluated else 0.0)
    m.update(serve_layer_metrics(stats, traced))
    m["trace.traced_s"] = sum(traced["pass_s"])
    m["trace.untraced_s"] = sum(untraced["pass_s"])
    m["trace.overhead_s"] = m["trace.traced_s"] - m["trace.untraced_s"]
    return m


def serve_layer_metrics(stats, traced: dict) -> dict:
    """Worker time and the client latency left over beyond it (queue,
    pool hop, HTTP, encoding), plus the daemons' own outcome counters.
    Zero outside ``serve``."""
    from spans import median_or_zero, request_id

    worker = {}
    for span in stats.outer["serve.run_task"]:
        worker.setdefault(span[5].get("rid"), []).append(span)
    overhead = []
    for stream_run in traced.get("streams", ()):
        for spec, r in zip(traced["stream"], stream_run["results"]):
            if r[2] != 200:
                continue
            inside = [s[4] - s[3] for s in worker.get(request_id(spec), ())
                      if r[0] <= s[3] and s[4] <= r[1]]
            overhead.append((r[1] - r[0] - sum(inside)) * 1e3)
    m = dict.fromkeys(("serve.hot", "serve.evaluated", "serve.coalesced",
                       "serve.rejected", "cache.hot.hits",
                       "cache.hot.misses"), 0)
    for metrics in traced.get("daemon_metrics", ()):
        predict = metrics["endpoints"].get("predict", {})
        m["serve.hot"] += predict.get("hot_hits", 0)
        m["serve.evaluated"] += predict.get("evaluations", 0)
        m["serve.coalesced"] += predict.get("coalesced", 0)
        m["serve.rejected"] += metrics.get("rejected", 0)
        hot = metrics["cache"]["tiers"]["hot"]
        m["cache.hot.hits"] += hot["hits"]
        m["cache.hot.misses"] += hot["misses"]
    m["serve.worker_ms"] = median_or_zero(
        stats.durations_ms("serve.run_task"))
    m["serve.overhead_ms"] = median_or_zero(overhead)
    return m


# ---------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------

def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    if not REFERENCE.is_file():
        print(f"error: missing {REFERENCE.name}; run make_reference.py",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(HERE))
    print("stamp: " + json.dumps(run_stamp(args), sort_keys=True),
          flush=True)

    def out_of_time(signum, frame):
        raise BenchmarkError(f"run exceeded {RUN_DEADLINE_S} s")

    signal.signal(signal.SIGALRM, out_of_time)
    signal.alarm(RUN_DEADLINE_S)
    work = ROOT / ".perfbench_work" / f"{os.getpid()}"
    work.mkdir(parents=True)
    try:
        bench = Bench(work)
        workload = WORKLOADS[args.workload]
        if args.trace:
            untraced = workload(bench, args.seed, args.seconds, passes=1)
            trace_dir = bench.fresh("spans")
            traced = workload(bench, args.seed, args.seconds, passes=1,
                              trace_dir=trace_dir)
            runs = [untraced, traced]
            values = layer_metrics(trace_dir, traced, untraced)
        else:
            with RssSampler() as rss:
                result = workload(bench, args.seed, args.seconds)
            runs = [result]
            values = dict(result["metrics"],
                          peak_rss_mb=rss.peak_bytes / 1e6)
    finally:
        signal.alarm(0)
        shutil.rmtree(work, ignore_errors=True)
        try:
            (ROOT / ".perfbench_work").rmdir()
        except OSError:
            pass
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    # Reported pass times are these pass times at the reference speed.
    print("slowdowns: " + json.dumps([r["slowdowns"] for r in runs]))
    # BENCHMARK.json fixes each reported metric's name and unit.
    declared = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
