"""One benchmark pass in a fresh interpreter.

``run.py`` starts this script once per pass, so every pass pays what a
user re-running the CLI pays and no in-process memo carries over.  The
script first sets up (imports, compiles the catalog, profiles the
Table-1 pattern table into an empty store), prints ``ready`` and then
runs one pass:

- ``catalog``: ``run_suite`` over the catalog, one kernel per call, in
  the given order, against one store;
- ``dse``: a serial exhaustive ``explore`` of each kernel's default
  design space, each kernel against its own store; every prediction
  is timed;
- ``serve-gen``: generate the seeded ``/predict`` request stream;
- ``serve-check``: recompute sampled served bodies in-process;
- ``probe``: nothing (a set-up sample only).

Every phase samples the machine's speed (``speed.py``) just before and
after set-up and, in ``catalog`` and ``dse``, between operations; the
samples go out with the pass's output.  Operation and pass times exclude
the sampling; ``pass_s`` is as measured, each operation's latency is
already divided by the slowdown of the samples around it.

Usage (``run.py`` does this)::

    python3 perfbench/passes.py PHASE INPUT.json OUTPUT.json \
        --store DIR --setup-store DIR [--trace-dir DIR]
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import random
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from speed import SETUP_SAMPLES, SpeedProbe  # noqa: E402

DESIGNS_PER_KERNEL = 8


def setup(setup_store: Path):
    """What the benchmark pays before any pass: imports, the compiled
    catalog, and the Table-1 pattern table in an empty store."""
    from repro.cache import ArtifactCache
    from repro.devices import VIRTEX7
    from repro.evaluation import default_suite_workloads
    from repro.model.memory import pattern_table_for

    catalog = {w.qualified_name: w for w in default_suite_workloads()}
    for workload in catalog.values():
        workload.function()
    pattern_table_for(VIRTEX7, cache=ArtifactCache(setup_store))
    return catalog


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (*q* in [0, 1])."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def catalog_pass(catalog, spec, store_dir: Path, probe: SpeedProbe) -> dict:
    from repro.cache import ArtifactCache
    from repro.devices import VIRTEX7
    from repro.evaluation import run_suite

    store = ArtifactCache(store_dir)
    rows, timed = [], []
    for name in spec["order"]:
        probe.maybe()
        mark = probe.mark()
        result, seconds = probe.timed(lambda: run_suite(
            [catalog[name]], VIRTEX7, jobs=1, cache=store,
            designs_per_kernel=DESIGNS_PER_KERNEL))
        timed.append((seconds * 1e3, mark))
        rows.extend(list(row) for row in result.rows())
    probe.sample()
    return {"pass_s": sum(ms for ms, _ in timed) / 1e3,
            "latencies_ms": at_reference_speed(timed, probe), "rows": rows}


def at_reference_speed(timed, probe: SpeedProbe):
    """Each ``(ms, mark)`` operation's time at the reference speed."""
    return [ms / probe.local_slowdown(mark) for ms, mark in timed]


def dse_pass(catalog, spec, store_dir: Path, probe: SpeedProbe) -> dict:
    from repro.cache import ArtifactCache
    from repro.devices import VIRTEX7
    from repro.dse import DesignSpace, explore
    from repro.evaluation import make_analyzer
    from repro.model import FlexCL

    predictions = []

    def cycles(info, design):
        probe.maybe()
        mark, start = probe.mark(), time.perf_counter()
        value = model.predict(info, design).cycles
        predictions.append(((time.perf_counter() - start) * 1e3, mark))
        return value

    kernels, timed = {}, []
    for name in spec["order"]:
        workload = catalog[name]
        store = ArtifactCache(store_dir / name.replace("/", "__"))
        analyzer = make_analyzer(workload, VIRTEX7, cache=store)
        model = FlexCL(VIRTEX7, cache=store)
        space = DesignSpace.default_for(workload.global_size)
        probe.maybe()
        mark = probe.mark()
        result, seconds = probe.timed(
            lambda: explore(space, analyzer, cycles, VIRTEX7))
        timed.append((seconds * 1e3, mark))
        kernels[name] = summarize_exploration(
            result, set(spec["reference"].get(name, ())))
    probe.sample()
    predict_ms = at_reference_speed(predictions, probe)
    return {"pass_s": sum(ms for ms, _ in timed) / 1e3,
            "latencies_ms": at_reference_speed(timed, probe),
            "predict_ms": {"p50": percentile(predict_ms, 0.50),
                           "p99": percentile(predict_ms, 0.99)},
            "kernels": kernels}


def summarize_exploration(result, reference_designs) -> dict:
    """What the benchmark checks of one explore: a digest of the ranked
    list, whether ``best`` is the argmin of the feasible rows, and the
    predicted cycles of the System-Run reference designs."""
    ranked = hashlib.sha256()
    for entry in result.ranked():
        ranked.update(f"{entry.design.signature()}={entry.cycles!r};"
                      .encode())
    feasible = result.feasible
    argmin = min(range(len(feasible)),
                 key=lambda i: (feasible[i].cycles, i)) if feasible else None
    best = result.best
    return {
        "ranked": ranked.hexdigest(),
        "best_is_argmin": (best is not None and argmin is not None
                           and best.design == feasible[argmin].design),
        "evaluated": len(result.evaluated),
        "feasible": len(feasible),
        "reference_cycles": {e.design.signature(): e.cycles
                             for e in feasible
                             if e.design.signature() in reference_designs},
    }


def serve_stream(catalog, spec) -> dict:
    """The seeded closed-loop request stream.

    Every (kernel, work-group size) pair of the chosen kernels enters
    once, the pairs spread evenly through the stream (a cold analysis
    each).  About ``repeat`` of the other requests repeat an earlier
    request (hot tier); the rest are new designs on pairs already
    analysed.  A pair's System-Run reference designs come first after
    it enters, so every run serves all of them.  The seed draws the
    designs, the repeats and the pair each new design goes to.
    """
    from repro.dse import DesignSpace

    rng = random.Random(spec["seed"])
    # Pairs enter round-robin over the kernels, the same for every seed:
    # a pair that enters early draws more requests, so a seeded order
    # would change each kernel's share of the stream.
    sizes = [spec["reference"][name]["wg"] for name in spec["kernels"]]
    pairs = [(name, wgs[r]) for r in range(max(map(len, sizes)))
             for name, wgs in zip(spec["kernels"], sizes) if r < len(wgs)]
    queues, reference_of = {}, {}
    for name, wg in pairs:
        space = DesignSpace.default_for(catalog[name].global_size)
        reference = set(spec["reference"][name]["designs"])
        designs = [d for d in space if d.work_group_size == wg]
        refs = [d for d in designs if d.signature() in reference]
        others = [d for d in designs if d.signature() not in reference]
        rng.shuffle(others)
        queues[(name, wg)] = refs + others
        reference_of[(name, wg)] = refs
    n = spec["requests"]
    entries = {round(i * n / len(pairs)): pair
               for i, pair in enumerate(pairs)}
    live, pending, stream = [], [], []
    for i in range(n):
        if i in entries:
            pair = entries[i]
            live.append(pair)
            pending.extend([pair] * max(0, len(reference_of[pair]) - 1))
        elif stream and rng.random() < spec["repeat"]:
            stream.append(dict(rng.choice(stream)))
            continue
        elif pending:
            pair = pending.pop(0)
        else:
            pair = rng.choice(live)
        stream.append(_predict_spec(pair[0], queues[pair].pop(0)))
    sample = sorted(rng.sample(range(n), spec["check_sample"]))
    return {"stream": stream, "sample": sample}


def _predict_spec(workload: str, design) -> dict:
    return {"workload": workload, "wg": design.work_group_size,
            "pe": design.num_pe, "cu": design.num_cu,
            "vector": design.vector_width, "mode": design.comm_mode,
            "pipeline": design.work_item_pipeline,
            "wg_pipeline": design.work_group_pipeline}


def serve_check(spec, store_dir: Path) -> dict:
    """Recompute each sampled served body in-process."""
    from repro.cache import ArtifactCache
    from repro.serve.api import encode_body, predict_payload

    store = ArtifactCache(store_dir)
    mismatches = [request["index"] for request in spec["checks"]
                  if encode_body(predict_payload(request["spec"], store))
                  .decode("utf-8") != request["body"]]
    return {"checked": len(spec["checks"]), "mismatches": mismatches}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("phase", choices=["probe", "catalog", "dse",
                                      "serve-gen", "serve-check"])
    ap.add_argument("input")
    ap.add_argument("output")
    ap.add_argument("--store", required=True)
    ap.add_argument("--setup-store", required=True)
    ap.add_argument("--trace-dir")
    args = ap.parse_args()

    probe = SpeedProbe()
    probe.sample(SETUP_SAMPLES)
    sys.path.insert(0, str(ROOT / "src"))
    if args.trace_dir:
        from spans import SpanRecorder, install
        install(SpanRecorder(args.trace_dir))
    catalog = setup(Path(args.setup_store))
    print("ready", flush=True)
    probe.sample(SETUP_SAMPLES)
    setup_speed = list(probe.samples)

    spec = json.loads(Path(args.input).read_text())
    store = Path(args.store)
    if args.phase == "probe":
        out = {}
    elif args.phase == "catalog":
        out = catalog_pass(catalog, spec, store, probe)
    elif args.phase == "dse":
        out = dse_pass(catalog, spec, store, probe)
    elif args.phase == "serve-gen":
        out = serve_stream(catalog, spec)
    else:
        out = serve_check(spec, store)
    probe.sample()
    out.update(setup_speed=setup_speed,
               speed=probe.samples[SETUP_SAMPLES:])
    Path(args.output).write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
