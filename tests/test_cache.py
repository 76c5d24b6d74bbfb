"""Unit tests for ``repro.cache``: keys, the store, and invalidation."""

import dataclasses
import json
import multiprocessing
import os
import pickle
import sys
import threading

import numpy as np
import pytest

from repro.analysis import analyze_kernel
from repro.cache import (
    SCHEMA_VERSIONS,
    ArtifactCache,
    StoreStats,
    cache_payload,
    device_fingerprint,
    function_fingerprint,
    open_cache,
    resolve_cache_dir,
)
from repro.cache.store import LOW_WATER_FRACTION, RESYNC_FRACTION
from repro.devices import KU060, VIRTEX7
from repro.frontend import compile_opencl
from repro.interp import Buffer, NDRange

SRC = """
__kernel void saxpy(__global const float* x, __global float* y,
                    float a, int n) {
    int i = get_global_id(0);
    if (i < n) y[i] = a * x[i] + y[i];
}
"""


def _fn(src=SRC):
    return compile_opencl(src).get("saxpy")


def _buffers(n=256, seed=3):
    rng = np.random.default_rng(seed)
    return {"x": Buffer("x", rng.random(n).astype(np.float32)),
            "y": Buffer("y", rng.random(n).astype(np.float32))}


def _analyze(cache=None, src=SRC, device=VIRTEX7, seed=3, n=256):
    return analyze_kernel(_fn(src), _buffers(n, seed),
                          {"a": 2.0, "n": n}, NDRange(n, 64),
                          device, cache=cache)


class TestKeys:
    def test_function_fingerprint_stable_across_compiles(self):
        # Fresh compiles allocate fresh (differently numbered) virtual
        # registers; the canonical dump must renumber them away.
        assert function_fingerprint(_fn()) == function_fingerprint(_fn())

    def test_function_fingerprint_ignores_comments(self):
        assert function_fingerprint(_fn()) == \
            function_fingerprint(_fn("// tweak\n" + SRC))

    def test_function_fingerprint_sees_semantic_edits(self):
        edited = SRC.replace("a * x[i]", "a * x[i] + 1.0f")
        assert function_fingerprint(_fn()) != \
            function_fingerprint(_fn(edited))

    def test_function_fingerprint_survives_analysis_annotations(self):
        fn = _fn()
        before = function_fingerprint(fn)
        analyze_kernel(fn, _buffers(), {"a": 2.0, "n": 256},
                       NDRange(256, 64), VIRTEX7)
        assert function_fingerprint(fn) == before

    def test_device_fingerprint_covers_every_parameter(self):
        assert device_fingerprint(VIRTEX7) != device_fingerprint(KU060)
        tweaked = dataclasses.replace(VIRTEX7, clock_mhz=250.0)
        assert device_fingerprint(VIRTEX7) != device_fingerprint(tweaked)
        # Same name, different DRAM timing: must not alias.
        retimed = dataclasses.replace(
            VIRTEX7, dram=dataclasses.replace(VIRTEX7.dram,
                                              t_overhead=33))
        assert retimed.name == VIRTEX7.name
        assert device_fingerprint(VIRTEX7) != device_fingerprint(retimed)


class TestInvalidation:
    """Editing the kernel, the device, or the schema busts entries."""

    def test_same_inputs_hit(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        _analyze(cache)
        _analyze(cache)
        assert cache.stats.hits.get("analysis") == 1
        assert cache.entry_count() == 1

    def test_source_edit_busts(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        _analyze(cache)
        _analyze(cache, src=SRC.replace("a * x[i]", "a - x[i]"))
        assert cache.stats.hits == {}
        assert cache.entry_count() == 2

    def test_device_param_busts(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        _analyze(cache)
        retimed = dataclasses.replace(
            VIRTEX7, dram=dataclasses.replace(VIRTEX7.dram, t_rcd=9))
        _analyze(cache, device=retimed)
        assert cache.stats.hits == {}
        assert cache.entry_count() == 2

    def test_input_data_busts(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        _analyze(cache, seed=3)
        _analyze(cache, seed=4)
        assert cache.stats.hits == {}

    def test_schema_version_busts(self, tmp_path, monkeypatch):
        cache = ArtifactCache(tmp_path)
        _analyze(cache)
        monkeypatch.setitem(SCHEMA_VERSIONS, "analysis",
                            SCHEMA_VERSIONS["analysis"] + 1)
        _analyze(cache)
        assert cache.stats.hits == {}
        assert cache.entry_count() == 2

    def test_hit_is_bit_identical_and_leaves_buffers_alone(self, tmp_path):
        from repro.dse.space import Design
        from repro.model import FlexCL

        cache = ArtifactCache(tmp_path)
        info_cold = _analyze(cache)
        buffers = _buffers()
        snapshot = {k: b.data.copy() for k, b in buffers.items()}
        info_warm = analyze_kernel(_fn(), buffers, {"a": 2.0, "n": 256},
                                   NDRange(256, 64), VIRTEX7,
                                   cache=cache)
        # A cache hit must not run the (buffer-mutating) profiler.
        for name, data in snapshot.items():
            np.testing.assert_array_equal(buffers[name].data, data)
        design = Design(work_group_size=64, num_pe=2)
        assert FlexCL(VIRTEX7).predict(info_cold, design).cycles == \
            FlexCL(VIRTEX7).predict(info_warm, design).cycles


class TestCorruptionTolerance:
    def _entry(self, cache):
        entries = list(cache.entries())
        assert entries
        return entries[0]

    def test_truncated_entry_is_a_miss_with_warning(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        info = _analyze(cache)
        path = self._entry(cache)
        path.write_bytes(path.read_bytes()[:20])
        with pytest.warns(RuntimeWarning, match="unreadable entry"):
            again = _analyze(cache)
        assert again.traces.global_reads_per_wi == \
            info.traces.global_reads_per_wi
        # The bad file was discarded and replaced by the recompute.
        assert cache.stats.misses.get("analysis") == 2

    def test_garbage_entry_is_a_miss_with_warning(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        _analyze(cache)
        self._entry(cache).write_bytes(b"not a pickle at all")
        with pytest.warns(RuntimeWarning, match="unreadable entry"):
            _analyze(cache)

    def test_wrong_type_entry_is_a_miss(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        info = _analyze(cache)
        self._entry(cache).write_bytes(pickle.dumps({"not": "info"}))
        again = _analyze(cache)   # isinstance guard rejects it silently
        assert isinstance(again, type(info))

    def test_unwritable_layer_degrades_to_no_caching(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        # A regular file where the layer directory should go makes every
        # write fail; the store must warn and carry on, not raise.
        (tmp_path / "pe").write_text("in the way")
        with pytest.warns(RuntimeWarning, match="cannot write"):
            cache.put("pe", "aa" + "0" * 62, 1)
        assert cache.stats.puts == {}


class TestStore:
    def test_atomic_layout_and_roundtrip(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        cache.put("analysis", "ab" + "0" * 62, {"v": 1})
        path = tmp_path / "analysis" / "ab" / ("ab" + "0" * 62 + ".pkl")
        assert path.is_file()
        assert not list(tmp_path.rglob("*.tmp"))
        assert cache.get("analysis", "ab" + "0" * 62) == (True, {"v": 1})

    def test_lru_eviction_caps_size(self, tmp_path):
        payload = b"x" * 10_000
        cache = ArtifactCache(tmp_path, max_bytes=45_000)
        for i in range(8):
            key = f"{i:02d}" + "e" * 62
            cache.put("pe", key, payload)
            os.utime(cache._entry_path("pe", key),
                     (1_000_000 + i, 1_000_000 + i))
        assert cache.size_bytes() <= 45_000
        assert cache.stats.evictions > 0
        # The newest entries survive, the oldest were evicted.
        assert cache.get("pe", "07" + "e" * 62)[0]
        assert not cache.get("pe", "00" + "e" * 62)[0]

    def test_clear(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        cache.put("pe", "aa" + "0" * 62, 1)
        cache.put("memory", "bb" + "0" * 62, 2)
        assert cache.clear() == 2
        assert cache.entry_count() == 0

    def test_stats_arithmetic(self):
        a = StoreStats(hits={"pe": 3}, misses={"pe": 1}, puts={"pe": 1})
        b = StoreStats(hits={"pe": 1, "memory": 2}, misses={"memory": 4})
        total = a + b
        assert total.hits == {"pe": 4, "memory": 2}
        assert (total - b).hits == {"pe": 3, "memory": 0}
        assert total.lookups == 11
        assert 0.0 < total.hit_rate < 1.0
        assert "hits" in total.summary()

    def test_layer_counts(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        cache.put("pe", "aa" + "0" * 62, 1)
        cache.put("pe", "ab" + "0" * 62, 2)
        cache.put("table1", "cc" + "0" * 62, 3)
        assert cache.layer_counts() == {"pe": 2, "table1": 1}


def _key(i, tag="e"):
    return f"{i % 100:02d}" + f"{tag}{i:08d}".ljust(62, "0")


@pytest.fixture
def walks(monkeypatch):
    """Counts directory walks (calls to ``ArtifactCache.entries``)."""
    calls = []
    original = ArtifactCache.entries

    def counting(self):
        calls.append(1)
        return original(self)

    monkeypatch.setattr(ArtifactCache, "entries", counting)
    return calls


def _forked_writer(root, cap, writer, n, peak_file):
    cache = ArtifactCache(root, max_bytes=cap)
    peak = 0
    for i in range(n):
        cache.put("pe", _key(i, tag=f"w{writer}"), b"x" * 2_000)
        peak = max(peak, cache.size_bytes())
    peak_file.write_text(str(peak))


class TestRunningTotal:
    """Writes are O(1) amortized: the store keeps a running byte total
    and walks the directory only to re-sync or evict."""

    def test_puts_under_cap_walk_at_most_once(self, tmp_path, walks):
        cache = ArtifactCache(tmp_path, max_bytes=10 * 1024 * 1024)
        for i in range(200):
            cache.put("pe", _key(i), b"x" * 1_000)
        assert len(walks) <= 1
        assert cache.entry_count() == 200

    def test_over_cap_evicts_to_low_water_then_stops_scanning(
            self, tmp_path, walks):
        cap = 100_000
        cache = ArtifactCache(tmp_path, max_bytes=cap)
        n = 0
        while cache.stats.evictions == 0:
            cache.put("pe", _key(n), b"x" * 1_000)
            os.utime(cache._entry_path("pe", _key(n)),
                     (1_000_000 + n, 1_000_000 + n))
            n += 1
            assert n < 500
        assert cache.size_bytes() <= int(cap * LOW_WATER_FRACTION)
        # Oldest-first: the survivors are exactly the newest entries.
        alive = [i for i in range(n)
                 if cache._entry_path("pe", _key(i)).is_file()]
        assert len(alive) == n - cache.stats.evictions
        assert alive == list(range(n - len(alive), n))
        before = len(walks)
        for i in range(n, n + 3):
            cache.put("pe", _key(i), b"x" * 1_000)
        assert len(walks) == before

    def test_clear_resets_running_total(self, tmp_path, walks):
        cache = ArtifactCache(tmp_path, max_bytes=50_000)
        for i in range(40):
            cache.put("pe", _key(i), b"x" * 1_000)
        cache.clear()
        before = len(walks)
        for i in range(10):
            cache.put("pe", _key(i), b"x" * 1_000)
        assert len(walks) == before
        assert cache.entry_count() == 10

    def test_total_never_undercounts_disk(self, tmp_path):
        cache = ArtifactCache(tmp_path, max_bytes=10 * 1024 * 1024)
        for _ in range(3):                      # overwrites
            cache.put("pe", _key(1), b"x" * 5_000)
        cache.put("pe", _key(2), b"y" * 5_000)
        cache._entry_path("pe", _key(2)).write_bytes(b"garbage")
        with pytest.warns(RuntimeWarning, match="unreadable entry"):
            assert cache.get("pe", _key(2)) == (False, None)
        assert cache._total >= cache.size_bytes()

    def test_forked_writers_stay_within_overshoot_bound(self, tmp_path):
        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("needs the fork start method")
        ctx = multiprocessing.get_context("fork")
        cap, writers = 60_000, 2
        peaks = [tmp_path / f"peak{w}" for w in range(writers)]
        procs = [ctx.Process(target=_forked_writer,
                             args=(tmp_path / "store", cap, w, 150,
                                   peaks[w]))
                 for w in range(writers)]
        for proc in procs:
            proc.start()
        for proc in procs:
            proc.join(timeout=60)
            assert not proc.is_alive() and proc.exitcode == 0
        entry = max(path.stat().st_size for path in
                    ArtifactCache(tmp_path / "store").entries())
        bound = cap * (1 + (writers - 1) * RESYNC_FRACTION) + \
            writers * entry
        assert max(int(p.read_text()) for p in peaks) <= bound
        assert ArtifactCache(tmp_path / "store").size_bytes() <= bound

    def test_threaded_puts_keep_cap_and_count_evictions(self, tmp_path):
        cap, threads, per_thread = 40_000, 8, 40
        cache = ArtifactCache(tmp_path, max_bytes=cap)
        errors = []

        def writer(t):
            try:
                for i in range(per_thread):
                    cache.put("pe", _key(i, tag=f"t{t}"), b"x" * 2_000)
            except Exception as exc:            # surfaced below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            pool = [threading.Thread(target=writer, args=(t,))
                    for t in range(threads)]
            for th in pool:
                th.start()
            for th in pool:
                th.join(timeout=60)
                assert not th.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert not errors
        # One handle with no write in flight is at or under its cap.
        assert cache.size_bytes() <= cap
        assert cache.stats.evictions > 0
        assert cache.stats.evictions == \
            threads * per_thread - cache.entry_count()

    def test_payload_matches_the_disk(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        cache.put("pe", _key(1), 1)
        cache.put("pe", _key(2), b"x" * 3_000)
        cache.put("table1", _key(3), 3)
        files = sorted(tmp_path.glob("*/??/*.pkl"))
        expected = {
            "root": str(cache.root),
            "entries": len(files),
            "layers": {"pe": 2, "table1": 1},
            "size_bytes": sum(path.stat().st_size for path in files),
            "max_bytes": cache.max_bytes,
            "stats": cache.stats.to_dict(),
        }
        assert json.dumps(cache_payload(cache), indent=2, sort_keys=True) \
            == json.dumps(expected, indent=2, sort_keys=True)


class TestConfiguration:
    def test_env_dir_wins_and_empty_disables(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "store"))
        assert resolve_cache_dir() == tmp_path / "store"
        assert open_cache().root == tmp_path / "store"
        monkeypatch.setenv("REPRO_CACHE_DIR", "")
        assert resolve_cache_dir() is None
        assert open_cache() is None

    def test_explicit_dir_beats_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "env"))
        assert resolve_cache_dir(str(tmp_path / "cli")) == \
            tmp_path / "cli"

    def test_default_dir_when_env_unset(self, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        root = resolve_cache_dir()
        assert root is not None and root.name == "repro-flexcl"

    def test_disabled_flag(self):
        assert open_cache(enabled=False) is None

    def test_max_bytes_env(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_MAX_MB", "7")
        assert ArtifactCache(tmp_path).max_bytes == 7 * 1024 * 1024


class TestPatternTableIdentity:
    """Satellite: Table-1 memo must key on full device identity."""

    def test_same_name_different_timing_not_aliased(self):
        from repro.model.memory import pattern_table_for

        slowed = dataclasses.replace(
            VIRTEX7, dram=dataclasses.replace(VIRTEX7.dram,
                                              t_overhead=60))
        assert slowed.name == VIRTEX7.name
        base = pattern_table_for(VIRTEX7)
        slow = pattern_table_for(slowed)
        assert base.latencies != slow.latencies

    def test_same_device_still_memoised(self):
        from repro.model.memory import pattern_table_for

        assert pattern_table_for(VIRTEX7) is pattern_table_for(
            dataclasses.replace(VIRTEX7))

    def test_persistent_table_layer(self, tmp_path):
        import repro.model.memory as model_memory
        from repro.model.memory import pattern_table_for

        cache = ArtifactCache(tmp_path)
        model_memory._PATTERN_CACHE.clear()   # other tests warm it
        table = pattern_table_for(VIRTEX7, cache=cache)
        model_memory._PATTERN_CACHE.clear()
        warm = pattern_table_for(VIRTEX7, cache=cache)
        assert warm.latencies == table.latencies
        assert cache.stats.hits.get("table1") == 1


class TestMemoryModelAnnotation:
    """Satellite: pattern_counts is Optional[PatternCounts]."""

    def test_annotation(self):
        import typing

        from repro.dram.patterns import PatternCounts
        from repro.model.memory import MemoryModelResult

        hints = typing.get_type_hints(MemoryModelResult)
        assert hints["pattern_counts"] == typing.Optional[PatternCounts]
