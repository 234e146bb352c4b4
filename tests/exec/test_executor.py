"""Tests for the Executor: backends, cache, dedupe, default wiring."""

import collections

import pytest

from repro.display.device import PIXEL_5
from repro.errors import ConfigurationError
from repro.exec import cache as cache_module
from repro.exec import executor as executor_module
from repro.exec.cache import ResultCache, code_salt
from repro.exec.executor import (
    Executor,
    execute_spec,
    get_default_executor,
    set_default_executor,
    using_executor,
)
from repro.exec.serialize import encode_wire, result_to_wire
from repro.exec.spec import DriverSpec, RunSpec
from repro.pipeline.scheduler_base import RunResult


def _spec(name="exec-test", **overrides):
    fields = dict(
        driver=DriverSpec.of(
            "repro.exec.builders:burst_animation", name=name, target_fdps=2.0
        ),
        device=PIXEL_5,
        architecture="vsync",
        buffer_count=3,
    )
    fields.update(overrides)
    return RunSpec(**fields)


def test_run_matches_direct_execution():
    spec = _spec()
    with Executor(jobs=1) as executor:
        pooled = executor.run(spec)
    direct = execute_spec(spec)
    assert result_to_wire(pooled) == result_to_wire(direct)


def test_map_preserves_order_and_dedupes():
    specs = [_spec("order-a"), _spec("order-b"), _spec("order-a")]
    with Executor(jobs=1) as executor:
        results = executor.map(specs)
        assert executor.stats.runs_executed == 2
        assert executor.stats.deduplicated == 1
    assert result_to_wire(results[0]) == result_to_wire(results[2])
    assert result_to_wire(results[0]) != result_to_wire(results[1])


def test_cache_round_trip_equals_fresh_run(tmp_path):
    spec = _spec("cache-roundtrip")
    with Executor(jobs=1, cache=True, cache_dir=tmp_path) as executor:
        fresh = executor.run(spec)
        assert executor.stats.cache_misses == 1
        cached = executor.run(spec)
        assert executor.stats.cache_hits == 1
        assert executor.stats.runs_executed == 1
    assert result_to_wire(cached) == result_to_wire(fresh)


def test_warm_cache_serves_without_executing(tmp_path):
    spec = _spec("cache-warm")
    with Executor(jobs=1, cache=True, cache_dir=tmp_path) as executor:
        executor.run(spec)
    with Executor(jobs=1, cache=True, cache_dir=tmp_path) as warm:
        warm.run(spec)
        assert warm.stats.runs_executed == 0
        assert warm.stats.cache_hits == 1


def test_corrupt_cache_entry_is_a_miss(tmp_path):
    spec = _spec("cache-corrupt")
    cache = ResultCache(tmp_path)
    with Executor(jobs=1, cache=cache) as executor:
        executor.run(spec)
    (entry,) = cache.entries()
    entry.write_text("{not json")
    fresh = ResultCache(tmp_path)
    assert fresh.get(spec) is None
    assert fresh.stats.misses == 1
    assert not entry.exists()


def test_cache_key_includes_code_salt(tmp_path):
    spec = _spec("cache-salt")
    alpha = ResultCache(tmp_path, salt="aaaa")
    beta = ResultCache(tmp_path, salt="bbbb")
    with Executor(jobs=1, cache=alpha) as executor:
        executor.run(spec)
    assert beta.get(spec) is None  # different code version, different key
    assert alpha.key(spec) == f"{spec.content_hash()}-aaaa"
    assert len(code_salt()) == 12


def test_cache_describe_and_clear(tmp_path):
    cache = ResultCache(tmp_path)
    with Executor(jobs=1, cache=cache) as executor:
        executor.map([_spec("cache-desc-a"), _spec("cache-desc-b")])
    assert len(cache.entries()) == 2
    assert cache.total_bytes() > 0
    assert "2 entries" in cache.describe()
    assert cache.clear() == 2
    assert cache.entries() == []


def test_process_pool_matches_inprocess():
    specs = [_spec("pool-a"), _spec("pool-b")]
    with Executor(jobs=2, backend="process") as pooled:
        pool_results = pooled.map(specs)
    with Executor(jobs=1) as serial:
        serial_results = serial.map(specs)
    assert [result_to_wire(r) for r in pool_results] == [
        result_to_wire(r) for r in serial_results
    ]


def test_executor_validates_configuration():
    with pytest.raises(ConfigurationError, match="jobs"):
        Executor(jobs=0)
    with pytest.raises(ConfigurationError, match="backend"):
        Executor(backend="threads")


def test_default_executor_is_hermetic_and_swappable():
    previous = set_default_executor(None)
    try:
        default = get_default_executor()
        assert default.backend == "inprocess"
        assert default.cache is None
        replacement = Executor(jobs=1)
        with using_executor(replacement):
            assert get_default_executor() is replacement
        assert get_default_executor() is default
    finally:
        set_default_executor(previous)


def test_default_executor_reads_environment(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_JOBS", "2")
    monkeypatch.setenv("REPRO_EXEC_BACKEND", "inprocess")
    monkeypatch.setenv("REPRO_CACHE", "1")
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    previous = set_default_executor(None)
    try:
        default = get_default_executor()
        assert default.jobs == 2
        assert default.backend == "inprocess"
        assert default.cache is not None
        assert default.cache.root == tmp_path
    finally:
        set_default_executor(previous)


def test_stats_snapshot_and_since():
    with Executor(jobs=1) as executor:
        before = executor.stats.snapshot()
        executor.map([_spec("stats-a"), _spec("stats-a")])
        delta = executor.stats.since(before)
    assert delta.runs_executed == 1
    assert delta.deduplicated == 1
    assert delta.total_requests == 2
    assert "1 simulated" in delta.describe()


def test_cache_stores_and_serves_the_wire(tmp_path):
    spec = _spec("cache-wire")
    wire = result_to_wire(execute_spec(spec))
    cache = ResultCache(tmp_path)
    cache.put(spec, encode_wire(wire))
    (entry,) = cache.entries()
    assert entry.read_bytes() == encode_wire(wire)  # written verbatim
    result = cache.get(spec)
    assert result_to_wire(result) == wire
    assert cache.stats.hits == 1


def _count_wire_calls(monkeypatch) -> collections.Counter:
    """Count serializer calls at every module binding the executor uses."""
    counts = collections.Counter()
    for module in (executor_module, cache_module):
        for name in ("result_from_wire", "result_to_wire"):
            original = getattr(module, name)

            def counted(wire_or_result, _name=name, _original=original):
                counts[_name] += 1
                return _original(wire_or_result)

            monkeypatch.setattr(module, name, counted)
    return counts


#: ``(backend, pass) -> (decodes, encodes in this process)`` for ``[a, b, a]``.
#: Only a result that crosses a boundary touches the wire: a pool worker's
#: return or a cache entry is decoded once per unique spec, and an
#: in-process result is encoded only to be written to the cache.
_WIRE_CALLS = {
    ("inprocess", "cold"): (0, 2),
    ("inprocess", "uncached"): (0, 0),
    ("inprocess", "warm"): (2, 0),
    ("process", "cold"): (2, 0),
    ("process", "warm"): (2, 0),
}


@pytest.mark.parametrize("backend", ["inprocess", "process"])
def test_each_unique_spec_is_decoded_at_most_once(tmp_path, monkeypatch, backend):
    specs = [_spec("once-a"), _spec("once-b"), _spec("once-a")]
    jobs = 2 if backend == "process" else 1
    counts = _count_wire_calls(monkeypatch)
    passes = ["cold", "warm"] + (["uncached"] if backend == "inprocess" else [])
    for name in passes:
        counts.clear()
        cache = name != "uncached"
        with Executor(
            jobs=jobs, backend=backend, cache=cache, cache_dir=tmp_path
        ) as executor:
            results = executor.map(specs)
            assert executor.stats.cache_hits == (2 if name == "warm" else 0)
        decodes, encodes = _WIRE_CALLS[backend, name]
        assert counts["result_from_wire"] == decodes, name
        assert counts["result_to_wire"] == encodes, name
        assert results[0] is results[2]
        assert result_to_wire(results[0]) != result_to_wire(results[1])


class _RecordingCache(ResultCache):
    """A real cache that keeps every payload handed to ``put``."""

    def __init__(self, root) -> None:
        super().__init__(root)
        self.payloads = []

    def put(self, spec, payload) -> None:
        self.payloads.append(payload)
        super().put(spec, payload)


def test_pool_and_inprocess_write_identical_cache_entries(tmp_path, monkeypatch):
    arrived = collections.defaultdict(list)
    settle = Executor._settle_envelope

    def recording(self, task, envelope, failures, on_success):
        arrived[self.backend].append(envelope["result"])
        return settle(self, task, envelope, failures, on_success)

    monkeypatch.setattr(Executor, "_settle_envelope", recording)
    specs = [_spec("bytes-a"), _spec("bytes-b"), _spec("bytes-a")]
    entries, caches = {}, {}
    for backend, jobs in (("inprocess", 1), ("process", 2)):
        cache = caches[backend] = _RecordingCache(tmp_path / backend)
        with Executor(jobs=jobs, backend=backend, cache=cache) as executor:
            executor.map(specs)
        entries[backend] = {path.name: path.read_bytes() for path in cache.entries()}
    assert len(entries["process"]) == 2
    assert entries["process"] == entries["inprocess"]
    # A pool result crosses as its cache entry's bytes, and the parent
    # stores that very object; an in-process result is encoded to be cached.
    assert [type(result) for result in arrived["process"]] == [bytes, bytes]
    assert [type(result) for result in arrived["inprocess"]] == [RunResult] * 2
    assert len(caches["process"].payloads) == 2
    assert all(
        stored is pooled
        for stored, pooled in zip(caches["process"].payloads, arrived["process"])
    )
    assert sorted(arrived["process"]) == sorted(entries["process"].values())
