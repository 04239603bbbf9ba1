"""Table 7 (throughput rows): sustained queries/second per phase.

Paper (text search): 0.5 q/s token generation, 2.9 q/s ranking, 5.0
q/s URL retrieval -- i.e., per query, token generation is the most
expensive phase and URL retrieval the cheapest.  Absolute numbers here
are NumPy-at-simulation-scale; the *ordering* is the structural claim
this bench checks.  Scale-out across machines is the fleet's job
(:mod:`repro.core.fleet`), measured end to end by ``perfbench``.
"""

import json
import time

import numpy as np
import pytest

from benchmarks.conftest import OUT_DIR, emit
from repro import TiptoeConfig, TiptoeEngine, obs
from repro.core.loadgen import measure_throughput, write_bench_files


@pytest.fixture(scope="module")
def throughput_engine(bench_corpus):
    return TiptoeEngine.build(
        bench_corpus.texts()[:700],
        bench_corpus.urls()[:700],
        TiptoeConfig(),
        rng=np.random.default_rng(0),
    )


def test_phase_throughput_ordering(benchmark, throughput_engine):
    report = benchmark.pedantic(
        measure_throughput,
        args=(throughput_engine,),
        kwargs={"num_queries": 12},
        rounds=1,
        iterations=1,
    )
    lines = [f"{'phase':10s} {'queries/s':>10s} {'paper q/s':>10s}"]
    paper = {"token": 0.5, "ranking": 2.9, "url": 5.0}
    for phase, qps in report.rows():
        lines.append(f"{phase:10s} {qps:10.1f} {paper[phase]:10.1f}")
    emit("table7_throughput", lines)
    # Structural ordering: URL retrieval cheapest, token gen dearest.
    assert report.url.queries_per_second > report.ranking.queries_per_second
    assert (
        report.ranking.queries_per_second > report.token.queries_per_second
    )


def test_bench_json_artifacts(throughput_engine):
    """measure_throughput exports the versioned BENCH_*.json files.

    CI uploads these as artifacts, so every run leaves a
    machine-readable throughput + latency trajectory (EXPERIMENTS.md,
    "BENCH file schema").
    """
    report = measure_throughput(
        throughput_engine, num_queries=6, rng=np.random.default_rng(3)
    )
    tp_path, lat_path = write_bench_files(report, OUT_DIR)
    tp = json.loads(tp_path.read_text())
    lat = json.loads(lat_path.read_text())
    assert tp["schema"] == obs.BENCH_SCHEMA
    assert lat["schema"] == obs.BENCH_SCHEMA
    assert set(tp["data"]["phases"]) == {"token", "ranking", "url"}
    for phase, row in tp["data"]["phases"].items():
        assert row["queries_per_second"] > 0, phase
    for phase, row in lat["data"]["phases"].items():
        assert row["count"] > 0, phase
        assert 0 <= row["p50_s"] <= row["p95_s"] <= row["p99_s"], phase
    emit(
        "bench_json_artifacts",
        [f"{p.name}: {p.stat().st_size} bytes" for p in (tp_path, lat_path)],
    )


def test_full_query_trace_dump(throughput_engine):
    """A traced query yields the full nested span tree, dumped as JSON.

    The trace is the paper's Figure-2 data path made visible: token
    acquisition, embedding, the sharded ranking scan (one span per
    worker), then URL PIR.
    """
    tracer, registry = obs.enable()
    try:
        throughput_engine.search("private search", np.random.default_rng(9))
        root = tracer.last_trace()
    finally:
        obs.disable()
    assert root is not None and root.name == "client.search"
    assert root.child_names() == ["token", "embed", "ranking", "url"]
    (coord,) = root.find("ranking.answer")
    workers = coord.children
    assert workers and all(s.name == "ranking.worker" for s in workers)
    snap = registry.snapshot()
    assert snap["histograms"]["kernel.lwe.matmul"]["count"] > 0
    path = obs.dump_trace(root, OUT_DIR / "TRACE_query.json")
    doc = json.loads(path.read_text())
    assert doc["schema"] == obs.TRACE_SCHEMA
    emit(
        "full_query_trace",
        obs.render_span_tree(root)[:12] + [f"trace written to {path.name}"],
    )


def test_noop_instrumentation_overhead():
    """Acceptance: disabled obs costs < 5% on the ranking scan kernel.

    Compares ``modular.matmul`` (which carries the kernel-timer call
    site) against the raw ``a @ b`` it wraps, min-of-rounds to shed
    scheduler noise.  The disabled fast path is one module-global read
    plus one branch.
    """
    from repro.lwe import modular

    assert not obs.enabled()
    rng = np.random.default_rng(11)
    a = rng.integers(0, 2**63, size=(2000, 4096), dtype=np.uint64)
    v = rng.integers(0, 2**63, size=4096, dtype=np.uint64)

    def best_of(fn, rounds=7):
        best = float("inf")
        for _ in range(rounds):
            t0 = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - t0)
        return best

    def raw():
        with np.errstate(over="ignore"):
            return a @ v

    raw()  # warm caches / BLAS init
    raw_s = best_of(raw)
    wrapped_s = best_of(lambda: modular.matmul(a, v, 64))
    overhead = wrapped_s / raw_s - 1.0
    emit(
        "noop_overhead",
        [
            f"raw matvec: {raw_s * 1e3:.3f} ms",
            f"modular.matmul (obs call site): {wrapped_s * 1e3:.3f} ms",
            f"overhead: {overhead * 100:+.2f}%",
        ],
    )
    assert overhead < 0.05
