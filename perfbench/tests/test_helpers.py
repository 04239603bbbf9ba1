"""Self-tests for the benchmark's own helpers.

    python3 -m pytest perfbench/tests -q
"""

import dataclasses
import os
import threading

import numpy as np
import pytest

import hoststat
import tracing
from tracing import Span, Tracer


# -- the percentile rule --------------------------------------------------------


def test_p90_needs_ten_samples_beyond_it():
    assert hoststat.min_samples(90) == 100
    assert hoststat.min_samples(50) == 20
    with pytest.raises(ValueError, match="need 10"):
        hoststat.percentile(list(range(99)), 90)
    assert hoststat.percentile(list(range(100)), 90) == 89


def test_percentile_is_nearest_rank():
    samples = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert hoststat.percentile(samples, 50) == 3.0
    assert hoststat.percentile([7.0], 50) == 7.0
    with pytest.raises(ValueError):
        hoststat.percentile([], 50)


# -- /proc readers -----------------------------------------------------------------


def test_cpu_reader_parses_fields_after_the_command_name():
    tick = os.sysconf("SC_CLK_TCK")
    # A command name holding spaces and ')' must not shift the fields.
    fields = ["S"] + ["0"] * 10 + [str(3 * tick), str(tick)] + ["0"] * 30
    text = "42 (a b) c) " + " ".join(fields)
    assert hoststat.proc_cpu_seconds(42, text) == pytest.approx(4.0)


def test_cpu_reader_sees_this_process_spend_cpu():
    before = hoststat.proc_cpu_seconds(os.getpid())
    deadline = before + 0.05
    while hoststat.proc_cpu_seconds(os.getpid()) < deadline:
        sum(i * i for i in range(10000))
    assert hoststat.proc_cpu_seconds(os.getpid()) >= deadline


def test_rss_reader_reads_vmhwm():
    text = "Name:\tx\nVmPeak:\t  9000 kB\nVmHWM:\t    2048 kB\nVmRSS:\t 1024 kB\n"
    assert hoststat.proc_peak_rss_mb(1, text) == 2.0
    with pytest.raises(ValueError):
        hoststat.proc_peak_rss_mb(1, "Name:\tx\n")
    assert hoststat.proc_peak_rss_mb(os.getpid()) > 1.0


# -- span arithmetic ----------------------------------------------------------------


def span(sid, parent, name, start, end):
    return Span(span_id=sid, parent=parent, request=1, name=name, start=start, end=end)


def test_self_time_subtracts_the_union_of_children():
    spans = [
        span(1, None, "root", 0.0, 10.0),
        span(2, 1, "a", 1.0, 4.0),
        span(3, 1, "b", 3.0, 5.0),  # overlaps a: union 1..5
        span(4, 1, "c", 9.0, 12.0),  # clipped to the parent: 9..10
        span(5, 2, "a", 2.0, 3.0),  # nested in a, same name
    ]
    selfs = tracing.self_times(spans)
    assert selfs[1] == pytest.approx(10.0 - 4.0 - 1.0)
    assert selfs[2] == pytest.approx(2.0)
    by_name = tracing.self_time_by_name(spans)
    assert by_name["a"] == pytest.approx(3.0)
    # Outermost durations only: the nested "a" is not counted twice.
    assert tracing.duration_by_name(spans)["a"] == pytest.approx(3.0)


def test_coverage_and_unattributed_time():
    spans = [
        span(1, None, "root", 0.0, 10.0),
        span(2, 1, "x", 0.0, 8.0),
        span(3, None, "root", 20.0, 30.0),
        span(4, 3, "x", 20.0, 30.0),
    ]
    share, unattributed, roots = tracing.coverage(spans, "root")
    assert roots == 2
    assert unattributed == pytest.approx(2.0)
    assert share == pytest.approx(18.0 / 20.0)


def test_fold_time_is_route_minus_slowest_call():
    spans = [
        span(1, None, "route", 0.0, 10.0),
        span(2, 1, "call", 1.0, 5.0),
        span(3, 1, "call", 1.0, 8.0),
    ]
    assert tracing.fold_time(spans, "route", "call") == pytest.approx(3.0)


def test_tracer_nests_requests_and_follows_pool_handoff():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    tracer.enabled = True

    class Thing:
        def work(self):
            return threading.current_thread().name

    tracer.wrap(Thing, "work", "work")
    pool = tracing.propagating_executor(tracer)(max_workers=1)
    try:
        with tracer.span("root"):
            pool.submit(Thing().work).result()
    finally:
        pool.shutdown()
    with tracer.span("other"):
        pass
    spans = {s.name: s for s in tracer.take()}
    assert spans["work"].parent == spans["root"].span_id
    assert spans["work"].request == spans["root"].request
    assert spans["other"].request != spans["root"].request
    assert tracer.take() == []
    tracer.enabled = False
    assert Thing().work()
    assert tracer.take() == []


# -- output checks ------------------------------------------------------------------


@pytest.fixture(scope="module")
def small_index():
    from repro import TiptoeConfig
    from repro.core.indexer import TiptoeIndex
    from repro.corpus import SyntheticCorpus, SyntheticCorpusConfig

    corpus = SyntheticCorpus.generate(SyntheticCorpusConfig(num_docs=150, seed=3))
    index = TiptoeIndex.build(
        corpus.texts(), corpus.urls(), TiptoeConfig(),
        rng=np.random.default_rng(3),
    )
    return corpus, index


def test_flipped_answer_word_fails_the_stacked_check(small_index):
    import checks
    from repro.core.cluster_runtime import ShardedRankingService
    from repro.core.engine import TiptoeEngine
    from repro.core.ranking import RankingBatch, RankingClient

    corpus, index = small_index
    engine = TiptoeEngine(index, transport=object())
    meta = index.client_metadata()
    ranking = RankingClient(
        index.ranking_scheme, dim=meta.dim, num_clusters=len(meta.cluster_sizes)
    )
    rng = np.random.default_rng(5)
    keys, queries, expected = [], [], []
    for doc in corpus.documents[:3]:
        cluster, quantized = checks.client_query(engine, doc.text[:40])
        key = index.ranking_scheme.gen_keys(rng)
        keys.append(key)
        queries.append(ranking.build_query(key, quantized, cluster, rng))
        expected.append(checks.column_scores(index.layout, cluster, quantized))
    service = ShardedRankingService.build(
        index.ranking_scheme, index.layout.matrix, dim=index.layout.dim,
        num_workers=2,
    )
    stacked = service.answer_stacked(RankingBatch.from_queries(queries)).stacked
    hint = index.ranking_prep.hint
    assert checks.check_stacked(index.ranking_scheme, hint, keys, expected, stacked) == []
    flipped = stacked.copy()
    flipped[0, 1] ^= np.uint64(1 << 60)
    assert checks.check_stacked(
        index.ranking_scheme, hint, keys, expected, flipped
    ) == [1]


def test_search_check_catches_a_wrong_url(small_index):
    import checks
    from repro.core.engine import TiptoeEngine

    corpus, index = small_index
    with TiptoeEngine(index) as engine:
        text = corpus.documents[0].text[:40]
        result = engine.new_client(np.random.default_rng(1)).search(text)
        want = checks.expected_for(engine, corpus.urls(), text)
        assert checks.check_search(result, want) is None
        result.results[0] = dataclasses.replace(
            result.results[0], url="http://wrong.example"
        )
        assert "top url" in checks.check_search(result, want)


def test_failed_checks_count_as_failures():
    import run

    class Fake:
        threads = 1
        units_per_step = 1

        def step(self, actor, k):
            return k, 10, 20

        def check(self, item):
            return "wrong" if item == 1 else None

    seg = run.run_segment(Fake(), [os.getpid()], steps=3)
    assert seg["attempted"] == 3
    assert seg["failed"] == 1
    assert seg["up"] == 30
