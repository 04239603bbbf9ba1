"""Tests for server-side query batching."""

import time

import numpy as np
import pytest

from repro.core.cluster_runtime import RankingWorker, ShardedRankingService
from repro.core.ranking import RankingClient
from repro.embeddings.quantize import quantize


@pytest.fixture(scope="module")
def batch_setup(engine):
    index = engine.index
    service = ShardedRankingService.build(
        index.ranking_scheme, index.layout.matrix, index.layout.dim, 4
    )
    client = RankingClient(
        index.ranking_scheme,
        dim=index.layout.dim,
        num_clusters=index.layout.num_clusters,
    )
    rng = np.random.default_rng(0)
    keys = index.ranking_scheme.gen_keys(rng)
    queries = [
        client.build_query(
            keys,
            quantize(index.embeddings[i] * index.quantization_gain, index.config.quantization()),
            i % index.layout.num_clusters,
            rng,
        )
        for i in range(6)
    ]
    return service, queries


class TestBatchedAnswers:
    def test_matches_individual_answers(self, batch_setup):
        service, queries = batch_setup
        individual = [service.answer(q).values for q in queries]
        batched = [a.values for a in service.answer_batch(queries)]
        for got, want in zip(batched, individual):
            assert np.array_equal(got, want)

    def test_empty_batch(self, batch_setup):
        service, _ = batch_setup
        assert service.answer_batch([]) == []

    def test_ledger_counts_per_query_work(self, batch_setup):
        service, queries = batch_setup
        before = service.ledger.total_ops()
        service.answer_batch(queries)
        added = service.ledger.total_ops() - before
        matrix_entries = sum(
            w.matrix_slice.size for w in service.workers
        )
        assert added == 2 * matrix_entries * len(queries)

    def test_worker_failure_blocks_batch(self, batch_setup, monkeypatch):
        service, queries = batch_setup

        def failing_answer(worker, chunk):
            raise RuntimeError(f"worker {worker.worker_id} failed")

        with monkeypatch.context() as patch:
            patch.setattr(RankingWorker, "answer_stacked", failing_answer)
            with pytest.raises(RuntimeError, match="failed"):
                service.answer_batch(queries)
        # The failure left nothing behind: the next batch answers.
        assert len(service.answer_batch(queries)) == len(queries)

    def test_batching_is_not_slower_per_query(self, batch_setup):
        service, queries = batch_setup
        t0 = time.perf_counter()
        for _ in range(3):
            for q in queries:
                service.answer(q)
        individual_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        for _ in range(3):
            service.answer_batch(queries)
        batched_s = time.perf_counter() - t0
        assert batched_s < individual_s * 1.5


class TestPlanLifecycle:
    """close drops the workers' kernel plans; the service stays usable."""

    def _build(self, engine):
        return ShardedRankingService.build(
            engine.index.ranking_scheme,
            engine.index.layout.matrix,
            engine.index.layout.dim,
            3,
        )

    def test_close_drops_the_plans(self, engine, batch_setup):
        _, queries = batch_setup
        service = self._build(engine)
        service.answer(queries[0])
        assert all(w._plan is not None for w in service.workers)
        service.close()
        assert all(w._plan is None for w in service.workers)
        service.close()  # idempotent

    def test_answer_after_close_rebuilds_plans(self, engine, batch_setup):
        _, queries = batch_setup
        service = self._build(engine)
        want = service.answer(queries[0]).values
        service.close()
        # Plans rebuild lazily on the next query, bit for bit.
        assert np.array_equal(service.answer(queries[0]).values, want)
        assert all(w._plan is not None for w in service.workers)
        service.close()

    def test_context_manager_closes(self, engine, batch_setup):
        _, queries = batch_setup
        with self._build(engine) as service:
            service.answer(queries[0])
            assert all(w._plan is not None for w in service.workers)
        assert all(w._plan is None for w in service.workers)

    def test_engine_close_drops_ranking_plans(self, corpus):
        from repro import TiptoeConfig, TiptoeEngine

        with TiptoeEngine.build(
            corpus.texts()[:120],
            corpus.urls()[:120],
            TiptoeConfig(),
            rng=np.random.default_rng(4),
        ) as engine:
            engine.search(corpus.documents[0].text, np.random.default_rng(5))
            (worker,) = engine.ranking_service.workers
            assert worker._plan is not None
        assert worker._plan is None
