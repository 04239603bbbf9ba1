"""Tests for the cross-query batch scheduler (the admission queue)."""

import threading

import numpy as np
import pytest

from repro.core.cluster_runtime import RankingWorker, ShardedRankingService
from repro.core.ranking import RankingClient
from repro.core.scheduler import BatchScheduler, SchedulerClosed
from repro.embeddings.quantize import quantize


@pytest.fixture(scope="module")
def sched_setup(engine):
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
            quantize(
                index.embeddings[i] * index.quantization_gain,
                index.config.quantization(),
            ),
            i % index.layout.num_clusters,
            rng,
        )
        for i in range(10)
    ]
    return service, queries


def submit_concurrently(scheduler, queries):
    """One thread per query, closed loop; returns results/errors by slot."""
    results = [None] * len(queries)
    errors = [None] * len(queries)

    def run(i):
        try:
            results[i] = scheduler.submit(queries[i])
        except BaseException as exc:
            errors[i] = exc

    threads = [
        threading.Thread(target=run, args=(i,)) for i in range(len(queries))
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return results, errors


class TestBatchedExactness:
    def test_concurrent_submits_bit_identical_to_answer(self, sched_setup):
        service, queries = sched_setup
        expected = [service.answer(q).values for q in queries]
        with BatchScheduler(service, max_batch_size=4) as scheduler:
            results, errors = submit_concurrently(scheduler, queries)
        assert all(e is None for e in errors)
        for got, want in zip(results, expected):
            assert np.array_equal(got.values, want)

    def test_ragged_final_batch(self, sched_setup):
        """10 queries at batch size 4: the tail batch is under-full."""
        service, queries = sched_setup
        with BatchScheduler(
            service, max_batch_size=4, max_batch_wait_ms=20.0
        ) as scheduler:
            results, errors = submit_concurrently(scheduler, queries)
            stats = scheduler.stats
        assert all(e is None for e in errors)
        assert stats.queries == len(queries)
        assert stats.max_batch <= 4
        for got, q in zip(results, queries):
            assert np.array_equal(got.values, service.answer(q).values)

    def test_lone_query_dispatches_within_wait_bound(self, sched_setup):
        """Q=1: an idle scheduler must not hold a query forever."""
        service, queries = sched_setup
        with BatchScheduler(
            service, max_batch_size=64, max_batch_wait_ms=5.0
        ) as scheduler:
            answer = scheduler.submit(queries[0])
        assert np.array_equal(
            answer.values, service.answer(queries[0]).values
        )

    def test_queries_coalesce_into_batches(self, sched_setup):
        service, queries = sched_setup
        with BatchScheduler(
            service, max_batch_size=5, max_batch_wait_ms=50.0
        ) as scheduler:
            submit_concurrently(scheduler, queries)
            stats = scheduler.stats
        assert stats.queries == len(queries)
        assert stats.batches < len(queries)  # actually batched
        assert stats.max_batch > 1


class TestFaultScoping:
    def test_mid_batch_worker_failure_fails_only_that_batch(
        self, sched_setup, monkeypatch
    ):
        """A failing shard fails the queries in flight -- the scheduler
        and service keep serving the next batch."""
        service, queries = sched_setup

        class ShardDown(RuntimeError):
            pass

        real_answer = RankingWorker.answer_stacked

        def failing_answer(worker, chunk):
            if worker.worker_id == 1:
                raise ShardDown(f"worker {worker.worker_id} failed")
            return real_answer(worker, chunk)

        with BatchScheduler(
            service, max_batch_size=4, max_batch_wait_ms=5.0
        ) as scheduler:
            with monkeypatch.context() as patch:
                patch.setattr(RankingWorker, "answer_stacked", failing_answer)
                _, errors = submit_concurrently(scheduler, queries[:4])
                assert all(isinstance(e, ShardDown) for e in errors)
                assert scheduler.stats.failed_queries == 4
            # The same scheduler still answers correctly afterwards.
            answer = scheduler.submit(queries[5])
            assert np.array_equal(
                answer.values, service.answer(queries[5]).values
            )
            assert scheduler.running


class TestLifecycle:
    def test_submit_before_start_raises(self, sched_setup):
        service, queries = sched_setup
        scheduler = BatchScheduler(service, max_batch_size=2)
        with pytest.raises(SchedulerClosed):
            scheduler.submit(queries[0])

    def test_submit_after_stop_raises(self, sched_setup):
        service, queries = sched_setup
        scheduler = BatchScheduler(service, max_batch_size=2)
        scheduler.start()
        scheduler.stop()
        with pytest.raises(SchedulerClosed):
            scheduler.submit(queries[0])

    def test_start_stop_idempotent(self, sched_setup):
        service, _ = sched_setup
        scheduler = BatchScheduler(service, max_batch_size=2)
        scheduler.start()
        scheduler.start()
        scheduler.stop()
        scheduler.stop()
        assert not scheduler.running

    def test_restart_after_stop(self, sched_setup):
        service, queries = sched_setup
        scheduler = BatchScheduler(service, max_batch_size=2)
        scheduler.start()
        scheduler.stop()
        scheduler.start()
        try:
            answer = scheduler.submit(queries[0])
            assert np.array_equal(
                answer.values, service.answer(queries[0]).values
            )
        finally:
            scheduler.stop()

    def test_invalid_parameters_rejected(self, sched_setup):
        service, _ = sched_setup
        with pytest.raises(ValueError):
            BatchScheduler(service, max_batch_size=0)
        with pytest.raises(ValueError):
            BatchScheduler(service, max_batch_size=2, max_batch_wait_ms=-1.0)

    def test_health_reports_counters(self, sched_setup):
        service, queries = sched_setup
        with BatchScheduler(service, max_batch_size=4) as scheduler:
            submit_concurrently(scheduler, queries[:4])
            report = scheduler.health()
        assert report["running"] is True
        assert report["max_batch_size"] == 4
        assert report["queries"] == 4
        assert report["batches"] >= 1
        assert report["failed_queries"] == 0
        assert report["mean_batch_size"] > 0


class TestServiceIntegration:
    def test_attach_starts_and_stops_with_service(self, sched_setup, engine):
        index = engine.index
        service = ShardedRankingService.build(
            index.ranking_scheme, index.layout.matrix, index.layout.dim, 4
        )
        scheduler = BatchScheduler(service, max_batch_size=4)
        service.attach_scheduler(scheduler)
        service.open()
        assert scheduler.running
        assert service.health()["scheduler"]["running"] is True
        service.close()
        assert not scheduler.running

    def test_wire_answers_route_through_scheduler(self, sched_setup):
        """Single-query wire requests coalesce via the admission queue."""
        from repro.net import wire
        from repro.net.rpc import frame, unframe

        service, queries = sched_setup
        scheduler = BatchScheduler(
            service, max_batch_size=4, max_batch_wait_ms=5.0
        )
        service.attach_scheduler(scheduler)
        service.open()
        try:
            before = scheduler.stats.queries
            blob = wire.encode_ciphertext(queries[0].ciphertext)
            _, payload = unframe(
                service.endpoint.dispatch(frame("answer", blob))
            )
            values, _ = wire.decode_answer(payload)
            assert np.array_equal(values, service.answer(queries[0]).values)
            assert scheduler.stats.queries == before + 1
        finally:
            service.close()
            service.attach_scheduler(None)

    def test_engine_config_attaches_scheduler(self, corpus):
        from repro import TiptoeConfig, TiptoeEngine

        cfg = TiptoeConfig(max_batch_size=4, max_batch_wait_ms=1.0)
        with TiptoeEngine.build(
            corpus.texts()[:100],
            corpus.urls()[:100],
            cfg,
            rng=np.random.default_rng(7),
        ) as engine:
            scheduler = engine.ranking_service.scheduler
            assert scheduler is not None and scheduler.running
            # End-to-end search works with the batcher in front.
            engine.search(corpus.documents[0].text, np.random.default_rng(8))
        assert not scheduler.running

    def test_default_config_has_no_scheduler(self, engine):
        assert engine.ranking_service.scheduler is None
