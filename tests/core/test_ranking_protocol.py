"""Tests for the private ranking protocol and the sharded runtime."""

import dataclasses

import numpy as np
import pytest

from repro.core.cluster_runtime import RankingWorker, ShardedRankingService
from repro.core.ranking import (
    RankingBatch,
    RankingClient,
    RankingQuery,
    RankingService,
    build_query_vector,
)
from repro.embeddings.quantize import quantize
from repro.lwe import modular
from repro.lwe.regev import Ciphertext
from repro.net import rpc, wire


class TestQueryVector:
    def test_structure_matches_figure_10(self):
        q = np.array([1, -2, 3])
        q_tilde = build_query_vector(q, cluster_index=1, num_clusters=3)
        assert q_tilde.tolist() == [0, 0, 0, 1, -2, 3, 0, 0, 0]

    def test_bad_cluster_rejected(self):
        with pytest.raises(IndexError):
            build_query_vector(np.ones(2), 3, 3)
        with pytest.raises(IndexError):
            build_query_vector(np.ones(2), -1, 3)


@pytest.fixture(scope="module")
def ranking_setup(engine):
    index = engine.index
    client = RankingClient(
        index.ranking_scheme,
        dim=index.layout.dim,
        num_clusters=index.layout.num_clusters,
    )
    service = RankingService(index.ranking_scheme, index.layout.matrix)
    return index, client, service


def fresh_keyed_token(engine, seed):
    token = engine.mint_token(np.random.default_rng(seed))
    return token.consume()


class TestRankingCorrectness:
    def test_scores_match_plaintext_inner_products(
        self, engine, ranking_setup
    ):
        index, client, service = ranking_setup
        keys, hints = fresh_keyed_token(engine, 0)
        rng = np.random.default_rng(1)
        q_emb = quantize(index.embeddings[3] * index.quantization_gain, index.config.quantization())
        cluster = 2
        query = client.build_query(keys["ranking"], q_emb, cluster, rng)
        answer = service.answer(query)
        scores = client.decode_scores(keys["ranking"], answer, hints["ranking"])
        dim = index.layout.dim
        block = index.layout.matrix[:, cluster * dim : (cluster + 1) * dim]
        assert np.array_equal(scores, block @ q_emb)

    def test_own_document_wins_its_cluster(self, engine, ranking_setup):
        index, client, service = ranking_setup
        keys, hints = fresh_keyed_token(engine, 2)
        doc = 10
        cluster = index.clusters.doc_to_clusters[doc][0]
        row = index.layout.cluster_doc_ids[cluster].index(doc)
        q_emb = quantize(index.embeddings[doc] * index.quantization_gain, index.config.quantization())
        query = client.build_query(
            keys["ranking"], q_emb, cluster, np.random.default_rng(3)
        )
        scores = client.decode_scores(
            keys["ranking"], service.answer(query), hints["ranking"]
        )
        real = int(index.layout.cluster_sizes[cluster])
        assert int(np.argmax(scores[:real])) == row

    def test_ledger_counts_two_ops_per_entry(self, engine, ranking_setup):
        index, _, service = ranking_setup
        expected_per_query = 2 * index.layout.matrix.size
        queries_so_far = service.ledger.total_ops("ranking") / expected_per_query
        assert queries_so_far == int(queries_so_far)


class TestShardedService:
    def test_sharded_matches_single_node(self, engine, ranking_setup):
        index, client, single = ranking_setup
        keys, hints = fresh_keyed_token(engine, 4)
        q_emb = quantize(index.embeddings[7] * index.quantization_gain, index.config.quantization())
        query = client.build_query(
            keys["ranking"], q_emb, 1, np.random.default_rng(5)
        )
        sharded = ShardedRankingService.build(
            index.ranking_scheme,
            index.layout.matrix,
            dim=index.layout.dim,
            num_workers=5,
        )
        a1 = single.answer(query)
        a2 = sharded.answer(query)
        assert np.array_equal(a1.values, a2.values)

    def test_shards_partition_all_columns(self, engine):
        index = engine.index
        sharded = ShardedRankingService.build(
            index.ranking_scheme,
            index.layout.matrix,
            dim=index.layout.dim,
            num_workers=3,
        )
        widths = [w.matrix_slice.shape[1] for w in sharded.workers]
        assert sum(widths) == index.layout.matrix.shape[1]
        for w in sharded.workers:
            assert w.matrix_slice.shape[1] % index.layout.dim == 0

    def test_worker_failure_blocks_query(
        self, engine, ranking_setup, monkeypatch
    ):
        index, client, _ = ranking_setup
        keys, hints = fresh_keyed_token(engine, 6)
        q_emb = quantize(index.embeddings[0] * index.quantization_gain, index.config.quantization())
        query = client.build_query(
            keys["ranking"], q_emb, 0, np.random.default_rng(7)
        )
        sharded = ShardedRankingService.build(
            index.ranking_scheme,
            index.layout.matrix,
            dim=index.layout.dim,
            num_workers=4,
        )
        real_answer = RankingWorker.answer_chunk

        def failing_answer(worker, chunk):
            if worker.worker_id == 2:
                raise RuntimeError("worker 2 failed")
            return real_answer(worker, chunk)

        with monkeypatch.context() as patch:
            patch.setattr(RankingWorker, "answer_chunk", failing_answer)
            with pytest.raises(RuntimeError, match="worker 2"):
                sharded.answer(query)
        assert sharded.answer(query).values is not None

    def test_workers_capped_by_cluster_count(self, engine):
        index = engine.index
        sharded = ShardedRankingService.build(
            index.ranking_scheme,
            index.layout.matrix,
            dim=index.layout.dim,
            num_workers=10_000,
        )
        assert sharded.num_workers == index.layout.num_clusters

    def test_shard_storage_accounting(self, engine):
        sharded = engine.ranking_service
        assert sharded.max_shard_bytes() > 0


class TestRequestLength:
    """A ciphertext of the wrong length is refused, never truncated or
    padded into a normal-looking answer."""

    @pytest.fixture(scope="class")
    def service(self, engine):
        index = engine.index
        service = ShardedRankingService.build(
            index.ranking_scheme,
            index.layout.matrix,
            dim=index.layout.dim,
            num_workers=2,
        )
        yield service
        service.close()

    @staticmethod
    def _words(params, length, seed=0):
        rng = np.random.default_rng(seed)
        return rng.integers(
            0, 2**params.q_bits, size=length, dtype=modular.dtype_for(params.q_bits)
        )

    @pytest.mark.parametrize("delta", [-5, -1, 1, 5])
    def test_answer_rejects_wrong_length(self, service, delta):
        params = service.scheme.params.inner
        ct = Ciphertext(c=self._words(params, params.m + delta), params=params)
        request = rpc.frame("answer", wire.encode_ciphertext(ct))
        with pytest.raises(ValueError, match="words"):
            service.endpoint.dispatch(request)
        with pytest.raises(ValueError):
            service.answer(RankingQuery(ciphertext=ct))

    @pytest.mark.parametrize("delta", [-5, -1, 1, 5])
    def test_answer_batch_rejects_wrong_length(self, service, delta):
        params = service.scheme.params.inner
        other = dataclasses.replace(params, m=params.m + delta)
        stacked = np.stack(
            [self._words(other, other.m, seed) for seed in range(3)], axis=1
        )
        batch = RankingBatch(stacked=stacked, params=other)
        request = rpc.frame("answer_batch", wire.encode_batch(batch))
        with pytest.raises(ValueError, match="rows"):
            service.endpoint.dispatch(request)
        with pytest.raises(ValueError, match="words"):
            service.answer_stacked(batch)

    def test_exact_length_answers_over_the_wire(self, service):
        params = service.scheme.params.inner
        ct = Ciphertext(c=self._words(params, params.m), params=params)
        request = rpc.frame("answer", wire.encode_ciphertext(ct))
        _, payload = rpc.unframe(service.endpoint.dispatch(request))
        values, _ = wire.decode_answer(payload)
        assert np.array_equal(
            values, service.answer(RankingQuery(ciphertext=ct)).values
        )

    def test_scheduled_answer_rejects_before_batching(self, engine, service):
        # With an admission queue attached the request must fail on its
        # own, before it can be stacked with (and fail) other queries.
        from repro.core.scheduler import BatchScheduler

        params = service.scheme.params.inner
        ct = Ciphertext(c=self._words(params, params.m + 5), params=params)
        scheduler = BatchScheduler(service, max_batch_size=4)
        service.attach_scheduler(scheduler)
        try:
            service.open()
            request = rpc.frame("answer", wire.encode_ciphertext(ct))
            with pytest.raises(ValueError, match="words"):
                service.endpoint.dispatch(request)
            assert scheduler.stats.queries == 0
        finally:
            service.close()
            service.attach_scheduler(None)


class TestClientValidation:
    def test_dimension_mismatch_rejected(self, engine):
        with pytest.raises(ValueError):
            RankingClient(engine.index.ranking_scheme, dim=3, num_clusters=2)
