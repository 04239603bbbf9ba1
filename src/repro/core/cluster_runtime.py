"""The in-process ranking coordinator (SS4.3), batch-first.

The ranking matrix is vertically partitioned by cluster: a worker
holds the column blocks of its clusters.  The coordinator splits the
client ciphertexts -- stacked into a
:class:`~repro.core.ranking.RankingBatch`, one query per column, so
the split is a plain row-slice of the stack -- hands chunk i to worker
i, and sums the partial answers mod q.  Each worker answers its chunk
with a single matrix-matrix product over a cached kernel plan, so a
batch of Q queries streams the shard from memory once instead of Q
times.

Serving builds one worker -- one kernel plan -- per process: scale-up
comes from the plan's own kernel threads, and scale-out, replication
and failover from :mod:`repro.core.fleet`, which runs one process per
(shard, replica) and folds their partial answers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.costs import CostLedger
from repro.core.ranking import (
    RankingAnswer,
    RankingBatch,
    RankingBatchAnswer,
    RankingQuery,
)
from repro.homenc.double import DoubleLheScheme
from repro.lwe import modular
from repro.net import wire
from repro.net.rpc import ServiceEndpoint
from repro.net.service import Service
from repro.obs import runtime as obs


@dataclass
class RankingWorker:
    """One shard: a contiguous range of cluster column-blocks."""

    worker_id: int
    matrix_slice: np.ndarray  # (rows, cols of this shard)
    col_start: int
    q_bits: int
    ledger: CostLedger = field(default_factory=CostLedger)
    #: Optional precomputed bound on the shard's centered entries
    #: (from the index sidecar); skips the plan's full-shard scan.  The
    #: full-matrix bound is exact-safe for any column slice of it.
    entry_bound: int | None = None
    #: Kernel backend executing this shard's products (None ->
    #: reference) plus tuned plan options; see repro.lwe.backends.
    kernel_backend: str | None = None
    kernel_opts: dict = field(default_factory=dict)
    _plan: object = field(default=None, repr=False)

    def batch_plan(self):
        """The shard's kernel-backend plan, built once and reused.

        Like the SimplePIR hint, the plan is message-independent: it
        depends only on the shard contents, never on any query.
        """
        if self._plan is None:
            from repro.lwe import backends as kernel_backends

            self._plan = kernel_backends.get_backend(self.kernel_backend).plan(
                self.matrix_slice,
                self.q_bits,
                entry_bound=self.entry_bound,
                **self.kernel_opts,
            )
        return self._plan

    @property
    def effective_backend(self) -> str | None:
        """The backend actually executing -- after availability
        fallback -- or None while the plan is still unbuilt."""
        plan = self._plan
        return getattr(plan, "backend_name", None) if plan is not None else None

    def drop_plan(self) -> None:
        """Release the plan (float staging, worker pools, segments)."""
        plan, self._plan = self._plan, None
        if plan is not None:
            plan.close()

    def answer_chunk(self, ct_chunk: np.ndarray) -> np.ndarray:
        if len(ct_chunk) != self.matrix_slice.shape[1]:
            raise ValueError("ciphertext chunk does not match shard width")
        self.ledger.add(
            "ranking", 2 * self.matrix_slice.shape[0] * self.matrix_slice.shape[1]
        )
        return self.batch_plan().matvec(ct_chunk)

    def answer_stacked(self, chunk: np.ndarray) -> np.ndarray:
        """Answer a (width, Q) stacked chunk with one GEMM.

        Column i is bit-identical to ``answer_chunk(chunk[:, i])`` --
        both are the exact mod-2^k ring product of the same operands.
        """
        if chunk.ndim != 2 or chunk.shape[0] != self.matrix_slice.shape[1]:
            raise ValueError("stacked chunk does not match shard width")
        self.ledger.add("ranking", 2 * self.matrix_slice.size * chunk.shape[1])
        return self.batch_plan().matmul(chunk)

    def storage_bytes(self) -> int:
        """Shard size at 4-bit entries (what bounds RAM per machine)."""
        return self.matrix_slice.size // 2


@dataclass
class ShardedRankingService(Service):
    """The coordinator plus its column-block workers.

    As a :class:`~repro.net.service.Service` its wire interface is an
    ``answer`` method carrying one serialized ciphertext and an
    ``answer_batch`` method carrying a stacked query batch.  When a
    :class:`~repro.core.scheduler.BatchScheduler` is attached,
    single-query wire requests from concurrent transport threads are
    routed through it so they coalesce into stacked batches.
    """

    workers: list[RankingWorker]
    scheme: DoubleLheScheme
    ledger: CostLedger = field(default_factory=CostLedger)
    #: Set when this service holds one fleet shard (see
    #: :meth:`build_shard`): its workers cover only that shard's
    #: cluster columns and ``answer`` returns a *partial* sum the
    #: fleet router folds together.  None for the full-matrix service.
    shard: int | None = None
    num_shards: int | None = None
    #: Kernel backend the shard workers execute on (None -> reference).
    kernel_backend: str | None = None
    _scheduler: object = field(default=None, repr=False)

    service_name = "ranking"

    def register_endpoint(self, endpoint: ServiceEndpoint) -> None:
        endpoint.register("answer", self._handle_answer)
        endpoint.register("answer_batch", self._handle_answer_batch)

    def _handle_answer(self, payload: bytes) -> bytes:
        ct = wire.decode_ciphertext(payload, self.scheme.params.inner)
        query = RankingQuery(ciphertext=ct)
        scheduler = self._scheduler
        if scheduler is not None and scheduler.running:
            # Checked before admission: a malformed request must fail
            # alone, not the batch it would be stacked into.
            self._check_length(len(ct.c))
            answer = scheduler.submit(query)
        else:
            answer = self.answer(query)
        return wire.encode_answer(
            answer.values, self.scheme.params.inner.q_bits
        )

    def _handle_answer_batch(self, payload: bytes) -> bytes:
        batch = wire.decode_batch(payload, self.scheme.params.inner)
        answer = self.answer_stacked(batch)
        return wire.encode_batch_answer(
            answer, self.scheme.params.inner.q_bits
        )

    def attach_scheduler(self, scheduler) -> None:
        """Install the admission queue used by `_handle_answer`.

        The scheduler's lifecycle follows this service's ``open`` /
        ``close`` once attached.
        """
        self._scheduler = scheduler

    @property
    def scheduler(self):
        return self._scheduler

    def health(self) -> dict:
        report = {
            "service": self.service_name,
            "status": "ok",
            "workers": len(self.workers),
            "kernel_backend": self.kernel_backend or "reference",
        }
        # What is *actually* running may differ from what was asked
        # for: an unavailable backend (say cnative on a host with no C
        # compiler) silently serves on reference.  Report it so
        # operators can see the downgrade; None until a plan is built.
        effective = next(
            (
                w.effective_backend
                for w in self.workers
                if w.effective_backend is not None
            ),
            None,
        )
        report["kernel_effective"] = effective
        if self.shard is not None:
            report["shard"] = self.shard
            report["num_shards"] = self.num_shards
        if self._scheduler is not None:
            report["scheduler"] = self._scheduler.health()
        return report

    @classmethod
    def build(
        cls,
        scheme: DoubleLheScheme,
        matrix: np.ndarray,
        dim: int,
        num_workers: int,
        entry_bound: int | None = None,
        kernel_backend: str | None = None,
        kernel_opts: dict | None = None,
    ) -> "ShardedRankingService":
        """Partition the matrix by cluster across ``num_workers``
        workers (capped at one per cluster).

        Serving passes ``num_workers=1``: one kernel plan over the
        whole matrix.  ``entry_bound`` (from the precompute sidecar) is
        a bound on the full matrix's centered entries; each worker
        inherits it so its plan skips the entry scan.
        ``kernel_backend`` / ``kernel_opts`` select and parameterize
        the kernel backend every worker executes on (see
        :mod:`repro.lwe.backends`).
        """
        num_clusters = matrix.shape[1] // dim
        num_workers = min(num_workers, num_clusters)
        bounds = np.linspace(0, num_clusters, num_workers + 1).astype(int)
        workers = []
        q_bits = scheme.params.inner.q_bits
        for w in range(num_workers):
            col_start = bounds[w] * dim
            col_end = bounds[w + 1] * dim
            # Shards are stored pre-lifted into the ring so the online
            # hot loop is a bare integer matmul.
            workers.append(
                RankingWorker(
                    worker_id=w,
                    matrix_slice=modular.to_ring(
                        matrix[:, col_start:col_end], q_bits
                    ),
                    col_start=col_start,
                    q_bits=q_bits,
                    entry_bound=entry_bound,
                    kernel_backend=kernel_backend,
                    kernel_opts=dict(kernel_opts or {}),
                )
            )
        return cls(
            workers=workers, scheme=scheme, kernel_backend=kernel_backend
        )

    @classmethod
    def build_shard(
        cls,
        scheme: DoubleLheScheme,
        matrix: np.ndarray,
        dim: int,
        shard: int,
        num_shards: int,
        entry_bound: int | None = None,
        kernel_backend: str | None = None,
        kernel_opts: dict | None = None,
    ) -> "ShardedRankingService":
        """One fleet shard: the cluster-column slice ``shard`` of
        ``num_shards``, served by one worker (one kernel plan).

        The shard's worker keeps *absolute* column offsets into the
        full matrix, so ``answer`` accepts the same full-length
        ciphertext as the single-process service and returns the
        partial sum over this shard's columns.  Because answers add
        with wraparound (mod ``2**q_bits``) arithmetic -- associative
        and commutative -- a router summing the ``num_shards`` partial
        answers reproduces the single-process result bit for bit.
        """
        if not 0 <= shard < num_shards:
            raise ValueError(f"shard {shard} outside [0, {num_shards})")
        num_clusters = matrix.shape[1] // dim
        if num_shards > num_clusters:
            raise ValueError(
                f"cannot cut {num_clusters} clusters into {num_shards} shards"
            )
        bounds = np.linspace(0, num_clusters, num_shards + 1).astype(int)
        lo = int(bounds[shard]) * dim
        hi = int(bounds[shard + 1]) * dim
        service = cls.build(
            scheme,
            matrix[:, lo:hi],
            dim,
            num_workers=1,
            entry_bound=entry_bound,
            kernel_backend=kernel_backend,
            kernel_opts=kernel_opts,
        )
        for worker in service.workers:
            worker.col_start += lo
        service.shard = shard
        service.num_shards = num_shards
        return service

    @property
    def num_workers(self) -> int:
        return len(self.workers)

    def open(self) -> None:
        """Start the attached scheduler (if any).  Idempotent."""
        if self._scheduler is not None:
            self._scheduler.start()

    def close(self) -> None:
        """Stop the scheduler and drop the workers' kernel plans
        (idempotent).  The service stays usable: plans rebuild lazily."""
        if self._scheduler is not None:
            self._scheduler.stop()
        for worker in self.workers:
            worker.drop_plan()

    def _check_length(self, words: int) -> None:
        """Reject a ciphertext that is not exactly ``m`` words long.

        Every worker slices its columns out of the full-length
        ciphertext, so without this a longer one would be silently
        truncated into a normal-looking answer.
        """
        m = self.scheme.params.inner.m
        if words != m:
            raise ValueError(
                f"ranking ciphertext has {words} words, expected {m}"
            )

    def _scan(self, operand: np.ndarray, **attrs) -> np.ndarray:
        """Run every worker on its row-slice of ``operand`` -- one
        ciphertext (1-D) or a stacked batch (2-D) -- and sum the
        partial answers mod 2^k."""
        total = None
        for worker in self.workers:
            rows, width = worker.matrix_slice.shape
            chunk = operand[worker.col_start : worker.col_start + width]
            with obs.span(
                "ranking.worker",
                worker=worker.worker_id,
                rows=rows,
                cols=width,
                **attrs,
            ):
                if operand.ndim == 1:
                    partial = worker.answer_chunk(chunk)
                else:
                    partial = worker.answer_stacked(chunk)
            if total is None:
                total = partial
            else:
                # Unsigned in-place add wraps mod 2^k exactly.
                np.add(total, partial, out=total)
        for worker in self.workers:
            self.ledger.merge(worker.ledger)
            worker.ledger = CostLedger()
        return total

    def answer(self, query: RankingQuery) -> RankingAnswer:
        """Fan out the ciphertext, sum the partial answers."""
        ct = query.ciphertext.c
        self._check_length(len(ct))
        with obs.span("ranking.answer", workers=len(self.workers)):
            total = self._scan(ct)
        return RankingAnswer(
            values=total,
            bytes_per_element=self.scheme.params.inner.bytes_per_element,
        )

    def answer_stacked(self, batch: RankingBatch) -> RankingBatchAnswer:
        """Answer a stacked batch: one GEMM per worker, summed mod q.

        Column i of the result is bit-identical to ``answer`` on query
        i alone: each worker partial is the exact ring product of the
        same operands, and mod-2^k accumulation is column-wise.
        """
        stacked = batch.stacked
        self._check_length(stacked.shape[0])
        with obs.span(
            "ranking.answer_batch",
            workers=len(self.workers),
            batch=batch.size,
        ):
            total = self._scan(stacked, batch=batch.size)
        return RankingBatchAnswer(
            stacked=total,
            bytes_per_element=self.scheme.params.inner.bytes_per_element,
        )

    def answer_batch(self, queries: list[RankingQuery]) -> list[RankingAnswer]:
        """Answer several queries in one pass over the index.

        Stacking the ciphertexts into a matrix turns Q matrix-vector
        products into one matrix-matrix product per worker -- the index
        streams from memory once per batch instead of once per query.
        Answers are bit-identical to individual :meth:`answer` calls.
        """
        if not queries:
            return []
        batch = RankingBatch.from_queries(queries)
        return self.answer_stacked(batch).split()

    def max_shard_bytes(self) -> int:
        return max(w.storage_bytes() for w in self.workers)
