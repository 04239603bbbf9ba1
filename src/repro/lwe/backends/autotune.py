"""Build-time kernel autotuning: pick the plan the hardware likes.

The winning (backend, limb width, chunk size, worker count) combination
depends on the index geometry and the host -- BLAS build, core count,
cache sizes -- none of which the code can predict.  So ``build-index
--precompute`` (and the ``tune-kernels`` CLI) benchmarks a small
candidate grid against the *real* index matrices and persists the
winner as a :class:`KernelPlan` record in the precompute sidecar, keyed
to the same ``arrays.npz`` digest as the rest of the derived data.
``serve`` then cold-starts straight into the tuned configuration.

Every candidate is validated bit-identical to ``modular.matmul`` before
it may win, so tuning can change speed but never answers.  Tuning
inputs are synthetic ciphertext-shaped matrices from a *fixed-seed*
generator: the tuner runs at build time on public data and must stay
deterministic and query-independent (SECURITY.md).
"""

from __future__ import annotations

import os
import time
from dataclasses import asdict, dataclass

import numpy as np

from repro.lwe import modular
from repro.lwe.backends.base import KernelUnavailable
from repro.obs import runtime as _obs

#: Fixed tuning-input seed: tuning is deterministic and data-independent.
TUNE_SEED = 20230917


@dataclass(frozen=True)
class KernelPlan:
    """The autotuner's verdict for one matrix, sidecar-serializable."""

    backend: str
    limb_bits: int
    chunk_rows: int
    workers: int
    batch_size: int
    seconds: float
    throughput: float

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, entry: dict) -> "KernelPlan":
        """Parse a sidecar record; ``ValueError`` on anything malformed.

        Sidecars travel between hosts and survive schema drift, so a
        missing key or a non-numeric field must surface as one clean,
        catchable error -- the serving layer logs it and falls back to
        reference rather than dying at cold start.
        """
        try:
            return cls(
                backend=str(entry["backend"]),
                limb_bits=int(entry["limb_bits"]),
                chunk_rows=int(entry["chunk_rows"]),
                workers=int(entry["workers"]),
                batch_size=int(entry.get("batch_size", 0)),
                seconds=float(entry.get("seconds", 0.0)),
                throughput=float(entry.get("throughput", 0.0)),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(
                f"malformed kernel plan record {entry!r}: {exc}"
            ) from exc

    def plan_kwargs(self) -> dict:
        """Keyword arguments for :meth:`KernelBackend.plan`.

        The worker count is capped at this host's cores: a plan tuned
        on a 16-core build host must not start 16 processes or threads
        on a 2-core server (0 still means the backend's default).
        """
        return {
            "limb_bits": self.limb_bits or None,
            "chunk_rows": self.chunk_rows,
            "workers": min(self.workers, os.cpu_count() or 1),
        }


def _candidates(derived_limb: int, rows: int, backends: list[str]) -> list[tuple]:
    """(backend, limb_bits|None, chunk_rows, workers) grid to try.

    Hygiene rules: parallel candidates never request more workers than
    this host has cores (oversubscription only ever times worse, and it
    wastes tuning budget measuring it), and the grid is deduped -- on a
    small host several worker options collapse to the same value.
    """
    cores = os.cpu_count() or 1
    grid: list[tuple] = []
    for name in backends:
        if name == "multiprocess":
            worker_opts = sorted({2, min(4, cores)})
            for w in worker_opts:
                if 1 <= w <= cores:
                    grid.append((name, derived_limb or None, 0, w))
        elif name == "cnative":
            thread_opts = sorted({1, 2, min(4, cores), min(8, cores)})
            for t in thread_opts:
                if 1 <= t <= cores:
                    grid.append((name, derived_limb or None, 0, t))
        else:
            limb_opts = [derived_limb or None]
            if derived_limb > modular.MIN_LIMB_BITS:
                limb_opts.append(
                    max(modular.MIN_LIMB_BITS, derived_limb - 8)
                )
            chunk_opts = [0] + ([1024] if rows > 1024 else [])
            for lb in dict.fromkeys(limb_opts):
                for ch in chunk_opts:
                    grid.append((name, lb, ch, 0))
    return list(dict.fromkeys(grid))


def tune_matrix(
    matrix: np.ndarray,
    q_bits: int,
    *,
    entry_bound: int | None = None,
    batch_size: int = 16,
    repeats: int = 1,
    backends: list[str] | None = None,
    max_seconds: float | None = None,
) -> KernelPlan:
    """Benchmark the candidate grid on ``matrix``; return the winner.

    Candidates producing anything other than the exact reference result
    are rejected outright, so the returned plan is always safe to serve
    from.  ``max_seconds`` bounds the whole sweep: once the budget is
    spent, remaining candidates are skipped (the first -- a reference
    default -- always runs, so a winner always exists).
    """
    from repro.lwe.backends import backend_available, get_backend

    base = modular.StackedPlan(matrix, q_bits, entry_bound=entry_bound)
    derived_limb, bound = base.limb_bits, base.entry_bound
    rows, cols = base.rows, base.cols
    ring = base.ring
    base.close()

    if backends is None:
        backends = ["reference"]
        for optional in ("multiprocess", "cnative"):
            if backend_available(optional):
                backends.append(optional)

    dtype = modular.dtype_for(q_bits)
    rng = np.random.default_rng(TUNE_SEED)
    stacked = rng.integers(0, 1 << q_bits, size=(cols, batch_size), dtype=dtype)
    expected = modular.matmul(ring, stacked, q_bits)

    deadline = (
        time.perf_counter() + max_seconds if max_seconds is not None else None
    )
    best: KernelPlan | None = None
    skipped = 0
    for name, limb_bits, chunk_rows, workers in _candidates(
        derived_limb, rows, backends
    ):
        if (
            best is not None
            and deadline is not None
            and time.perf_counter() >= deadline
        ):
            skipped += 1
            continue
        backend = get_backend(name)
        plan = backend.plan(
            matrix,
            q_bits,
            entry_bound=bound,
            limb_bits=limb_bits,
            chunk_rows=chunk_rows,
            workers=workers,
        )
        try:
            got = plan.matmul(stacked)  # warm-up doubles as validation
            if not np.array_equal(got, expected):  # pragma: no cover
                continue
            start = time.perf_counter()
            for _ in range(repeats):
                plan.matmul(stacked)
            elapsed = max(time.perf_counter() - start, 1e-9)
        finally:
            plan.close()
        candidate = KernelPlan(
            backend=name,
            limb_bits=int(limb_bits or 0),
            chunk_rows=int(chunk_rows),
            workers=int(workers),
            batch_size=batch_size,
            seconds=elapsed / repeats,
            throughput=batch_size * repeats / elapsed,
        )
        if best is None or candidate.throughput > best.throughput:
            best = candidate
    if best is None:  # pragma: no cover - reference candidates always run
        raise KernelUnavailable("no kernel candidate produced exact results")
    if skipped:
        _obs.observe("kernel.autotune.skipped_candidates", skipped)
    _obs.observe(f"kernel.autotune.throughput.{best.backend}", best.throughput)
    return best


def tune_index(index, *, max_seconds: float | None = None, **kwargs) -> dict:
    """Tune both long-lived index matrices; a sidecar-ready record.

    Returns ``{"ranking": ..., "url": ...}`` of
    :meth:`KernelPlan.to_dict` entries -- the ``kernel_plan`` member of
    the ``repro.precompute/v1`` sidecar meta.  ``max_seconds`` bounds
    the *total* sweep; each matrix gets half the budget.
    """
    per_matrix = max_seconds / 2 if max_seconds is not None else None
    ranking = tune_matrix(
        index.layout.matrix,
        index.ranking_scheme.params.inner.q_bits,
        max_seconds=per_matrix,
        **kwargs,
    )
    url = tune_matrix(
        index.url_db.matrix,
        index.url_scheme.params.inner.q_bits,
        max_seconds=per_matrix,
        **kwargs,
    )
    return {"ranking": ranking.to_dict(), "url": url.to_dict()}
