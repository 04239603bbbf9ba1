"""Output checks: every answer is compared against plaintext ground
truth computed from the index the servers were started from."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.embeddings.quantize import quantize


@dataclass(frozen=True)
class Expected:
    """Plaintext ground truth for one query text."""

    cluster: int
    quantized: np.ndarray
    scores: np.ndarray  # exact inner products, one per real cluster row
    top_row: int
    top_url: str


def client_query(engine, text: str) -> tuple[int, np.ndarray]:
    """The cluster and quantized embedding a client derives for ``text``
    (the same public steps every client runs)."""
    meta = engine.index.client_metadata()
    vec = engine.embed_query(text)
    quantized = quantize(
        vec * meta.quantization_gain, engine.index.config.quantization()
    )
    cluster = int(np.argmax(meta.centroids @ vec))
    return cluster, quantized


def column_scores(layout, cluster: int, quantized: np.ndarray) -> np.ndarray:
    """Plaintext ranking scores of every matrix row for one cluster."""
    block = layout.matrix[:, cluster * layout.dim : (cluster + 1) * layout.dim]
    return block.astype(np.int64) @ np.asarray(quantized, dtype=np.int64)


def expected_for(engine, urls: list[str], text: str) -> Expected:
    index = engine.index
    cluster, quantized = client_query(engine, text)
    real_rows = int(index.layout.cluster_sizes[cluster])
    scores = column_scores(index.layout, cluster, quantized)[:real_rows]
    # The client's tie rule: stable sort on descending score.
    top_row = int(np.argsort(-scores, kind="stable")[0])
    doc = index.layout.doc_id_of(cluster, top_row)
    return Expected(
        cluster=cluster,
        quantized=quantized,
        scores=scores,
        top_row=top_row,
        top_url=urls[doc],
    )


def check_search(result, expected: Expected) -> str | None:
    """None when a SearchResult matches the ground truth, else why not."""
    if result.cluster != expected.cluster:
        return f"cluster {result.cluster} != {expected.cluster}"
    if not result.results:
        return "no results"
    top = result.results[0]
    if top.row != expected.top_row:
        return f"top row {top.row} != plaintext nearest {expected.top_row}"
    for r in result.results:
        if r.score != int(expected.scores[r.row]):
            return f"row {r.row} score {r.score} != {expected.scores[r.row]}"
    if top.url != expected.top_url:
        return f"top url {top.url!r} != corpus url {expected.top_url!r}"
    return None


def check_stacked(
    scheme, hint: np.ndarray, keys: list, expected: list[np.ndarray],
    stacked: np.ndarray,
) -> list[int]:
    """Columns of a stacked ranking answer that do not decrypt (classic
    decryption with the raw hint and column i's key) to the exact
    plaintext scores ``expected[i]``."""
    if stacked.shape[1] != len(keys):
        return list(range(len(keys)))
    bad = []
    for i, (key, want) in enumerate(zip(keys, expected)):
        got = scheme.inner.decrypt_centered(key.inner, hint, stacked[:, i])
        if got.shape != want.shape or not np.array_equal(got, want):
            bad.append(i)
    return bad
