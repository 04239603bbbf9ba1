"""Quickstart: stand up a private search engine and run one query.

Builds a Tiptoe deployment over a small synthetic web corpus, then
performs a fully private search: the servers compute the answer on
ciphertexts only and learn nothing about the query string.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro import TiptoeConfig, TiptoeEngine
from repro.corpus import SyntheticCorpus, SyntheticCorpusConfig


def main() -> None:
    print("Generating a synthetic web corpus (600 documents)...")
    corpus = SyntheticCorpus.generate(
        SyntheticCorpusConfig(num_docs=600, num_topics=12, vocab_size=900, seed=1)
    )

    print("Running the data-loading batch jobs (embed, cluster, crypto)...")
    engine = TiptoeEngine.build(
        corpus.texts(),
        corpus.urls(),
        TiptoeConfig(),
        rng=np.random.default_rng(0),
    )
    index = engine.index
    print(
        f"  {index.num_docs} documents in {index.clusters.num_clusters}"
        f" clusters; {len(index.url_batches)} URL batches"
    )

    client = engine.new_client(np.random.default_rng(1))
    print("Fetching a query token (happens before the query exists)...")
    client.fetch_tokens(1)

    query = corpus.documents[42].text[:80]
    print(f"\nPrivately searching for: {query!r}")
    result = client.search(query)

    print(f"\nTop results (cluster {result.cluster} was probed -- privately):")
    for r in result.results[:5]:
        marker = "*" if engine.doc_id_of_position(r.position) == 42 else " "
        print(f" {marker} score={r.score:6d}  {r.url or '(outside batch)'}")

    print("\nPer-phase traffic (bytes up / down):")
    for phase, (up, down) in result.traffic.phase_summary().items():
        print(f"  {phase:8s} {up:10,d} / {down:,d}")
    print(f"Perceived latency (100 Mbps, 50 ms RTT): {result.perceived_latency:.2f} s")
    print("\nThe servers saw only fixed-size ciphertexts -- the query,")
    print("the probed cluster, and the fetched URLs all stayed hidden.")


if __name__ == "__main__":
    main()
