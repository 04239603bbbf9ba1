"""The end-to-end benchmark of record.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One run builds a synthetic index from the seed, starts the servers as
separate processes (``perfbench/launcher.py``: the repo's serving
classes behind real TCP), drives them from this process with at most two
threads and two connections, checks every answer against plaintext
ground truth, and prints one metric per line followed by a final JSON
line ``{"correct", "attempted", "failed", "metrics"}``.  It exits 1 when
any answer is wrong or any request failed, and 2 when it cannot run at
all (for example, without the source tree next to it).

Index recipe (every workload): a synthetic corpus of NUM_DOCS short
documents, an LSA embedder fitted on the first FIT_DOCS of them,
embedding dimension 192 without PCA (the paper's d), the default
config (TOY lattice parameters, batch scheduler off, kernel backend
"auto" with no tuned plan, i.e. reference).  The ranking matrix is
q=2^64 with 4-bit entries, the URL database q=2^32.  NUM_DOCS keeps a
full set-up near 4-6 s on a 2-vCPU host, so a run of three set-ups and
18 timed seconds stays near 35-40 s; the ranking scan is still about 70%
of the server's CPU on ``online``.

Workloads (closed loop):

* ``online``: 1 ClassicTiptoeClient (hint fetched in set-up, fresh
  inner keys per query) runs full searches against one server -- the
  paper's perceived-latency path; the ranking scan and its upload
  dominate.  One client: with two, the two client threads and the
  server contend for the host's two cores, and the tail latency then
  measures the scheduler.
* ``fresh``: 1 TiptoeClient mints each search's token inline -- client
  key generation, outer encryption, the server mint and the token
  frames dominate.  One client: two in one process measure the load
  generator's own contention.  Tokens are never minted in batches, so
  no mint can outgrow the RPC deadline.
* ``throughput``: 2 connections send pre-built 16-query
  ``ranking/answer_batch`` requests back to back through a FleetRouter
  over 2 shard servers -- Table 7's server throughput; matrix-matrix
  kernel plus the router's fan-out and fold.

End-to-end metrics (``--trace 0``): latency per search or per stacked
request (p50, p75; at least 40 samples so that ten lie beyond p75, the
segment is extended until there are), queries per second (a stacked
column is one query), server CPU per query (user+sys of every server process from /proc over the
timed segment), load-generator CPU per query, server peak RSS (VmHWM
summed over server processes), bytes up/down per query, and set-up time.
The inputs (corpus and queries) are made once per run from the seed.
A run then does SETUP_REPEATS full set-ups (embedder fit, index build,
save, server start, client preparation, warm-up); each is followed by
an equal share of the timed segment, and setup_s is their median.

Per-layer metrics (``--trace 1``): one set-up, then an untraced half
and a traced half of the timed segment.  Reported per search or per
stacked request: span self times (server-side work that runs in
parallel, such as the two shards, counts in full), call counts,
computed kernel work, network wait, set-up parts, span coverage of the
client's request time, and the tracing overhead (traced over untraced
p50).  Spans, the host fingerprint, latency samples and every metric
are also written to ``perfbench-out/<workload>-seed<seed>-trace<t>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
OUT = ROOT / "perfbench-out"

NUM_DOCS = 4000
FIT_DOCS = 1000
EMBED_DIM = 192
# Two topics per document: a near-boundary document's second cluster is
# then its second topic rather than a few hub clusters, so the largest
# cluster (the ranking matrix's row count) varies only ~6% across seeds
# (one topic per document: 96-140 rows).
CORPUS = dict(
    num_topics=64, vocab_size=4000, words_per_doc=(12, 30), topics_per_doc=(2, 2)
)
QUERY_POOL = 64
QUERY_WORDS = 6
BATCH_WIDTH = 16
REQUESTS_PER_CONNECTION = 3
SETUP_REPEATS = 3
#: The tail percentile reported.  An ``online`` search takes ~8 ms, and
#: on a shared 2-vCPU host stalls of a few ms hit a share of searches
#: that changes from minute to minute: over ten seeds the p90 spread
#: 0.27 of its median (p75: 0.13, p50: 0.11), wider than any bound a
#: regression check can use.
TAIL_PCT = 75
SERVER_START_TIMEOUT_S = 120.0
#: BLAS threads per server process (see server_env).
SERVER_BLAS_THREADS = "1"

END_TO_END = {
    "latency_p50_ms": "ms",
    "latency_p75_ms": "ms",
    "throughput_qps": "1/s",
    "server_cpu_ms_per_query": "ms",
    "client_cpu_ms_per_query": "ms",
    "server_peak_rss_mb": "MiB",
    "up_bytes_per_query": "B",
    "down_bytes_per_query": "B",
    "setup_s": "s",
}

SERVICES = ("ranking", "url", "token")
PER_LAYER = {
    # client side
    "core.client.token_ms": "ms",
    "homenc.token.keygen_ms": "ms",
    "homenc.double.keygen_ms": "ms",
    "homenc.double.hint_decrypt_ms": "ms",
    "embeddings.embed_ms": "ms",
    "core.ranking.encrypt_ms": "ms",
    "core.ranking.decrypt_ms": "ms",
    "core.url_service.encrypt_ms": "ms",
    "core.url_service.decrypt_ms": "ms",
    "net.wire.encode_ms": "ms",
    "net.wire.decode_ms": "ms",
    **{f"net.rpc.{s}_ms": "ms" for s in SERVICES},
    "net.rpc.calls": "count",
    "net.rpc.retries": "count",
    "net.rpc.useful_ratio": "ratio",
    # server side
    **{f"net.tcp.dispatch_{s}_ms": "ms" for s in SERVICES},
    **{f"net.wait_{s}_ms": "ms" for s in SERVICES},
    "core.cluster_runtime.answer_ms": "ms",
    "lwe.backends.matvec_ms": "ms",
    "lwe.backends.matmul_ms": "ms",
    "lwe.backends.calls": "count",
    "lwe.backends.ops": "ops-computed",
    "lwe.backends.bytes": "B-computed",
    "core.url_service.answer_ms": "ms",
    "homenc.token.mint_ms": "ms",
    "core.cluster_runtime.resident_bytes": "B",
    # fleet
    "core.fleet.route_ms": "ms",
    "core.fleet.shard_call_ms": "ms",
    "core.fleet.fold_ms": "ms",
    "core.fleet.failovers": "count",
    # set-up
    "corpus.generate_s": "s",
    "embeddings.fit_s": "s",
    "core.indexer.build_s": "s",
    "core.artifacts.save_s": "s",
    "server.start_s": "s",
    "client.prepare_s": "s",
    "warmup_s": "s",
    # the trace itself
    "trace.coverage": "ratio",
    "trace.unattributed_ms": "ms",
    "trace.untraced_p50_ms": "ms",
    "trace.traced_p50_ms": "ms",
    "trace.overhead_ratio": "ratio",
}

#: Span names whose summed self time is reported as "<name>_ms".  Wire
#: encode/decode spans are recorded in the load generator and in every
#: server process and summed.
LAYERS = (
    "core.client.token",
    "homenc.token.keygen",
    "homenc.double.keygen",
    "homenc.double.hint_decrypt",
    "embeddings.embed",
    "core.ranking.encrypt",
    "core.ranking.decrypt",
    "core.url_service.encrypt",
    "core.url_service.decrypt",
    "net.wire.encode",
    "net.wire.decode",
    "core.cluster_runtime.answer",
    "lwe.backends.matvec",
    "lwe.backends.matmul",
    "core.url_service.answer",
    "homenc.token.mint",
    "core.fleet.route",
    "core.fleet.shard_call",
) + tuple(f"net.rpc.{s}" for s in SERVICES) + tuple(
    f"net.tcp.dispatch_{s}" for s in SERVICES
)


# -- process and transport plumbing --------------------------------------------


class CountingTransport:
    """Counts requests passing through to ``inner``."""

    def __init__(self, inner):
        self.inner = inner
        self._lock = threading.Lock()
        self.count = 0  # guarded-by: _lock

    def request(self, service, request, *, timeout=None):
        with self._lock:
            self.count += 1
        return self.inner.request(service, request, timeout=timeout)

    def close(self):
        self.inner.close()


class Connection:
    """One client connection: logical calls over retried socket
    attempts, both counted (retried attempts redo server work)."""

    def __init__(self, host, port, config):
        from repro.net.tcp import SocketTransport
        from repro.net.transport import RetryingTransport

        self.attempts = CountingTransport(
            SocketTransport(host, port, timeout=config.rpc_timeout_s)
        )
        self.calls = CountingTransport(
            RetryingTransport(self.attempts, policy=config.retry_policy())
        )

    def close(self):
        self.calls.close()


class Server:
    """A launcher.py subprocess and its bound address."""

    def __init__(self, name: str, argv: list[str], env: dict, work: Path):
        self.name = name
        self._log = open(work / f"{name}.log", "w")
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "launcher.py"), *argv],
            stdout=subprocess.PIPE,
            stderr=self._log,
            text=True,
            env=env,
            cwd=ROOT,
        )
        self.host = self.port = None

    def wait_ready(self, deadline: float) -> None:
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0 or self.proc.poll() is not None:
                raise RuntimeError(
                    f"server {self.name} did not start"
                    f" (exit code {self.proc.poll()}, see {self._log.name})"
                )
            ready, _, _ = select.select([self.proc.stdout], [], [], remaining)
            if ready:
                break
        line = self.proc.stdout.readline().strip()
        if not line.startswith("serving on "):
            raise RuntimeError(f"server {self.name} said {line!r}")
        host, port = line[len("serving on "):].rsplit(":", 1)
        self.host, self.port = host, int(port)

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    def call(self, service: str, method: str, payload: bytes = b"") -> bytes:
        from repro.net.rpc import RpcChannel
        from repro.net.tcp import SocketTransport
        from repro.net.transport import TrafficLog

        transport = SocketTransport(self.host, self.port, timeout=60.0)
        try:
            return RpcChannel(TrafficLog(), transport).call(
                service, service, method, payload
            )
        finally:
            transport.close()

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self._log.close()


def server_env(work: Path) -> dict:
    env = dict(os.environ)
    # Up to three server processes share two cores.  OpenBLAS's default
    # of one spinning thread per core then makes them fight: on a 2-vCPU
    # VM with an 8,000-document index the fleet measured a bimodal
    # 250-390 q/s at 5-8 ms server CPU per query, against a steady
    # 1030 q/s at 1.6 ms with one BLAS thread per server.
    env["OPENBLAS_NUM_THREADS"] = SERVER_BLAS_THREADS
    # Keep every file any process writes inside the checkout.
    env["TMPDIR"] = str(work)
    env["REPRO_CNATIVE_CACHE"] = str(work / "cnative")
    return env


# -- inputs --------------------------------------------------------------------


def make_queries(corpus, seed: int) -> list[str]:
    """QUERY_POOL short queries cut from random documents."""
    import numpy as np

    rng = np.random.default_rng([seed, 1])
    queries = []
    for _ in range(QUERY_POOL):
        words = corpus.documents[int(rng.integers(corpus.num_docs))].text.split()
        start = int(rng.integers(max(1, len(words) - QUERY_WORDS)))
        queries.append(" ".join(words[start:start + QUERY_WORDS]))
    return queries


def make_corpus(seed: int):
    from repro.corpus import SyntheticCorpus, SyntheticCorpusConfig

    return SyntheticCorpus.generate(
        SyntheticCorpusConfig(num_docs=NUM_DOCS, seed=seed, **CORPUS)
    )


def build_index(seed: int, corpus, path: Path, parts: dict):
    import numpy as np

    from repro.core.config import TiptoeConfig
    from repro.core.indexer import TiptoeIndex
    from repro.embeddings.lsa import LsaEmbedder

    texts = corpus.texts()
    t = time.perf_counter()
    embedder = LsaEmbedder.fit(texts[:FIT_DOCS], dim=EMBED_DIM, seed=seed)
    parts["embeddings.fit_s"] = time.perf_counter() - t
    t = time.perf_counter()
    index = TiptoeIndex.build(
        texts,
        corpus.urls(),
        TiptoeConfig(embedding_dim=EMBED_DIM, pca_dim=None),
        embedder=embedder,
        rng=np.random.default_rng(seed),
    )
    parts["core.indexer.build_s"] = time.perf_counter() - t
    t = time.perf_counter()
    index.save(path)
    parts["core.artifacts.save_s"] = time.perf_counter() - t
    return index


# -- workloads -------------------------------------------------------------------


class Workload:
    """One traffic mix: which servers, which clients, what one step is."""

    name = ""
    units_per_step = 1
    root_span = "client.search"

    def __init__(self, seed, corpus, index, queries, tracer):
        self.seed = seed
        self.corpus = corpus
        self.index = index
        self.queries = queries
        self.tracer = tracer
        self.urls = corpus.urls()
        self.connections: list[Connection] = []

    def connect(self, server: Server) -> Connection:
        conn = Connection(server.host, server.port, self.index.config)
        self.connections.append(conn)
        return conn

    def engine(self, server: Server):
        from repro.core.engine import TiptoeEngine

        return TiptoeEngine(self.index, transport=self.connect(server).calls)

    def close(self) -> None:
        for conn in self.connections:
            conn.close()


class SearchWorkload(Workload):
    """Closed-loop full searches, one client per thread."""

    def prepare(self, front: Server) -> None:
        self.clients = [self.new_client(front, i) for i in range(self.threads)]
        self._expected = {}

    def expected(self, text: str):
        """Ground truth for ``text``, computed once per query text."""
        from checks import expected_for

        if text not in self._expected:
            engine = self.clients[0].engine
            self._expected[text] = expected_for(engine, self.urls, text)
        return self._expected[text]

    def step(self, actor: int, k: int):
        text = self.queries[(k * self.threads + actor) % len(self.queries)]
        result = self.clients[actor].search(text)
        traffic = result.traffic
        return (text, result), traffic.bytes_up(), traffic.bytes_down()

    def check(self, item) -> str | None:
        from checks import check_search

        text, result = item
        return check_search(result, self.expected(text))


class Online(SearchWorkload):
    name = "online"
    threads = 1

    def new_client(self, front, i):
        import numpy as np

        from repro.core.classic import ClassicTiptoeClient

        client = ClassicTiptoeClient(
            self.engine(front), rng=np.random.default_rng([self.seed, 2, i])
        )
        client.fetch_hints()
        return client


class Fresh(SearchWorkload):
    name = "fresh"
    threads = 1

    def new_client(self, front, i):
        import numpy as np

        # No stockpiled tokens and no prefetcher (the default config):
        # every search mints its one token inline.
        return self.engine(front).new_client(
            np.random.default_rng([self.seed, 3, i])
        )


class Throughput(Workload):
    name = "throughput"
    threads = 2
    units_per_step = BATCH_WIDTH
    root_span = "client.request"

    def prepare(self, front: Server) -> None:
        import numpy as np

        from checks import client_query, column_scores
        from repro.core.ranking import RankingBatch, RankingClient
        from repro.net import wire
        from repro.net.rpc import RpcChannel
        from repro.net.transport import TrafficLog

        index = self.index
        self.channels = [self.connect(front) for _ in range(self.threads)]
        engine = self.engine(front)
        body = RpcChannel(TrafficLog(), self.channels[0].calls).call(
            "hint", "hint", "ranking", b""
        )
        self.hint, _ = wire.decode_matrix(body)
        meta = index.client_metadata()
        ranking = RankingClient(
            index.ranking_scheme, dim=meta.dim, num_clusters=len(meta.cluster_sizes)
        )
        rng = np.random.default_rng([self.seed, 4])
        self._verdicts = {}
        self.requests = []  # per request: (payload, keys, expected columns)
        for r in range(self.threads * REQUESTS_PER_CONNECTION):
            queries, keys, expected = [], [], []
            for j in range(BATCH_WIDTH):
                text = self.queries[(r * BATCH_WIDTH + j) % len(self.queries)]
                cluster, quantized = client_query(engine, text)
                key = index.ranking_scheme.gen_keys(rng)
                queries.append(ranking.build_query(key, quantized, cluster, rng))
                keys.append(key)
                expected.append(column_scores(index.layout, cluster, quantized))
            payload = wire.encode_batch(RankingBatch.from_queries(queries))
            self.requests.append((payload, keys, expected))

    def step(self, actor: int, k: int):
        from repro.net.rpc import RpcChannel
        from repro.net.transport import TrafficLog

        which = actor * REQUESTS_PER_CONNECTION + k % REQUESTS_PER_CONNECTION
        log = TrafficLog()
        with self.tracer.span("client.request"):
            body = RpcChannel(log, self.channels[actor].calls).call(
                "ranking", "ranking", "answer_batch", self.requests[which][0]
            )
        return (which, body), log.bytes_up(), log.bytes_down()

    def check(self, item) -> str | None:
        import hashlib

        from checks import check_stacked
        from repro.net import wire

        which, body = item
        # Identical bytes for the same request decrypt identically:
        # verify each distinct response once.
        digest = (which, hashlib.sha256(body).digest())
        if digest in self._verdicts:
            return self._verdicts[digest]
        _, keys, expected = self.requests[which]
        stacked, _ = wire.decode_batch_answer(body)
        bad = check_stacked(self.index.ranking_scheme, self.hint, keys, expected, stacked)
        verdict = f"columns {bad} of request {which} are wrong" if bad else None
        self._verdicts[digest] = verdict
        return verdict


WORKLOADS = {w.name: w for w in (Online, Fresh, Throughput)}


def start_servers(name: str, artifacts: Path, env: dict, work: Path):
    """(every server process, the one clients talk to)."""
    deadline = time.monotonic() + SERVER_START_TIMEOUT_S
    servers = []
    try:
        if name != "throughput":
            servers.append(Server("serve", ["serve", str(artifacts)], env, work))
            servers[0].wait_ready(deadline)
            return servers, servers[0]
        for shard in range(2):
            servers.append(
                Server(
                    f"shard{shard}",
                    ["serve", str(artifacts), "--shard", str(shard), "--num-shards", "2"],
                    env,
                    work,
                )
            )
        for server in servers:
            server.wait_ready(deadline)
        replicas = [arg for s in servers for arg in ("--replica", s.address)]
        router = Server("router", ["router", str(artifacts), *replicas], env, work)
        servers.append(router)
        router.wait_ready(deadline)
        return servers, router
    except BaseException:
        for server in servers:
            server.stop()
        raise


# -- one deployment ------------------------------------------------------------------


class Deployment:
    """Index, servers and prepared clients for one workload run.  The
    inputs (corpus and queries) are made once from the seed; each
    set-up builds the system from them anew."""

    def __init__(self, name, seed, tracer, work: Path):
        self.name, self.seed, self.tracer, self.work = name, seed, tracer, work
        self.parts: dict[str, float] = {}
        self.servers: list[Server] = []
        self.workload = None
        t = time.perf_counter()
        self.corpus = make_corpus(seed)
        self.queries = make_queries(self.corpus, seed)
        self.parts["corpus.generate_s"] = time.perf_counter() - t

    def set_up(self) -> float:
        """Build, save, start, prepare and warm up; the seconds it took."""
        start = time.perf_counter()
        artifacts = self.work / "index"
        shutil.rmtree(artifacts, ignore_errors=True)
        corpus, queries = self.corpus, self.queries
        index = build_index(self.seed, corpus, artifacts, self.parts)
        t = time.perf_counter()
        self.servers, front = start_servers(
            self.name, artifacts, server_env(self.work), self.work
        )
        self.parts["server.start_s"] = time.perf_counter() - t
        t = time.perf_counter()
        self.workload = WORKLOADS[self.name](
            self.seed, corpus, index, queries, self.tracer
        )
        self.workload.prepare(front)
        self.parts["client.prepare_s"] = time.perf_counter() - t
        t = time.perf_counter()
        warm = run_segment(self.workload, self.pids, steps=3, check=False)
        if warm["failed"]:
            raise RuntimeError(f"warm-up failed: {warm['errors'][:3]}")
        self.parts["warmup_s"] = time.perf_counter() - t
        return time.perf_counter() - start

    @property
    def pids(self) -> list[int]:
        return [server.proc.pid for server in self.servers]

    def kernel_effective(self) -> dict:
        report = {}
        for server in self.servers:
            if server.name == "router":
                continue
            health = json.loads(server.call("_meta", "health"))
            report[server.name] = {
                svc: h.get("kernel_effective")
                for svc, h in health.items()
                if "kernel_effective" in h
            }
        return report

    def tear_down(self) -> None:
        if self.workload is not None:
            self.workload.close()
            self.workload = None
        for server in self.servers:
            server.stop()
        self.servers = []
        shutil.rmtree(self.work / "index", ignore_errors=True)


# -- the timed loop -------------------------------------------------------------------


def run_segment(
    workload, pids, *, seconds=None, steps=None, min_samples=0, check=True
):
    """Run every actor closed-loop until ``seconds`` have passed and
    ``min_samples`` requests completed (or ``steps`` each), then check
    every answer.  ``pids`` are the server processes whose CPU counts."""
    threads = workload.threads
    lock = threading.Lock()
    done = [0]
    # (latency, item, up, down, finish time since segment start), seconds
    records = [[] for _ in range(threads)]
    errors = [[] for _ in range(threads)]
    start = time.perf_counter()
    deadline = start + (seconds or 0.0)

    def keep_going(k):
        if steps is not None:
            return k < steps
        with lock:
            enough = done[0] >= min_samples
        return time.perf_counter() < deadline or not enough

    def actor(i):
        k = 0
        while keep_going(k):
            t0 = time.perf_counter()
            try:
                item, up, down = workload.step(i, k)
            except Exception as exc:  # a failed request is a result
                errors[i].append(f"{type(exc).__name__}: {exc}")
            else:
                t1 = time.perf_counter()
                records[i].append((t1 - t0, item, up, down, t1 - start))
            with lock:
                done[0] += 1
            k += 1

    servers_cpu = servers_cpu_seconds(pids)
    cpu0 = time.process_time()
    pool = [
        threading.Thread(target=actor, args=(i,), daemon=True)
        for i in range(threads)
    ]
    for thread in pool:
        thread.start()
    for thread in pool:
        thread.join()
    wall = time.perf_counter() - start
    client_cpu = time.process_time() - cpu0
    server_cpu = servers_cpu_seconds(pids) - servers_cpu
    flat = [r for rs in records for r in rs]
    errs = [e for es in errors for e in es]
    if check:
        for _, item, *_ in flat:
            verdict = workload.check(item)
            if verdict is not None:
                errs.append(verdict)
    return {
        "latencies": [r[0] for r in flat],
        "finished_at": [r[4] for r in flat],
        "attempted": len(flat) + sum(len(e) for e in errors),
        "failed": len(errs),
        "errors": errs,
        "units": len(flat) * workload.units_per_step,
        "up": sum(r[2] for r in flat),
        "down": sum(r[3] for r in flat),
        "wall": wall,
        "client_cpu": client_cpu,
        "server_cpu": server_cpu,
    }


def servers_cpu_seconds(pids) -> float:
    from hoststat import proc_cpu_seconds

    return sum(proc_cpu_seconds(pid) for pid in pids)


# -- metrics --------------------------------------------------------------------------


def end_to_end(seg: dict, setup_times: list[float], peak_rss: list[float]) -> dict:
    from hoststat import percentile

    units = seg["units"]
    lat = seg["latencies"]
    return {
        "latency_p50_ms": percentile(lat, 50) * 1e3,
        "latency_p75_ms": percentile(lat, TAIL_PCT) * 1e3,
        "throughput_qps": units / seg["wall"],
        "server_cpu_ms_per_query": seg["server_cpu"] * 1e3 / units,
        "client_cpu_ms_per_query": seg["client_cpu"] * 1e3 / units,
        "server_peak_rss_mb": statistics.median(peak_rss),
        "up_bytes_per_query": seg["up"] / units,
        "down_bytes_per_query": seg["down"] / units,
        "setup_s": statistics.median(setup_times),
    }


def merge_segments(segments: list[dict]) -> dict:
    merged = {}
    for key in segments[0]:
        merged[key] = sum((seg[key] for seg in segments), type(segments[0][key])())
    return merged


def per_layer(client_spans, server_reports, seg, untraced, parts, conns) -> dict:
    from hoststat import percentile
    from tracing import (
        coverage,
        duration_by_name,
        fold_time,
        self_time_by_name,
    )

    requests = len(seg["latencies"])
    per_req = 1e3 / requests
    self_s = dict.fromkeys(LAYERS, 0.0)
    durations: dict[str, float] = {}
    kernel = {"calls": 0, "ops": 0, "bytes": 0}
    fold = 0.0
    for spans in [client_spans] + [r["spans"] for r in server_reports]:
        for name, secs in self_time_by_name(spans).items():
            if name in self_s:
                self_s[name] += secs
        for name, secs in duration_by_name(spans).items():
            durations[name] = durations.get(name, 0.0) + secs
        for span in spans:
            if span.name.startswith("lwe.backends.mat"):
                kernel["calls"] += 1
                kernel["ops"] += span.attrs["ops"]
                kernel["bytes"] += span.attrs["bytes"]
        fold += fold_time(spans, "core.fleet.route", "core.fleet.shard_call")
    stats = [r["stats"] for r in server_reports]
    out = {f"{name}_ms": secs * per_req for name, secs in self_s.items()}
    for svc in SERVICES:
        # The front door's own time on the request: dispatch on a single
        # server, the router's route on the fleet.
        front = durations.get(f"net.tcp.dispatch_{svc}", 0.0)
        if svc == "ranking" and "core.fleet.route" in durations:
            front = durations["core.fleet.route"]
        rpc = durations.get(f"net.rpc.{svc}", 0.0)
        out[f"net.wait_{svc}_ms"] = max(0.0, rpc - front) * per_req
    calls = sum(1 for s in client_spans if s.name.startswith("net.rpc."))
    attempts = sum(c.attempts.count for c in conns)
    logical = sum(c.calls.count for c in conns)
    out["net.rpc.calls"] = calls / requests
    out["net.rpc.retries"] = float(attempts - logical)
    out["net.rpc.useful_ratio"] = logical / attempts if attempts else 1.0
    out["lwe.backends.calls"] = kernel["calls"] / requests
    out["lwe.backends.ops"] = kernel["ops"] / requests
    out["lwe.backends.bytes"] = kernel["bytes"] / requests
    out["core.cluster_runtime.resident_bytes"] = float(
        sum(st.get("resident_bytes", 0) for st in stats)
    )
    out["core.fleet.fold_ms"] = fold * per_req
    out["core.fleet.failovers"] = float(sum(st.get("failovers", 0) for st in stats))
    out.update(parts)
    share, unattributed, _ = coverage(client_spans, seg["root_span"])
    out["trace.coverage"] = share
    out["trace.unattributed_ms"] = unattributed * per_req
    out["trace.untraced_p50_ms"] = percentile(untraced["latencies"], 50) * 1e3
    out["trace.traced_p50_ms"] = percentile(seg["latencies"], 50) * 1e3
    out["trace.overhead_ratio"] = (
        out["trace.traced_p50_ms"] / out["trace.untraced_p50_ms"]
    )
    return {name: out[name] for name in PER_LAYER}


# -- client-side tracing -------------------------------------------------------------


def trace_client(tracer, index) -> None:
    """Wrap the public entry points a client search goes through."""
    from repro.core import classic, engine
    from repro.core.classic import ClassicTiptoeClient
    from repro.core.client import TiptoeClient
    from repro.core.ranking import RankingClient
    from repro.core.url_service import UrlServiceClient
    from repro.corpus.urls import UrlBatch
    from repro.homenc.double import DoubleLheScheme
    from repro.net import wire
    from repro.net.rpc import RpcChannel

    wrap = tracer.wrap
    wrap(ClassicTiptoeClient, "search", "client.search")
    wrap(TiptoeClient, "search", "client.search")
    wrap(engine.TiptoeEngine, "mint_token", "core.client.token")
    wrap(engine, "make_client_keys", "homenc.token.keygen")
    wrap(DoubleLheScheme, "gen_keys", "homenc.double.keygen")
    wrap(DoubleLheScheme, "decrypt_hint_product", "homenc.double.hint_decrypt")
    wrap(engine.TiptoeEngine, "embed_query", "embeddings.embed")
    wrap(TiptoeClient, "embed_query", "embeddings.embed")
    wrap(classic, "quantize", "embeddings.embed")
    wrap(RankingClient, "build_query", "core.ranking.encrypt")
    wrap(RankingClient, "decode_scores", "core.ranking.decrypt")
    wrap(UrlServiceClient, "build_query", "core.url_service.encrypt")
    wrap(UrlServiceClient, "recover_batch", "core.url_service.decrypt")
    # The classic client decrypts through the schemes' inner layer
    # directly; wrap this index's instances so ranking and URL stay apart.
    wrap(index.ranking_scheme.inner, "decrypt_centered", "core.ranking.decrypt")
    wrap(index.url_scheme.inner, "decrypt", "core.url_service.decrypt")
    wrap(index.url_db, "decode_column", "core.url_service.decrypt")
    wrap(UrlBatch, "decompress", "core.url_service.decrypt")
    wrap(
        RpcChannel,
        "call",
        lambda channel, service, *rest, **kw: f"net.rpc.{service}",
    )
    for attr in dir(wire):
        if attr.startswith("encode_"):
            wrap(wire, attr, "net.wire.encode")
        elif attr.startswith("decode_"):
            wrap(wire, attr, "net.wire.decode")


# -- main -------------------------------------------------------------------------------


def measure_end_to_end(deployment, seconds: float) -> tuple[dict, dict]:
    """SETUP_REPEATS rounds of a full set-up followed by an equal share
    of the timed segment.  Spreading the measurement over several
    deployments and moments averages out slow phases of host noise."""
    from hoststat import min_samples, proc_peak_rss_mb

    setup_times, peak_rss, segments = [], [], []
    for repeat in range(SETUP_REPEATS):
        if repeat:
            deployment.tear_down()
        setup_times.append(deployment.set_up())
        done = sum(len(seg["latencies"]) for seg in segments)
        last = repeat == SETUP_REPEATS - 1
        segments.append(
            run_segment(
                deployment.workload,
                deployment.pids,
                seconds=seconds / SETUP_REPEATS,
                min_samples=min_samples(TAIL_PCT) - done if last else 0,
            )
        )
        peak_rss.append(
            sum(proc_peak_rss_mb(pid) for pid in deployment.pids)
        )
    seg = merge_segments(segments)
    return seg, end_to_end(seg, setup_times, peak_rss)


def measure_per_layer(deployment, tracer, seconds: float, record) -> tuple[dict, dict]:
    """One set-up, an untraced half segment, then a traced half."""
    from tracing import Span

    deployment.set_up()
    workload = deployment.workload
    trace_client(tracer, workload.index)
    untraced = run_segment(workload, deployment.pids, seconds=seconds / 2)
    for server in deployment.servers:
        server.call("bench", "trace", b"1")
    tracer.enabled = True
    seg = run_segment(workload, deployment.pids, seconds=seconds / 2)
    tracer.enabled = False
    reports = []
    for server in deployment.servers:
        server.call("bench", "trace", b"0")
        data = json.loads(server.call("bench", "collect"))
        data["spans"] = [Span.from_json(s) for s in data["spans"]]
        data["name"] = server.name
        reports.append(data)
    client_spans = tracer.take()
    seg["root_span"] = workload.root_span
    metrics = per_layer(
        client_spans, reports, seg, untraced, deployment.parts,
        workload.connections,
    )
    record["spans"] = {
        "client": [s.to_json() for s in client_spans],
        **{r["name"]: [s.to_json() for s in r["spans"]] for r in reports},
    }
    for key in ("attempted", "failed", "errors"):
        seg[key] += untraced[key]
    return seg, metrics


def run(args) -> int:
    import tempfile

    from hoststat import fingerprint
    from tracing import Tracer

    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace}
    host = fingerprint()
    host["server_blas_threads"] = int(SERVER_BLAS_THREADS)
    tracer = Tracer()
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    tempfile.tempdir = str(work)
    deployment = None
    try:
        deployment = Deployment(args.workload, args.seed, tracer, work)
        if args.trace:
            seg, metrics = measure_per_layer(deployment, tracer, args.seconds, record)
            units = PER_LAYER
        else:
            seg, metrics = measure_end_to_end(deployment, args.seconds)
            units = END_TO_END
        host["kernel_effective"] = deployment.kernel_effective()
        record["setup_parts"] = deployment.parts
        record["samples"] = list(zip(seg["finished_at"], seg["latencies"]))
    finally:
        if deployment is not None:
            deployment.tear_down()
        shutil.rmtree(work, ignore_errors=True)

    failed_ratio = seg["failed"] / seg["attempted"]
    print("host " + json.dumps(host, sort_keys=True))
    for name, value in metrics.items():
        print(f"{name:40s} {value:16.4f} {units[name]}")
    print(f"{'failed_ratio':40s} {failed_ratio:16.4f} ratio")
    for error in seg["errors"][:5]:
        print(f"error: {error}")
    record.update(host=host, metrics=metrics, failed_ratio=failed_ratio)
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record))
    correct = seg["failed"] == 0
    result = {
        "correct": correct,
        "attempted": seg["attempted"],
        "failed": seg["failed"],
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Tiptoe end-to-end benchmark")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no source tree at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # A terminated run still stops its servers (the finally in run()).
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))
    try:
        return run(args)
    except Exception:
        traceback.print_exc()
        return 2


if __name__ == "__main__":
    sys.exit(main())
