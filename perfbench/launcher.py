"""Server processes for the benchmark.

    python3 perfbench/launcher.py serve ARTIFACTS [--shard I --num-shards S]
    python3 perfbench/launcher.py router ARTIFACTS --replica HOST:PORT ...

``serve`` stands up what ``python -m repro serve`` stands up -- the
service roster of :func:`repro.core.services.build_services` behind a
:class:`repro.net.tcp.ServerRunner` -- and ``router`` a
:class:`repro.core.fleet.FleetRouter` front door over already running
shard servers.  Both print ``serving on HOST:PORT`` once listening and
serve until SIGTERM.

Each process also hosts a ``bench`` service the load generator uses to
switch span recording on and off (``trace``) and to collect the spans
and a few server-side figures (``collect``).  Spans are recorded by
wrapping public entry points of the serving modules from here; with
recording off a wrapped call costs one flag check.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import threading
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from tracing import Tracer, propagating_executor  # noqa: E402

from repro.net import wire  # noqa: E402
from repro.net.rpc import ServiceEndpoint  # noqa: E402
from repro.net.service import Service  # noqa: E402

TRACER = Tracer()


class BenchControl(Service):
    """Span recording switch and collection point."""

    service_name = "bench"

    def __init__(self, stats):
        self._stats = stats

    def register_endpoint(self, endpoint: ServiceEndpoint) -> None:
        endpoint.register("trace", self._trace)
        endpoint.register("collect", self._collect)

    def _trace(self, payload: bytes) -> bytes:
        TRACER.enabled = payload == b"1"
        return b"ok"

    def _collect(self, payload: bytes) -> bytes:
        spans = [span.to_json() for span in TRACER.take()]
        return json.dumps({"spans": spans, "stats": self._stats()}).encode()


def _plan_attrs(plan, operand):
    """Multiply-adds and bytes moved by one plan call, computed from
    shapes and dtypes (not measured)."""
    width = 1 if operand.ndim == 1 else operand.shape[1]
    word = plan.q_bits // 8
    return {
        "ops": plan.rows * plan.cols * width,
        "bytes": (plan.rows * plan.cols + (plan.rows + plan.cols) * width)
        * word,
    }


def _trace_wire() -> None:
    for attr in dir(wire):
        if attr.startswith("encode_"):
            TRACER.wrap(wire, attr, "net.wire.encode")
        elif attr.startswith("decode_"):
            TRACER.wrap(wire, attr, "net.wire.decode")


def _trace_serve() -> None:
    from repro.core.cluster_runtime import ShardedRankingService
    from repro.core.url_service import UrlService
    from repro.homenc.token import TokenFactory
    from repro.lwe.backends import cnative, numba_backend, reference, shm

    TRACER.wrap(
        ServiceEndpoint,
        "dispatch",
        lambda endpoint, request: f"net.tcp.dispatch_{endpoint.name}",
    )
    TRACER.wrap(ShardedRankingService, "answer", "core.cluster_runtime.answer")
    TRACER.wrap(
        ShardedRankingService, "answer_stacked", "core.cluster_runtime.answer"
    )
    TRACER.wrap(UrlService, "answer", "core.url_service.answer")
    TRACER.wrap(TokenFactory, "mint", "homenc.token.mint")
    # Every backend's plan class: whichever one serves is traced.
    for module in (reference, cnative, numba_backend, shm):
        for obj in vars(module).values():
            if (
                isinstance(obj, type)
                and obj.__module__ == module.__name__
                and callable(getattr(obj, "matvec", None))
                and callable(getattr(obj, "matmul", None))
            ):
                TRACER.wrap(obj, "matvec", "lwe.backends.matvec", _plan_attrs)
                TRACER.wrap(obj, "matmul", "lwe.backends.matmul", _plan_attrs)
    _trace_wire()


def _trace_router() -> None:
    from repro.core import fleet

    TRACER.wrap(fleet.FleetRouter, "route", "core.fleet.route")
    TRACER.wrap(fleet.ReplicaClient, "request", "core.fleet.shard_call")
    # Fan-out runs on the router's pool; carry the request's span over.
    fleet.ThreadPoolExecutor = propagating_executor(TRACER)
    _trace_wire()


def _serve(args):
    """(services, fallback handler, stats) of one ``serve`` process."""
    from repro.core.indexer import TiptoeIndex
    from repro.core.services import build_services

    _trace_serve()
    index = TiptoeIndex.load(args.artifacts)
    services = build_services(
        index, shard=args.shard, num_shards=args.num_shards
    )

    def stats() -> dict:
        ranking = services["ranking"]
        return {
            "resident_bytes": sum(w.storage_bytes() for w in ranking.workers)
            + services["url"].db.storage_bytes(),
        }

    return list(services.values()), None, stats


def _router(args):
    """(services, fallback handler, stats) of the fleet front door."""
    from repro.core import artifacts
    from repro.core.fleet import (
        FleetRouter,
        GenerationSpec,
        ReplicaSpec,
        ShardSpec,
    )

    _trace_router()
    shards = []
    for shard, address in enumerate(args.replica):
        host, port = address.rsplit(":", 1)
        shards.append(
            ShardSpec(shard=shard, replicas=(ReplicaSpec(host, int(port)),))
        )
    spec = GenerationSpec(
        generation=artifacts.generation_tag(args.artifacts),
        shards=tuple(shards),
        artifact=args.artifacts,
    )
    router = FleetRouter()
    router.add_generation(spec, make_current=True)
    router.warm_generation(spec.generation)

    def stats() -> dict:
        return {"failovers": router.stats.failovers}

    return [router], router.route, stats


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    serve = sub.add_parser("serve")
    serve.add_argument("artifacts")
    serve.add_argument("--shard", type=int, default=None)
    serve.add_argument("--num-shards", type=int, default=1)
    router = sub.add_parser("router")
    router.add_argument("artifacts")
    router.add_argument("--replica", action="append", required=True)
    args = parser.parse_args(argv)

    from repro.net.tcp import ServerRunner

    services, fallback, stats = (
        _serve(args) if args.mode == "serve" else _router(args)
    )
    runner = ServerRunner(services + [BenchControl(stats)], fallback=fallback)
    stop = threading.Event()
    signal.signal(signal.SIGTERM, lambda signum, frame: stop.set())
    runner.start()
    try:
        host, port = runner.address
        print(f"serving on {host}:{port}", flush=True)
        stop.wait()
    finally:
        runner.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
