"""Compilation-as-a-service: the ``repro-mimd serve`` daemon.

The batch layers (pipeline, two-tier cache, obs, chaos) compile one
program per process invocation; this package restructures them behind
a long-lived service boundary so repeated loop invocations amortize
scheduling cost the way speculative-DOACROSS runtimes do:

* :mod:`repro.serve.protocol` — the HTTP/JSON request/response shapes
  and their mapping onto :class:`~repro.pipeline.context.
  CompilationContext` + :class:`~repro.pipeline.manager.PassManager`;
* :mod:`repro.serve.service` — :class:`CompileService`, the
  transport-independent core: admission control, request-level
  single-flight coalescing, response caching in the
  :class:`~repro.runner.diskcache.TieredCache`, per-client metrics,
  a pool of forked compile worker processes, and worker-crash
  requeue;
* :mod:`repro.serve.server` — a stdlib-asyncio HTTP/1.1 server over
  the service, with per-pass progress streaming and graceful
  shutdown;
* :mod:`repro.serve.client` — blocking and asyncio clients used by
  the tests, the CI smoke job and ``benchmarks/bench_serve.py``.

Request lifecycle (DESIGN.md §11)::

    admission (chain key, queue room) -> single flight per key
        -> warm hit:   answered straight from the TieredCache
        -> coalesced:  await the in-flight leader
        -> miss:       pipeline runs in a forked compile worker
                       process, progress events stream back pass by
                       pass; a crashed worker re-queues the request
"""

from repro.serve.client import AsyncConnection, request_json
from repro.serve.protocol import (
    PROTOCOL_VERSION,
    CompileRequest,
    build_context,
    parse_request,
    result_payload,
)
from repro.serve.server import ServeServer, start_in_thread
from repro.serve.service import CompileService, ServeConfig

__all__ = [
    "AsyncConnection",
    "CompileRequest",
    "CompileService",
    "PROTOCOL_VERSION",
    "ServeConfig",
    "ServeServer",
    "build_context",
    "parse_request",
    "request_json",
    "result_payload",
    "start_in_thread",
]
