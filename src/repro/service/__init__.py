"""Compression-as-a-service: async daemon, clients, loadgen, fuzzing.

The service layer turns the repo's codecs into a long-lived daemon
(``python -m repro serve``) speaking a length-prefixed, RF01-framed
binary protocol, with a warm SAMC model registry so the semiadaptive
training pass is amortised across requests.  Companions: a blocking and
an asyncio client, a paced mixed-workload load generator with one typed
outcome per request (``python -m repro loadgen``), a wire-protocol
fuzzer (``python -m repro fuzz --target service``), a seeded TCP fault
proxy (:mod:`repro.service.chaos`), and the chaos soak driver
(``python -m repro soak``).  Retry policies and the circuit breaker
live in :mod:`repro.resilience.retry`, the repo's one backoff policy.
"""

from repro.service.chaos import ChaosProxy, FaultPlan
from repro.service.client import (
    AsyncServiceClient,
    ServiceClient,
    ServiceError,
    wait_for_service,
)
from repro.service.codecs import ServiceCodec, build_codecs
from repro.service.fuzz import ServiceFuzzReport, run_service_fuzz
from repro.service.loadgen import (
    LoadgenReport,
    build_workload,
    find_saturation,
    run_loadgen,
    run_loadgen_async,
)
from repro.service.protocol import (
    DEFAULT_MAX_MESSAGE,
    DEFAULT_PORT,
    OP_COMPRESS,
    OP_DECOMPRESS,
    OP_HEALTH,
    OP_STATS,
    Request,
    Response,
    STATUS_BUSY,
    STATUS_DEADLINE,
    STATUS_ERROR,
    STATUS_OK,
    WireError,
)
from repro.service.registry import WarmModelRegistry
from repro.service.server import CodecService, ServerThread, ServiceConfig
from repro.service.soak import SoakReport, run_soak

__all__ = [
    "AsyncServiceClient",
    "ChaosProxy",
    "CodecService",
    "DEFAULT_MAX_MESSAGE",
    "DEFAULT_PORT",
    "FaultPlan",
    "LoadgenReport",
    "OP_COMPRESS",
    "OP_DECOMPRESS",
    "OP_HEALTH",
    "OP_STATS",
    "Request",
    "Response",
    "STATUS_BUSY",
    "STATUS_DEADLINE",
    "STATUS_ERROR",
    "STATUS_OK",
    "ServerThread",
    "ServiceClient",
    "ServiceCodec",
    "ServiceConfig",
    "ServiceError",
    "ServiceFuzzReport",
    "SoakReport",
    "WarmModelRegistry",
    "WireError",
    "build_codecs",
    "build_workload",
    "find_saturation",
    "run_loadgen",
    "run_loadgen_async",
    "run_service_fuzz",
    "run_soak",
    "wait_for_service",
]
