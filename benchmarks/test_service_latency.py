"""Service round-trip latency microbenchmarks (pytest-benchmark).

Engineering numbers for the daemon, not a paper table: the full wire
round-trip cost — client encode, RF01 framing, socket hop, queue,
executor, reply — for a fast stream codec (gzipish: the floor set by
the service machinery itself), a warm SAMC compress (the registry-hit
path every steady-state request takes), and the ``stats`` endpoint.
Each benchmark talks to one in-process daemon over a real socket.
"""

import pytest

from repro.service import ServerThread, ServiceClient, ServiceConfig
from repro.service.server import SERVICE_STATS_VERSION
from repro.workloads.suite import generate_benchmark


@pytest.fixture(scope="module")
def code() -> bytes:
    return generate_benchmark("compress", "mips", scale=0.3, seed=1).code


@pytest.fixture(scope="module")
def service():
    with ServerThread(ServiceConfig(port=0)) as address:
        yield address


@pytest.fixture(scope="module")
def client(service):
    with ServiceClient(*service) as c:
        yield c


@pytest.mark.benchmark(group="service-roundtrip")
def test_gzipish_roundtrip_latency(benchmark, client, code):
    benchmark.extra_info["bytes"] = len(code)
    blob = benchmark(client.compress, "gzipish", code)
    assert blob


@pytest.mark.benchmark(group="service-roundtrip")
def test_samc_warm_compress_latency(benchmark, client, code):
    # First call trains and fills the registry; the timed calls are
    # all registry hits — the steady-state service path.
    client.compress("samc-bytes", code)
    benchmark.extra_info["bytes"] = len(code)
    blob = benchmark(client.compress, "samc-bytes", code)
    assert blob


@pytest.mark.benchmark(group="service-roundtrip")
def test_samc_decompress_latency(benchmark, client, code):
    blob = client.compress("samc-bytes", code)
    benchmark.extra_info["bytes"] = len(code)
    assert benchmark(client.decompress, "samc-bytes", blob) == code


@pytest.mark.benchmark(group="service-roundtrip")
def test_stats_endpoint_latency(benchmark, client):
    doc = benchmark(client.stats)
    assert doc["schema_version"] == SERVICE_STATS_VERSION
