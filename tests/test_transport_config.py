"""The consolidated TransportConfig API.

Pins the configuration contract: ``OnlineStudyConfig`` carries exactly one
typed ``TransportConfig`` (the flat ``transport_*``/``ring_*`` aliases are
gone), ``make_transport`` builds exactly the four named backends, and the
ring geometry comes from one place (``repro.parallel.shm_ring``).
"""

import pytest

from repro.core.config import OnlineStudyConfig
from repro.parallel.mp_transport import MultiprocessTransport
from repro.parallel import shm_ring
from repro.parallel.shm_ring import ShmRingTransport
from repro.parallel.tcp_transport import TcpTransport
from repro.parallel.transport import (
    BACKENDS,
    MessageRouter,
    ShardOptions,
    TcpOptions,
    TransportConfig,
    make_transport,
)
from repro.utils.exceptions import ConfigurationError


# ----------------------------------------------------------- normalisation
def test_study_config_carries_one_typed_transport_config():
    typed = TransportConfig(
        backend="shm",
        batch_size=6,
        queue_size=512,
        process_timeout=30.0,
        heartbeat_timeout=5.0,
    )
    cfg = OnlineStudyConfig(transport=typed)
    # ``transport`` collapses to the backend name; the knobs live on the
    # typed object only.
    assert cfg.transport == "shm"
    assert cfg.transport_config == typed
    for flat in ("transport_batch_size", "transport_queue_size", "ring_slots",
                 "ring_slot_bytes", "client_process_timeout", "client_heartbeat_timeout"):
        assert not hasattr(cfg, flat)
        with pytest.raises(TypeError):
            OnlineStudyConfig(transport="shm", **{flat: 4})


def test_plain_backend_string_uses_defaults():
    cfg = OnlineStudyConfig(transport="inproc")
    assert cfg.transport == "inproc"
    assert cfg.transport_config == TransportConfig()
    assert cfg.transport_config.batch_size == 1
    assert cfg.transport_config.queue_size == 100_000
    assert cfg.transport_config.heartbeat_timeout is None


def test_resolve_returns_a_typed_config_unchanged():
    cfg = TransportConfig(backend="tcp", batch_size=16, tcp=TcpOptions(port=5601))
    assert TransportConfig.resolve(cfg) is cfg
    assert TransportConfig.resolve("tcp") == TransportConfig(backend="tcp")


def test_client_mode_follows_backend():
    assert TransportConfig(backend="inproc").client_mode == "thread"
    for backend in ("mp", "shm", "tcp"):
        assert TransportConfig(backend=backend).client_mode == "process"


# -------------------------------------------------------------- validation
def test_unknown_backend_rejected():
    with pytest.raises(ConfigurationError, match="unknown transport backend"):
        TransportConfig(backend="zmq")
    with pytest.raises(ConfigurationError, match="one of: inproc, mp, shm, tcp"):
        make_transport("test-loop", 1)
    with pytest.raises(ConfigurationError):
        OnlineStudyConfig(transport="zmq")


@pytest.mark.parametrize(
    "kwargs",
    [
        {"batch_size": 0},
        {"queue_size": -1},
        {"process_timeout": 0.0},
        {"heartbeat_timeout": -2.0},
    ],
)
def test_invalid_transport_config_fields_rejected(kwargs):
    with pytest.raises(ConfigurationError):
        TransportConfig(**kwargs)


def test_invalid_nested_options_rejected():
    with pytest.raises(ConfigurationError, match="port"):
        TcpOptions(port=70_000)
    with pytest.raises(ConfigurationError, match="host"):
        TcpOptions(host="")
    # Shards share the tcp options, so a fixed port would be bound twice.
    with pytest.raises(ConfigurationError, match="leave tcp.port at 0"):
        TransportConfig(backend="tcp", tcp=TcpOptions(port=5601),
                        shard=ShardOptions(num_shards=2))


# ---------------------------------------------------------------- backends
@pytest.mark.parametrize(
    "backend, cls, client_mode",
    [
        ("inproc", MessageRouter, "thread"),
        ("mp", MultiprocessTransport, "process"),
        ("shm", ShmRingTransport, "process"),
        ("tcp", TcpTransport, "process"),
    ],
    ids=BACKENDS,
)
def test_make_transport_builds_each_of_the_four_backends(backend, cls, client_mode):
    assert backend in BACKENDS and len(BACKENDS) == 4
    config = TransportConfig(backend=backend, queue_size=7)
    assert config.client_mode == client_mode
    transport = make_transport(config, 3, max_concurrent_clients=5)
    try:
        assert type(transport) is cls
        assert transport.num_server_ranks == 3
    finally:
        transport.shutdown()


# ------------------------------------------------------ ring single source
def test_ring_geometry_defaults_have_one_source():
    # A study's shm transport is built with the backend module's geometry.
    transport = make_transport(TransportConfig(backend="shm"), 1, max_concurrent_clients=1)
    try:
        assert transport.ring_slots == shm_ring.DEFAULT_RING_SLOTS
        assert transport.ring_slot_bytes == shm_ring.DEFAULT_RING_SLOT_BYTES
    finally:
        transport.shutdown()
