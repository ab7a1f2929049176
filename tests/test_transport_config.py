"""The consolidated TransportConfig API.

Pins the configuration contract: ``OnlineStudyConfig`` carries exactly one
typed ``TransportConfig`` (the flat ``transport_*``/``ring_*`` aliases are
gone), the backend registry drives ``make_transport``, and the ring geometry
defaults come from one place (``repro.utils.constants``).
"""

import inspect

import pytest

from repro.core.config import OnlineStudyConfig
from repro.parallel.shm_ring import ShmRingTransport
from repro.parallel.transport import (
    MessageRouter,
    ShmOptions,
    TcpOptions,
    TransportConfig,
    available_backends,
    make_transport,
    register_backend,
)
from repro.utils.constants import DEFAULT_RING_SLOT_BYTES, DEFAULT_RING_SLOTS
from repro.utils.exceptions import ConfigurationError


# ----------------------------------------------------------- normalisation
def test_study_config_carries_one_typed_transport_config():
    typed = TransportConfig(
        backend="shm",
        batch_size=6,
        queue_size=512,
        process_timeout=30.0,
        heartbeat_timeout=5.0,
        shm=ShmOptions(ring_slots=8, ring_slot_bytes=4096),
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


def test_shard_overrides_on_top_of_typed_config():
    cfg = TransportConfig(backend="tcp", batch_size=16, tcp=TcpOptions(connect_timeout=3.0))
    resolved = TransportConfig.resolve(cfg, num_shards=2, hash_replicas=8)
    assert resolved.backend == "tcp"
    assert resolved.shard.num_shards == 2 and resolved.shard.hash_replicas == 8
    assert resolved.batch_size == 16
    assert resolved.tcp.connect_timeout == 3.0  # untouched nested options survive
    # No overrides: resolve returns the config unchanged.
    assert TransportConfig.resolve(cfg) is cfg
    study = OnlineStudyConfig(transport=cfg, num_shards=2)
    assert study.num_shards == study.transport_config.shard.num_shards == 2


def test_client_mode_follows_backend():
    assert TransportConfig(backend="inproc").client_mode == "thread"
    for backend in ("mp", "shm", "tcp"):
        assert TransportConfig(backend=backend).client_mode == "process"


# -------------------------------------------------------------- validation
def test_unknown_backend_rejected():
    with pytest.raises(ConfigurationError, match="unknown transport backend"):
        TransportConfig(backend="zmq")
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
    with pytest.raises(ConfigurationError, match="ring_slots"):
        ShmOptions(ring_slots=0)
    with pytest.raises(ConfigurationError, match="ring_slot_bytes"):
        ShmOptions(ring_slot_bytes=-1)
    with pytest.raises(ConfigurationError, match="port"):
        TcpOptions(port=70_000)
    with pytest.raises(ConfigurationError, match="host"):
        TcpOptions(host="")


# ---------------------------------------------------------------- registry
def test_registry_lists_builtin_backends():
    assert set(available_backends()) >= {"inproc", "mp", "shm", "tcp"}


def test_registered_backend_drives_make_transport():
    calls = {}

    def factory(config, num_server_ranks, max_concurrent_clients):
        calls["config"] = config
        calls["ranks"] = num_server_ranks
        calls["clients"] = max_concurrent_clients
        return MessageRouter(num_server_ranks, max_queue_size=config.queue_size)

    register_backend("test-loop", factory, client_mode="thread")
    try:
        transport = make_transport(
            TransportConfig(backend="test-loop", queue_size=7), 3,
            max_concurrent_clients=5,
        )
        assert isinstance(transport, MessageRouter)
        assert calls["config"].queue_size == 7
        assert (calls["ranks"], calls["clients"]) == (3, 5)
        assert TransportConfig(backend="test-loop").client_mode == "thread"
        transport.shutdown()
    finally:
        from repro.parallel.transport import _BACKENDS

        _BACKENDS.pop("test-loop", None)


def test_register_backend_rejects_bad_client_mode():
    with pytest.raises(ValueError, match="client_mode"):
        register_backend("bad", lambda *a: None, client_mode="fiber")


# ------------------------------------------------------ ring single source
def test_ring_geometry_defaults_have_one_source():
    ring_defaults = inspect.signature(ShmRingTransport).parameters
    assert ring_defaults["ring_slots"].default == DEFAULT_RING_SLOTS
    assert ring_defaults["ring_slot_bytes"].default == DEFAULT_RING_SLOT_BYTES
    options = ShmOptions()
    assert options.ring_slots == DEFAULT_RING_SLOTS
    assert options.ring_slot_bytes == DEFAULT_RING_SLOT_BYTES
    cfg = OnlineStudyConfig()
    assert cfg.transport_config.shm == options
