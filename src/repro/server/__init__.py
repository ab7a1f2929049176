"""Server side of the framework: data aggregation, buffering and parallel training.

Each server rank (one per GPU in the paper) runs two threads:

* the **data-aggregator thread** (:class:`DataAggregator`) receives time steps
  from the clients, deduplicates restarted clients' messages and stores
  samples into the rank-local training buffer;
* the **training thread** (:class:`TrainingWorker`) extracts batches from the
  buffer, performs forward/backward passes and synchronises gradients with the
  other ranks (synchronous data-parallel training).

:class:`TrainingServer` wires both together over the transport router and
exposes a single blocking :meth:`TrainingServer.run`.  The tcp front door
(:class:`AsyncFrontDoor`) accepts remote clients and feeds the same
aggregators over sockets.

The package exports lazily (PEP 562): ``repro.server.serving`` must stay
importable from the transport layer without pulling the training stack —
whose modules import ``repro.core``, which imports the study driver, which
imports this package back — into an import cycle.
"""

from importlib import import_module

_EXPORTS = {
    "DataAggregator": "repro.server.aggregator",
    "AggregatorStats": "repro.server.aggregator",
    "MessageLog": "repro.server.fault",
    "HeartbeatMonitor": "repro.server.fault",
    "TrainingWorker": "repro.server.trainer",
    "TrainerConfig": "repro.server.trainer",
    "TrainingServer": "repro.server.server",
    "ServerConfig": "repro.server.server",
    "ServerResult": "repro.server.server",
    "Validator": "repro.server.validation",
    "ValidationSet": "repro.server.validation",
    "sync_gradients": "repro.server.ddp",
    "broadcast_parameters": "repro.server.ddp",
    "AsyncFrontDoor": "repro.server.serving",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(module), name)
    globals()[name] = value  # cache: resolve each export once
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
