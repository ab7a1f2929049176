"""Span tracing for the benchmark's traced run, installed from outside ``src/``.

``install`` wraps exactly the public callables at the layer boundaries named
in ``README.md`` (solver step, client send, pack/unpack, transport push/poll,
buffer put/get, nn forward/backward/step, ring lookup).  A span is
``[name, start_ns, end_ns, cpu_start_ns, cpu_end_ns, parent, count]``:
wall-clock from ``perf_counter_ns`` (one clock for every process of the
host), CPU from ``thread_time_ns`` so waiting can be told from work, ``parent``
the index of the enclosing span on the same thread (-1 at top level) and
``count`` the work done at the boundary (messages, samples or bytes).

Spans stay in per-thread lists in memory; the server process writes them when
the run ends, a forked client flushes its own to a per-pid file when
``SimulationClient.run`` returns and the parent merges those files.  Nothing
under ``src/`` changes — tracing inside the program is a later issue.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
import threading
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional


# The ``count`` of a span, from ``(args, result)`` of the wrapped call.
def _one(args: tuple, result: object) -> int:
    return 1


def _result(args: tuple, result: object) -> int:
    return int(result)


def _result_len(args: tuple, result: object) -> int:
    return len(result)


def _buffer_bytes(args: tuple, result: object) -> int:
    return memoryview(args[0]).nbytes


def _plan_bytes(args: tuple, result: object) -> int:
    return int(result.nbytes)


def _batch_len(args: tuple, result: object) -> int:
    return len(args[2]) if len(args) > 2 else 0  # (self, rank, messages)


def _delivered(args: tuple, result: list) -> int:
    """Messages delivered by one poll: a columnar chunk counts its samples."""
    return sum(len(item) if hasattr(item, "source_ids") else 1 for item in result)


#: In place of a counter: the target is a generator function (one span per
#: produced item) / ``SimulationClient.run`` (a forked client flushes after it).
GENERATOR = "generator"
CLIENT_RUN = "client-run"

#: (module, class or None, attribute, span name, counter or wrapper kind).
#: ``None`` records no count.
_TARGETS = (
    ("repro.solvers.heat2d", "HeatEquationSolver", "iter_steps", "solvers.step", GENERATOR),
    ("loadgen", "ReplaySolver", "iter_steps", "solvers.step", GENERATOR),
    ("repro.client.api", "ClientAPI", "send", "client.send", None),
    ("repro.client.simulation_client", "SimulationClient", "run", "client.run", CLIENT_RUN),
    ("repro.launcher.launcher", "Launcher", "start", "launcher.start", None),
    ("repro.launcher.launcher", "Launcher", "join", "launcher.join", None),
    ("repro.parallel.messages", None, "plan_many", "parallel.plan_many", _plan_bytes),
    ("repro.parallel.messages", "BatchPlan", "write_into", "parallel.write_into", _result),
    ("repro.parallel.messages", None, "pack_many_into", "parallel.pack_many_into", _result),
    ("repro.parallel.messages", None, "pack_many", "parallel.pack_many", _result_len),
    ("repro.parallel.messages", None, "unpack_columns", "parallel.unpack_columns", _buffer_bytes),
    ("repro.parallel.messages", None, "unpack_many", "parallel.unpack_many", _buffer_bytes),
    ("repro.buffers.base", "TrainingBuffer", "put_many", "buffers.put_many", _result),
    ("repro.buffers.base", "TrainingBuffer", "get_batch_columns", "buffers.get", _result_len),
    ("repro.nn.containers", "Sequential", "forward", "nn.forward", None),
    ("repro.nn.containers", "Sequential", "backward", "nn.backward", None),
    ("repro.nn.module", "Module", "zero_grad", "nn.zero_grad", None),
    ("repro.nn.losses", "MSELoss", "forward", "nn.loss", None),
    ("repro.nn.losses", "MSELoss", "backward", "nn.loss", None),
    ("repro.nn.optim", "Adam", "step", "nn.optim", None),
    ("repro.nn.schedulers", "LRScheduler", "step", "nn.lr_schedule", None),
    ("repro.server.validation", "Validator", "evaluate", "server.validation", None),
    ("repro.server.sharding", "HashRing", "shard_for", "server.sharding.route", None),
    ("repro.server.sharding", "ShardedTransport", "connect", "server.sharding.connect", None),
    ("repro.parallel.tcp_transport", "TcpTransport", "try_enqueue", "server.serving", None),
    ("repro.parallel.transport", None, "make_transport", "core.setup_transport", None),
    ("repro.server.sharding", "ShardManager", "__init__", "core.setup_transport", None),
    ("repro.server.server", "TrainingServer", "__init__", "core.setup_server", None),
)

#: Transport classes whose own ``push``/``push_many``/``poll_batches``
#: definitions are wrapped (an override and the base it delegates to both get
#: a span; the analysis reads the outermost one).
_TRANSPORT_CLASSES = (
    ("repro.parallel.transport", "Transport"),
    ("repro.parallel.transport", "PackedDrainMixin"),
    ("repro.parallel.transport", "MessageRouter"),
    ("repro.parallel.mp_transport", "MultiprocessTransport"),
    ("repro.parallel.shm_ring", "ShmRingTransport"),
    ("repro.parallel.tcp_transport", "TcpTransport"),
)
_TRANSPORT_METHODS = (
    ("push", "parallel.push", _one),
    ("push_many", "parallel.push", _batch_len),
    ("poll_batches", "parallel.poll", _delivered),
)


#: Placeholder of a span still open when the spans were written (name -1).
_UNFINISHED = (-1, 0, 0, 0, 0, -1, 0)


class Recorder:
    """In-memory span store of one process of one run."""

    def __init__(self, run_id: str, out_dir: Path) -> None:
        self.run_id = run_id
        self.out_dir = Path(out_dir)
        self.server_pid = os.getpid()
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: List[dict] = []
        os.register_at_fork(after_in_child=self._after_fork_in_child)

    # ------------------------------------------------------------ thread state
    def _thread_state(self) -> tuple:
        """This thread's ``(spans, stack)``, created on its first span."""
        try:
            return self._local.state
        except AttributeError:
            return self._new_thread_state()

    def _new_thread_state(self) -> tuple:
        thread = threading.current_thread()
        state: tuple = ([], [])
        entry = {"name": thread.name, "ident": thread.ident, "spans": state[0]}
        with self._lock:
            self._threads.append(entry)
        self._local.state = state
        return state

    def _after_fork_in_child(self) -> None:
        """A forked client starts with no spans and a lock nobody holds."""
        self._lock = threading.Lock()
        with self._lock:
            self._threads = []
        self._new_thread_state()

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    # ---------------------------------------------------------------- wrappers
    def wrap(self, name: str, fn: Callable, counter: Optional[Callable] = None) -> Callable:
        """``fn`` with one span per call; ``counter(args, result)`` is its count."""
        name_id = self.name_id(name)
        state_of = self._thread_state
        perf, cpu = time.perf_counter_ns, time.thread_time_ns

        def traced(*args, **kwargs):
            spans, stack = state_of()
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(index)
            count = 0
            c0 = cpu()
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
                if counter is not None:
                    count = counter(args, result)
                return result
            finally:
                t1 = perf()
                c1 = cpu()
                stack.pop()
                spans[index] = (name_id, t0, t1, c0, c1, parent, count)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = fn.__doc__
        return traced

    def wrap_generator(self, name: str, fn: Callable) -> Callable:
        """``fn`` (a generator function) with one span per produced item."""
        name_id = self.name_id(name)
        state_of = self._thread_state
        perf, cpu = time.perf_counter_ns, time.thread_time_ns

        def traced(*args, **kwargs):
            iterator = fn(*args, **kwargs)
            while True:
                spans, stack = state_of()
                parent = stack[-1] if stack else -1
                c0 = cpu()
                t0 = perf()
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                t1 = perf()
                spans.append((name_id, t0, t1, c0, cpu(), parent, 1))
                yield item

        traced.__wrapped__ = fn
        return traced

    def wrap_client_run(self, name: str, fn: Callable) -> Callable:
        """``SimulationClient.run`` span; a forked client then flushes its spans."""
        traced = self.wrap(name, fn)

        def traced_run(*args, **kwargs):
            try:
                return traced(*args, **kwargs)
            finally:
                if os.getpid() != self.server_pid:
                    self.flush_client()

        traced_run.__wrapped__ = fn
        return traced_run

    # ------------------------------------------------------------------ output
    def _process_doc(self, role: str) -> dict:
        with self._lock:
            threads = [
                {"name": t["name"], "ident": t["ident"],
                 "spans": [s if s is not None else _UNFINISHED for s in t["spans"]]}
                for t in self._threads
            ]
        return {
            "pid": os.getpid(),
            "role": role,
            "cpu_ns": time.process_time_ns(),
            "threads": threads,
        }

    def client_file(self, pid: int) -> Path:
        return self.out_dir / f"spans-{self.run_id}-{pid}.json"

    def flush_client(self) -> None:
        """Write this forked client's spans to its per-pid file."""
        doc = self._process_doc("client")
        self.client_file(os.getpid()).write_text(json.dumps(doc))

    def merged(self) -> dict:
        """This (server) process's spans plus every flushed client file."""
        processes = [self._process_doc("server")]
        for path in sorted(self.out_dir.glob(f"spans-{self.run_id}-*.json")):
            processes.append(json.loads(path.read_text()))
            path.unlink()
        return {"run_id": self.run_id, "names": list(self.names), "processes": processes}


def _replace_everywhere(original: object, replacement: object, attribute: str) -> None:
    """Rebind a module-level function in every ``repro`` module that imported it."""
    for module_name, module in list(sys.modules.items()):
        if module is None or not module_name.startswith("repro"):
            continue
        if getattr(module, attribute, None) is original:
            setattr(module, attribute, replacement)


def install(run_id: str, out_dir: Path) -> Recorder:
    """Wrap the layer boundaries; returns the recorder that owns the spans."""
    out_dir.mkdir(parents=True, exist_ok=True)
    recorder = Recorder(run_id, out_dir)
    for module_name, class_name, attribute, span_name, counter in _TARGETS:
        module = importlib.import_module(module_name)
        owner = module if class_name is None else getattr(module, class_name)
        original = owner.__dict__[attribute] if class_name else getattr(module, attribute)
        if counter == GENERATOR:
            wrapped = recorder.wrap_generator(span_name, original)
        elif counter == CLIENT_RUN:
            wrapped = recorder.wrap_client_run(span_name, original)
        else:
            wrapped = recorder.wrap(span_name, original, counter)
        if class_name is None:
            _replace_everywhere(original, wrapped, attribute)
        else:
            setattr(owner, attribute, wrapped)
    for module_name, class_name in _TRANSPORT_CLASSES:
        owner = getattr(importlib.import_module(module_name), class_name)
        for attribute, span_name, counter in _TRANSPORT_METHODS:
            if attribute in owner.__dict__:
                setattr(owner, attribute,
                        recorder.wrap(span_name, owner.__dict__[attribute], counter))
    return recorder
