"""From the merged spans of one traced study to its per-layer metrics.

Self time is a span's duration minus its children's, for wall-clock and CPU
alike.  CPU a traced thread spends outside every span belongs to the layer
that owns the thread (an aggregator thread's loop, a trainer thread's loop,
the front door's event loop), so each thread's CPU is split over layers
without gaps.  ``README.md`` has the glossary of the names produced here.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Tuple

import numpy as np

#: Layer that owns the CPU a thread spends outside every span, by name prefix.
_THREAD_LAYER = (
    ("aggregator-rank-", "server.aggregator"),
    ("spmd-rank-", "server.trainer"),
    ("repro-tcp-front-door", "server.serving"),
    ("client-series-", "launcher"),
)

#: Layer of a span, by span-name prefix (first match wins).
_SPAN_LAYER = (
    ("solvers.", "solvers"),
    ("client.", "client"),
    ("launcher.", "launcher"),
    ("parallel.", "parallel"),
    ("buffers.put_many", "buffers.put"),
    ("buffers.get", "buffers.get"),
    ("nn.", "nn"),
    ("server.validation", "server.trainer"),
    ("server.sharding.", "server.sharding"),
    ("server.serving", "server.serving"),
    ("core.", "core"),
)

_PACK_SPANS = ("parallel.plan_many", "parallel.write_into", "parallel.pack_many",
               "parallel.pack_many_into")
_UNPACK_SPANS = ("parallel.unpack_columns", "parallel.unpack_many")


def _layer_of(name: str, table: tuple) -> str:
    for prefix, layer in table:
        if name.startswith(prefix):
            return layer
    return "core"


def summarise(values, scale: float = 1.0) -> dict:
    """Median plus the tail the sample supports: p99 from 1000 samples on,
    otherwise the highest percentile with ten samples beyond it."""
    data = np.sort(np.asarray(values, dtype=np.float64)) * scale
    n = int(data.size)
    if n == 0:
        return {"value": 0.0, "n": 0, "tail": None, "tail_label": ""}
    out = {"value": float(np.median(data)), "n": n, "tail": None, "tail_label": ""}
    if n >= 1000:
        out["tail"], out["tail_label"] = float(data[int(0.99 * (n - 1))]), "p99"
    elif n > 20:
        out["tail"] = float(data[n - 11])
        out["tail_label"] = f"p{100.0 * (n - 10) / n:.0f}"
    return out


def _scalar(value: float, n: int = 1) -> dict:
    return {"value": float(value), "n": int(n), "tail": None, "tail_label": ""}


class _Thread:
    """Column view of one thread's spans with self times."""

    def __init__(self, process: dict, thread: dict, names: List[str]) -> None:
        self.role = process["role"]
        self.name = thread["name"]
        # A span still open when the spans were written has name -1 and zero
        # length: it stays in place (parent indices refer to positions).
        rows = np.asarray(thread["spans"], dtype=np.int64).reshape(-1, 7)
        self.name_id, self.t0, self.t1, self.c0, self.c1, self.parent, self.count = rows.T
        self.wall = self.t1 - self.t0
        self.cpu = self.c1 - self.c0
        nested = self.parent >= 0
        child_wall = np.zeros(len(rows), dtype=np.int64)
        child_cpu = np.zeros(len(rows), dtype=np.int64)
        np.add.at(child_wall, self.parent[nested], self.wall[nested])
        np.add.at(child_cpu, self.parent[nested], self.cpu[nested])
        self.self_wall = self.wall - child_wall
        self.self_cpu = self.cpu - child_cpu
        self._name_ids = {name: index for index, name in enumerate(names)}
        # Outermost span of a same-name nest (an override calling its base).
        parent_name = np.where(nested, self.name_id[np.where(nested, self.parent, 0)], -2)
        self.outermost = parent_name != self.name_id

    def mask(self, *span_names: str) -> np.ndarray:
        ids = [self._name_ids[name] for name in span_names if name in self._name_ids]
        return np.isin(self.name_id, ids)

    def outside_cpu(self) -> int:
        """CPU between the first and the last span that no span covers."""
        done = self.name_id >= 0
        if not done.any():
            return 0
        top = done & (self.parent < 0)
        return int(self.c1[done].max() - self.c0[done].min() - self.cpu[top].sum())

    def enclosed_by(self, outer: np.ndarray, inner: np.ndarray, values: np.ndarray) -> np.ndarray:
        """Sum ``values`` of ``inner`` spans per enclosing ``outer`` span."""
        root = np.full(len(self.parent), -1, dtype=np.int64)
        for index, parent in enumerate(self.parent.tolist()):
            if parent >= 0 and root[parent] >= 0:
                root[index] = root[parent]
            elif outer[index]:
                root[index] = index
        totals = np.zeros(len(self.parent), dtype=np.int64)
        inside = inner & (root >= 0)
        np.add.at(totals, root[inside], values[inside])
        return totals[outer & (root == np.arange(len(root)))]


def _loop_gaps(thread: _Thread, anchor: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Wall-clock between consecutive ``anchor`` spans of a thread's loop, and
    the part of each gap that other top-level spans cover."""
    index = np.flatnonzero(anchor & (thread.parent < 0))
    if len(index) < 2:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    gaps = thread.t0[index[1:]] - thread.t1[index[:-1]]
    other = np.flatnonzero(~anchor & (thread.parent < 0))
    covered = np.zeros(len(gaps), dtype=np.int64)
    slot = np.searchsorted(thread.t0[index], thread.t0[other], side="right") - 1
    inside = (slot >= 0) & (slot < len(gaps))
    np.add.at(covered, slot[inside], thread.wall[other[inside]])
    return gaps, covered


def analyse(doc: dict, ctx: dict) -> Dict[str, dict]:
    """Per-layer metrics of one traced study (``ctx`` is the child's context)."""
    names = doc["names"]
    threads = [
        _Thread(process, thread, names)
        for process in doc["processes"]
        for thread in process["threads"]
        if thread["spans"]
    ]
    out: Dict[str, dict] = {}

    def durations(*span_names: str, field: str = "wall", thread_prefix: str = ""):
        parts = [
            getattr(t, field)[t.mask(*span_names) & t.outermost]
            for t in threads if t.name.startswith(thread_prefix)
        ]
        return np.concatenate(parts) if parts else np.zeros(0, dtype=np.int64)

    # ------------------------------------------------------------ solvers/client
    # Steps driven by a client only: set-up also steps a solver, for the
    # validation set, outside any client.run span.
    steps = np.concatenate(
        [t.wall[t.mask("solvers.step") & (t.parent >= 0)] for t in threads]
    )
    out["solvers.step_ms"] = summarise(steps, 1e-6)
    out["solvers.steps"] = _scalar(len(steps))
    out["client.send_us"] = summarise(durations("client.send"), 1e-3)
    client_run = durations("client.run")
    launcher_window = ctx["launcher_elapsed_s"] * 1e9 * ctx["max_concurrent_clients"]
    out["launcher.overhead_share"] = _scalar(1.0 - client_run.sum() / launcher_window,
                                             len(client_run))

    # ------------------------------------------------------------------ parallel
    pack, unpack, push, poll, poll_counts = [], [], [], [], []
    for t in threads:
        is_push = t.mask("parallel.push") & t.outermost
        if is_push.any():
            push.append(t.wall[is_push])
            pack.append(t.enclosed_by(is_push, t.mask(*_PACK_SPANS), t.self_wall))
        is_poll = t.mask("parallel.poll") & t.outermost
        if is_poll.any():
            poll.append(t.wall[is_poll])
            poll_counts.append(t.count[is_poll])
        unpack.append(t.wall[t.mask(*_UNPACK_SPANS) & t.outermost])
    pack_ns = np.concatenate(pack) if pack else np.zeros(0)
    poll_ns = np.concatenate(poll) if poll else np.zeros(0)
    delivered = np.concatenate(poll_counts) if poll_counts else np.zeros(0)
    out["parallel.pack_us_per_batch"] = summarise(pack_ns[pack_ns > 0], 1e-3)
    out["parallel.unpack_us_per_batch"] = summarise(np.concatenate(unpack), 1e-3)
    out["parallel.bytes_moved"] = _scalar(ctx["bytes_routed"])
    out["parallel.push_us_per_batch"] = summarise(np.concatenate(push) if push else [], 1e-3)
    out["parallel.poll_us_per_batch"] = summarise(poll_ns[delivered > 0], 1e-3)
    out["parallel.poll_empty_share"] = _scalar(
        float((delivered == 0).mean()) if len(delivered) else 0.0, len(delivered)
    )
    out["parallel.ring_depth_high_water"] = _scalar(ctx["ring_depth_high_water"])
    out["parallel.dropped"] = _scalar(ctx["dropped"])
    out["parallel.torn"] = _scalar(ctx["torn"])

    # ---------------------------------------------------------------- aggregator
    aggregator_self = 0
    for t in threads:
        if t.name.startswith("aggregator-rank-"):
            gaps, covered = _loop_gaps(t, t.mask("parallel.poll"))
            aggregator_self += int(gaps.sum() - covered.sum())
    out["server.aggregator.self_us_per_sample"] = _scalar(
        aggregator_self * 1e-3 / ctx["unique_samples"], ctx["unique_samples"]
    )

    # ------------------------------------------------------------------- buffers
    put_wall = sum(int(t.wall[t.mask("buffers.put_many")].sum()) for t in threads)
    put_count = sum(int(t.count[t.mask("buffers.put_many")].sum()) for t in threads)
    out["buffers.put_us_per_sample"] = _scalar(put_wall * 1e-3 / max(put_count, 1), put_count)
    out["buffers.get_us_per_batch"] = summarise(durations("buffers.get"), 1e-3)
    out["buffers.repeat_ratio"] = _scalar(ctx["samples_trained"] / ctx["unique_samples"])
    out["buffers.evicted_seen"] = _scalar(ctx["evicted_seen"])

    # ------------------------------------------------------------------- trainer
    trainer_wall = trainer_wait = 0
    loop_self: List[np.ndarray] = []
    for t in threads:
        if not t.name.startswith("spmd-rank-"):
            continue
        is_get = t.mask("buffers.get")
        gaps, covered = _loop_gaps(t, is_get)
        loop_self.append(gaps - covered)
        trainer_wall += int(t.t1.max() - t.t0.min())
        trainer_wait += int(t.wall[is_get].sum())
    out["server.trainer.data_wait_share"] = _scalar(trainer_wait / max(trainer_wall, 1))
    out["server.trainer.self_ms_per_batch"] = summarise(
        np.concatenate(loop_self) if loop_self else [], 1e-6
    )

    # ------------------------------------------------------------------------ nn
    # Trainer threads only: the validation passes also call forward.
    for part in ("forward", "backward", "optim"):
        out[f"nn.{part}_ms"] = summarise(
            durations(f"nn.{part}", thread_prefix="spmd-rank-"), 1e-6
        )
    sizes = ctx["layer_sizes"]
    weights = sum(a * b for a, b in zip(sizes[:-1], sizes[1:], strict=True))
    # Computed, not measured: three GEMMs of 2*B*in*out flops per Linear
    # layer (forward, weight gradient, input gradient).
    out["nn.flops_per_batch"] = _scalar(6 * ctx["batch_size"] * weights)

    # ------------------------------------------------------------------ sharding
    out["server.sharding.route_us"] = summarise(durations("server.sharding.route"), 1e-3)
    per_shard = ctx["samples_per_shard"]
    skew = max(per_shard) / max(min(per_shard), 1) if len(per_shard) > 1 else 1.0
    out["server.sharding.load_skew"] = _scalar(skew, len(per_shard))

    # --------------------------------------------------------------------- setup
    for key in ("core.setup_transport", "core.setup_server"):
        out[f"{key}_s"] = _scalar(durations(key, field="self_wall").sum() * 1e-9)

    # ---------------------------------------------------------------- CPU shares
    server_cpu: Dict[str, int] = defaultdict(int)
    all_cpu: Dict[str, int] = defaultdict(int)
    for t in threads:
        per_layer: Dict[str, int] = defaultdict(int)
        for name_id in np.unique(t.name_id[t.name_id >= 0]).tolist():
            layer = _layer_of(names[name_id], _SPAN_LAYER)
            per_layer[layer] += int(t.self_cpu[t.name_id == name_id].sum())
        per_layer[_layer_of(t.name, _THREAD_LAYER)] += t.outside_cpu()
        for layer, cpu_ns in per_layer.items():
            all_cpu[layer] += cpu_ns
            if t.role == "server":
                server_cpu[layer] += cpu_ns
    server_busy = max(int(ctx["server_busy_ns"]), 1)
    total_cpu = server_busy + sum(
        int(p["cpu_ns"]) for p in doc["processes"] if p["role"] == "client"
    )
    for layer in ("nn", "server.trainer", "parallel", "server.aggregator",
                  "buffers.put", "buffers.get", "server.serving"):
        out[f"{layer}.server_cpu_share"] = _scalar(server_cpu[layer] / server_busy)
    for layer in ("solvers", "client"):
        out[f"{layer}.cpu_share"] = _scalar(all_cpu[layer] / total_cpu)
    return out
