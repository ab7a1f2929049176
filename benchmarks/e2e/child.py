"""One study of one workload in a fresh process; prints one JSON line.

The runner (``run.py``) starts this file once per repeat.  It pins the BLAS
thread pools, times set-up, runs the unmodified program through
``OnlineStudy.run()``, checks the outputs and reports the end-to-end metrics
(plus, with ``--trace 1``, the merged spans for the per-layer metrics).

Only two one-shot timestamps are taken inside the study, both around public
calls: the entry of ``Launcher.start`` (end of set-up, start of ingest) and
the first ``signal_reception_over`` of every buffer (end of reception).
"""

from __future__ import annotations

import argparse
import faulthandler
import importlib
import json
import math
import os
import resource
import sys
import time
from pathlib import Path
from typing import Dict, List

from bootstrap import prepare_process


def _parse(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--out", type=Path, required=True, help="directory for span files")
    parser.add_argument("--watchdog", type=float, default=90.0,
                        help="dump every thread's traceback and exit after this many seconds")
    return parser.parse_args(argv)


def _install_timestamps(stamps: Dict[str, object]) -> None:
    """One-shot timestamps around two public calls (also in untraced runs)."""
    from repro.buffers.base import TrainingBuffer
    from repro.launcher.launcher import Launcher

    launcher_start = Launcher.start
    reception_over = TrainingBuffer.signal_reception_over
    ends: Dict[int, float] = {}
    stamps["reception_over"] = ends

    def start(self) -> None:
        stamps["launch"] = time.monotonic()
        stamps["launch_cpu_ns"] = time.process_time_ns()
        launcher_start(self)

    def signal_reception_over(self) -> None:
        ends.setdefault(id(self), time.monotonic())
        reception_over(self)

    Launcher.start = start
    TrainingBuffer.signal_reception_over = signal_reception_over


def _check_outputs(workload, result, val_mse: float, untrained_mse: float) -> Dict[str, bool]:
    """Every output check of one study; a false value fails the whole run."""
    server, report = result.server, result.launcher
    stats = server.transport_stats
    expected = workload.unique_samples
    delivered = sum(agg.samples_received for agg in server.aggregator_stats)
    trained_keys = sum(
        sum(metrics.occurrence_histogram.values()) for metrics in server.per_rank_metrics
    )
    steps_ok = sorted(report.per_client_steps) == list(range(workload.num_simulations)) and all(
        steps == workload.num_steps for steps in report.per_client_steps.values()
    )
    return {
        "unique_samples_delivered": delivered == expected,
        "per_client_steps_match_report": steps_ok
        and report.clients_completed == workload.num_simulations
        and report.clients_failed == 0
        and report.total_steps_sent == expected,
        "no_drops": stats.dropped_messages == 0
        and sum(agg.samples_dropped for agg in server.aggregator_stats) == 0,
        "no_torn_batches": stats.torn_batches == 0,
        "no_duplicates": server.duplicates_discarded == 0 and report.restarts == 0,
        "every_sample_trained": trained_keys == expected,
        "val_mse_below_untrained": math.isfinite(val_mse) and val_mse < untrained_mse,
    }


def run_study(args: argparse.Namespace) -> dict:
    prepare_process()  # before numpy is imported, below
    # Third-party libraries are not the program's set-up: load them before
    # the set-up clock starts.  Importing the program itself is on the clock,
    # so work moved to import time shows in setup_s.
    for library in ("numpy", "scipy.sparse.linalg"):
        importlib.import_module(library)
    began = time.monotonic()

    import workloads
    from repro.core.study import OnlineStudy
    from repro.server.validation import Validator

    imported = time.monotonic()
    workload = workloads.WORKLOADS[args.workload]
    if args.smoke:
        workload = workloads.smoke(workload)
    recorder = None
    if args.trace:
        import trace

        recorder = trace.install(f"{workload.name}-{args.seed}-{os.getpid()}", args.out)
    stamps: Dict[str, object] = {}
    _install_timestamps(stamps)

    case_began = time.monotonic()
    case = workload.build_case(args.seed)
    config = workload.build_config(args.seed)
    case_built = time.monotonic()
    validation = case.generate_validation_set(workload.validation_simulations)
    validated = time.monotonic()
    # The untrained model's MSE is the reference of the val_mse check, not
    # part of the program's set-up: its time is taken out of setup_s.
    untrained_mse = float(Validator(validation).evaluate(case.model_factory()))
    check_cost = time.monotonic() - validated

    result = OnlineStudy(case, config, validation=validation).run()

    launch = float(stamps["launch"])
    busy_ns = time.process_time_ns() - int(stamps["launch_cpu_ns"])
    reception_end = max(stamps["reception_over"].values())
    server = result.server
    delivered = sum(agg.samples_received for agg in server.aggregator_stats)
    rss_kib = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
               + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    val_mse = float(server.summary["final_val_mse"])  # the best shard's, when sharded
    checks = _check_outputs(workload, result, val_mse, untrained_mse)
    correct = all(checks.values())
    doc = {
        "workload": workload.name,
        "seed": args.seed,
        "traced": bool(args.trace),
        "correct": correct,
        "checks": checks,
        "produced": workload.unique_samples,
        "failed": 0 if correct else workload.unique_samples,
        "val_mse": val_mse,
        "untrained_mse": untrained_mse,
        "metrics": {
            "study_wall_s": result.total_elapsed,
            "train_samples_per_s": result.total_throughput,
            "ingest_samples_per_s": delivered / (reception_end - launch),
            "setup_s": launch - began - check_cost,
            "peak_rss_mb": rss_kib / 1024.0,
        },
        "setup_parts": {
            "core.setup_import_s": imported - began,
            "core.setup_case_s": case_built - case_began,
            "core.setup_validation_s": validated - case_built,
        },
        "context": {
            "launcher_elapsed_s": result.launcher.elapsed,
            "max_concurrent_clients": config.max_concurrent_clients,
            "server_busy_ns": busy_ns,
            "samples_trained": int(server.summary["total_samples"]),
            "batches_trained": int(server.summary["total_batches"]),
            "unique_samples": workload.unique_samples,
            "bytes_routed": int(server.transport_stats.bytes_routed),
            "dropped": int(server.transport_stats.dropped_messages),
            "torn": int(server.transport_stats.torn_batches),
            "ring_depth_high_water": max(
                server.transport_stats.ring_depth_high_water.values(), default=0
            ),
            "evicted_seen": sum(s.get("evicted_seen", 0) for s in server.buffer_snapshots),
            "samples_per_shard": [agg.samples_received for agg in server.aggregator_stats],
            "batch_size": workload.batch_size,
            "layer_sizes": [case.input_size, *workload.hidden_sizes, case.field_size],
        },
    }
    if recorder is not None:
        import spans

        merged = recorder.merged()
        spans_path = args.out / f"trace-{recorder.run_id}.json"
        spans_path.write_text(json.dumps(merged))
        doc["spans_file"] = str(spans_path)
        doc["layers"] = spans.analyse(merged, doc["context"])
        for name, seconds in doc["setup_parts"].items():
            doc["layers"][name] = {"value": seconds, "n": 1, "tail": None, "tail_label": ""}
    return doc


def main(argv: List[str]) -> int:
    args = _parse(argv)
    # A wedged study must become a failed run, not a stuck benchmark: dump
    # every thread's traceback and exit; the runner then kills the group.
    faulthandler.dump_traceback_later(args.watchdog, exit=True)
    doc = run_study(args)
    faulthandler.cancel_dump_traceback_later()
    print(json.dumps(doc), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
