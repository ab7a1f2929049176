"""End-to-end study benchmark: the one command behind ``BENCHMARK.json``.

    python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1
    python3 benchmarks/e2e/run.py [--repeats R] [--smoke]      # every workload
    python3 benchmarks/e2e/run.py --layers [--workload W]      # each layer alone

This runner is single-threaded and imports neither numpy nor the program:
every study runs in a fresh child process (``child.py``) with the BLAS thread
pools pinned to one thread, under a watchdog that turns a wedged study into a
failed run.  With ``--workload`` it repeats studies of that workload for
``--seconds`` seconds and prints, as its last line, one JSON object with the
medians of the end-to-end metrics (``--trace 0``) or of the per-layer metrics
(``--trace 1``).  Without it, it runs every workload with the repeats
interleaved, then one traced study each, and prints every metric by name.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

from bootstrap import THREAD_ENV

BENCH_DIR = Path(__file__).resolve().parent
SPEC_PATH = BENCH_DIR.parents[1] / "BENCHMARK.json"
#: Span files and other run leftovers, inside the checkout (git-ignored).
OUT_DIR = Path(".bench_out")
#: A study lasts a few seconds; one that has not finished after this long is
#: wedged.  The child dumps its threads' tracebacks at the deadline, the
#: runner kills whatever is left of its process group shortly after.
WATCHDOG_SECONDS = 60.0
SHM_DIR = Path("/dev/shm")


def _shm_segments() -> set:
    return {p.name for p in SHM_DIR.glob("psm_*")} if SHM_DIR.is_dir() else set()


def _group_running(pgid: int) -> bool:
    """Whether any process of the group is still running (a zombie has ended)."""
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue  # the process went away while we were looking
        if int(fields[2]) == pgid and fields[0] != "Z":
            return True
    return False


def _reap_group(pgid: int, deadline: float = 5.0) -> None:
    """Kill what is left of a child's process group and wait until it has ended.

    A study's forked clients have been joined by its launcher; what can be
    left is multiprocessing's resource tracker, or, after the watchdog fired,
    anything at all.
    """
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    end = time.monotonic() + deadline
    while _group_running(pgid) and time.monotonic() < end:
        time.sleep(0.005)


def run_child(script: str, args: List[str]) -> Optional[dict]:
    """Run one child script to completion; ``None`` if it failed or wedged."""
    env = dict(os.environ)
    env.update(dict.fromkeys(THREAD_ENV, "1"))
    segments_before = _shm_segments()
    command = [sys.executable, str(BENCH_DIR / script), *args]
    process = subprocess.Popen(command, stdout=subprocess.PIPE, text=True, env=env,
                               start_new_session=True)
    try:
        stdout, _ = process.communicate(timeout=WATCHDOG_SECONDS + 10.0)
    except subprocess.TimeoutExpired:
        stdout = ""
        print(f"watchdog: {script} {' '.join(args)} wedged, killing its process group",
              file=sys.stderr)
    finally:
        _reap_group(process.pid)
        process.wait()
    lines = stdout.strip().splitlines()
    if process.returncode != 0 or not lines:
        # A killed study cannot unlink its shared-memory ring segment.
        for name in _shm_segments() - segments_before:
            (SHM_DIR / name).unlink(missing_ok=True)
        return None
    return json.loads(lines[-1])


def run_study(workload: str, seed: int, trace: bool, smoke: bool) -> Optional[dict]:
    args = ["--workload", workload, "--seed", str(seed), "--trace", str(int(trace)),
            "--watchdog", str(WATCHDOG_SECONDS), "--out", str(OUT_DIR)]
    return run_child("child.py", args + (["--smoke"] if smoke else []))


# ----------------------------------------------------------------- aggregation
def quartiles(values: List[float]) -> tuple:
    """(q1, median, q3); a single value is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


class Tally:
    """Studies of one workload: metric samples, checks, failures."""

    def __init__(self, name: str) -> None:
        self.name = name
        #: Samples one study produces, learnt from the first that completes.
        self.produced = 1
        self.studies: List[dict] = []
        self.traced: List[dict] = []
        self.attempted = 0
        self.failed = 0
        self.correct = True

    def add(self, study: Optional[dict]) -> None:
        if study is None:  # crashed or killed by the watchdog: all samples failed
            self.attempted += self.produced
            self.failed += self.produced
            self.correct = False
            return
        self.produced = study["produced"]
        self.attempted += study["produced"]
        self.failed += study["failed"]
        self.correct = self.correct and study["correct"]
        if not study["traced"]:
            self.studies.append(study)
            return
        if self.traced:  # keep the spans of the latest traced study only
            Path(self.traced[-1]["spans_file"]).unlink(missing_ok=True)
        self.traced.append(study)

    def end_to_end(self, metric: str) -> List[float]:
        return [s["metrics"][metric] for s in self.studies]

    def trace_overhead_share(self) -> float:
        """(traced - untraced) / untraced study_wall_s, medians of each."""
        if not self.traced or not self.studies:
            return 0.0
        plain = statistics.median(self.end_to_end("study_wall_s"))
        traced = statistics.median(s["metrics"]["study_wall_s"] for s in self.traced)
        return (traced - plain) / plain

    def layer_values(self, spec: dict) -> Dict[str, dict]:
        """Median over the traced studies of every per-layer metric."""
        out = {}
        for entry in spec["per_layer"]:
            name = entry["name"]
            if name == "core.trace_overhead_share":
                value, detail = self.trace_overhead_share(), {}
            else:
                samples = [s["layers"][name] for s in self.traced]
                value = statistics.median(s["value"] for s in samples) if samples else 0.0
                detail = samples[-1] if samples else {}
            out[name] = {"value": value, "unit": entry["unit"], "detail": detail}
        return out


def print_report(tally: Tally, spec: dict, with_layers: bool) -> None:
    print(f"\n== {tally.name}: {len(tally.studies)} untraced + {len(tally.traced)} traced "
          f"studies, attempted {tally.attempted} samples, failed {tally.failed} "
          f"(failed_share {tally.failed / max(tally.attempted, 1):.4f} ratio)")
    for study in tally.studies + tally.traced:
        bad = [name for name, ok in study["checks"].items() if not ok]
        if bad:
            print(f"   CHECK FAILED (seed {study['seed']}): {', '.join(bad)}")
    if tally.studies:
        print(f"   {'end-to-end metric':<24}{'unit':<11}{'median':>14}{'q1':>14}{'q3':>14}{'n':>4}")
        for entry in spec["end_to_end"]:
            values = tally.end_to_end(entry["name"])
            q1, q2, q3 = quartiles(values)
            print(f"   {entry['name']:<24}{entry['unit']:<11}{q2:>14.4f}{q1:>14.4f}{q3:>14.4f}"
                  f"{len(values):>4}")
        mses = [s["val_mse"] for s in tally.studies]
        print(f"   val_mse (check, not gated): median {statistics.median(mses):.1f} "
              f"vs untrained {statistics.median(s['untrained_mse'] for s in tally.studies):.1f}")
    if with_layers and tally.traced:
        print(f"   {'per-layer metric':<40}{'unit':<9}{'median':>14}{'tail':>20}{'n':>8}")
        for name, item in tally.layer_values(spec).items():
            detail = item["detail"]
            tail = ""
            if detail.get("tail") is not None:
                tail = f"{detail['tail_label']} {detail['tail']:.4f}"
            print(f"   {name:<40}{item['unit']:<9}{item['value']:>14.4f}{tail:>20}"
                  f"{detail.get('n', 1):>8}")


# ----------------------------------------------------------------------- modes
def run_one_workload(spec: dict, args: argparse.Namespace) -> int:
    """Driver contract: studies of one workload for ``--seconds`` seconds."""
    tally = Tally(args.workload)
    began = time.monotonic()
    longest = 0.0
    minimum = 2 if args.trace else 3
    index = lost = 0
    while True:
        elapsed = time.monotonic() - began
        # Stop when the next study would end late; a run whose studies wedge
        # (each costs the watchdog's delay) stops as soon as its time is up.
        if elapsed >= args.seconds or (index >= minimum and elapsed + longest > args.seconds):
            break
        # A traced run alternates plain and traced studies, so that the
        # tracing overhead compares studies made under the same conditions.
        traced = bool(args.trace) and index % 2 == 1
        started = time.monotonic()
        study = run_study(args.workload, args.seed * 1000 + index, traced, args.smoke)
        longest = max(longest, time.monotonic() - started)
        tally.add(study)
        index += 1
        lost = lost + 1 if study is None else 0
        if lost >= 3:  # nothing runs (no sources, broken build): give up
            break
    print_report(tally, spec, with_layers=bool(args.trace))
    if not tally.studies or (args.trace and not tally.traced):
        print("no study completed: no result", file=sys.stderr)
        return 1
    if args.trace:
        metrics = {
            name: {"value": item["value"], "unit": item["unit"]}
            for name, item in tally.layer_values(spec).items()
        }
    else:
        metrics = {
            entry["name"]: {"value": statistics.median(tally.end_to_end(entry["name"])),
                            "unit": entry["unit"]}
            for entry in spec["end_to_end"]
        }
    print(json.dumps({"correct": tally.correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


def run_all_workloads(spec: dict, args: argparse.Namespace) -> int:
    """Every workload: repeats interleaved A B C D A B C D, then one traced study each."""
    names = [w["name"] for w in spec["workloads"]]
    tallies = {name: Tally(name) for name in names}
    repeats = 1 if args.smoke else args.repeats
    for repeat in range(repeats + 1):
        for name in names:
            traced = repeat == repeats
            study = run_study(name, args.seed * 1000 + repeat, traced, args.smoke)
            tallies[name].add(study)
    summary = {}
    for name, tally in tallies.items():
        print_report(tally, spec, with_layers=True)
        summary[name] = {
            "correct": tally.correct,
            "attempted": tally.attempted,
            "failed": tally.failed,
            "studies": len(tally.studies),
            "traced_studies": len(tally.traced),
            "spans_files": [s["spans_file"] for s in tally.traced],
        }
    print(json.dumps(summary))
    return 0 if all(t.correct and t.studies and t.traced for t in tallies.values()) else 1


def run_layers(spec: dict, args: argparse.Namespace) -> int:
    """Each layer's public calls alone, uncontended, at each workload's shapes."""
    names = [args.workload] if args.workload else [w["name"] for w in spec["workloads"]]
    status = 0
    for name in names:
        report = run_child("layers.py", ["--workload", name] + (["--smoke"] if args.smoke else []))
        if report is None:
            status = 1
            continue
        print(f"\n== {name}: each layer alone (median per call)")
        for row in report["rows"]:
            print(f"   {row['name']:<44}{row['unit']:<9}{row['value']:>14.4f}{row['n']:>8}")
    return status


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", help="one workload (the driver's form); default: all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="how long to repeat studies of --workload (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeats", type=int, default=5,
                        help="studies per workload when every workload runs")
    parser.add_argument("--smoke", action="store_true", help="toy sizes (tier-1 smoke test)")
    parser.add_argument("--layers", action="store_true", help="drive each layer alone")
    args = parser.parse_args(argv)
    spec = json.loads(SPEC_PATH.read_text())
    known = [w["name"] for w in spec["workloads"]]
    if args.workload is not None and args.workload not in known:
        parser.error(f"unknown workload {args.workload!r} (known: {', '.join(known)})")
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    if args.layers:
        return run_layers(spec, args)
    if args.workload is not None:
        return run_one_workload(spec, args)
    return run_all_workloads(spec, args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
