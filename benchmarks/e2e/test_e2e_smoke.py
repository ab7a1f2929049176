"""Tier-1 smoke test of the end-to-end benchmark (toy sizes, a few seconds).

Runs the benchmark command with ``--smoke`` in a subprocess on all four
workloads and asserts that every metric of ``BENCHMARK.json`` is printed with
its unit, that every output check passes, and that the traced studies leave
well-formed spans.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())


def test_smoke_run_prints_every_metric_and_traces(tmp_path):
    command = [sys.executable, str(REPO_ROOT / SPEC["command"][1]), "--smoke", "--seed", "3"]
    result = subprocess.run(command, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stdout + result.stderr
    lines = result.stdout.splitlines()
    assert "CHECK FAILED" not in result.stdout

    summary = json.loads(lines[-1])
    assert sorted(summary) == sorted(w["name"] for w in SPEC["workloads"])
    for name, outcome in summary.items():
        assert outcome["correct"] and outcome["failed"] == 0, name
        assert outcome["attempted"] > 0 and outcome["studies"] == 1, name

        # Every end-to-end and per-layer metric is printed, by name, with its unit.
        start = next(i for i, line in enumerate(lines) if line.startswith(f"== {name}:"))
        stop = next((i for i in range(start + 1, len(lines)) if lines[i].startswith("== ")),
                    len(lines))
        rows = [line.split() for line in lines[start + 1 : stop]]
        printed = {fields[0]: fields[1] for fields in rows if len(fields) > 2}
        for entry in SPEC["end_to_end"] + SPEC["per_layer"]:
            assert printed.get(entry["name"]) == entry["unit"], (name, entry["name"])

        # The traced study left well-formed spans: known names, ordered
        # clocks, parents that precede their children on the same thread.
        (spans_file,) = outcome["spans_files"]
        doc = json.loads((tmp_path / spans_file).read_text())
        names = doc["names"]
        assert doc["run_id"].startswith(name)
        assert any(p["role"] == "server" for p in doc["processes"])
        total = 0
        for process in doc["processes"]:
            for thread in process["threads"]:
                for index, span in enumerate(thread["spans"]):
                    name_id, t0, t1, c0, c1, parent, count = span
                    assert 0 <= name_id < len(names)
                    assert t0 <= t1 and c0 <= c1 and count >= 0
                    assert -1 <= parent < index
                    if parent >= 0:
                        outer = thread["spans"][parent]
                        assert outer[1] <= t0 and t1 <= outer[2]
                total += len(thread["spans"])
        assert total > 0
        recorded = {names[s[0]] for p in doc["processes"] for t in p["threads"] for s in t["spans"]}
        assert {"client.run", "client.send", "solvers.step", "parallel.push", "parallel.poll",
                "buffers.put_many", "buffers.get", "nn.forward", "nn.backward"} <= recorded
