"""A failed trainer rank or shard fails the whole study at once, with its cause.

Each study runs in a fresh interpreter under a hard timeout, so a study that
wedges fails this test instead of wedging the suite.  The trainer is patched
to raise on the fifth batch it trains (counted over every rank and shard);
the child prints how long the study took to raise and what it raised.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

#: ``sys.argv[1:]`` = backend, ranks per shard, shards, pid file.  Every
#: forked process appends its pid to the pid file.
STUDY = r"""
import json, os, sys, threading, time
backend, num_ranks, num_shards = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
pid_file = sys.argv[4]

def after_fork_in_child():
    with open(pid_file, "a") as out:
        out.write(f"{os.getpid()}\n")

os.register_at_fork(after_in_child=after_fork_in_child)

from repro.core.config import OnlineStudyConfig, SurrogateArchitecture
from repro.core.heat_usecase import HeatSurrogateCase, HeatSurrogateSpec
from repro.core.study import OnlineStudy
from repro.parallel.spmd import SPMDFailure
from repro.parallel.transport import ShardOptions, TransportConfig
from repro.server.trainer import TrainingWorker
from repro.solvers.heat2d import HeatEquationConfig

class InjectedFault(RuntimeError):
    pass

lock, calls = threading.Lock(), [0]
train_batch = TrainingWorker._train_batch

def failing_train_batch(self, batch, sync=True):
    with lock:
        calls[0] += 1
        fail = calls[0] == 5
    if fail:
        raise InjectedFault(f"rank {self.rank} failed its batch")
    return train_batch(self, batch, sync)

TrainingWorker._train_batch = failing_train_batch

case = HeatSurrogateCase(HeatSurrogateSpec(
    solver=HeatEquationConfig(nx=32, ny=32, num_steps=20),
    architecture=SurrogateArchitecture(hidden_sizes=(32, 32)), seed=1))
config = OnlineStudyConfig(
    num_simulations=8, max_concurrent_clients=2, num_ranks=num_ranks,
    buffer_capacity=200, buffer_threshold=20, batch_size=10, seed=1,
    transport=TransportConfig(backend=backend, shard=ShardOptions(num_shards=num_shards)))
began = time.monotonic()
try:
    OnlineStudy(case, config).run()
    errors = []
except SPMDFailure as failure:
    errors = [type(error).__name__ for error in failure.errors.values()]
print(json.dumps({"elapsed": time.monotonic() - began, "errors": errors}))
"""


def run_failing_study(tmp_path, backend, num_ranks, num_shards, timeout=30.0):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    pid_file = tmp_path / "forked-pids.txt"
    pid_file.touch()
    completed = subprocess.run(
        [sys.executable, "-c", STUDY, backend, str(num_ranks), str(num_shards), str(pid_file)],
        env=env, capture_output=True, text=True, timeout=timeout,
    )
    assert completed.returncode == 0, completed.stderr
    doc = json.loads(completed.stdout.strip().splitlines()[-1])
    doc["forked"] = [int(line) for line in pid_file.read_text().split()]
    return doc


def is_running(pid):
    """True while ``pid`` exists and is not a zombie."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


def assert_failed_promptly(doc):
    assert doc["elapsed"] < 10.0, doc
    assert "InjectedFault" in doc["errors"], doc
    # The spawner kills its clients once the server process is gone.
    deadline = time.monotonic() + 5.0
    while any(is_running(pid) for pid in doc["forked"]) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert not [pid for pid in doc["forked"] if is_running(pid)]


@pytest.mark.parametrize("backend", ["inproc", "shm"])
def test_a_failed_rank_fails_a_two_rank_study_at_once(tmp_path, backend):
    """The peer rank blocked in the gradient all-reduce is woken, not left
    waiting for a message the dead rank will never send."""
    doc = run_failing_study(tmp_path, backend, num_ranks=2, num_shards=1)
    assert_failed_promptly(doc)
    assert "CommunicatorError" in doc["errors"], doc


def test_a_failed_shard_fails_a_two_shard_shm_study_at_once(tmp_path):
    """The surviving shard stops with the failed one instead of sitting out
    its trainer's get timeout while the dead shard's clients hold the
    launcher's slots on its full rings."""
    assert_failed_promptly(run_failing_study(tmp_path, "shm", num_ranks=1, num_shards=2))
