"""A failed trainer rank or shard fails the whole study at once, with its cause.

Each study runs in a fresh interpreter under a hard timeout, so a study that
wedges fails this test instead of wedging the suite.  The trainer is patched
to take 50 ms a batch, so that the clients outrun it and back up into the
transport as they do behind a slow server, and to raise on the fifth batch it
trains (counted over every rank and shard);
the child prints how long the study took to raise and what it raised, and
then stays alive for a while, as a longer-lived program would, so that a
launcher still starting clients after the study closed its transport shows
up as late forks.
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

#: How long the child stays alive after the study raised.
LINGER_S = 0.5

#: The study's ``max_concurrent_clients``: at most this many starts can be
#: requested from the spawner, their checks passed, when the transport closes.
MAX_CONCURRENT_CLIENTS = 2

#: ``sys.argv[1:]`` = backend, ranks per shard, shards, queue size, pid file,
#: linger.  Every forked process appends its pid and its fork time to the pid
#: file; the study records when its first transport closed.
STUDY = f"MAX_CONCURRENT_CLIENTS = {MAX_CONCURRENT_CLIENTS}\n" + r"""
import json, os, sys, threading, time
backend, num_ranks, num_shards = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
queue_size, pid_file = int(sys.argv[4]), sys.argv[5]

def after_fork_in_child():
    with open(pid_file, "a") as out:
        out.write(f"{os.getpid()} {time.monotonic()}\n")

os.register_at_fork(after_in_child=after_fork_in_child)

from repro.core.config import OnlineStudyConfig, SurrogateArchitecture
from repro.core.heat_usecase import HeatSurrogateCase, HeatSurrogateSpec
from repro.core.study import OnlineStudy
from repro.parallel.spmd import SPMDFailure
from repro.parallel.shm_ring import ShmRingTransport
from repro.parallel.transport import MessageRouter, ShardOptions, TransportConfig
from repro.server.trainer import TrainingWorker
from repro.solvers.heat2d import HeatEquationConfig

class InjectedFault(RuntimeError):
    pass

lock, calls = threading.Lock(), [0]
train_batch = TrainingWorker._train_batch

def failing_train_batch(self, batch, sync=True):
    time.sleep(0.05)
    with lock:
        calls[0] += 1
        fail = calls[0] == 5
    if fail:
        raise InjectedFault(f"rank {self.rank} failed its batch")
    return train_batch(self, batch, sync)

TrainingWorker._train_batch = failing_train_batch

closed_at = []

def record_close(close):
    def close_and_record(self):
        closed_at.append(time.monotonic())
        close(self)
    return close_and_record

for transport_class in (MessageRouter, ShmRingTransport):
    transport_class.close = record_close(transport_class.close)

case = HeatSurrogateCase(HeatSurrogateSpec(
    solver=HeatEquationConfig(nx=32, ny=32, num_steps=20),
    architecture=SurrogateArchitecture(hidden_sizes=(32, 32)), seed=1))
config = OnlineStudyConfig(
    num_simulations=40, max_concurrent_clients=MAX_CONCURRENT_CLIENTS, num_ranks=num_ranks,
    buffer_capacity=40, buffer_threshold=20, batch_size=10, seed=1,
    transport=TransportConfig(backend=backend, queue_size=queue_size,
                              shard=ShardOptions(num_shards=num_shards)))
began = time.monotonic()
try:
    OnlineStudy(case, config).run()
    errors = []
except SPMDFailure as failure:
    errors = [type(error).__name__ for error in failure.errors.values()]
raised = time.monotonic()
print(json.dumps({"elapsed": raised - began, "closed": min(closed_at), "errors": errors}),
      flush=True)
time.sleep(float(sys.argv[6]))
"""


def run_failing_study(tmp_path, backend, num_ranks, num_shards, queue_size=100_000,
                      timeout=30.0):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    pid_file = tmp_path / "forked-pids.txt"
    pid_file.touch()
    completed = subprocess.run(
        [sys.executable, "-c", STUDY, backend, str(num_ranks), str(num_shards),
         str(queue_size), str(pid_file), str(LINGER_S)],
        env=env, capture_output=True, text=True, timeout=timeout,
    )
    assert completed.returncode == 0, completed.stderr
    doc = json.loads(completed.stdout.strip().splitlines()[-1])
    forks = [line.split() for line in pid_file.read_text().splitlines()]
    doc["forked"] = [int(pid) for pid, _ in forks]
    doc["forked_late"] = [int(pid) for pid, at in forks if float(at) > doc["closed"]]
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
    # A closed transport stops the launcher: of the 40 clients, none starts
    # or restarts after the close beyond those already requested from the
    # spawner (a launcher that ignores the close forks about 30 more).
    assert len(doc["forked_late"]) <= MAX_CONCURRENT_CLIENTS, doc
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


def test_a_failed_rank_wakes_inproc_clients_parked_on_a_full_queue(tmp_path):
    """With a queue of four parts the client threads are parked in their
    push when the trainer raises; closing the router wakes them, so the
    launcher's pool drains and the study raises instead of waiting for a
    drain that never comes."""
    doc = run_failing_study(tmp_path, "inproc", num_ranks=2, num_shards=1, queue_size=4)
    assert_failed_promptly(doc)


def test_a_failed_shard_fails_a_two_shard_shm_study_at_once(tmp_path):
    """The surviving shard stops with the failed one instead of sitting out
    its trainer's get timeout while the dead shard's clients hold the
    launcher's slots on its full rings."""
    assert_failed_promptly(run_failing_study(tmp_path, "shm", num_ranks=1, num_shards=2))
