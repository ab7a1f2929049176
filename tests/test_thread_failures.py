"""Every server-side thread fails the study at once, with its cause.

A thread of the server process hands the exception that ends it to the
study's transport (``Transport.fail``), whose close stops the clients, the
launcher and the aggregators; the study then raises that first failure.
Each case runs a small study in a fresh interpreter under a hard timeout, so
a study that wedges fails its case instead of the suite.  The child injects
one failure into one thread role and prints how long the study took to raise
and the raised exception's cause chain; the parent also checks that no
forked process outlives the study.
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

#: ``sys.argv[1:]`` = scenario, backend, ranks per shard, shards, pid file.
STUDY = r"""
import concurrent.futures, inspect, json, os, sys, time
scenario, backend = sys.argv[1], sys.argv[2]
num_ranks, num_shards, pid_file = int(sys.argv[3]), int(sys.argv[4]), sys.argv[5]

def after_fork_in_child():
    with open(pid_file, "a") as out:
        out.write(f"{os.getpid()}\n")

os.register_at_fork(after_in_child=after_fork_in_child)

from repro.client.simulation_client import SimulationClient, SimulationFailure
from repro.core.config import OnlineStudyConfig, SurrogateArchitecture
from repro.core.heat_usecase import HeatSurrogateCase, HeatSurrogateSpec
from repro.core.study import OnlineStudy
from repro.parallel.transport import ShardOptions, TransportConfig
from repro.server.aggregator import DataAggregator
from repro.server.server import TrainingServer
from repro.server.serving import AsyncFrontDoor
from repro.solvers.heat2d import HeatEquationConfig

class InjectedFault(RuntimeError):
    pass

def raise_once(owner, name):
    # The first call, from whichever thread, raises; every later one runs.
    original, token = getattr(owner, name), [None]

    def fires():
        try:
            token.pop()
        except IndexError:
            return False
        return True

    if inspect.iscoroutinefunction(original):
        async def wrapper(*args, **kwargs):
            if fires():
                raise InjectedFault(f"{owner.__name__}.{name} failed")
            return await original(*args, **kwargs)
    else:
        def wrapper(*args, **kwargs):
            if fires():
                raise InjectedFault(f"{owner.__name__}.{name} failed")
            return original(*args, **kwargs)
    setattr(owner, name, wrapper)

if scenario == "permanent":
    run = SimulationClient.run

    def failing_run(self, solver_params=None):
        if self.client_id == 0:
            raise SimulationFailure("client 0 fails on every attempt")
        return run(self, solver_params)

    SimulationClient.run = failing_run
elif scenario == "submit":
    submit, calls = concurrent.futures.ThreadPoolExecutor.submit, []

    def failing_submit(self, fn, *args, **kwargs):
        calls.append(fn)
        if len(calls) == 3:
            raise RuntimeError("can't start new thread")
        return submit(self, fn, *args, **kwargs)

    concurrent.futures.ThreadPoolExecutor.submit = failing_submit
elif scenario == "aggregator":
    raise_once(DataAggregator, "_handle_items")
elif scenario == "shard":
    raise_once(TrainingServer, "run")
elif scenario == "front-door":
    raise_once(AsyncFrontDoor, "_serve_connection")

case = HeatSurrogateCase(HeatSurrogateSpec(
    solver=HeatEquationConfig(nx=16, ny=16, num_steps=10),
    architecture=SurrogateArchitecture(hidden_sizes=(16,)), seed=1))
config = OnlineStudyConfig(
    num_simulations=4, max_concurrent_clients=2, num_ranks=num_ranks,
    buffer_capacity=40, buffer_threshold=10, batch_size=10, seed=1,
    transport=TransportConfig(backend=backend, shard=ShardOptions(num_shards=num_shards)))
began = time.monotonic()
chain = []
try:
    OnlineStudy(case, config).run()
except BaseException as exc:
    while exc is not None:
        chain.append([type(exc).__name__, str(exc)])
        exc = exc.__cause__
print(json.dumps({"elapsed": time.monotonic() - began, "chain": chain}), flush=True)
"""


def run_study(tmp_path, scenario, backend, num_ranks=1, num_shards=1, timeout=30.0):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    pid_file = tmp_path / "forked-pids.txt"
    pid_file.touch()
    completed = subprocess.run(
        [sys.executable, "-c", STUDY, scenario, backend, str(num_ranks), str(num_shards),
         str(pid_file)],
        env=env, capture_output=True, text=True, timeout=timeout,
    )
    assert completed.returncode == 0, completed.stderr
    doc = json.loads(completed.stdout.strip().splitlines()[-1])
    doc["forked"] = [int(pid) for pid in pid_file.read_text().split()]
    return doc


def is_running(pid):
    """True while ``pid`` exists and is not a zombie."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


def assert_failed_with(doc, *chain, within=5.0):
    """The study raised within ``within`` seconds, and the raised exception
    and its causes start with ``chain``'s ``(type name, message)`` pairs;
    no forked process outlives the study."""
    assert doc["elapsed"] < within, doc
    assert [tuple(link) for link in doc["chain"][:len(chain)]] == list(chain), doc
    deadline = time.monotonic() + 5.0
    while any(is_running(pid) for pid in doc["forked"]) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert not [pid for pid in doc["forked"] if is_running(pid)], doc


@pytest.mark.parametrize("backend", ["inproc", "shm"])
def test_a_client_that_fails_for_good_fails_the_study(tmp_path, backend):
    """The launcher fails the study with the client's last error as cause,
    instead of the aggregator waiting for a finish that never comes."""
    doc = run_study(tmp_path, "permanent", backend)
    assert_failed_with(doc, ("RuntimeError", "1 of 4 clients failed for good"))
    cause_type, cause = doc["chain"][1]
    assert cause_type == "SimulationFailure", doc
    assert "client 0" in cause, doc


def test_a_client_thread_that_cannot_start_fails_the_study(tmp_path):
    """``ThreadPoolExecutor.submit`` raising, as under pid exhaustion, fails
    the study through the launcher thread instead of leaving the server
    waiting for clients that never come."""
    doc = run_study(tmp_path, "submit", "inproc")
    assert_failed_with(doc, ("RuntimeError", "can't start new thread"), within=1.0)


@pytest.mark.parametrize("num_ranks, num_shards", [(1, 1), (2, 1), (1, 2)])
def test_a_failed_aggregator_fails_the_study_with_its_exception(tmp_path, num_ranks,
                                                                 num_shards):
    """The aggregator fails the transport before it closes its buffer, so
    the trainers that stop on the close find the cause; in a sharded study
    the failed shard fails every shard with it."""
    doc = run_study(tmp_path, "aggregator", "shm", num_ranks=num_ranks, num_shards=num_shards)
    assert_failed_with(doc, ("InjectedFault", "DataAggregator._handle_items failed"))


def test_a_shard_whose_server_raises_fails_the_study_with_its_exception(tmp_path):
    """The first shard thread to run raises at once: the survivor stops with
    it instead of waiting for clients that hold launcher slots on the dead
    shard."""
    doc = run_study(tmp_path, "shard", "shm", num_shards=2)
    assert_failed_with(doc, ("InjectedFault", "TrainingServer.run failed"))


def test_a_failed_front_door_reader_fails_the_study_with_its_exception(tmp_path):
    """A reader task's unexpected exception is a server fault: it fails the
    study instead of dropping the client's connection, which left the
    aggregator waiting for that client's finish."""
    doc = run_study(tmp_path, "front-door", "tcp")
    assert_failed_with(doc, ("InjectedFault", "AsyncFrontDoor._serve_connection failed"))
