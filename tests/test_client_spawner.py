"""The client spawner: process-mode clients are forked by one single-threaded
child of the server, made before the server's threads exist.

The study-level checks run in a fresh interpreter each, because what they
look at is per-process: the BLAS thread pool, ``RUSAGE_CHILDREN``, the
children left behind and the threads alive when the server forks.
"""

from __future__ import annotations

import json
import logging
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

from repro.client.simulation_client import SimulationClient
from repro.launcher.launcher import ClientSpec, Launcher, LauncherConfig
from repro.parallel.shm_ring import ShmRingTransport

SRC = Path(__file__).resolve().parent.parent / "src"

#: A study of ``sys.argv[1]`` clients on backend ``sys.argv[2]``; prints one
#: JSON line.  Every fork the server process makes records the names of the
#: threads alive at that moment, and every forked process appends its pid
#: to the file ``sys.argv[3]``.
STUDY = r"""
import json, os, resource, sys, threading
num_clients, backend, pid_file = int(sys.argv[1]), sys.argv[2], sys.argv[3]
server_pid = os.getpid()
forks = []

def before_fork():
    if os.getpid() == server_pid:
        forks.append(sorted({thread.name for thread in threading.enumerate()}))

def after_fork_in_child():
    with open(pid_file, "a") as out:
        out.write(f"{os.getpid()}\n")

os.register_at_fork(before=before_fork, after_in_child=after_fork_in_child)

from repro.core.config import OnlineStudyConfig, SurrogateArchitecture
from repro.core.heat_usecase import HeatSurrogateCase, HeatSurrogateSpec
from repro.core.study import OnlineStudy
from repro.solvers.heat2d import HeatEquationConfig

case = HeatSurrogateCase(HeatSurrogateSpec(
    solver=HeatEquationConfig(nx=32, ny=32, num_steps=20),
    architecture=SurrogateArchitecture(hidden_sizes=(256, 256)), seed=1))
config = OnlineStudyConfig(num_simulations=num_clients, max_concurrent_clients=2,
                           buffer_capacity=200, buffer_threshold=20, batch_size=10,
                           transport=backend, seed=1)
result = OnlineStudy(case, config).run()
children = []
for entry in os.listdir("/proc"):
    if entry.isdigit():
        try:
            stat = open(f"/proc/{entry}/stat").read()
            cmdline = open(f"/proc/{entry}/cmdline").read()
        except OSError:
            continue
        state, ppid = stat.rsplit(")", 1)[1].split()[:2]
        if int(ppid) == server_pid:
            children.append([int(entry), state, cmdline.replace("\0", " ")])
print(json.dumps({
    "completed": result.launcher.clients_completed,
    "failed": result.launcher.clients_failed,
    "children_maxrss_kib": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    "forks": forks,
    "children": children,
}))
"""


def run_study(tmp_path, num_clients, backend, env_update=None, timeout=60.0):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.update(env_update or {})
    env = {name: value for name, value in env.items() if value is not None}
    pid_file = tmp_path / "forked-pids.txt"
    completed = subprocess.run(
        [sys.executable, "-c", STUDY, str(num_clients), backend, str(pid_file)],
        env=env, capture_output=True, text=True, timeout=timeout,
    )
    assert completed.returncode == 0, completed.stderr
    assert "SystemError" not in completed.stderr, completed.stderr
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


def test_default_blas_threads_do_not_hang_a_forking_study(tmp_path):
    """With a two-thread OpenBLAS pool, forking a client while the trainer
    sat in a GEMM used to wedge the study; the spawner forks before the
    trainer exists, so the study finishes (well inside the timeout)."""
    doc = run_study(tmp_path, 20, "shm", env_update={
        "OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": None, "MKL_NUM_THREADS": None,
    })
    assert (doc["completed"], doc["failed"]) == (20, 0)


def test_clients_count_in_rusage_and_leave_no_process_behind(tmp_path):
    doc = run_study(tmp_path, 2, "shm")
    assert (doc["completed"], doc["failed"]) == (2, 0)
    # The spawner was reaped, and through it every client it reaped.
    assert doc["children_maxrss_kib"] > 0
    assert len(doc["forked"]) == 3  # the spawner and two clients
    assert not [pid for pid in doc["forked"] if is_running(pid)]
    leftovers = [child for child in doc["children"] if "resource_tracker" not in child[2]]
    assert leftovers == []


def test_the_server_forks_once_with_no_thread_but_the_front_door(tmp_path):
    assert run_study(tmp_path, 2, "shm")["forks"] == [["MainThread"]]
    tcp = run_study(tmp_path, 2, "tcp")
    assert tcp["forks"] == [["MainThread", "repro-tcp-front-door"]]
    assert (tcp["completed"], tcp["failed"]) == (2, 0)


# ------------------------------------------------------------ dead spawner
SLOW_STEPS = 10_000  # ~100 s per client: only a kill ends one inside the test


class SlowSolver:
    def iter_steps(self, params):
        for step in range(1, SLOW_STEPS + 1):
            time.sleep(0.01)
            yield step, step * 0.1, np.full(16, float(step), dtype=np.float32)


class ForkCountingLauncher(Launcher):
    """Signals once the spawner has reported ``forks_wanted`` forked clients."""

    def _on_report(self, running, client_id, pid, outcome):
        super()._on_report(running, client_id, pid, outcome)
        if outcome is None:
            self.pids.append(pid)
            if len(self.pids) == self.forks_wanted:
                self.forked.set()


def test_a_dead_spawner_fails_the_unfinished_clients_promptly(caplog):
    transport = ShmRingTransport(num_server_ranks=1, max_concurrent_clients=2,
                                 ring_slots=512, ring_slot_bytes=8192)

    def factory(spec):
        return SimulationClient(client_id=spec.client_id, parameters=(1.0,),
                                solver=SlowSolver(), router=transport,
                                num_time_steps=SLOW_STEPS)

    specs = [ClientSpec(client_id=cid, parameters=np.array([1.0])) for cid in range(4)]
    launcher = ForkCountingLauncher(factory, specs,
                                    LauncherConfig(max_concurrent_clients=2,
                                                   client_mode="process"))
    launcher.pids, launcher.forks_wanted, launcher.forked = [], 2, threading.Event()
    try:
        with caplog.at_level(logging.ERROR, logger="repro.launcher"):
            launcher.start()
            assert launcher.forked.wait(10.0)
            os.kill(launcher._spawner.pid, signal.SIGKILL)
            began = time.monotonic()
            report = launcher.join(timeout=10.0)
            assert not launcher.running
            assert time.monotonic() - began < 10.0
        assert (report.clients_completed, report.clients_failed) == (0, 4)
        assert transport._slots == {}
        assert "client spawner exited (exit code -9)" in caplog.text
        deadline = time.monotonic() + 2.0
        while any(is_running(pid) for pid in launcher.pids) and time.monotonic() < deadline:
            time.sleep(0.02)
        assert not [pid for pid in launcher.pids if is_running(pid)]  # killed by pid
    finally:
        transport.shutdown()
