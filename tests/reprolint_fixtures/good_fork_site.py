"""Fixture: process and thread idioms that are not fork sites (NEGATIVE)."""

import multiprocessing
import os
import subprocess
import sys
import threading

#: Spawn and forkserver start a fresh interpreter: nothing is inherited.
_SPAWN = multiprocessing.get_context("spawn")


def start_thread(target):
    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    return thread


def run_tool():
    return subprocess.run([sys.executable, "-c", "pass"], check=True)


def join_and_kill(process):
    # Waiting for, or signalling, a process someone else forked is fine.
    process.join(1.0)
    os.kill(process.pid, 9)
    return os.getpid()
