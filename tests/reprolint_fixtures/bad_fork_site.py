"""Fixture: fork sites outside the client spawner's module (POSITIVE, 5 findings).

Each of these forks the calling process, which in the program is the server:
its trainer may sit inside a BLAS call and every page it writes next pays a
copy-on-write fault.
"""

import multiprocessing
import os
from multiprocessing import Process

_FORK = multiprocessing.get_context("fork")  # finding


def fork_by_hand():
    return os.fork()  # finding


def start_inline(target):
    _FORK.Process(target=target).start()  # finding


def start_by_name(target):
    process = Process(target=target, daemon=True)
    process.start()  # finding
    return process


class Worker:
    def __init__(self, target):
        self._process = multiprocessing.Process(target=target)

    def start(self):
        self._process.start()  # finding
