"""Fixture: thread targets that hand every exception to a latch (NEGATIVE)."""

import threading
from concurrent.futures import ThreadPoolExecutor


class ClosedError(Exception):
    pass


class Aggregator:
    def __init__(self, transport):
        self.transport = transport

    def start(self):
        threading.Thread(target=self._run, name="aggregator", daemon=True).start()
        threading.Thread(name="no-target")  # a subclass-style thread: nothing to check

    def _run(self):
        """A docstring, then one try; a narrower handler may come first."""
        try:
            self.step()
        except ClosedError:
            pass
        except BaseException as exc:
            self.transport.fail(exc)
            raise

    def step(self):
        pass


def run_ranks(group, target, size):
    def runner(rank):
        try:
            target(rank)
        except:  # noqa: E722 - a bare except catches everything too
            group.fail(rank, None)

    threads = [threading.Thread(target=runner, args=(rank,)) for rank in range(size)]
    for thread in threads:
        thread.start()


def run_pool(items, transport):
    with ThreadPoolExecutor(2) as pool:
        return [pool.submit(_work, transport, item) for item in items]


def _work(transport, item):
    try:
        return item * 2
    except (ValueError, BaseException) as exc:
        transport.fail(exc)
        raise
