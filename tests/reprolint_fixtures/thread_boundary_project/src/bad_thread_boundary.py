"""Fixture: thread targets an exception can leave silently (POSITIVE, 6 findings)."""

import threading
from concurrent.futures import ThreadPoolExecutor


class Worker:
    def __init__(self, transport):
        self.transport = transport

    def start(self):
        threading.Thread(target=self._prepare_then_run).start()
        threading.Thread(target=self._run_then_report).start()
        threading.Thread(target=self._catch_exceptions_only).start()
        threading.Thread(target=self._log_only).start()
        threading.Thread(target=lambda: self.step()).start()  # finding: unresolved

    def _prepare_then_run(self):  # finding: a statement before the try
        state = self.step()
        try:
            self.step(state)
        except BaseException as exc:
            self.transport.fail(exc)

    def _run_then_report(self):  # finding: a statement after the try
        """A docstring does not count; the report after the try does."""
        try:
            self.step()
        except BaseException as exc:
            self.transport.fail(exc)
        self.report()

    def _catch_exceptions_only(self):  # finding: KeyboardInterrupt, SystemExit escape
        try:
            self.step()
        except Exception as exc:
            self.transport.fail(exc)

    def _log_only(self):  # finding: the handler reaches no latch
        try:
            self.step()
        except BaseException:
            print("worker failed")

    def step(self, state=None):
        return state

    def report(self):
        pass


def run_all(items, transport):
    def work(item):  # finding: no try at all (a pool target)
        return item * 2

    with ThreadPoolExecutor(2) as pool:
        return [pool.submit(work, item) for item in items]
