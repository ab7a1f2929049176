"""SPMD executor: run one callable per rank, each on its own thread.

This is the substitute for ``mpiexec -n <size>``: the callable receives a
:class:`repro.parallel.communicator.ThreadCommunicator` for its rank plus any
user arguments, and the executor returns the per-rank results (ordered by
rank).  A rank that raises hands its exception to the communicator group
(:meth:`~repro.parallel.communicator.CommunicatorGroup.fail`), so a peer
blocked on it in a collective fails at once instead of waiting for a message
never sent; :meth:`SPMDExecutor.run` raises the group's errors as one
:class:`SPMDFailure`.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Dict, List

from repro.parallel.communicator import CommunicatorGroup, ThreadCommunicator
from repro.utils.exceptions import ReproError


class SPMDFailure(ReproError):
    """Raised when at least one rank of an SPMD execution raised an exception."""

    def __init__(self, errors: Dict[int, BaseException]) -> None:
        self.errors = errors
        summary = "; ".join(f"rank {rank}: {exc!r}" for rank, exc in sorted(errors.items()))
        super().__init__(f"SPMD execution failed on {len(errors)} rank(s): {summary}")


class SPMDExecutor:
    """Run ``target(comm, *args, **kwargs)`` on ``size`` ranks concurrently."""

    def __init__(self, size: int, timeout: float | None = 120.0) -> None:
        if size <= 0:
            raise ValueError("SPMD size must be positive")
        self.size = int(size)
        self.timeout = timeout

    def run(
        self,
        target: Callable[..., Any],
        *args: Any,
        **kwargs: Any,
    ) -> List[Any]:
        """Execute ``target`` on every rank and return the rank-ordered results."""
        group = CommunicatorGroup(self.size, timeout=self.timeout)
        communicators = group.rank_communicators()
        results: List[Any] = [None] * self.size

        def runner(comm: ThreadCommunicator) -> None:
            try:
                results[comm.rank] = target(comm, *args, **kwargs)
            except BaseException as exc:  # noqa: BLE001 - raised by run() in SPMDFailure
                group.fail(comm.rank, exc)

        threads = [
            threading.Thread(
                target=runner, args=(comm,), name=f"spmd-rank-{comm.rank}", daemon=True
            )
            for comm in communicators
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=None if self.timeout is None else self.timeout + 5.0)

        alive = [t for t in threads if t.is_alive()]
        if alive:
            hung = ", ".join(t.name for t in alive)
            raise SPMDFailure(
                {**group.errors, -1: TimeoutError(f"ranks still running after timeout: {hung}")}
            )
        if group.errors:
            raise SPMDFailure(dict(group.errors))
        return results
