"""Minimal Melissa-like client API.

Mirrors the paper's three-call instrumentation contract:

* ``init_communication`` — connect the client to every server rank and
  announce the simulation metadata;
* ``send`` — stream one time step as soon as it is computed (the field is
  converted to float32 before transmission, as the paper's clients do);
* ``finalize_communication`` — signal that no more data will be sent.

The API object keeps the per-client sequence number used by the server for
deduplication after a client restart.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from repro.parallel.messages import ClientFinished, ClientHello
from repro.parallel.transport import Connection, Transport

Array = np.ndarray


class ClientAPI:
    """Streaming API handed to an instrumented simulation code.

    ``send_batch_size`` enables client-side batching: time steps accumulate
    as rows of one block per server rank and each rank's block is pushed as
    one transport call (one packed buffer on the wire backends).  Control
    messages flush pending blocks first, so the server never observes a
    ``ClientFinished`` ahead of data sent before it.
    """

    def __init__(self, transport: Transport, client_id: int, send_batch_size: int = 1) -> None:
        self._transport = transport
        self.client_id = int(client_id)
        self.send_batch_size = int(send_batch_size)
        self._connection: Connection | None = None
        self._sequence = 0
        self._finalized = False

    # ------------------------------------------------------------------ setup
    def init_communication(
        self,
        parameters: Sequence[float],
        num_time_steps: int,
        field_shape: Tuple[int, ...],
        restart_count: int = 0,
    ) -> None:
        """Connect to the server and announce this client's metadata."""
        if self._connection is not None:
            raise RuntimeError("init_communication called twice")
        self._connection = self._transport.connect(
            self.client_id, batch_size=self.send_batch_size
        )
        hello = ClientHello(
            client_id=self.client_id,
            parameters=tuple(float(p) for p in parameters),
            num_time_steps=int(num_time_steps),
            field_shape=tuple(int(s) for s in field_shape),
            restart_count=int(restart_count),
        )
        self._connection.broadcast(hello)

    @property
    def connected(self) -> bool:
        return self._connection is not None and not self._finalized

    def _require_connection(self) -> Connection:
        if self._connection is None:
            raise RuntimeError("init_communication must be called before sending data")
        if self._finalized:
            raise RuntimeError("cannot send after finalize_communication")
        return self._connection

    # ------------------------------------------------------------------- send
    def send(
        self,
        time_step: int,
        time_value: float,
        parameters: Sequence[float],
        field: Array,
    ) -> int:
        """Stream one time step to the server; returns the server rank used.

        The field is flattened and converted to float32 on the client, which is
        the preprocessing the paper performs in situ to avoid overloading the
        server.  The step becomes one row of the round-robin rank's pending
        block (see :meth:`Connection.append_step`); a row whose parameter
        count or field length differs from that block's first row raises
        :class:`ValueError` and sends nothing.

        Ownership: the block keeps a zero-copy view of ``field`` (when it is
        already flat float32) and of ``parameters`` until it is pushed, so the
        caller must not mutate either after sending — solvers hand over a
        freshly built field per step.
        """
        connection = self._require_connection()
        rank = connection.append_step(int(time_step), float(time_value), self._sequence,
                                      parameters, np.asarray(field, dtype=np.float32).ravel())
        self._sequence += 1
        return rank

    def undelivered_steps(self) -> list[int]:
        """Time steps buffered client-side (batching) and not yet pushed.

        A failing client uses this to rewind its checkpoint below any step
        that never reached the transport, so a checkpointed restart cannot
        silently skip samples the server never saw.
        """
        if self._connection is None:
            return []
        return sorted(step for block in self._connection.pending() for step in block.time_steps)

    # --------------------------------------------------------------- teardown
    def finalize_communication(self) -> None:
        """Tell every server rank that this client will not send more data."""
        connection = self._require_connection()
        connection.broadcast(ClientFinished(client_id=self.client_id, total_sent=self._sequence))
        self._finalized = True
