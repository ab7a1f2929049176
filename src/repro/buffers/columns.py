"""Columnar (structure-of-arrays) sample storage shared by the data plane.

The wire format is already columnar — a packed batch carries one contiguous
float64 params block and one float32 payload block — and the training loop
consumes float32 matrices, so the only reason per-message Python objects
ever existed between the two was the buffer API.  This module removes that reason:

* :class:`ColumnBatch` is the unit that flows through the hot path: one
  ``(n, d_in)`` float32 inputs matrix, one ``(n, d_out)`` float32 targets
  matrix and int64 ``source_id``/``time_step`` vectors, all arrival-ordered.
  A drained wire chunk becomes a ``ColumnBatch`` with a single block copy
  (the adoption copy, which rounds the float64 wire parameters to float32
  once), the buffer inserts it with fancy-indexed row writes, and a gathered
  batch hands the forward pass its two matrices as-is.
* :class:`ColumnStore` is the preallocated backing storage of one training
  buffer: dense column blocks addressed by row slot.  Buffer policies map
  logical order (FIFO ring, FIRO list, Reservoir seen/unseen) to slot
  indices; the store only reads and writes rows.

There is no per-sample object: a single sample is a one-row batch.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

Array = np.ndarray

__all__ = ["ColumnBatch", "ColumnStore"]


class ColumnBatch:
    """An arrival-ordered run of samples as parallel columns.

    ``inputs`` is ``(n, d_in)`` and ``targets`` ``(n, d_out)``, both
    float32 (the dtype of every model a study trains); every row of a batch
    has the same widths.
    ``sequence_numbers`` is optional — the buffers do not store it, so
    batches gathered from a store carry ``None``.

    A batch owns its columns (or shares them with sibling slices); nothing
    downstream mutates them, which is what lets slices and row views be
    handed out freely.
    """

    __slots__ = ("inputs", "targets", "source_ids", "time_steps", "sequence_numbers")

    def __init__(
        self,
        inputs: Array,
        targets: Array,
        source_ids: Array,
        time_steps: Array,
        sequence_numbers: Optional[Array] = None,
    ) -> None:
        self.inputs = inputs
        self.targets = targets
        self.source_ids = source_ids
        self.time_steps = time_steps
        self.sequence_numbers = sequence_numbers

    def __len__(self) -> int:
        return len(self.source_ids)

    def __getitem__(self, index: slice) -> "ColumnBatch":
        """Slice into a sub-batch of column *views* (no copies)."""
        if not isinstance(index, slice):
            raise TypeError("ColumnBatch supports slice indexing only")
        seq = self.sequence_numbers
        return ColumnBatch(
            self.inputs[index],
            self.targets[index],
            self.source_ids[index],
            self.time_steps[index],
            None if seq is None else seq[index],
        )

    def compatible_with(self, other: "ColumnBatch") -> bool:
        """True when ``other``'s rows could be rows of this batch (concat-safe)."""
        return (
            self.inputs.shape[1:] == other.inputs.shape[1:]
            and self.targets.shape[1:] == other.targets.shape[1:]
        )

    def compress(self, keep: Array) -> "ColumnBatch":
        """Rows where the boolean ``keep`` mask is True, as fresh columns."""
        seq = self.sequence_numbers
        return ColumnBatch(
            self.inputs[keep],
            self.targets[keep],
            self.source_ids[keep],
            self.time_steps[keep],
            None if seq is None else seq[keep],
        )

    @classmethod
    def concat(cls, chunks: Sequence["ColumnBatch"]) -> "ColumnBatch":
        """Concatenate compatible chunks (see :meth:`compatible_with`)."""
        if len(chunks) == 1:
            return chunks[0]
        seqs = [chunk.sequence_numbers for chunk in chunks]
        return cls(
            np.concatenate([chunk.inputs for chunk in chunks]),
            np.concatenate([chunk.targets for chunk in chunks]),
            np.concatenate([chunk.source_ids for chunk in chunks]),
            np.concatenate([chunk.time_steps for chunk in chunks]),
            None if any(seq is None for seq in seqs) else np.concatenate(seqs),
        )


class ColumnStore:
    """Preallocated structure-of-arrays backing one training buffer.

    The store is pure storage: it never tracks which rows are live.  The
    owning buffer's policy maps logical positions to row slots and is the
    single reader/writer, holding the buffer lock around every call — in
    particular a policy frees slots and gathers their rows under the *same*
    lock acquisition, so a freed slot can never be overwritten before its
    row has been copied out.

    All four columns are allocated lazily on the first write (row widths
    are only known then), so a buffer that holds no sample holds no column
    memory, nor does any process forked before its first put.  Writes copy
    the row data (cast to the column dtypes); that is the single adoption
    copy of the put path.  A row whose widths do not match the allocated
    columns is rejected with :class:`ValueError` — one study trains one
    model, so every sample has the same shape.
    """

    __slots__ = ("capacity", "inputs", "targets", "source_ids", "time_steps")

    def __init__(self, capacity: int) -> None:
        self.capacity = int(capacity)
        self.inputs: Optional[Array] = None
        self.targets: Optional[Array] = None
        self.source_ids: Optional[Array] = None
        self.time_steps: Optional[Array] = None

    def ensure_columns(self, input_shape: Tuple[int, ...], target_shape: Tuple[int, ...]) -> None:
        """Allocate the columns for the first sample; reject other widths after.

        The owning buffer calls this before it takes slots for a write, so a
        rejected sample leaves the policy state untouched.  The allocation is
        all or nothing: a failed ``np.empty`` (``MemoryError``) leaves every
        column unallocated, so the next write retries it.
        """
        if self.inputs is None:
            if len(input_shape) != 1 or len(target_shape) != 1:
                raise ValueError(
                    f"samples must be flat vectors, got inputs {input_shape} "
                    f"and target {target_shape}"
                )
            inputs = np.empty((self.capacity,) + input_shape, dtype=np.float32)
            targets = np.empty((self.capacity,) + target_shape, dtype=np.float32)
            source_ids = np.empty(self.capacity, dtype=np.int64)
            time_steps = np.empty(self.capacity, dtype=np.int64)
            self.inputs, self.targets = inputs, targets
            self.source_ids, self.time_steps = source_ids, time_steps
        elif input_shape != self.inputs.shape[1:] or target_shape != self.targets.shape[1:]:
            raise ValueError(
                f"sample widths (inputs {input_shape}, target {target_shape}) do not "
                f"match the buffer's columns (inputs {self.inputs.shape[1:]}, "
                f"target {self.targets.shape[1:]})"
            )

    # ----------------------------------------------------------------- writes
    def write_batch(self, slots: Array, batch: ColumnBatch, offset: int = 0) -> None:
        """Insert ``batch[offset:offset + len(slots)]`` at ``slots``: one
        fancy-indexed write per column."""
        rows = slice(offset, offset + len(slots))
        self.inputs[slots] = batch.inputs[rows]
        self.targets[slots] = batch.targets[rows]
        self.source_ids[slots] = batch.source_ids[rows]
        self.time_steps[slots] = batch.time_steps[rows]

    # ------------------------------------------------------------------ reads
    def gather(self, slots: Array) -> ColumnBatch:
        """Rows at ``slots`` as a fresh :class:`ColumnBatch`.

        ``np.take`` copies, so the returned batch owns its columns and stays
        valid after the slots are recycled (along axis 0 it gathers a few
        microseconds faster than fancy indexing for a 100-row batch).
        """
        if self.inputs is None:  # nothing was ever written: ``slots`` is empty
            empty = np.empty((0, 0), dtype=np.float32)
            keys = np.empty(0, dtype=np.int64)
            return ColumnBatch(empty, empty, keys, keys)
        return ColumnBatch(
            np.take(self.inputs, slots, axis=0),
            np.take(self.targets, slots, axis=0),
            self.source_ids[slots],
            self.time_steps[slots],
        )
