"""Wake-up tests for the buffers' two wait queues.

A put can only ever unblock a getter and a get a putter, so each side wakes
the other's queue, and only when that queue's predicate holds.  Every wait
below is bounded: a lost wake-up fails in seconds instead of hanging.
"""

import sys
import threading
import time

import numpy as np
import pytest

from repro.buffers import FIFOBuffer, FIROBuffer, ReservoirBuffer, make_buffer
from repro.utils.exceptions import BufferClosedError

WAIT = 5.0  # upper bound of every blocking call; success takes milliseconds


def parked(buffer, queue, count=1):
    """Wait until ``count`` threads sit in ``queue`` (a Condition of ``buffer``)."""
    deadline = time.monotonic() + WAIT
    while time.monotonic() < deadline:
        with buffer._lock:
            if len(queue._waiters) >= count:
                return True
        time.sleep(0.002)
    return False


def run_in_thread(function):
    """Start ``function`` in a daemon thread; returns (thread, outcome list)."""
    outcome = []

    def target():
        try:
            outcome.append(function())
        except BaseException as exc:  # noqa: BLE001 - handed to the asserting thread
            outcome.append(exc)

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    return thread, outcome


def finish(thread, outcome):
    thread.join(timeout=WAIT)
    assert not thread.is_alive(), "a waiter was never woken"
    return outcome[0]


@pytest.mark.parametrize("kind", ["firo", "reservoir"])
def test_getter_below_threshold_is_not_woken_by_every_put(kind, rows):
    """200 ``put_many`` calls that stay below the threshold leave the parked
    getter asleep (its predicate runs O(1) times, not once per put); the put
    that crosses the threshold releases it promptly."""
    buffer = make_buffer(kind, capacity=1000, threshold=400, seed=0)
    getter_evaluations = []
    can_get = buffer._can_get_locked

    def counting_can_get():
        getter_evaluations.append(threading.get_ident())
        return can_get()

    buffer._can_get_locked = counting_can_get
    thread, outcome = run_in_thread(lambda: buffer.get_batch_columns(1, timeout=WAIT))
    assert parked(buffer, buffer._getters)
    for index in range(200):
        pair = rows([2 * index, 2 * index + 1])
        assert buffer.put_many(pair, timeout=WAIT) == 2  # 400 in all: not above
    assert thread.is_alive()
    by_getter = getter_evaluations.count(thread.ident)
    assert by_getter <= 3, f"getter predicate ran {by_getter} times during 200 puts"
    assert buffer.put_many(rows([400]), timeout=WAIT) == 1  # crosses the threshold
    assert len(finish(thread, outcome)) == 1


def test_putter_on_reservoir_full_of_unseen_is_released_by_first_get(rows):
    buffer = ReservoirBuffer(capacity=8, threshold=0, seed=0)
    assert buffer.put_many(rows(range(8)), timeout=WAIT) == 8
    thread, outcome = run_in_thread(lambda: buffer.put_many(rows(range(8, 10)), timeout=WAIT))
    assert parked(buffer, buffer._putters)
    assert len(buffer.get_batch_columns(4, timeout=WAIT)) == 4  # some become seen
    assert finish(thread, outcome) == 2
    assert buffer.evicted_seen == 2 and len(buffer) == 8


@pytest.mark.parametrize("kind", ["fifo", "firo", "reservoir"])
def test_close_releases_a_parked_putter_and_a_parked_getter(kind, rows):
    full = make_buffer(kind, capacity=4, threshold=0, seed=0)
    assert full.put_many(rows(range(4)), timeout=WAIT) == 4
    putter, put_outcome = run_in_thread(lambda: full.put_many(rows([4]), timeout=WAIT))
    empty = make_buffer(kind, capacity=4, threshold=0, seed=0)
    getter, get_outcome = run_in_thread(lambda: empty.get_batch_columns(1, timeout=WAIT))
    assert parked(full, full._putters) and parked(empty, empty._getters)
    full.close()
    empty.close()
    assert isinstance(finish(putter, put_outcome), BufferClosedError)
    assert len(finish(getter, get_outcome)) == 0


@pytest.mark.parametrize("kind", ["firo", "reservoir"])
def test_signal_reception_over_releases_getter_and_drain_releases_putter(kind, rows):
    """End of reception lifts the threshold, which frees the parked getter; a
    parked putter stays parked (nothing made room) until the drain does."""
    buffer = make_buffer(kind, capacity=6, threshold=6, seed=0)
    assert buffer.put_many(rows(range(6)), timeout=WAIT) == 6  # full, at the threshold
    getter, get_outcome = run_in_thread(lambda: buffer.get_batch_columns(2, timeout=WAIT))
    putter, put_outcome = run_in_thread(lambda: buffer.put_many(rows([6]), timeout=WAIT))
    assert parked(buffer, buffer._getters) and parked(buffer, buffer._putters)
    buffer.signal_reception_over()
    assert len(finish(getter, get_outcome)) == 2  # the drain frees two slots ...
    assert finish(putter, put_outcome) == 1       # ... which releases the putter
    assert len(buffer) == 5


def test_two_getters_on_one_buffer_both_wake_on_close():
    buffer = FIROBuffer(capacity=4, threshold=2, seed=0)
    first, first_outcome = run_in_thread(lambda: buffer.get_batch_columns(1, timeout=WAIT))
    second, second_outcome = run_in_thread(lambda: buffer.get_batch_columns(3, timeout=WAIT))
    assert parked(buffer, buffer._getters, count=2)
    buffer.close()
    assert len(finish(first, first_outcome)) == 0
    assert len(finish(second, second_outcome)) == 0


def test_fifo_each_get_that_frees_a_slot_wakes_the_parked_putter(rows):
    buffer = FIFOBuffer(capacity=2)
    assert buffer.put_many(rows(range(2)), timeout=WAIT) == 2
    thread, outcome = run_in_thread(lambda: buffer.put_many(rows(range(2, 4)), timeout=WAIT))
    assert parked(buffer, buffer._putters)
    assert buffer.get_batch_columns(1, timeout=WAIT).time_steps.tolist() == [0]
    assert buffer.get_batch_columns(1, timeout=WAIT).time_steps.tolist() == [1]
    assert finish(thread, outcome) == 2
    assert buffer.get_batch_columns(2, timeout=WAIT).time_steps.tolist() == [2, 3]


@pytest.mark.parametrize("kind", ["fifo", "firo", "reservoir"])
def test_many_putters_and_getters_on_a_tiny_buffer_lose_no_wake_up(kind, rows):
    """Three producers and three consumers (more threads than cores, switching
    every 10 us) hammer a buffer of 8 slots, so nearly every call parks.  All
    waits are bounded: one lost wake-up shows as a timeout, one lost update as
    a missing or repeated sample."""
    per_producer, producers = 400, 3
    buffer = make_buffer(kind, capacity=8, threshold=2, seed=0)
    consumed, failures = [], []

    def produce(index):
        start = index * per_producer
        for offset in range(0, per_producer, 5):
            if buffer.put_many(rows(range(start + offset, start + offset + 5)), timeout=WAIT) != 5:
                failures.append(f"producer {index} timed out at {offset}")
                return

    def consume():
        try:
            while True:
                batch = buffer.get_batch_columns(3, timeout=WAIT)
                if not len(batch):
                    return
                consumed.append(batch.time_steps)
        except TimeoutError:
            failures.append("a consumer timed out")

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        putters = [threading.Thread(target=produce, args=(i,), daemon=True)
                   for i in range(producers)]
        getters = [threading.Thread(target=consume, daemon=True) for _ in range(3)]
        for thread in putters + getters:
            thread.start()
        for thread in putters:
            thread.join(timeout=12 * WAIT)
        buffer.signal_reception_over()
        for thread in getters:
            thread.join(timeout=12 * WAIT)
    finally:
        sys.setswitchinterval(interval)
        buffer.close()
    assert not failures, failures
    assert not any(thread.is_alive() for thread in putters + getters)
    steps = np.concatenate(consumed)
    # Every sample was put once; FIFO/FIRO hand each out once, the Reservoir
    # at least once (it never evicts an unseen sample).
    assert set(steps.tolist()) == set(range(producers * per_producer))
    if kind != "reservoir":
        assert len(steps) == producers * per_producer
