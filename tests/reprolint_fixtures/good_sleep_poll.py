"""Fixture: waits that end on their event, and sleeps that are not polls (NEGATIVE)."""

import asyncio
import time


async def wait_for_space(sink, entry, space: asyncio.Event):
    while not sink.try_enqueue(entry, space.set):
        await space.wait()
        space.clear()


async def delayed_start(delay):
    await asyncio.sleep(delay)  # one delay, no loop


async def retry_once_per_item(items):
    for item in items:
        async def backoff():
            await asyncio.sleep(0.1)  # a new scope: not the loop's own wait
        item.on_failure = backoff
    else:
        await asyncio.sleep(0)  # the else clause runs once


async def gather_all(tasks):
    for task in asyncio.as_completed(tasks):
        await task


def blocking_poll(state):
    while not state.ready:
        time.sleep(0.01)  # the time.sleep half is not checked yet
