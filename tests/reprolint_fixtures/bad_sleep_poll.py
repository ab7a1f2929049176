"""Fixture: coroutines that poll with asyncio.sleep (POSITIVE, 4 findings).

Each re-checks a condition on a timer instead of awaiting the event that the
state change sets.
"""

import asyncio
import asyncio as aio
from asyncio import sleep as nap


async def retry_until_accepted(sink, entry):
    while not sink.try_enqueue(entry):
        await asyncio.sleep(0.005)  # finding


async def wait_for_flag(state):
    while not state.ready:
        await nap(0.01)  # finding


async def drain_each(items):
    for item in items:
        item.process()
        await aio.sleep(0)  # finding


async def poll_in_the_loop_test(state):
    while await aio.sleep(0.01, result=not state.ready):  # finding
        pass
