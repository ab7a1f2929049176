"""A consumer outside tests/: keeps what it names alive."""

import time

import pkg
from pkg import clock, fields, good

TARGETS = ["pkg.good:traced_by_name", "pkg.fields:Stats.traced"]


def main():
    sampler = pkg.make_sampler("grid")
    stats = fields.Stats()
    tracker = fields.Tracker()
    tracker.note(stats, 1)
    time.sleep(0)
    return (sampler.draw(), good.resolve(good), stats.received, tracker.total(),
            clock.Clock().now())
