"""A consumer outside tests/: keeps what it names alive."""

import time
from dataclasses import replace

import pkg
from pkg import clock, fields, good, settings

TARGETS = ["pkg.good:traced_by_name", "pkg.fields:Stats.traced"]


def main():
    sampler = pkg.make_sampler("grid")
    stats = fields.Stats()
    tracker = fields.Tracker()
    tracker.note(stats, 1)
    time.sleep(0)
    config = replace(settings.RunConfig(8), seed=1)
    options = {"workers": 3}
    settings.describe(settings.Engine(config), settings.Pool(**options), settings.Fifo(4))
    return (sampler.draw(), good.resolve(good), stats.received, tracker.total(),
            clock.Clock().now())
