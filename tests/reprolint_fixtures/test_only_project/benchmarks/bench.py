"""A consumer outside tests/: keeps what it names alive."""

import pkg
from pkg import good

TARGETS = ["pkg.good:traced_by_name"]


def main():
    sampler = pkg.make_sampler("grid")
    return sampler.draw(), good.resolve(good)
