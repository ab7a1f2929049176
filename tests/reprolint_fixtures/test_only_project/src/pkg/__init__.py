"""Fixture package for reprolint's ``test-only`` rule.

Its re-exports and ``__all__`` keep nothing alive; the ``make_sampler``
factory table does.
"""

from pkg.bad import listed_only, reexported_only
from pkg.good import GridSampler

__all__ = ["GridSampler", "listed_only", "make_sampler"]


def make_sampler(name):
    return {"grid": GridSampler}[name]()
