"""Array primitives of the buffers' slot bookkeeping.

A randomized buffer keeps its row slots in one preallocated ``np.intp``
permutation of ``range(capacity)`` split into contiguous regions by integer
boundaries (FIRO: live | free; Reservoir: seen | unseen | free).  Every
policy operation is then one of three things, none of which loops over
samples in Python:

* a *slice hand-out* — a put takes the free slots next to the boundary;
* a *position draw* — :func:`uniform_positions` (iid, with replacement) or
  :func:`distinct_positions` (a uniform subset, i.e. sequential draws from a
  shrinking population) over a region;
* a *boundary move* — :func:`move_to_edge` gathers the drawn positions' slots
  at one end of their region so that shifting the boundary hands them to the
  neighbouring region (eviction, unseen→seen migration, FIRO draw).

The Reservoir's drain draws are the exception: they take the tails of
regions it keeps shuffled (:meth:`ReservoirBuffer._drain_locked`).

``Generator.integers``/``Generator.choice`` carry several microseconds of
call overhead each, so positions come from one ``Generator.random`` call
(the cheapest vectorized primitive) scaled to the population.
"""

from __future__ import annotations

import numpy as np

Array = np.ndarray

__all__ = ["uniform_positions", "distinct_positions", "move_to_edge"]


def uniform_positions(rng: np.random.Generator, population: int, size: int) -> Array:
    """``size`` iid uniform positions in ``[0, population)``, ascending.

    A batch is a set of draws, so the order carries no information; sorting
    (in place, a fraction of a microsecond) is what lets the callers find the
    positions beyond a boundary with one scalar comparison.
    """
    chosen = (rng.random(size) * population).astype(np.intp)
    chosen.sort()
    return chosen


def distinct_positions(rng: np.random.Generator, population: int, size: int) -> Array:
    """``size`` distinct uniform positions in ``[0, population)``, ascending.

    The distinct values of an iid stream, read until ``size`` of them have
    appeared, are exactly the outcome of drawing one uniform position at a
    time from the shrinking remainder; collisions (rare for ``size <<
    population``) are replaced by further draws.  When the request is a large
    share of the population rejection degrades, so a permutation prefix is
    used instead.
    """
    if 4 * size >= population:
        chosen = rng.permutation(population)[:size]
        chosen.sort()
        return chosen
    chosen = uniform_positions(rng, population, size)
    # (A single draw cannot collide: one-row puts and draws skip the comparison.)
    while size > 1 and np.count_nonzero(chosen[1:] == chosen[:-1]):
        distinct = np.unique(chosen)
        more = uniform_positions(rng, population, size - len(distinct))
        chosen = np.concatenate((distinct, more))
        chosen.sort()
    return chosen


def move_to_edge(perm: Array, chosen: Array, lo: int, hi: int) -> None:
    """Permute ``perm`` so the slots at ``chosen`` occupy ``perm[lo:hi]``.

    ``chosen`` holds ``hi - lo`` distinct ascending positions of the region
    that has ``[lo, hi)`` as one of its ends; the edge entries they displace
    take the vacated positions, so ``perm`` stays a permutation and everything
    outside ``chosen ∪ [lo, hi)`` is untouched.  The caller then moves the
    region boundary across the edge.
    """
    if chosen[0] == lo and chosen[-1] == hi - 1:
        return  # the chosen slots are the edge already
    edge = perm[lo:hi]
    moved = perm[chosen]
    if chosen[-1] < lo or chosen[0] >= hi:
        perm[chosen] = edge
    else:
        # Edge entries that are themselves chosen stay in the edge; only the
        # others are displaced, into the chosen positions outside the edge.
        begin, end = chosen.searchsorted(lo), chosen.searchsorted(hi)
        displaced = np.ones(hi - lo, dtype=bool)
        displaced[chosen[begin:end] - lo] = False
        perm[np.concatenate((chosen[:begin], chosen[end:]))] = edge[displaced]
    edge[:] = moved
