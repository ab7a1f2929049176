"""Property tests for the array bookkeeping of the FIRO and Reservoir buffers.

The policies keep their row slots in one ``np.intp`` permutation split into
regions by integer boundaries and draw with vectorized RNG calls, so their
draw *stream* is their own; what is pinned here is Algorithm 1's
*distribution* and invariants, against the textbook per-sample
implementations below (Python lists, one scalar draw per sample).  Every
property is checked through both ways of calling the one API: whole batches
(``put_many`` of a chunk, ``get_batch_columns(n)``) and one row at a time
(``put_many`` of one-row slices, ``get_batch_columns(1)``), which exercise
the policies' ``want == 1`` hook case.  A sample is named by its time step
(see the ``rows`` fixture).
"""

import numpy as np
import pytest

from repro.buffers import ReservoirBuffer, make_buffer


# ------------------------------------------------------------------ the doors
def put_batched(buffer, batch):
    """Insert what fits right now (never blocks); returns how many went in."""
    return buffer.put_many(batch, timeout=0.0)


def put_one_row(buffer, batch):
    inserted = 0
    while inserted < len(batch) and buffer.put_many(batch[inserted : inserted + 1], timeout=0.0):
        inserted += 1
    return inserted


def get_batched(buffer, count):
    try:
        return buffer.get_batch_columns(count, timeout=0.0).time_steps.tolist()
    except TimeoutError:
        return []


def get_one_row(buffer, count):
    steps = []
    for _ in range(count):
        drawn = get_batched(buffer, 1)
        if not drawn:
            break
        steps.extend(drawn)
    return steps


DOORS = {"batched": (put_batched, get_batched), "one_row": (put_one_row, get_one_row)}


# --------------------------------------------- textbook per-sample references
class ReferenceReservoir:
    """Algorithm 1, one sample at a time, on Python lists."""

    def __init__(self, capacity, threshold, rng):
        self.capacity, self.threshold, self.rng = capacity, threshold, rng
        self.seen, self.unseen = [], []
        self.reception_over = False
        self.total_put = self.total_got = self.evicted_seen = self.repeated_reads = 0

    @property
    def num_seen(self):
        return len(self.seen)

    def signal_reception_over(self):
        self.reception_over = True

    def put(self, sample) -> bool:
        if len(self.unseen) >= self.capacity:
            return False  # full of unseen data: the producer must wait
        if len(self.seen) + len(self.unseen) >= self.capacity:
            self.seen.pop(int(self.rng.integers(len(self.seen))))
            self.evicted_seen += 1
        self.unseen.append(sample)
        self.total_put += 1
        return True

    def get(self):
        total = len(self.seen) + len(self.unseen)
        if total == 0 or (not self.reception_over and total <= self.threshold):
            return None
        index = int(self.rng.integers(total))
        self.total_got += 1
        if index < len(self.unseen):
            sample = self.unseen.pop(index)
            if not self.reception_over:
                self.seen.append(sample)
            return sample
        self.repeated_reads += 1
        if self.reception_over:
            return self.seen.pop(index - len(self.unseen))
        return self.seen[index - len(self.unseen)]


class ReferenceFIRO:
    """First in, random out: evicted on reading, one sample at a time."""

    def __init__(self, capacity, threshold, rng):
        self.capacity, self.threshold, self.rng = capacity, threshold, rng
        self.items = []
        self.reception_over = False
        self.total_put = self.total_got = 0

    def put(self, sample) -> bool:
        if len(self.items) >= self.capacity:
            return False
        self.items.append(sample)
        self.total_put += 1
        return True

    def get(self):
        floor = 0 if self.reception_over else self.threshold
        if len(self.items) <= floor:
            return None
        self.total_got += 1
        return self.items.pop(int(self.rng.integers(len(self.items))))


def make_reference(kind, capacity, threshold, seed):
    cls = {"reservoir": ReferenceReservoir, "firo": ReferenceFIRO}[kind]
    return cls(capacity, threshold, np.random.default_rng(seed))


# ------------------------------------------------------ structural invariants
def live_slots(buffer):
    """The live region(s) of the slot permutation, after checking its shape."""
    perm = buffer._perm
    assert perm.dtype == np.intp
    assert sorted(perm.tolist()) == list(range(buffer.capacity))  # a permutation
    if isinstance(buffer, ReservoirBuffer):
        assert buffer._seen >= 0 and buffer._unseen >= 0
        assert buffer._seen + buffer._unseen <= buffer.capacity  # disjoint regions
        live = buffer._seen + buffer._unseen
    else:
        assert 0 <= buffer._count <= buffer.capacity
        live = buffer._count
    assert live == len(buffer)
    return perm[:live]


def assert_consistent(buffer, expected_live_keys):
    keys = buffer._store.time_steps[live_slots(buffer)].tolist()
    assert len(set(keys)) == len(keys)  # every live slot holds a distinct key
    assert set(keys) == expected_live_keys


@pytest.mark.parametrize("door", sorted(DOORS))
@pytest.mark.parametrize("kind", ["firo", "reservoir"])
def test_slot_arrays_stay_a_permutation_with_distinct_live_keys(kind, door, rows):
    """A random schedule of puts and gets of random sizes, checked after every
    operation against a model of which keys must be live."""
    put, get = DOORS[door]
    rng = np.random.default_rng(11)
    buffer = make_buffer(kind, capacity=24, threshold=3, seed=5)
    live, next_index = set(), 0
    for step in range(400):
        if step == 300:
            buffer.signal_reception_over()  # the last quarter runs in drain mode
        if rng.random() < 0.55:
            want = int(rng.integers(1, 9))
            evicted_before = getattr(buffer, "evicted_seen", 0)
            inserted = put(buffer, rows(range(next_index, next_index + want)))
            live.update(range(next_index, next_index + inserted))
            next_index += inserted
            if getattr(buffer, "evicted_seen", 0) > evicted_before:
                # Evictions are the policy's choice: learn them from the store.
                live = set(buffer._store.time_steps[live_slots(buffer)].tolist())
        else:
            drawn = get(buffer, int(rng.integers(1, 9)))
            if kind == "firo" or buffer.reception_over:
                assert len(set(drawn)) == len(drawn)  # without replacement
                assert set(drawn) <= live
                live.difference_update(drawn)
            else:
                assert set(drawn) <= live  # with replacement: nothing leaves
        assert_consistent(buffer, live)
    assert buffer.total_put == next_index


# ------------------------------------------------- Algorithm 1's guarantees
@pytest.mark.parametrize("door", sorted(DOORS))
def test_small_reservoir_trains_every_sample_and_never_evicts_unseen(door, rows):
    """Producer faster than a small Reservoir can hold: puts are refused while
    it is full of unseen samples, only seen ones are ever evicted, so every
    sample that went in comes out in some batch."""
    put, get = DOORS[door]
    rng = np.random.default_rng(3)
    buffer = ReservoirBuffer(capacity=12, threshold=4, seed=8)
    trained, next_index, refused = set(), 0, 0
    for _ in range(600):
        want = int(rng.integers(1, 7))
        inserted = put(buffer, rows(range(next_index, next_index + want)))
        refused += inserted < want
        next_index += inserted
        evicted = buffer.evicted_seen
        trained.update(get(buffer, int(rng.integers(1, 5))))
        assert buffer.evicted_seen == evicted  # a get never evicts
        assert buffer.num_unseen <= buffer.capacity
    assert refused > 0 and buffer.evicted_seen > 0  # the schedule exercised both
    buffer.signal_reception_over()
    remaining = []
    while True:
        drawn = get(buffer, 5)
        if not drawn:
            break
        remaining.extend(drawn)
    # Drain mode yields each remaining sample exactly once ...
    assert len(remaining) == len(set(remaining)) == buffer.capacity
    assert len(buffer) == 0
    assert len(buffer.get_batch_columns(1, timeout=0)) == 0  # exhausted
    # ... and with it every sample ever put has been trained at least once.
    assert trained | set(remaining) == set(range(next_index))
    assert buffer.total_put == next_index


@pytest.mark.parametrize("door", sorted(DOORS))
@pytest.mark.parametrize("kind", ["firo", "reservoir"])
def test_drain_mode_yields_each_remaining_sample_exactly_once(kind, door, rows):
    put, get = DOORS[door]
    buffer = make_buffer(kind, capacity=64, threshold=10, seed=2)
    assert put(buffer, rows(range(50))) == 50
    first = get(buffer, 15)  # reservoir: a mix of seen and unseen remains
    buffer.signal_reception_over()
    expected = set(range(50))
    if kind == "firo":
        expected -= set(first)
    drained = []
    while True:
        drawn = get(buffer, 7)
        if not drawn:
            break
        drained.extend(drawn)
    assert sorted(drained) == sorted(expected)
    assert len(buffer) == 0
    assert len(buffer.get_batch_columns(1, timeout=0)) == 0  # exhausted


# ------------------------------------------- distribution against Algorithm 1
TRIALS = 600
POPULATION = 16
FIRST, OVERFILL, SECOND = 12, 3, 6


def run_scenario(make, put, get, trial, batches):
    """Fill, select a batch, overfill, select again.  Twelve draws over sixteen
    samples leave fewer than three seen ones about once in 1e9 trials, so the
    overfill always finds its three victims and the counters are fixed."""
    fill, overfill = batches
    buffer = make(trial)
    assert put(buffer, fill) == POPULATION
    first = get(buffer, FIRST)
    assert put(buffer, overfill) == OVERFILL
    second = get(buffer, SECOND)
    assert len(first) == FIRST and len(second) == SECOND
    return buffer, first, second


def buffer_doors(kind, door):
    put, get = DOORS[door]
    return (lambda trial: make_buffer(kind, POPULATION, 0, seed=4000 + trial)), put, get


def reference_doors(kind):
    def put(reference, batch):
        return sum(reference.put(step) for step in batch.time_steps.tolist())

    def get(reference, count):
        drawn = (reference.get() for _ in range(count))
        return [sample for sample in drawn if sample is not None]

    return (lambda trial: make_reference(kind, POPULATION, 0, seed=9000 + trial)), put, get


def scenario_statistics(kind, doors, rows):
    batches = (rows(range(POPULATION)), rows(range(100, 100 + OVERFILL)))
    first_counts = np.zeros(POPULATION)
    evicted_counts = np.zeros(POPULATION)
    fresh_selected = repeated = evicted_seen = 0
    for trial in range(TRIALS):
        buffer, first, second = run_scenario(*doors, trial, batches)
        for item in first:
            first_counts[item] += 1
        assert buffer.total_put == POPULATION + OVERFILL
        assert buffer.total_got == FIRST + SECOND
        if kind == "reservoir":
            # Reception mode: every draw is a first selection or a repeat.
            first_selections = buffer.num_seen + buffer.evicted_seen
            assert buffer.repeated_reads == buffer.total_got - first_selections
            assert buffer.evicted_seen == OVERFILL  # fixed by the schedule
            repeated += buffer.repeated_reads
            evicted_seen += buffer.evicted_seen
            buffer.signal_reception_over()
            survivors = set(doors[2](buffer, 64))
            for index in range(POPULATION):
                if index not in survivors:
                    evicted_counts[index] += 1
                    # Only a sample selected before the overfill can be evicted.
                    assert index in first
            for index in range(100, 100 + OVERFILL):
                assert index in survivors  # unseen when the eviction happened
        else:
            assert len(set(second)) == SECOND
            assert not set(first) & set(second)  # evicted on reading
        fresh_selected += sum(1 for item in set(second) if item >= 100)
    return {
        "first": first_counts / (FIRST * TRIALS),
        "evicted": evicted_counts / (OVERFILL * TRIALS),
        "fresh_per_trial": fresh_selected / TRIALS,
        "repeated_per_trial": repeated / TRIALS,
        "evicted_seen": evicted_seen,
    }


@pytest.mark.parametrize("door", sorted(DOORS))
@pytest.mark.parametrize("kind", ["firo", "reservoir"])
def test_selection_and_eviction_frequencies_match_algorithm_1(kind, door, rows):
    """Over 600 seeded trials the buffer and the per-sample reference agree on
    who gets selected and who gets evicted.

    Tolerances: a per-key selection share is a mean of 7200 Bernoulli(1/16)
    draws (sd 0.003), an eviction share one of 1800 (sd 0.006): both must
    lie within half of the uniform share 1/16 of it and of the reference;
    per-trial means of bounded counts (sd < 2 per trial, 0.08 over 600) must
    agree within 0.4.
    """
    ours = scenario_statistics(kind, buffer_doors(kind, door), rows)
    reference = scenario_statistics(kind, reference_doors(kind), rows)
    uniform = 1.0 / POPULATION
    assert np.abs(ours["first"] - uniform).max() < 0.5 * uniform
    assert np.abs(ours["first"] - reference["first"]).max() < 0.5 * uniform
    assert abs(ours["fresh_per_trial"] - reference["fresh_per_trial"]) < 0.4
    if kind == "reservoir":
        # Evictions: uniform over the seen samples only, never an unseen one
        # (asserted per trial above), at the reference's per-key rate.
        assert np.abs(ours["evicted"] - uniform).max() < 0.5 * uniform
        assert np.abs(ours["evicted"] - reference["evicted"]).max() < 0.5 * uniform
        assert abs(ours["repeated_per_trial"] - reference["repeated_per_trial"]) < 0.4
        assert ours["evicted_seen"] == reference["evicted_seen"] == OVERFILL * TRIALS


@pytest.mark.parametrize("door", sorted(DOORS))
def test_reservoir_drain_draws_are_uniform_over_seen_and_unseen(door, rows):
    """Drain mode draws without replacement, uniformly over seen ∪ unseen:
    the first drained batch of 4 out of 16 (8 seen, 8 unseen) picks every
    sample with share 1/16 and counts its seen members as repeated reads."""
    put, get = DOORS[door]
    counts = np.zeros(POPULATION)
    population = rows(range(POPULATION))
    for trial in range(TRIALS):
        buffer = ReservoirBuffer(capacity=POPULATION, threshold=0, seed=7000 + trial)
        put(buffer, population)
        while buffer.num_seen < 8:
            get(buffer, 1)
        seen_keys = set(buffer._store.time_steps[buffer._perm[: buffer._seen]].tolist())
        repeated = buffer.repeated_reads
        buffer.signal_reception_over()
        drawn = get(buffer, 4)
        assert len(set(drawn)) == 4
        assert buffer.repeated_reads - repeated == len(seen_keys & set(drawn))
        assert buffer.num_seen == 8 - len(seen_keys & set(drawn))
        assert buffer.num_unseen == 8 - len(set(drawn) - seen_keys)
        for item in drawn:
            counts[item] += 1
    shares = counts / (4 * TRIALS)
    assert np.abs(shares - 1.0 / POPULATION).max() < 0.5 / POPULATION


def drain_after_puts_statistics(doors, rows):
    """Per-key share of a drain draw made after drain draws, puts and
    evictions interleaved: fill 12 of 16, select 12 in reception, drain 4,
    put 10 (8 into free slots, up to 2 evicting seen samples), drain 5."""
    make, put, get = doors
    keys = [*range(12), *range(100, 110)]
    counts = dict.fromkeys(keys, 0)
    for trial in range(TRIALS):
        buffer = make(trial)
        assert put(buffer, rows(range(12))) == 12
        get(buffer, 12)
        buffer.signal_reception_over()
        first = get(buffer, 4)
        put(buffer, rows(range(100, 110)))
        second = get(buffer, 5)
        assert len(second) == len(set(second)) == 5
        assert not set(first) & set(second)  # a drained sample never comes back
        for key in second:
            counts[key] += 1
    return np.array([counts[key] for key in keys]) / TRIALS


@pytest.mark.parametrize("door", sorted(DOORS))
def test_reservoir_drain_stays_uniform_across_puts_and_evictions(door, rows):
    """A put in drain mode lands at the unseen tail that drain draws take
    from, and an eviction reorders the seen region; the next draw must still
    be uniform.  Each key's chance to be in the last draw (about 0.35, sd
    0.02 over 600 trials) matches the per-sample reference within 0.1."""
    ours = drain_after_puts_statistics(
        (lambda trial: ReservoirBuffer(16, 0, seed=5000 + trial), *DOORS[door]), rows
    )
    reference = drain_after_puts_statistics(reference_doors("reservoir"), rows)
    assert np.abs(ours - reference).max() < 0.1


@pytest.mark.parametrize("draw", [1, 7, 50])
def test_drain_draw_rewrites_at_most_twice_its_size_of_the_permutation(draw, rows):
    """After the first drain draw (which orders both regions once), a draw of
    ``k`` samples touches at most ``2k`` entries of the slot permutation,
    whatever the population."""
    buffer = ReservoirBuffer(capacity=2000, threshold=0, seed=3)
    buffer.put_many(rows(range(2000)))
    while buffer.num_seen < 900:
        buffer.get_batch_columns(100)
    buffer.signal_reception_over()
    buffer.get_batch_columns(draw)
    for _ in range(20):
        before = buffer._perm.copy()
        assert len(buffer.get_batch_columns(draw)) == draw
        assert np.count_nonzero(buffer._perm != before) <= 2 * draw
    live_slots(buffer)  # still a permutation with consistent regions
    assert buffer.num_seen > 0 and buffer.num_unseen > 0  # both regions were drawn from


def test_distinct_positions_is_a_uniform_subset_even_when_collisions_abound():
    """The rejection path (collisions replaced by further draws) and the dense
    path (permutation prefix) both give every position the same share."""
    from repro.buffers.sampling import distinct_positions

    rng = np.random.default_rng(1)
    for population, size in ((40, 9), (40, 10), (6, 6)):  # rejection, dense, everything
        counts = np.zeros(population)
        for _ in range(4000):
            chosen = distinct_positions(rng, population, size)
            assert chosen.dtype == np.intp and len(chosen) == size
            assert (np.diff(chosen) > 0).all()  # distinct, ascending
            counts[chosen] += 1
        expected = 4000 * size / population
        assert np.abs(counts - expected).max() < 0.15 * expected


def test_move_to_edge_handles_chosen_positions_inside_the_edge():
    from repro.buffers.sampling import move_to_edge

    rng = np.random.default_rng(2)
    for _ in range(300):
        perm = rng.permutation(20).astype(np.intp)
        lo = int(rng.integers(0, 8))
        hi = int(rng.integers(lo + 6, 21))  # the region [lo, hi)
        count = int(rng.integers(1, hi - lo + 1))
        chosen = np.sort(rng.choice(np.arange(lo, hi), size=count, replace=False)).astype(np.intp)
        wanted = set(perm[chosen].tolist())
        region = set(perm[lo:hi].tolist())
        outside = (perm[:lo].tolist(), perm[hi:].tolist())
        for edge in ((lo, lo + count), (hi - count, hi)):  # head move, tail move
            moved = perm.copy()
            move_to_edge(moved, chosen, *edge)
            assert set(moved[edge[0] : edge[1]].tolist()) == wanted
            assert set(moved[lo:hi].tolist()) == region
            assert (moved[:lo].tolist(), moved[hi:].tolist()) == outside
