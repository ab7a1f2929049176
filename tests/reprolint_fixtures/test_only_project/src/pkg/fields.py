"""Fields the ``test-only`` rule must flag, and the reads that keep the rest."""

from dataclasses import dataclass, field


@dataclass
class Stats:
    received: int = 0  # alive: ``benchmarks/bench.py`` reads it
    tested_only: int = 0  # flagged: only ``tests/uses.py`` reads it
    counted: int = 0  # flagged: only ``+=``
    appended: list = field(default_factory=list)  # flagged: only ``.append``
    keyed: dict = field(default_factory=dict)  # flagged: only ``x.keyed[k] = v``
    traced: int = 0  # alive: ``benchmarks/bench.py`` names it in a string


class Tracker:
    def __init__(self):
        self._seen = set()  # flagged: only ``.add`` as a statement
        self._count = 0  # alive: ``total`` reads it

    def note(self, stats, key):
        stats.counted += 1
        stats.appended.append(key)
        stats.keyed[key] = 1
        self._seen.add(key)
        self._count += 1
        if key < 0:
            raise FixtureError([key])

    def total(self):
        return self._count


class FixtureError(RuntimeError):
    def __init__(self, errors):
        super().__init__("note failed")
        self.errors = errors  # exempt: an error's payload belongs to its catcher
