"""Definitions the ``test-only`` rule must not flag."""


class GridSampler:
    """Alive through the factory table in ``pkg/__init__.py``."""

    def draw(self):
        """Alive: ``benchmarks/bench.py`` calls it by attribute."""
        return 0.5

    def __repr__(self):
        return "GridSampler()"  # a dunder method is exempt


def traced_by_name():
    """Alive: ``benchmarks/bench.py`` names it in a string target list."""


def looked_up():
    """Alive: ``resolve`` reads it with ``getattr``."""


def resolve(module):
    """Return ``looked_up`` (a docstring naming ``Helper`` keeps nothing alive)."""
    return getattr(module, "looked_up")
