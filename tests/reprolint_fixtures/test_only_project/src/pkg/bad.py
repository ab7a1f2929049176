"""Definitions the ``test-only`` rule must flag: nothing outside tests/ reaches them."""


def only_tested():
    return 1


def reexported_only():
    """Imported by ``pkg/__init__.py`` and by the tests, nowhere else."""


def listed_only():
    """Named in ``__all__`` and by the tests, nowhere else."""


def recursive(depth):
    """Calls itself: a reference inside its own body does not count."""
    return 0 if depth == 0 else recursive(depth - 1)


class Helper:
    """Named only in ``resolve``'s docstring, whose mention does not count."""

    def tested_method(self):
        return 2
