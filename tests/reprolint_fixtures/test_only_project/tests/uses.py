"""The fixture project's tests: their references keep nothing alive."""

from pkg import listed_only, reexported_only
from pkg.bad import Helper, only_tested, recursive
from pkg.clock import Clock
from pkg.fields import FixtureError, Stats, Tracker
from pkg.settings import Engine, RunConfig


def check():
    assert only_tested() == 1
    assert recursive(2) == 0
    assert Helper().tested_method() == 2
    reexported_only()
    listed_only()
    stats = Stats()
    Tracker().note(stats, 1)
    assert stats.tested_only == 0 and stats.counted == 1
    assert stats.appended == [1] and stats.keyed == {1: 1}
    Clock().sleep(0)
    try:
        Tracker().note(stats, -1)
    except FixtureError as error:
        assert error.errors == [-1]
    engine = Engine(RunConfig(retry_timeout=0.1), spin=0)
    assert engine.config.retry_timeout == 0.1 and engine.spin == 0
