"""The fixture project's tests: their references keep nothing alive."""

from pkg import listed_only, reexported_only
from pkg.bad import Helper, only_tested, recursive


def check():
    assert only_tested() == 1
    assert recursive(2) == 0
    assert Helper().tested_method() == 2
    reexported_only()
    listed_only()
