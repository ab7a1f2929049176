"""Tests for the logging helpers."""

import logging

from repro.utils.logging import get_logger, set_verbosity


def test_get_logger_namespaced_and_handler_installed():
    logger = get_logger("unit-test")
    assert logger.name == "repro.unit-test"
    root = logging.getLogger("repro")
    assert root.handlers  # installed once
    # A second call must not add another handler.
    get_logger("unit-test-2")
    assert len(root.handlers) == 1


def test_set_verbosity_changes_root_level():
    set_verbosity(logging.DEBUG)
    assert logging.getLogger("repro").level == logging.DEBUG
    set_verbosity(logging.WARNING)
    assert logging.getLogger("repro").level == logging.WARNING

