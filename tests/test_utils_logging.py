"""Tests for the logging helpers."""

import logging

from repro.utils.logging import get_logger


def test_get_logger_namespaced_and_handler_installed():
    logger = get_logger("unit-test")
    assert logger.name == "repro.unit-test"
    root = logging.getLogger("repro")
    assert root.handlers  # installed once
    # A second call must not add another handler.
    get_logger("unit-test-2")
    assert len(root.handlers) == 1
