"""Light logging helpers shared by launcher, server and clients."""

from __future__ import annotations

import logging
import sys

_FORMAT = "%(asctime)s [%(levelname)s] %(name)s: %(message)s"


def get_logger(name: str, level: int = logging.WARNING) -> logging.Logger:
    """Return a configured logger namespaced under ``repro``.

    The first call installs a stream handler on the ``repro`` root logger;
    subsequent calls reuse it.  Levels can be tightened per component.
    """
    root = logging.getLogger("repro")
    if not root.handlers:
        handler = logging.StreamHandler(sys.stderr)
        handler.setFormatter(logging.Formatter(_FORMAT))
        root.addHandler(handler)
        root.setLevel(logging.WARNING)
    logger = logging.getLogger(f"repro.{name}")
    logger.setLevel(level)
    return logger
