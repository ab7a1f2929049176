"""Exception hierarchy for the repro package."""


class ReproError(Exception):
    """Base class for every error raised by the repro package."""


class ConfigurationError(ReproError):
    """Raised when a study or component configuration is invalid."""


class BufferClosedError(ReproError):
    """Raised when interacting with a training buffer after it was closed."""


class CommunicatorError(ReproError):
    """Raised on invalid use of the SPMD communicator (bad rank, timeout, ...)
    and on every receive after a peer rank failed."""
