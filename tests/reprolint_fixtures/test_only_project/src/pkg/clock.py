"""A method named like an external API that only tests call."""

import time


class Clock:
    def now(self):
        return time.monotonic()

    def sleep(self, seconds):
        """Flagged: ``time.sleep`` and a ``tools/`` string name another ``sleep``."""
        time.sleep(seconds)
