"""In-process stand-ins for a worker pool that breaks, shared by the salvage tests.

``ParallelEngine`` treats only a broken pool as a reason to fall back to
serial execution: ``BrokenExecutor`` from ``result()`` (what a real process
pool raises when a worker dies), or ``RuntimeError``/``OSError`` from
``submit()``.  Any other exception from ``result()`` is the task's own error
and propagates.  Assign a fake to ``engine._pool`` to drive either path
without starting processes.  Import as ``from fake_pools import ...``.
"""

from __future__ import annotations

from concurrent.futures.process import BrokenProcessPool


class CompletedFuture:
    def __init__(self, payload):
        self._payload = payload

    def cancel(self):
        return False

    def result(self):
        return self._payload


class FailedFuture:
    """A finished future whose ``result()`` raises ``error``."""

    def __init__(self, error=None):
        self._error = error or BrokenProcessPool("worker died mid-batch")

    def cancel(self):
        return False

    def result(self):
        raise self._error


class PendingFuture:
    def cancel(self):
        return True

    def result(self):  # pragma: no cover - cancelled before anyone waits
        raise AssertionError("a cancelled future must never be waited on")


class BreakingPool:
    """First task completes, the second fails with ``error``, the rest never start.

    The default ``error`` is a pool breakage; pass any other exception to
    model a task that raised inside a worker.
    """

    def __init__(self, error=None):
        self.error = error
        self.submissions = 0

    def submit(self, fn, *args):
        self.submissions += 1
        if self.submissions == 1:
            return CompletedFuture(fn(*args))
        if self.submissions == 2:
            return FailedFuture(self.error)
        return PendingFuture()

    def shutdown(self, wait=True, cancel_futures=False):
        pass


class SubmitBreakingPool:
    """A pool that broke between batches: every ``submit()`` raises."""

    def submit(self, fn, *args):
        raise RuntimeError("cannot schedule new futures after shutdown")

    def shutdown(self, wait=True, cancel_futures=False):
        pass
