"""A virtual clock that drives MaintenanceLoop.run() without waiting."""


class FakeClock:
    """Virtual seconds from 0. Time passes only when the loop waits (by the
    whole timeout) or a job calls advance(); a loop still running past
    horizon_s fails the test instead of spinning forever."""

    def __init__(self, horizon_s: float = 1000.0) -> None:
        self.t = 0.0
        self.horizon_s = horizon_s

    def now(self) -> float:
        return self.t

    def wait(self, cond, timeout_s: float) -> None:
        self.advance(timeout_s)

    def advance(self, s: float) -> None:
        self.t += s
        if self.t > self.horizon_s:
            raise AssertionError(f"loop still running at virtual {self.t} s")

    def at(self, loop, t: float, fn) -> None:
        """Run fn once on loop's thread at virtual time t; before run(), a
        job set for the same time as a tick runs first."""
        job_id = object()

        def once():
            loop.cancel(job_id)
            fn()

        loop.schedule(job_id, t - self.t, once)
