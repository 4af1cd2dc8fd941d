"""Host speed, for scaling operation times to a reference speed.

On a shared machine the speed of a thread changes by up to 1.7 times for
seconds at a time.  :func:`host_speed` times a pure interpreter loop; an
operation's time times (SPEED_REF_S / speed) ** exponent, with the host
speed averaged over the operation (see :class:`Sampler`), is its time at
the reference speed.  Code that spends its time in the interpreter slows
down about as the loop does (exponent 1).  A Monte Carlo study spends most
of its time in numpy on large arrays and slows down less: by about the loop's
slowdown to the power STUDY_EXPONENT, fitted on the machine the benchmark
was written on.  Pure Python, so it runs before numpy loads.
"""
import contextlib
import math
import signal
import time

# the fastest of SPEED_REPEATS runs of a loop of SPEED_LOOP float operations
SPEED_LOOP = 4000
SPEED_REPEATS = 3
# the loop's time at the fast level of the machine the benchmark was written on
SPEED_REF_S = 5e-4
STUDY_EXPONENT = 0.7
# seconds between two host-speed samples while an operation runs
SAMPLE_EVERY_S = 0.2


def host_speed() -> float:
    """Seconds the speed loop takes now."""
    best = math.inf
    for _ in range(SPEED_REPEATS):
        t0 = time.perf_counter()
        s = 0.0
        for i in range(SPEED_LOOP):
            s += abs(i * 0.5 - s) ** 0.5
        best = min(best, time.perf_counter() - t0)
    return best


def at_reference_speed(ops, exponent=1.0) -> list:
    """Times of (seconds, host speed) pairs, scaled to SPEED_REF_S."""
    return [took * (SPEED_REF_S / speed) ** exponent for took, speed in ops]


class Sampler:
    """Host speed sampled on a timer while operations run.

    Inside :meth:`running`, a SIGALRM every SAMPLE_EVERY_S seconds runs
    :func:`host_speed` between two bytecodes of whatever runs then and
    appends the result to ``samples``.  ``spent`` adds up the time those
    samples took, so that it can be taken off the operations' times.  A
    sampler made with ``enabled=False`` takes no samples.  The handler
    stays installed once made, so that an alarm raised just before the
    timer stops is still handled by it.
    """

    def __init__(self, enabled=True):
        self.enabled = enabled
        self.samples = []
        self.spent = 0.0
        if enabled:
            signal.signal(signal.SIGALRM, self._sample)

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        self.samples.append(host_speed())
        self.spent += time.perf_counter() - t0

    @contextlib.contextmanager
    def running(self):
        if not self.enabled:
            yield self
            return
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
