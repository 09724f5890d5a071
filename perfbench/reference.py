"""A reference kernel, run in short bursts during every command, that
gauges how fast the host runs at that moment.

On a shared host the same command runs up to 1.6 times slower in phases
that last from under a second to minutes, so pass times alone spread
wider than any useful regression bound.  While a command runs, a timer
(``SIGALRM`` every ``PERIOD_S``) interrupts it between two Python
bytecodes and runs one burst: ``BURST_STEPS`` steps of a fixed kernel,
a few milliseconds.  A burst's time tracks the host's speed during the
command, and the command's own time is its wall time minus its bursts.
Dividing the one by the mean of the other cancels the host's phase but
not a change in the program: the kernel uses only Python and numpy,
never ``unruhlab``, on matrices small enough to stay in cache.  Its mix
is the program's: complex matrix products, ``kron``, ``eigvalsh`` of 4x4
and 12x12 Hermitian matrices and short Python loops, so both slow down
together.

``NOMINAL_BURST_S`` is about the median burst time on the machine the
benchmark was defined on (baseline.json).  A command whose own time was
``t`` while its bursts took ``b`` on average reports
``t * NOMINAL_BURST_S / b`` calibrated seconds.
"""

import signal
import time

import numpy as np

NOMINAL_BURST_S = 0.003
BURST_STEPS = 30
PERIOD_S = 0.1

_RNG = np.random.default_rng(20161607)
_SMALL = [_RNG.standard_normal((2, 2)) + 1j * _RNG.standard_normal((2, 2)) for _ in range(4)]
_MID = _RNG.standard_normal((12, 12)) + 1j * _RNG.standard_normal((12, 12))


class _Point:
    __slots__ = ("r", "s", "value")

    def __init__(self, r, s, value):
        self.r, self.s, self.value = r, s, value


def kernel(steps: int = BURST_STEPS) -> float:
    """``steps`` steps of reference work; returns a checksum so nothing is skipped."""
    total = 0.0
    points = []
    for step in range(steps):
        a, b = _SMALL[step % 4], _SMALL[(step + 1) % 4]
        k = np.kron(a, b) * (1.0 + step * 1e-6)
        h = k @ k.conj().T
        total += float(np.linalg.eigvalsh(h)[-1])
        m = _MID * (1.0 + step * 1e-6)
        m = m @ m.conj().T
        w = np.linalg.eigvalsh(m)
        w = w[w > 1e-12]
        total += float(-np.sum(w * np.log(w)) / np.trace(m).real)
        points.append(_Point(step * 0.01, step % 7, total))
        total += sum(p.value for p in points[-8:]) * 1e-9
    return total


class Gauge:
    """Runs a burst every PERIOD_S while inside ``with gauge:``.

    ``bursts`` collects the seconds of every burst run so far; the caller
    reads and clears it.  Bursts do not nest: a timer signal that arrives
    during a burst is dropped.
    """

    def __init__(self):
        self.bursts: list[float] = []
        self._busy = False
        self._previous = None
        kernel()   # warm numpy up before the first timed burst

    def _burst(self, signum, frame):
        if self._busy:
            return
        self._busy = True
        start = time.perf_counter()
        kernel()
        self.bursts.append(time.perf_counter() - start)
        self._busy = False

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._burst)
        # one burst at once, so even a short command has one; then every PERIOD_S
        signal.setitimer(signal.ITIMER_REAL, 1e-6, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False
