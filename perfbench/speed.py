"""Host-speed probe: timings in reference seconds on a noisy shared host.

On a shared host the speed of one core drifts by tens of percent over
tens of seconds (neighbouring tenants, frequency scaling), which is far
more than the bounds this benchmark must resolve.  So every timing is
paired with probes of a fixed pure-Python kernel run on the same core
right next to it, and reported in *reference seconds*::

    reference seconds = wall seconds × probe rate / NOMINAL_RATE

A change to the program under test cannot move the probe (it runs no
``repro`` code), so it moves reference seconds exactly as it moves wall
seconds; a host that is 20% slow for a minute moves both the wall time
and the probe, and cancels out.  Result files keep the raw wall values
next to the reference ones.

This module imports nothing, so ``run.py`` can probe before its imports.
"""

import time

#: probe kernel calls per second on the reference host (a 2-core x86
#: container, Python 3.11); only sets the scale of reference seconds
NOMINAL_RATE = 5500.0

#: probe seconds over which :attr:`Probe.recent` forgets old samples
RECENT_S = 0.25

#: the probe's working set: a few MB it strides through, so the probe
#: feels cache and memory contention the way the simulators do
_TABLE = [(i, (i * 7) % 13, i & 255) for i in range(1 << 16)]
_STRIDE = 1500
_cursor = 0


def _kernel() -> int:
    """Integer work over the next stretch of the working set."""
    global _cursor
    acc = 0
    for a, b, n in _TABLE[_cursor:_cursor + _STRIDE]:
        acc = (acc + (a ^ b) + n) & 0xFFFFFF
    _cursor = (_cursor + _STRIDE) % (len(_TABLE) - _STRIDE)
    return acc


class Probe:
    """Accumulates probe samples; :meth:`factor` converts to reference."""

    def __init__(self) -> None:
        self.calls = 0
        self.seconds = 0.0
        #: speed of the core while it runs this process (probe calls per
        #: CPU second, so time the host takes the core away is not in
        #: it), over the last RECENT_S or so of probing
        self.recent = 1.0

    def run(self, seconds: float) -> float:
        """Probe for about *seconds*; returns this sample's factor."""
        calls, start, cpu = 0, time.perf_counter(), time.process_time()
        while True:
            _kernel()
            calls += 1
            elapsed = time.perf_counter() - start
            if elapsed >= seconds:
                break
        cpu = time.process_time() - cpu
        if cpu > 0:
            weight = 1.0 if not self.seconds else min(1.0, cpu / RECENT_S)
            self.recent += weight * (calls / cpu / NOMINAL_RATE - self.recent)
        self.calls += calls
        self.seconds += elapsed
        return calls / elapsed / NOMINAL_RATE

    def factor(self) -> float:
        """Mean host speed of every sample so far, relative to nominal."""
        if not self.seconds:
            return 1.0
        return self.calls / self.seconds / NOMINAL_RATE
