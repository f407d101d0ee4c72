"""Host-speed clock: how fast the shared host runs, next to each operation.

The host's speed drifts: on a shared 2-core VM a fixed pure-Python loop
runs up to 1.8x slower from one 5-second window to the next, and the
charwit operations slow with it.  So run.py times REF_LOOPS turns of a
fixed loop (about 20 ms) before the first operation and after every
operation and set-up, in the benchmark process and in series with the
operations, and scales each latency to a host on which the loop takes
REF_NOMINAL_S.  Over 60-second runs of CLI operations the latency moved
with the loop timed around it with an elasticity of 0.6 to 0.93, and
scaling cut the coefficient of variation from 0.14-0.17 to 0.08-0.11.

The loop runs in series on purpose: a sampler running beside the
operations shares a core with them whenever the scheduler puts both on
one, and then reads twice as slow while the host is not.
"""

import statistics
import time

REF_LOOPS = 200000
REF_NOMINAL_S = 0.02
PAD_S = 1.0   # an operation is scaled by the loops timed within PAD_S of it


def ref_loop():
    """Seconds the fixed reference loop takes now."""
    t = time.perf_counter()
    total = 0
    for i in range(REF_LOOPS):
        total += i * i % 7
    return time.perf_counter() - t


class HostClock:
    """Reference-loop samples taken between operations."""

    def __init__(self):
        self.samples = []

    def sample(self):
        self.samples.append((time.perf_counter(), ref_loop()))

    def scale(self, start, end):
        """Factor that takes a time spent over [start, end] to the
        reference host speed: REF_NOMINAL_S over the mean loop time
        sampled from PAD_S before start to PAD_S after end."""
        inside = [d for t, d in self.samples
                  if start - PAD_S <= t <= end + PAD_S]
        return REF_NOMINAL_S / statistics.fmean(inside)
