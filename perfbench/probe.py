"""Machine-speed probe: scales wall times to a fixed machine speed.

On a shared machine co-tenants slow a process by up to 1.5x for seconds at
a time; a fixed numpy loop measured 47 ms per iteration in quiet stretches
and 70 ms in busy ones, with process CPU time equal to wall time, so it is
not preemption, and per-run medians of raw times spread by 20-45 %.  The
benchmark therefore runs a fixed kernel (this probe, which calls nothing of
the program) often while it times the program: after every optimizer step,
after every forward-only batch or sequence, and around every timed
operation.  A timed span is cut at the probes inside it; each stretch
between two probes is multiplied by ``REFERENCE_NS / p``, where ``p`` is the
median duration of the ``NEAREST`` probes around it, and the probes' own
time is left out.  A busy stretch of the machine moves both the stretches
and the probe; a change to the program moves the stretches only.

For the last to hold, the probe's duration must not depend on what the
program left in the caches or the heap, so the kernel is a pure-Python
integer loop that touches no array.  Each probe runs it twice and times
only the second pass; the first warms the interpreter's code paths.  After
a 64 MB pass that evicts the caches the timed pass takes as long as back to
back.  Of the kernels tried it also follows the machine best: over 0.5 s
windows of a 40 s stretch, a GELU on 512x1024, a 512x256 by 256x1024 matmul
and a desk-sized per-head attention loop spread by 16-20 % raw and by 5-6 %
over this probe; a numpy kernel of small matmuls and ``tanh`` left 14-16 %.
"""

from __future__ import annotations

import bisect
import statistics
import time

# Near the timed pass's fast end on the machine the bounds were set on (a
# 2-vCPU Intel Xeon VM), where per-run medians ranged 0.29-0.42 ms.
REFERENCE_NS = 300_000
NEAREST = 5
LOOP = 5000


def _kernel() -> int:
    total = 0
    for i in range(LOOP):
        total += i * i
    return total


class ProbeClock:
    def __init__(self):
        self.start: list[int] = []  # perf_counter_ns at each probe's start
        self.at: list[int] = []     # and at its end
        self.took: list[int] = []   # duration of its timed pass

    def probe(self, times: int = 1) -> None:
        for _ in range(times):
            t0 = time.perf_counter_ns()
            _kernel()       # warm-up pass, not timed
            t1 = time.perf_counter_ns()
            _kernel()
            t2 = time.perf_counter_ns()
            self.start.append(t0)
            self.at.append(t2)
            self.took.append(t2 - t1)

    def _scale(self, j: int) -> float:
        """REFERENCE_NS over the median of the NEAREST probes centred on j."""
        lo = max(0, min(j - NEAREST // 2, len(self.took) - NEAREST))
        return REFERENCE_NS / statistics.median(self.took[lo:lo + NEAREST])

    def seconds(self, t0: int, t1: int, scaled: bool = True) -> float:
        """Seconds from t0 to t1 with the probes left out, at the reference
        speed if ``scaled``, else as measured.

        Needs a probe after t1; every timed span ends with one."""
        scale = self._scale if scaled else lambda j: 1.0
        first = bisect.bisect_left(self.start, t0)
        last = bisect.bisect_right(self.at, t1)
        total, cur = 0.0, t0
        for j in range(first, last):
            total += (self.start[j] - cur) * scale(j)
            cur = self.at[j]
        total += (t1 - cur) * scale(last)
        return total / 1e9

    def factor(self, t0: int, t1: int) -> float:
        """Scaled over unscaled time of [t0, t1], probes left out of both."""
        return self.seconds(t0, t1) / self.seconds(t0, t1, scaled=False)
