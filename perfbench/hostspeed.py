"""Host-speed correction for the end-to-end times.

On a shared host the speed of one CPU drifts by 10-40 % over tens of
seconds, from load this process cannot see (no steal time; process CPU
time tracks wall time).  The drift is not shared between the two CPUs, so a
calibration running beside the workload does not see it; one interleaved
on the same CPU does: over 3 s blocks, the time of a fixed Jacobian
assembly and of a kernel like the one below correlate at 0.96.

So while a run measures, a SIGALRM interval timer runs a short fixed
kernel every PERIOD_S seconds in the workload's own thread.  A measured
interval is then reported as

    (wall time - kernel time inside it) * mean(REFERENCE_S / kernel time)

over the kernel samples in the interval, widened by WINDOW_S on each
side: the interval's seconds at the kernel's reference speed, which are
wall seconds when the host runs the kernel in REFERENCE_S.  The kernel
uses no elastobranch code, so a faster program still reads faster.
"""

import signal
import time

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

PERIOD_S = 0.2
WINDOW_S = 1.0
# The kernel's median time over 60 benchmark runs in a steady phase of
# the host (5.17-5.43 ms per run) on a 2-vCPU, 2.1 GHz Xeon VM.  A
# fixed constant: it scales every reading alike.
REFERENCE_S = 0.00528


class SpeedSampler:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._f = rng.random((64, 27, 3, 3))
        self._a = (sp.random(400, 400, density=0.02, random_state=rng)
                   + 4.0 * sp.eye(400)).tocsc()
        self.samples = []        # (start, end) of each kernel run
        self._busy = False

    def kernel(self):
        """Batched small-tensor einsums, as in the element kernels and the
        audits, and a small sparse LU, as in the solves.  Against a 1.9 s
        splu of a 7^3 Jacobian, the small LU's speed correlated at 0.95 and
        the einsums' at 0.93.  An interpreted loop was tried too: its speed
        moved against the workload's (correlation -0.48 over 25 set-up
        passes, where the einsums gave 0.91), so it is left out."""
        f = self._f
        for _ in range(4):
            np.einsum("eqij,eqkj->eqik", f, f)
        splu(self._a)

    def _on_alarm(self, signum, frame):
        if self._busy:
            return
        self._busy = True
        try:
            t0 = time.perf_counter()
            self.kernel()
            self.samples.append((t0, time.perf_counter()))
        finally:
            self._busy = False

    def start(self):
        self.kernel()            # warm caches and the einsum path
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def work_time(self, t0, t1):
        """Wall time of [t0, t1] less the kernel time spent inside it."""
        inside = sum(max(0.0, min(e, t1) - max(s, t0)) for s, e in self.samples)
        return (t1 - t0) - inside

    def speed(self, t0, t1):
        """Mean reference/actual kernel speed over [t0, t1] +- WINDOW_S."""
        near = [e - s for s, e in self.samples
                if t0 - WINDOW_S <= s <= t1 + WINDOW_S]
        if not near:
            raise RuntimeError("no speed sample near [%.3f, %.3f]" % (t0, t1))
        return float(np.mean([REFERENCE_S / d for d in near]))

    def normalized(self, t0, t1):
        return self.work_time(t0, t1) * self.speed(t0, t1)
