"""Host-speed probe: corrects timings for the speed the host gave this process.

On a shared virtual machine the CPU speed a process gets drifts by up to 2x
within seconds (identical rounds of one workload took 1.36 s to 2.78 s in
one process on the reference host).  Every PERIOD_S of wall time, a SIGALRM
handler runs a fixed pure-Python loop and records the loop's thread CPU
time.  A phase's `factor` is (REFERENCE_S / mean sample) ** ELASTICITY; its
wall time times its factor is its wall time at the reference speed.

The workloads slow down more than the loop: between a fast and a slow phase
of the reference host the loop slowed 1.77x, and the workloads' times,
corrected with exponent 1, still read 5-19 % higher in the slow phase.
Exponent 1.25 would have put three of the four within 3 %, and
section-extract 10 % lower.

Thread CPU time is not lengthened by other threads holding the interpreter
lock, so only the host's speed moves the factor, not the program under
test.  The handler runs between bytecodes, so no sample is taken inside a
long native call; a sample costs ~0.4 ms every 50 ms.
"""

import signal
import statistics
import time

PERIOD_S = 0.05
LOOP = 10_000
# loop time on the reference host (2-core Xeon VM, Python 3.11.7) at full speed
REFERENCE_S = 350e-6
# d log(work time) / d log(loop time), measured on the reference host
ELASTICITY = 1.25


class SpeedProbe:
    def __init__(self):
        self.samples = []

    def _sample(self, signum, frame):
        t0 = time.thread_time()
        s = 0
        for i in range(LOOP):
            s += i
        self.samples.append(time.thread_time() - t0)

    def start(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mark(self):
        return len(self.samples)

    def factor(self, since):
        """Correction for the speed measured in the samples from `since` on."""
        got = self.samples[since:]
        return (REFERENCE_S / statistics.fmean(got)) ** ELASTICITY if got else 1.0
