"""A speed probe: samples how fast the host runs while the workload runs.

The 2-core virtual machine this benchmark was built on shares its host, and
its speed changes under the benchmark in two ways.  Over seconds it
alternates between a fast phase and phases up to 1.7x slower, and at times
it stays 1.2-1.5x slower for minutes; CPU time rises with wall time there,
so this is slower execution.  At other times the hypervisor takes the vCPU
away (the steal column of /proc/stat reached 12%), which stretches wall
time but not CPU time.  No statistic of times within one run removes the
first: ten runs of the same code spread by 20-40% of their median.

The probe times a fixed ~2 ms kernel (a Python loop, a Hermitian eigh, an
FFT and batched 3x3 det/inv: the kinds of work the library does) from a
SIGALRM handler every ``PERIOD`` seconds while units run.  The handler runs
in the main thread between bytecodes, so it samples the same core at the
same moments as the work, and slows with it.  A unit's time, less the probe
time inside it, is then expressed in probe times: over the mean probe time
of the same stretch of the run.  CPU time over probe CPU time cancels both
kinds of change; wall time over probe wall time cancels the first only,
since a 2 ms probe seldom meets the hypervisor's pauses.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

PERIOD = 0.2        # seconds between probes
GROUP_PROBES = 10   # probes per window of consecutive units (~2 s)


class SpeedProbe:
    def __init__(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
        self.herm = a @ a.conj().T
        self.grid = rng.standard_normal((9, 9, 9)) + 0j
        self.blocks = (rng.standard_normal((600, 3, 3))
                       + 1j * rng.standard_normal((600, 3, 3)))
        self.samples = []   # (start, wall, cpu) of each probe, in seconds
        self._remaining = PERIOD
        for _ in range(20):  # warm caches and lazy imports
            self.kernel()
        signal.signal(signal.SIGALRM, self._on_alarm)

    def kernel(self):
        np.linalg.eigh(self.herm)
        np.fft.fftn(self.grid)
        np.linalg.det(self.blocks)
        np.linalg.inv(self.blocks)
        x = 0
        for i in range(6000):
            x += i * i
        return x

    def _on_alarm(self, signum, frame):
        c0 = time.thread_time()
        t0 = time.perf_counter()
        self.kernel()
        t1 = time.perf_counter()
        self.samples.append((t0, t1 - t0, time.thread_time() - c0))

    def spent(self, since, t0, t1):
        """(wall, cpu) of the probes that started in [t0, t1), among
        samples[since:]."""
        inside = [(w, c) for s, w, c in self.samples[since:] if t0 <= s < t1]
        return sum(w for w, _ in inside), sum(c for _, c in inside)

    def resume(self):
        """Arm the timer, continuing the period where ``pause`` left it."""
        signal.setitimer(signal.ITIMER_REAL, self._remaining, PERIOD)

    def pause(self):
        remaining, _ = signal.setitimer(signal.ITIMER_REAL, 0)
        self._remaining = remaining or PERIOD

    def close(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def relative(unit_s, unit_probes):
    """Median over windows of consecutive units of (mean unit time) / (mean
    probe time in the window), a window closing once it holds
    ``GROUP_PROBES`` probes.  ``unit_probes[k]`` lists the probe times taken
    during unit k, in the same clock as ``unit_s``; probe-less leftovers
    join the last window.  Returns (value, number of windows)."""
    windows, cur_s, cur_p = [], [], []
    for s, probes in zip(unit_s, unit_probes):
        cur_s.append(s)
        cur_p.extend(probes)
        if len(cur_p) >= GROUP_PROBES:
            windows.append((cur_s, cur_p))
            cur_s, cur_p = [], []
    if cur_s:
        if windows:
            windows[-1][0].extend(cur_s)
            windows[-1][1].extend(cur_p)
        else:
            windows.append((cur_s, cur_p))
    ratios = [statistics.fmean(s) / statistics.fmean(p)
              for s, p in windows if p]
    if not ratios:
        raise RuntimeError("no probe fired during the measured units")
    return statistics.median(ratios), len(ratios)
