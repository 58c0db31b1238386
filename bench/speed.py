"""Host-speed probe: converts wall time into seconds at a reference speed.

The benchmark runs on a few cores of a shared host whose speed drifts by
up to 1.7x over seconds to minutes, for every process in the machine at
once. A fixed amount of work therefore takes a different wall time from
one run to the next even when the code is the same. The probe measures
that drift while the workload runs and scales the workload's wall time
by it, so that what is left moves with the code, not with the host.

A daemon thread wakes every PERIOD_S seconds and runs a fixed
pure-Python kernel, timing it with its own thread CPU clock: the clock
does not count the time the thread waits for the interpreter lock or
for a core, only the speed at which the core runs it. The kernel uses
neither qwave, numpy nor mpmath, so no change to them changes it.

``ref_seconds(a, b)`` is the wall interval [a, b] (perf_counter
seconds) scaled by REF_KERNEL_S over the kernel time measured around
it, smoothed by a rolling median of SMOOTH samples. On a host running
at the reference speed it equals b - a.
"""

import statistics
import threading
import time

PERIOD_S = 0.1
SMOOTH = 9
# Kernel CPU time at the reference speed: about its median on the
# machine the benchmark was defined on (2-vCPU Xeon KVM guest, Python
# 3.11.7), where it ranged from 1.1 to 2.2 ms.
REF_KERNEL_S = 0.0019


def kernel(n=4000):
    """Fixed pure-Python work: big-integer and float arithmetic, the two
    things an mpmath computation on its Python backend spends time on."""
    x, m, s, f = (1 << 200) + 12345, (1 << 190) + 7, 0, 1.0
    for i in range(n):
        s = (s + x * (i + 3)) % m
        f = f * 1.0000001 + 0.5 / (i + 1)
    return s, f


def kernel_seconds():
    """CPU time of one kernel run on the calling thread."""
    c0 = time.thread_time()
    kernel()
    return time.thread_time() - c0


class SpeedProbe:
    def __init__(self):
        self.samples = []  # (perf_counter at the end, kernel CPU seconds)
        self._stop = threading.Event()
        self._thread = None
        self._smoothed = None

    def __enter__(self):
        self._thread = threading.Thread(target=self._loop, daemon=True,
                                        name="bench-speed-probe")
        self.samples.append((time.perf_counter(), kernel_seconds()))
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
        self.samples.append((time.perf_counter(), kernel_seconds()))
        self._smoothed = None
        return False

    def _loop(self):
        while not self._stop.wait(PERIOD_S):
            self.samples.append((time.perf_counter(), kernel_seconds()))

    def _series(self):
        if self._smoothed is None:
            values = [k for _, k in self.samples]
            half = SMOOTH // 2
            self._smoothed = [
                statistics.median(values[max(0, i - half):i + half + 1])
                for i in range(len(values))]
        return self._smoothed

    def factor(self):
        """Median slowdown over the whole probe: kernel time over its
        reference time."""
        return statistics.median(k for _, k in self.samples) / REF_KERNEL_S

    def ref_seconds(self, a, b):
        """Wall interval [a, b] in seconds at the reference speed. The
        speed between two samples is the (smoothed) speed at the later
        one; before the first and after the last sample it stays at the
        nearest sample's."""
        times = [t for t, _ in self.samples]
        series = self._series()
        total, start = 0.0, a
        for t, k in zip(times, series):
            if t <= start:
                continue
            end = min(t, b)
            total += (end - start) * REF_KERNEL_S / k
            start = end
            if start >= b:
                return total
        return total + (b - start) * REF_KERNEL_S / series[-1]
