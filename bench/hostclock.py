"""Wall time scaled to a reference host speed.

The benchmark runs on a few vCPUs of a shared host whose speed drifts by
up to 1.7x in phases of seconds to a minute. No average over one run can
hide a phase that lasts the whole run, so raw wall times of identical runs
spread past any useful bound.

`HostClock` cuts a round into segments at marked calls. Between segments
it runs `kernel`, a fixed mix of small numpy calls and interpreted Python
like the workloads' own, for a quarter of the segment just ended (at
least once), and keeps the kernel's median time. A segment's wall time is
then scaled by `NOMINAL_KERNEL_S` over the geometric mean of the kernel
times measured just before and just after it: the time the segment would have taken had
the host run the kernel in `NOMINAL_KERNEL_S`. The kernel is part of the
benchmark, not of the program, so a change to the program does not move
it. It must never change either, or scaled times stop being comparable.

Time spent in the kernel lies between segments and is never counted.
A clock made with `scaled=False` runs no kernel and keeps wall time, for a
workload whose time the kernel does not follow.
"""

import functools
import math
import statistics
import time

import numpy as np

# The kernel's median time on the 2-vCPU Xeon VM the benchmark was built on,
# in a fast phase. It only sets the scale of reported times.
NOMINAL_KERNEL_S = 1.0e-3
KERNEL_SHARE = 0.25  # calibration time per second of measured segment
MIN_SEGMENT_S = 0.02  # shortest stretch of the round between two calibrations
START_KERNELS = 20  # kernel runs before the first segment of a round

_rng = np.random.default_rng(12345)
_A = _rng.standard_normal((32, 128))
_B = _rng.standard_normal((128, 64))


def kernel():
    """One fixed unit of host work; returns its wall time in seconds."""
    t0 = time.perf_counter()
    for _ in range(2):
        h = np.maximum(_A @ _B, 0.0)
        diff = _A[:, None, :] - _A[None, :, :]
        dist = np.sqrt((diff * diff).sum(axis=-1))
        dist.argmax(axis=1)
        h.T @ h
    acc = 0
    for i in range(1500):
        acc += i * i % 7
    return time.perf_counter() - t0


def calibrate(seconds, at_least=1):
    """Median kernel time over runs lasting `seconds`, and at least `at_least` runs."""
    times = []
    end = time.perf_counter() + seconds
    while len(times) < at_least or time.perf_counter() < end:
        times.append(kernel())
    return statistics.median(times)


class HostClock:
    """Scaled time of one round: of its marked units and of the rest.

    `mark(namespace, attr, begin, finish)` patches one function so that a
    call cuts the round before it runs (and starts a unit if `begin`), and
    its return cuts the round after (and ends a unit if `finish`). A unit
    may start in one function and end in another (a train step runs from
    the PK sampler to the Adam update). A function marked with neither
    flag only cuts the round when it returns, to keep segments short.

    A cut only stamps the time. The kernel runs once the pieces since the
    last calibration add up to `MIN_SEGMENT_S`, and they are all scaled
    alike, so that tiny pieces do not each pay for a kernel run.
    """

    def __init__(self, scaled=True):
        self.scaled_by_kernel = scaled
        self.units = []  # scaled seconds per finished unit
        self.unit_walls = []  # the same units in wall seconds
        self.outside = 0.0  # scaled seconds outside every unit
        self.scaled = 0.0
        self.wall = 0.0
        self.kernel_s = []
        self._patches = []
        self._pieces = []  # (wall seconds, begin, finish) since the last calibration
        self._t0 = None
        self._cal = None
        self._unit = None  # [scaled, wall] while a unit is open

    def start(self):
        self._cal = NOMINAL_KERNEL_S
        if self.scaled_by_kernel:
            self._cal = calibrate(0.0, START_KERNELS)
            self.kernel_s.append(self._cal)
        self._t0 = time.perf_counter()

    def cut(self, begin=False, finish=False):
        now = time.perf_counter()
        self._pieces.append((now - self._t0, begin, finish))
        self._t0 = now
        if sum(p[0] for p in self._pieces) >= MIN_SEGMENT_S:
            self._calibrate()

    def stop(self):
        self.cut()
        self._calibrate()
        self._unit = None

    def _calibrate(self):
        if not self._pieces:
            return
        cal = NOMINAL_KERNEL_S
        if self.scaled_by_kernel:
            cal = calibrate(KERNEL_SHARE * sum(p[0] for p in self._pieces))
            self.kernel_s.append(cal)
        scale = NOMINAL_KERNEL_S / math.sqrt(self._cal * cal)
        for wall, begin, finish in self._pieces:
            self.scaled += wall * scale
            self.wall += wall
            if self._unit is None:
                self.outside += wall * scale
            else:
                self._unit[0] += wall * scale
                self._unit[1] += wall
                if finish:
                    self.units.append(self._unit[0])
                    self.unit_walls.append(self._unit[1])
                    self._unit = None
            if begin:
                self._unit = [0.0, 0.0]
        self._pieces.clear()
        self._cal = cal
        self._t0 = time.perf_counter()

    def mark(self, namespace, attr, begin=False, finish=False):
        fn = namespace[attr]
        clock = self

        @functools.wraps(fn)
        def cut_around(*args, **kwargs):
            if begin:
                clock.cut(begin=True)
            result = fn(*args, **kwargs)
            if finish or not begin:
                clock.cut(finish=finish)
            return result

        self._patches.append((namespace, attr, fn))
        namespace[attr] = cut_around

    def uninstall(self):
        for namespace, attr, original in reversed(self._patches):
            namespace[attr] = original
        self._patches.clear()
