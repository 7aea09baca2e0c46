"""Host-speed calibration for the benchmark's time metrics.

The benchmark runs on a few cores of a shared host whose speed drifts by
tens of percent over tens of seconds: one deterministic run_rescue call
took a median 1.20 s over one 30 s window and 1.60 s two minutes later, with
nothing else of ours running.  A median over a run cannot remove a drift that lasts as
long as the run.  So each repetition also times a fixed kernel that does
not touch resilnet, about every ``INTERVAL_S``, and the runner reports
every time metric scaled to the speed at which the kernel takes ``REF_S``
seconds:

    reported = measured * REF_S / mean(kernel times around the measurement)

where a timed call's kernel times are those taken just before it, during it
and just after it, and the set-up's are all of its process's.

The kernel runs between the workload's timed calls and, inside long calls,
before resilnet's per-segment ``closed_loop_matrix`` (see ``install``); its
time is taken out of every time it falls in.  The kernel mixes what a
scenario run spends its time on: a Python loop around small numpy
products, float-to-text formatting and a small symmetric eigensolve.  Its cost depends on neither the seed nor the
resilnet sources, so a change to resilnet moves the reported times as it
moves the measured ones.  The raw wall times and the kernel times are kept
in the run record.
"""

from __future__ import annotations

import sys
import time

import numpy as np

# kernel seconds at the reference speed: about its median on an idle 2-core
# x86-64 VM, so that reported seconds read close to wall seconds there
REF_S = 0.04
INTERVAL_S = 0.5
_STEPS = 6000


def kernel() -> float:
    rng = np.random.default_rng(0)
    a = rng.standard_normal((8, 8)) / 8
    m = rng.standard_normal((40, 40))
    m = m + m.T
    x = np.ones(8)
    acc = 0.0
    rows = []
    for i in range(_STEPS):
        x = np.tanh(a @ x) + 0.01
        acc += float(x[0]) * 0.5
        rows.append("%d,%.9g,%.9g" % (i, acc, x[1]))
        if i % 200 == 0:
            acc += float(np.linalg.eigvalsh(m)[0]) * 1e-9
    return len("\n".join(rows)) + acc


class Calibration:
    """Kernel times of one process, taken at most every ``INTERVAL_S``."""

    def __init__(self):
        self.kernel_s: list = []
        self.spent_s = 0.0  # wall time spent in the kernel, to leave out of the phases
        self._last = -float("inf")

    def sample(self, force: bool = False) -> None:
        t0 = time.perf_counter()
        if not force and t0 - self._last < INTERVAL_S:
            return
        kernel()
        t1 = time.perf_counter()
        self.kernel_s.append(t1 - t0)
        self.spent_s += t1 - t0
        self._last = t1

    def install(self, package) -> None:
        """Sample also before each ``closed_loop_matrix`` call, which
        ``run_rescue`` and ``simulate`` make once per network segment, so
        that a 10 s call is covered as densely as a run of short ones.
        Every resilnet module holding the function is patched."""
        dynamics = sys.modules[f"{package.__name__}.dynamics"]
        original = getattr(dynamics, "closed_loop_matrix", None)
        if original is None:
            return

        def sampled(*args, **kwargs):
            self.sample()
            return original(*args, **kwargs)

        for name, mod in list(sys.modules.items()):
            if name.startswith(package.__name__ + "."):
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, sampled)
