"""Machine-speed probes, for timings on a shared machine.

On the shared 2-core machine this benchmark was built on, the speed of the
core changes under work from outside the machine, on two time scales.  A
fixed 3 ms piece of Python-driven numpy work took either about 1.9 ms or
about 3.4 ms, switching from one half second to the next; and memory-bound
work ran 25% slower for minutes at a time while other work did not.  A
timing of a few milliseconds lands wholly in one state, and a run of half a
minute can sit inside one slow stretch, so medians jump between runs.

A workload therefore runs, just before each operation and once after its
last, a probe of the same shape as its operations, and reports each
operation's time rescaled to the probe's time in the machine's calm state:

    reported = measured * reference / mean(probe before, probe after)

Probes are the benchmark's own code: dpqr never runs inside one, and probe
time is never inside a timing, so a change to dpqr moves reported times
exactly as it moves measured ones.  Measured times are printed beside the
reported ones.

A command that runs for seconds spans many speed states, so probes around
it say little about its own time.  Such a command is held to one core and
probed while it runs, on that same core (see ``Alongside``); that one
timing holds under 1% of probe work.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import threading
import time

import numpy as np

_VECTOR = np.linspace(-1.0, 1.0, 64)
_SIGNS = np.where(np.random.default_rng(0).random((1024, 512)) < 0.5, -1.0, 1.0)


def _python_work():
    """Small numpy calls from a Python loop, as in the solvers' iterations."""
    acc = 0.0
    for _ in range(300):
        e = np.exp(_VECTOR - _VECTOR.max())
        acc += float((e / e.sum()) @ _VECTOR)
    return acc


def _memory_work():
    """Broadcast differences over a 4 MiB matrix, as in a pairwise row scan."""
    return [float(np.abs(_SIGNS[lo : lo + 3, None, :] - _SIGNS[None, :, :]).sum(axis=2).max())
            for lo in (0, 3, 6)]


def _process_work():
    """A fresh interpreter importing numpy, as a command-line run starts."""
    subprocess.run([sys.executable, "-c", "import numpy"], check=True)


# kind -> (work, its time in the machine's calm state, in seconds)
PROBES = {
    "python": (_python_work, 0.0019),
    "memory": (_memory_work, 0.040),
    "process": (_process_work, 0.17),
}


class Speed:
    """Probe timings of one run, for one kind of probe."""

    def __init__(self, kind: str):
        self.kind = kind
        self.work, self.reference = PROBES[kind]
        self.samples: list[float] = []

    def probe(self) -> float:
        """Time one run of the probe's work, and keep the sample."""
        t0 = time.perf_counter()
        self.work()
        elapsed = time.perf_counter() - t0
        self.samples.append(elapsed)
        return elapsed

    def factor(self, before: float, after: float) -> float:
        """Multiplier taking a timing between two probes to the calm state."""
        return self.reference / (0.5 * (before + after))

    @property
    def median(self) -> float:
        return statistics.median(self.samples)


class Alongside:
    """The ``python`` probe, run beside a child process on the core it is held to.

    The child is held to one core, and a thread held to the same core runs
    the probe every ``period`` seconds while the child runs, timing it in
    the thread's CPU time, which leaves out the time the two share the core.
    On a 7-10 s ``dpqr run --algo dpfw`` the mean probe tracked the command's
    time with correlation 0.99, where probes before and after it reached 0.3.
    Each probe takes the core from the child for about 2 ms, under 1% of the
    command's time.
    """

    period = 0.25
    reference = PROBES["python"][1]

    def __init__(self, pid: int):
        # The last core allowed: in three interleaved trials of the same
        # command, it ran 8.3-9.4 s held to core 1 and 8.9-10.3 s to core 0.
        self.cpu = max(os.sched_getaffinity(0))
        self.samples: list[float] = []
        self.done = threading.Event()
        try:
            os.sched_setaffinity(pid, {self.cpu})
        except ProcessLookupError:
            pass
        self.thread = threading.Thread(target=self._run, daemon=True)
        self.thread.start()

    def _run(self):
        os.sched_setaffinity(0, {self.cpu})
        while True:
            t0 = time.thread_time()
            _python_work()
            self.samples.append(time.thread_time() - t0)
            if self.done.wait(self.period):
                return

    def stop(self) -> float:
        """End the probes; the factor taking the child's time to the calm state."""
        self.done.set()
        self.thread.join()
        return self.reference / statistics.mean(self.samples)
