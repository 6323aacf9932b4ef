"""Speed probe: how fast the benchmark's CPU runs the program's kind of work.

On a shared host the same code runs up to 1.7 times slower for stretches
that last from a second to many minutes, and each vCPU changes speed on its
own. The busy neighbours show up as slower user code, not as stolen time, so
a command's CPU time moves with its wall time. Code that allocates many
Python objects is hit hardest: tight loops and small numpy calls slow less
than the program does.

While the commands run, a thread pinned to their CPU runs ``kernel`` every
PERIOD_S and times it in its own CPU time, which leaves out the time it waits
for the CPU. The kernel parses a small CSV block of numeric and string cells
into per-column Python floats, the way ``riskfuse.cohort.load_cohort`` reads
a cohort. ``speed(t0, t1)`` is the mean of REF_S / kernel time over the samples taken
in that interval: how many seconds of work at the reference speed one second
of that interval held. A command's wall or CPU time times its speed is the
time it would take at the reference speed.
"""

from __future__ import annotations

import csv
import io
import statistics
import threading
import time

PERIOD_S = 0.05  # pause between two samples
# CPU seconds of one kernel() at the reference speed: about its 5th percentile
# on a shared 2-vCPU "Intel(R) Xeon(R) Processor" VM (model 207, Python 3.11)
# while a command runs on the same CPU
REF_S = 8.5e-4


class SpeedProbe:
    """Samples the speed of one CPU from a thread pinned to it; use as a context manager."""

    def __init__(self):
        # 40 rows of 60 cells: numbers, with a protein-change call or NA in every fifth column
        self._csv = "\n".join(
            ",".join(f"{(i * 31 + j * 17) % 997 / 7.0:.4f}" if j % 5 else ("NA" if i % 7 == 0 else "R175H")
                     for j in range(60))
            for i in range(40))
        self.samples = []  # (perf_counter at the end of a kernel, its CPU seconds)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, name="speed-probe", daemon=True)

    def __enter__(self):
        self.kernel()  # first call outside the samples
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()

    def kernel(self) -> list:
        """Parse the CSV block into columns of floats (None where a cell is not a number); about 1 ms."""
        columns = []
        for cells in zip(*csv.reader(io.StringIO(self._csv))):
            values = []
            for cell in cells:
                try:
                    values.append(float(cell))
                except ValueError:
                    values.append(None)
            columns.append(values)
        return columns

    def _loop(self):
        while not self._stop.wait(PERIOD_S):
            c0 = time.thread_time()
            self.kernel()
            self.samples.append((time.perf_counter(), time.thread_time() - c0))

    def speed(self, t0: float, t1: float) -> float:
        """Mean speed over [t0, t1]; from the three nearest samples when fewer fall inside."""
        samples = list(self.samples)
        inside = [d for t, d in samples if t0 <= t <= t1]
        if len(inside) < 3:
            mid = (t0 + t1) / 2
            inside = [d for _, d in sorted(samples, key=lambda s: abs(s[0] - mid))[:3]]
        return statistics.fmean(REF_S / d for d in inside)
