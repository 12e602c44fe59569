"""Machine-speed probe: scales measured seconds to a reference speed.

The benchmark's host shares its cores with other tenants and switches between
a fast state and states up to twice as slow, for seconds to minutes at a time.
CPU time slows by the same factor, so it does not help. A fixed pure-Python
kernel, timed on the worker's own thread every INTERVAL_S, slows by about the
same factor as ryserlab's Python code. Dividing each stretch of a task by the
kernel's time around it gives seconds at the reference speed.

Allocation-heavy code slows less than tight loops in a slow state, so each
workload names the kernel that matches its own mix (workloads.KERNEL). A
kernel's reference time is about its time, sampled this way, on a 2.0 GHz
Xeon vCPU in the fast state, so reference seconds read close to measured
seconds there.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

INTERVAL_S = 0.1
SMOOTH = 2          # each sample is replaced by the median of its 2*SMOOTH+1 neighbours


def _graph() -> int:
    """Graph building, bitmask search and tuple scans, as in ryserlab's core."""
    n = 24
    edges = {}
    for u in range(n):
        for v in range(u + 1, n):
            edges[(u, v)] = frozenset({(u * 31 + v * 17) % 3 + 1})
    adj = [[[] for _ in range(n)] for _ in range(4)]
    for (u, v), cols in edges.items():
        for c in cols:
            adj[c][u].append(v)
            adj[c][v].append(u)
    acc = 0
    for c in range(1, 4):
        masks = [sum(1 << w for w in row) for row in adj[c]]
        for src in range(n):
            reach = frontier = 1 << src
            while frontier:
                nxt = 0
                m = frontier
                while m:
                    b = m & -m
                    nxt |= masks[b.bit_length() - 1]
                    m ^= b
                frontier = nxt & ~reach
                reach |= frontier
            acc += bin(reach).count("1")
    base = tuple(sorted(edges.values(), key=min)[:40])
    for shift in range(40):
        rot = base[shift:] + base[:shift]
        acc += rot < base
    return acc


def _loops() -> int:
    """Small dict and set updates in a tight loop, as in the searches."""
    d = {}
    acc = 0
    for i in range(4000):
        k = (i * 7919) % 1009
        s = d.get(k)
        if s is None:
            s = d[k] = set()
        s.add(i & 63)
        acc += len(s) ^ i
    return acc


# kernel name -> (parts, reference seconds)
KERNELS = {
    "graph": ((_graph,), 0.46e-3),
    "mixed": ((_graph, _loops), 1.5e-3),
}


def sample(kernel: str) -> tuple[float, float, float]:
    """(start, end, kernel seconds): the faster of two back-to-back runs."""
    parts = KERNELS[kernel][0]
    t0 = time.perf_counter()
    for part in parts:
        part()
    t1 = time.perf_counter()
    for part in parts:
        part()
    t2 = time.perf_counter()
    return t0, t2, min(t1 - t0, t2 - t1)


class Probe:
    """Samples the kernel every INTERVAL_S from a SIGALRM handler.

    The handler runs on the main thread between bytecodes, so it measures the
    core the task runs on, and never while native code (HiGHS) holds it.
    """

    def __init__(self, kernel: str):
        self.kernel = kernel
        self.reference_s = KERNELS[kernel][1]
        self.samples: list[tuple[float, float, float]] = []

    def _tick(self, signum=None, frame=None):
        self.samples.append(sample(self.kernel))

    def start(self):
        self._tick()
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._tick()
        ks = [k for _, _, k in self.samples]
        self._k = [statistics.median(ks[max(0, i - SMOOTH):i + SMOOTH + 1])
                   for i in range(len(ks))]
        self._starts = [s for s, _, _ in self.samples]

    def span(self, t0: float, t1: float) -> tuple[float, float]:
        """(seconds, reference seconds) of [t0, t1], less the probe's own time.

        Valid after stop(). Each stretch between two samples is scaled by the
        mean kernel time of the samples at its ends.
        """
        i = bisect.bisect_right(self._starts, t0) - 1
        j = bisect.bisect_left(self._starts, t1)
        seconds = reference = 0.0
        left = t0
        for m in range(i + 1, j + 1):
            right = min(t1, self.samples[m][0])
            piece = right - left
            seconds += piece
            reference += piece * self.reference_s / ((self._k[m - 1] + self._k[m]) / 2)
            left = self.samples[m][1]
        return seconds, reference
