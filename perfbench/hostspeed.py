"""Host speed, measured between jobs by a fixed probe loop.

The benchmark runs on a few cores of a shared host whose speed drifts: the
same job runs 15 to 30% faster or slower for stretches of a minute or more,
as the host's other tenants come and go.  A fixed loop timed right before
every job follows that drift (its ten-second medians tracked those of
``mc_sparse`` jobs to within 5% through a 29% slowdown), so dividing each
job's wall time by the probe's local speed factor leaves the program's own
cost.  The probe is benchmark code: no change to pooltest can make it faster
or slower.

A speed factor is the probe's median time divided by its reference time, its
median on the host that defined the benchmark (2 vCPUs of an x86-64 cloud
VM, CPython 3.11, numpy 2.4): 1.0 there at typical speed, above 1.0 when the
host runs slow.  Adjusted times are wall times divided by that factor, in
seconds at the reference speed.  Each workload names the probe kind whose
work resembles its dominant layer's, because interpreter-bound and
memory-bound code slow down by different amounts in the same episode.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Probe time before a job, as a share of the previous job's wall time; at
# least one probe runs before every job.
SHARE = 0.05
# Probes on each side of a job's own whose median gives its speed factor.
WINDOW = 12

# Twelve fixed row masks over 16 items: the loop tests sets against rows and
# looks outcomes up in a dict, the same interpreter work as pooltest's loops.
_MASKS = tuple(((0x9249 << (t % 5)) ^ (t * 0x111)) & 0xFFFF for t in range(12))
_SETS = 4000
# Sub-masks the array probe tests 2^20 patterns against.
_SUBMASKS = (0x0F0F, 0x3333, 0x5555, 0x00FF)


def _python() -> None:
    seen: dict[int, int] = {}
    for k in range(_SETS):
        sig = 0
        for t, m in enumerate(_MASKS):
            if m & k:
                sig |= 1 << t
        if seen.get(sig) is None:
            seen[sig] = k


def _array() -> None:
    patterns = np.arange(1 << 20, dtype=np.uint32)
    ok = np.ones(patterns.size, dtype=bool)
    for sub in _SUBMASKS:
        ok &= (patterns & np.uint32(sub)) != 0
    np.count_nonzero(ok)


class Probe:
    """One kind of probe loop and its median time on the reference host.

    ``python`` is interpreter-bound, like the decoders and enumeration loops;
    ``array`` streams 2^20-element numpy arrays through memory, like the
    disguise-pattern counting.
    """

    KINDS = {"python": (_python, 0.0081), "array": (_array, 0.0113)}

    def __init__(self, kind: str) -> None:
        self._loop, self.reference_s = self.KINDS[kind]

    def once(self) -> float:
        start = time.perf_counter()
        self._loop()
        return time.perf_counter() - start

    def factor(self, samples: list[float]) -> float:
        """Host slowness relative to the reference, from probe times."""
        return statistics.median(samples) / self.reference_s

    def before_job(self, last_job_s: float) -> list[float]:
        """Probe times taken before a job: SHARE of the last job's time, at least one."""
        probes = [self.once()]
        while sum(probes) < SHARE * last_job_s:
            probes.append(self.once())
        return probes

    def local_factors(self, per_job: list[list[float]]) -> list[float]:
        """Speed factor of each job, from the WINDOW probes on each side of its own."""
        flat = [p for probes in per_job for p in probes]
        factors, start = [], 0
        for probes in per_job:
            mid = start + len(probes) // 2
            factors.append(self.factor(flat[max(0, mid - WINDOW): mid + WINDOW + 1]))
            start += len(probes)
        return factors

