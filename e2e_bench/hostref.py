"""Host reference kernel: a fixed piece of work whose time tracks host speed.

Shared hosts drift in speed by tens of percent.  Every timed sample is
bracketed by this kernel, and the sample is scaled by ``REFERENCE_MS`` over
the kernel time measured around it, so that it reads as if it had run on a
host where the kernel takes exactly ``REFERENCE_MS``.  The kernel mixes the
two kinds of work the program does: interpreter work (dict and tuple
traffic, as in the graph and filter layers) and a small sparse LU
factorisation with solves (as in the spectral layers).  It uses only numpy
and scipy, never the program, so a change to the program cannot move it.
"""

from __future__ import annotations

import time

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu as _splu

#: Kernel time, in ms, of the reference host the normalised metrics refer to
#: (the best-of-three kernel on a quiet 2-CPU x86-64 host, Python 3.11,
#: numpy 2.4, scipy 1.17).  Fixed forever: changing it rescales every metric.
REFERENCE_MS = 3.2

_GRID_SIDE = 24
_REPEATS = 3


def _grid_laplacian(side: int) -> sp.csc_matrix:
    """Grounded Laplacian of a ``side x side`` grid with fixed weights."""
    n = side * side
    idx = np.arange(n).reshape(side, side)
    us = np.concatenate([idx[:, :-1].ravel(), idx[:-1, :].ravel()])
    vs = np.concatenate([idx[:, 1:].ravel(), idx[1:, :].ravel()])
    ws = 1.0 + (np.arange(us.size) % 7) / 7.0
    adj = sp.csr_matrix((np.concatenate([ws, ws]), (np.concatenate([us, vs]),
                                                    np.concatenate([vs, us]))),
                        shape=(n, n))
    lap = sp.diags(np.asarray(adj.sum(axis=1)).ravel()) - adj
    return sp.csc_matrix(lap[1:, 1:])


class HostReference:
    """Times the reference kernel and turns raw seconds into normalised ones."""

    def __init__(self) -> None:
        self._matrix = _grid_laplacian(_GRID_SIDE)
        self._rhs = np.linspace(-1.0, 1.0, self._matrix.shape[0])
        #: ``(perf_counter at end, kernel ms)`` for every measurement taken.
        self.samples: list = []
        self.measure()  # warm caches and imports once

    def _once(self) -> float:
        begin = time.perf_counter()
        table = {}
        for i in range(6000):
            key = (i % 97, i % 89)
            table[key] = table.get(key, 0.0) + i * 0.5
        acc = 0.0
        for (a, b), value in table.items():
            acc += value if a < b else -value
        lu = _splu(self._matrix, permc_spec="COLAMD")
        x = self._rhs
        for _ in range(4):
            x = lu.solve(x)
        if not np.isfinite(acc + float(x[0])):
            raise RuntimeError("host reference kernel produced a non-finite value")
        return (time.perf_counter() - begin) * 1e3

    def measure(self) -> float:
        """Run the kernel (best of three) and return its time in ms."""
        best = min(self._once() for _ in range(_REPEATS))
        self.samples.append((time.perf_counter(), best))
        return best

    def timed(self, fn, *args, bracket: int = 1):
        """Call ``fn(*args)`` between kernel measurements.

        Returns ``(result, sample)`` where ``sample`` holds the raw seconds
        and the call's start and end; :meth:`normalise` adds the scaled time
        once the run is over.  ``bracket`` kernels run before and after the
        call (the last kernel of the previous sample counts as one before it).
        An exception propagates after the closing kernels have run.
        """
        for _ in range(bracket - 1):
            self.measure()
        begin = time.perf_counter()
        try:
            result = fn(*args)
        finally:
            end = time.perf_counter()
            for _ in range(bracket):
                self.measure()
        return result, {"start": begin, "end": end, "raw_s": end - begin}

    def factor(self, start: float, end: float, window: float = 1.5) -> float:
        """Scale factor for a sample that ran from ``start`` to ``end``.

        Uses the mean kernel measured within ``window`` seconds of the
        sample.  On a loaded host single kernels flip between two speeds
        (about 3.3 and 5 ms) from one measurement to the next, and a sample
        runs at the mix of the two, so the mean over the neighbourhood tracks
        it better than the two bracketing kernels alone.  Kernels over twice
        the neighbourhood's median (a collector pause, page faults after a
        large free) are left out.
        """
        near = np.array([ms for t, ms in self.samples if start - window <= t <= end + window])
        if near.size == 0:
            near = np.array([min(self.samples, key=lambda item: abs(item[0] - end))[1]])
        near = near[near <= 2.0 * np.median(near)]
        return REFERENCE_MS / float(near.mean())

    def normalise(self, samples: list) -> list:
        """Add ``norm_s`` (host-normalised seconds) to each sample in place."""
        for sample in samples:
            if "start" in sample:
                sample["norm_s"] = sample["raw_s"] * self.factor(sample["start"], sample["end"])
        return samples

    def median_ms(self) -> float:
        return float(np.median([ms for _, ms in self.samples]))

    def run_factor(self) -> float:
        """Scale factor from every kernel of the run (for per-layer times)."""
        return REFERENCE_MS / self.median_ms()
