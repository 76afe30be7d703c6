"""The benchmark's clock and its reference kernel.

Every benchmark time is CPU time of the worker process: ionfab is
single-threaded and BLAS is pinned to one thread, so on an idle host CPU
time and wall time agree, while on a shared virtual machine the wall clock
also counts time given to other guests.

CPU time still moves by tens of percent within seconds on a shared host,
because other guests contend for the same cores and caches. The end-to-end
metrics therefore use *reference seconds*: CPU seconds scaled by
``REF_S / r``, where ``r`` is the CPU time that :func:`reference_seconds`
took right after the measured work, in the same process. On a host where
the kernel takes ``REF_S`` a reference second is a CPU second. The kernel
runs no ionfab code, so a change to ionfab cannot move it.
"""

from __future__ import annotations

import random
import time

import numpy as np

clock = time.process_time
REF_S = 0.02    # about the kernel's CPU time on a 2-CPU Xeon VM at 2.1 GHz

_PHASES = np.exp(-1j * np.arange(1024) / 1024)
_COUPLINGS = np.random.default_rng(1).standard_normal((16, 16))


def reference_seconds() -> float:
    """CPU seconds of a fixed mix of the kinds of work ionfab does.

    Three parts of similar cost: an interpreter loop over dicts and floats,
    a loop of small numpy operations on a 1024-entry statevector, and a
    memory-bound enumeration of 2^15 spin configurations.
    """
    start = clock()
    rng = random.Random(1)
    buckets: dict[int, float] = {}
    acc = 0.0
    for k in range(40_000):
        x = rng.random()
        buckets[k % 97] = buckets.get(k % 97, 0.0) + x
        acc += x * x
    psi = np.full(1024, 1 / 32, dtype=complex)
    for _ in range(300):
        psi *= _PHASES
        view = psi.reshape(32, 2, 16)
        head = view[:, 0, :].copy()
        view[:, 0, :] = 0.9 * head + 0.1j * view[:, 1, :]
    bits = (np.arange(1 << 15)[:, None] >> np.arange(16)) & 1
    spins = 1.0 - 2.0 * bits
    acc += float(np.einsum("ci,ci->c", spins @ _COUPLINGS, spins).min())
    return clock() - start
