"""Host-speed gauge: a fixed CPU kernel timed next to every measured request.

The benchmark shares its machine with other tenants, whose load slows
this process by tens of percent for seconds to minutes at a time. Wall
and CPU time move together, so neither clock removes it. Each request's time is therefore also reported scaled by
REFERENCE_KERNEL_MS over the gauge's local median: the time the request
would have taken with the host running at the reference speed. Program
changes leave the kernel alone, so they still show in full.
"""

import statistics
import time

import numpy as np

# A fixed unit of host speed, between the kernel's fastest (5.8 ms) and
# median (9.1 ms) times measured on a loaded 2-vCPU x86-64 VM with Python
# 3.11.7 and numpy 2.4.6. Scaled times read as milliseconds on a host where
# the kernel takes this long.
REFERENCE_KERNEL_MS = 7.0
WINDOW = 4   # kernel samples on each side that set a request's local speed

_SMALL = np.eye(4) + 0.05 * np.arange(16.0).reshape(4, 4)
_OMEGA = np.kron(np.eye(2), np.array([[0.0, 1.0], [-1.0, 0.0]]))
_rng = np.random.default_rng(0)
_LARGE = _rng.standard_normal((64, 64)) + 1j * _rng.standard_normal((64, 64))
_LARGE = _LARGE + _LARGE.conj().T


def kernel_ms():
    """Time one run of the kernel, in ms.

    Like the package, it mixes many small numpy calls and interpreter work
    with 64 x 64 Hermitian eigenvalue problems, which host load slows by
    different amounts.
    """
    start = time.perf_counter()
    acc = 0.0
    for i in range(200):
        m = _SMALL * (1.0 + i * 1e-3)
        acc += float(np.linalg.eigvalsh(m @ m.T + 1j * _OMEGA)[0])
        for j in range(60):
            acc += j * 0.5
    for _ in range(8):
        acc += float(np.linalg.eigvalsh(_LARGE)[0])
    return 1e3 * (time.perf_counter() - start)


def normalize(values, kernel_samples):
    """Scale values[k] by the reference over the median of kernel samples near k.

    `kernel_samples[k]` is taken just before `values[k]`, plus one after the last.
    """
    out = []
    for k, value in enumerate(values):
        local = kernel_samples[max(0, k - WINDOW):k + WINDOW + 2]
        out.append(value * REFERENCE_KERNEL_MS / statistics.median(local))
    return out
