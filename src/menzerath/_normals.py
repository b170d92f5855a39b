"""Seeded standard-normal generation shared by the stochastic models.

Deviates are produced by inverse-CDF transform over numpy's PCG64
stream: each draw takes a 53-bit integer j from ``default_rng(seed)``,
forms the mid-point uniform ``u = (j + 0.5) * 2**-53`` (strictly inside
(0, 1), so the normal quantile is always finite), and applies the
normal quantile function.  The output is a pure function of the seed,
identical across runs and platforms.

Chunk invariance: PCG64 over the power-of-two range 2**53 spends
exactly one 64-bit word per element, with no rejection and no buffered
bits carried between calls.  Passing one ``numpy.random.Generator`` to
successive calls therefore continues a single stream: draws of k1, k2,
... rows concatenate to the one-shot draw of k1 + k2 + ... rows from
``default_rng(seed)``, bit for bit.  ``menzerath sample`` relies on
this to write its samples in fixed chunks.
"""

import math

import numpy as np
from scipy.special import ndtri

__all__ = ["standard_normal_pairs", "correlate_pairs"]


def standard_normal_pairs(n: int, seed: int | np.random.Generator) -> np.ndarray:
    """(n, 2) array of independent standard normal deviates.

    ``seed`` is an int, or a ``numpy.random.Generator`` whose stream
    continues from where its last draw left it.
    """
    rng = np.random.default_rng(seed)
    j = rng.integers(0, 2**53, size=(int(n), 2), dtype=np.int64)
    u = (j + 0.5) * 2.0**-53
    return ndtri(u)


def correlate_pairs(z: np.ndarray, rho: float) -> tuple[np.ndarray, np.ndarray]:
    """Correlate independent columns: (z1, rho*z1 + sqrt(1-rho^2)*z2)."""
    z1 = z[:, 0]
    z2 = rho * z1 + math.sqrt(1.0 - rho * rho) * z[:, 1]
    return z1, z2
