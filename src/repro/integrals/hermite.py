"""McMurchie-Davidson Hermite machinery.

Two pieces:

* ``hermite_expansion`` - the E_t^{ij} coefficients expanding a product of two
  1-D Cartesian Gaussians in Hermite Gaussians,
* ``hermite_coulomb`` - the auxiliary R^0_{tuv} integrals built from Boys
  function values by the standard recurrences.

Both follow McMurchie & Davidson, J. Comput. Phys. 26, 218 (1978).
"""

from __future__ import annotations

import numpy as np

from .boys import boys_array, boys_array_batch

__all__ = ["hermite_expansion", "hermite_coulomb", "hermite_coulomb_batch"]


def hermite_expansion(li: int, lj: int, a, b, ab_x) -> np.ndarray:
    """E[i, j, t] coefficients for one Cartesian direction.

    Parameters
    ----------
    li, lj:
        Maximum x-exponents on the two centers (table covers all i<=li,
        j<=lj).
    a, b:
        Gaussian exponents: floats, or broadcastable arrays to build the
        tables of a whole batch of primitive pairs in one pass.
    ab_x:
        Component of A - B along this direction (float or broadcastable).

    Returns
    -------
    E with shape (li+1, lj+1, li+lj+1) plus the broadcast batch shape as
    trailing axes; entries with t > i+j are zero.  Each batch entry sees the
    scalar operation sequence, so it equals the scalar call elementwise.
    """
    p = a + b
    mu = a * b / p
    # P - A and P - B along this axis; P = (aA + bB)/p.
    pa = -b * ab_x / p
    pb = a * ab_x / p
    E = np.zeros((li + 1, lj + 1, li + lj + 2) + np.shape(pa))
    E[0, 0, 0] = np.exp(-mu * ab_x * ab_x)
    one_over_2p = 0.5 / p
    for i in range(1, li + 1):
        # build up in i with j = 0
        E[i, 0, 0] = pa * E[i - 1, 0, 0] + E[i - 1, 0, 1]
        for t in range(1, i + 1):
            E[i, 0, t] = (
                one_over_2p * E[i - 1, 0, t - 1]
                + pa * E[i - 1, 0, t]
                + (t + 1) * E[i - 1, 0, t + 1]
            )
    for j in range(1, lj + 1):
        for i in range(li + 1):
            E[i, j, 0] = pb * E[i, j - 1, 0] + E[i, j - 1, 1]
            for t in range(1, i + j + 1):
                E[i, j, t] = (
                    one_over_2p * E[i, j - 1, t - 1]
                    + pb * E[i, j - 1, t]
                    + (t + 1) * E[i, j - 1, t + 1]
                )
    return E[:, :, : li + lj + 1]


def hermite_coulomb(lmax: int, p: float, pc: np.ndarray) -> np.ndarray:
    """R[t, u, v] = R^0_{tuv}(p, PC) for all t+u+v <= lmax.

    Uses the auxiliary set R^n_{tuv} with the recurrences

        R^n_{t+1,u,v} = t R^{n+1}_{t-1,u,v} + X_PC R^{n+1}_{t,u,v}

    (and cyclic) seeded by R^n_{000} = (-2p)^n F_n(p |PC|^2).
    """
    x, y, z = float(pc[0]), float(pc[1]), float(pc[2])
    r2 = x * x + y * y + z * z
    fvals = boys_array(lmax, p * r2)
    # R[n][t,u,v]; build by decreasing n.
    Rn = np.zeros((lmax + 1, lmax + 1, lmax + 1, lmax + 1))
    minus_2p = -2.0 * p
    for n in range(lmax + 1):
        Rn[n, 0, 0, 0] = (minus_2p**n) * fvals[n]
    # Fill t, then u, then v, each step consuming one order of n.
    for n in range(lmax - 1, -1, -1):
        budget = lmax - n
        for t in range(1, budget + 1):
            if t == 1:
                Rn[n, 1, 0, 0] = x * Rn[n + 1, 0, 0, 0]
            else:
                Rn[n, t, 0, 0] = (t - 1) * Rn[n + 1, t - 2, 0, 0] + x * Rn[
                    n + 1, t - 1, 0, 0
                ]
        for t in range(0, budget + 1):
            for u in range(1, budget - t + 1):
                if u == 1:
                    Rn[n, t, 1, 0] = y * Rn[n + 1, t, 0, 0]
                else:
                    Rn[n, t, u, 0] = (u - 1) * Rn[n + 1, t, u - 2, 0] + y * Rn[
                        n + 1, t, u - 1, 0
                    ]
        for t in range(0, budget + 1):
            for u in range(0, budget - t + 1):
                for v in range(1, budget - t - u + 1):
                    if v == 1:
                        Rn[n, t, u, 1] = z * Rn[n + 1, t, u, 0]
                    else:
                        Rn[n, t, u, v] = (v - 1) * Rn[n + 1, t, u, v - 2] + z * Rn[
                            n + 1, t, u, v - 1
                        ]
    return Rn[0]


def hermite_coulomb_batch(lmax: int, p: np.ndarray, pc: np.ndarray) -> np.ndarray:
    """R^0_{tuv} for a batch of (exponent, PC-vector) pairs in one sweep.

    ``p`` has shape (N,) and ``pc`` shape (N, 3); the result has shape
    (N, lmax+1, lmax+1, lmax+1) with entry ``[i]`` equal to
    ``hermite_coulomb(lmax, p[i], pc[i])`` up to elementwise-identical
    arithmetic: the recurrences below are the scalar ones applied to (N,)
    slices, so each lattice entry sees the same operation sequence.

    This is the vector spine of the batched ERI engine: one ``hyp1f1``
    ufunc call seeds the whole batch instead of one Python-level Boys
    evaluation per primitive quad.
    """
    p = np.asarray(p, dtype=float)
    pc = np.asarray(pc, dtype=float)
    x, y, z = pc[:, 0], pc[:, 1], pc[:, 2]
    r2 = x * x + y * y + z * z
    fvals = boys_array_batch(lmax, p * r2)  # (lmax+1, N)
    n_batch = p.size
    Rn = np.zeros((lmax + 1, lmax + 1, lmax + 1, lmax + 1, n_batch))
    minus_2p = -2.0 * p
    for n in range(lmax + 1):
        Rn[n, 0, 0, 0] = (minus_2p**n) * fvals[n]
    for n in range(lmax - 1, -1, -1):
        budget = lmax - n
        for t in range(1, budget + 1):
            if t == 1:
                Rn[n, 1, 0, 0] = x * Rn[n + 1, 0, 0, 0]
            else:
                Rn[n, t, 0, 0] = (t - 1) * Rn[n + 1, t - 2, 0, 0] + x * Rn[
                    n + 1, t - 1, 0, 0
                ]
        for t in range(0, budget + 1):
            for u in range(1, budget - t + 1):
                if u == 1:
                    Rn[n, t, 1, 0] = y * Rn[n + 1, t, 0, 0]
                else:
                    Rn[n, t, u, 0] = (u - 1) * Rn[n + 1, t, u - 2, 0] + y * Rn[
                        n + 1, t, u - 1, 0
                    ]
        for t in range(0, budget + 1):
            for u in range(0, budget - t + 1):
                for v in range(1, budget - t - u + 1):
                    if v == 1:
                        Rn[n, t, u, 1] = z * Rn[n + 1, t, u, 0]
                    else:
                        Rn[n, t, u, v] = (v - 1) * Rn[n + 1, t, u, v - 2] + z * Rn[
                            n + 1, t, u, v - 1
                        ]
    return np.moveaxis(Rn[0], -1, 0)
