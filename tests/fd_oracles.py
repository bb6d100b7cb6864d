"""Finite-difference oracles: central differences and Richardson pairs.

They act on plain callables of a flat coordinate vector, or on a model's
point values, and know nothing about jets or flows, so they serve the tests as
independent checks of derivatives the library computes exactly.
"""

import numpy as np

from finslerkit.bundle import bundle_point
from finslerkit.lagrangian import FinslerLagrangian


def central_gradient(f, z: np.ndarray, h: float) -> np.ndarray:
    """Central-difference gradient of scalar-or-vector ``f`` at ``z``."""
    z = np.asarray(z, dtype=float)
    cols = []
    for i in range(z.size):
        e = np.zeros_like(z)
        e[i] = h
        cols.append((np.asarray(f(z + e)) - np.asarray(f(z - e))) / (2.0 * h))
    return np.stack(cols, axis=-1)


def richardson_gradient(f, z: np.ndarray, h1: float, h2: float) -> np.ndarray:
    """Two-step Richardson extrapolation of :func:`central_gradient`.

    Both steps have O(h^2) error; the combination cancels the leading term
    for any step ratio.
    """
    g1 = central_gradient(f, z, h1)
    g2 = central_gradient(f, z, h2)
    r = (h1 / h2) ** 2
    return (r * g2 - g1) / (r - 1.0)


def central_hessian(f, z: np.ndarray, h: float) -> np.ndarray:
    """Central-difference Hessian of scalar ``f`` (symmetric by construction)."""
    z = np.asarray(z, dtype=float)
    m = z.size
    out = np.empty((m, m))
    f0 = float(f(z))
    for i in range(m):
        ei = np.zeros_like(z)
        ei[i] = h
        out[i, i] = (float(f(z + ei)) - 2.0 * f0 + float(f(z - ei))) / h**2
    for i in range(m):
        ei = np.zeros_like(z)
        ei[i] = h
        for j in range(i + 1, m):
            ej = np.zeros_like(z)
            ej[j] = h
            v = (
                float(f(z + ei + ej))
                - float(f(z + ei - ej))
                - float(f(z - ei + ej))
                + float(f(z - ei - ej))
            ) / (4.0 * h**2)
            out[i, j] = out[j, i] = v
    return out


def richardson_hessian(f, z: np.ndarray, h1: float, h2: float) -> np.ndarray:
    a = central_hessian(f, z, h1)
    b = central_hessian(f, z, h2)
    r = (h1 / h2) ** 2
    return (r * b - a) / (r - 1.0)


def fd_levi_civita(model: FinslerLagrangian, xv: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Christoffel symbols of the quadratic form's metric, by polarization + FD."""
    n = model.dimension

    def metric(x):
        g = np.empty((n, n))
        for a in range(n):
            for b in range(n):
                ya, yb = np.zeros(n), np.zeros(n)
                ya[a] = 1.0
                yb[b] = 1.0
                g[a, b] = 0.5 * (
                    model.evaluate(bundle_point(x, ya + yb))
                    - model.evaluate(bundle_point(x, ya))
                    - model.evaluate(bundle_point(x, yb))
                )
        return g

    dg = np.empty((n, n, n))  # dg[c][q][b] = d_c g_qb
    for c in range(n):
        e = np.zeros(n)
        e[c] = h
        dg[c] = (metric(xv + e) - metric(xv - e)) / (2 * h)
    ginv = np.linalg.inv(metric(xv))
    gamma = np.empty((n, n, n))
    for b in range(n):
        for c in range(n):
            gamma[:, b, c] = 0.5 * ginv @ (dg[b][:, c] + dg[c][:, b] - dg[:, b, c])
    return gamma
