"""Quantile-Dirac return distributions and their statistics.

A return distribution is approximated by a uniform mixture of N point
masses ("atoms") at learnable locations. Atoms are treated as an unsorted
multiset; statistics that need order (SSD, CVaR) sort internally. Learned
atoms are allowed to cross, so sortedness is never assumed.
"""
from __future__ import annotations

import numpy as np


class BadN(ValueError):
    """Atom count must be a positive integer."""


class BadAlpha(ValueError):
    """CVaR level must lie in (0, 1]."""


def midpoints(n: int) -> np.ndarray:
    """Probability levels (2i - 1) / (2N), i = 1..N, targeted by each atom."""
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 1:
        raise BadN(f"atom count must be a positive integer, got {n!r}")
    i = np.arange(1, n + 1, dtype=float)
    return (2.0 * i - 1.0) / (2.0 * n)


def _atoms(d) -> np.ndarray:
    a = np.asarray(d, dtype=float)
    if a.ndim != 1 or a.size < 1:
        raise ValueError("distribution must be a non-empty 1-d array of atoms")
    if not np.all(np.isfinite(a)):
        raise ValueError("atoms must be finite")
    return a


def mean(d) -> float:
    return float(_atoms(d).mean())


def variance(d) -> float:
    """Population variance (divisor N) of the atom mixture."""
    a = _atoms(d)
    return float(((a - a.mean()) ** 2).mean())


def _check_tau_kappa(tau, kappa):
    t = np.asarray(tau, dtype=float)
    if not np.all((t > 0.0) & (t < 1.0)):
        raise ValueError("tau must lie in (0, 1)")
    if not kappa > 0:
        raise ValueError(f"kappa must be > 0, got {kappa}")
    return t


def quantile_huber(u, tau, kappa: float = 1.0):
    """Asymmetric Huber-smoothed pinball loss.

    |tau - [u < 0]| * H_kappa(u) / kappa with H the Huber function
    (quadratic within |u| <= kappa, linear outside). Broadcasts over array
    inputs; non-negative, zero iff u == 0.
    """
    t = _check_tau_kappa(tau, kappa)
    u = np.asarray(u, dtype=float)
    au = np.abs(u)
    h = np.where(au <= kappa, 0.5 * u * u, kappa * (au - 0.5 * kappa))
    out = np.abs(t - (u < 0.0)) * h / kappa
    return float(out) if out.ndim == 0 else out


def quantile_huber_grad(u, tau, kappa: float = 1.0):
    """Derivative of ``quantile_huber`` with respect to the residual u.

    |tau - [u < 0]| * (u / kappa) inside the quadratic region, times
    sign(u) outside; continuous, and 0 at u = 0.
    """
    t = _check_tau_kappa(tau, kappa)
    u = np.asarray(u, dtype=float)
    psi = np.where(np.abs(u) <= kappa, u / kappa, np.sign(u))
    out = np.abs(t - (u < 0.0)) * psi
    return float(out) if out.ndim == 0 else out


def huber_terms(u, tau, kappa: float = 1.0):
    """Fused (loss, d loss / du) of the quantile Huber objective.

    Single-pass variant of ``quantile_huber`` and ``quantile_huber_grad``
    for hot loops; agrees with them elementwise (covered by tests).
    """
    t = _check_tau_kappa(tau, kappa)
    u = np.asarray(u, dtype=float)
    au = np.abs(u)
    quad = au <= kappa
    w = np.abs(t - (u < 0.0))
    loss = w * np.where(quad, 0.5 * u * u, kappa * (au - 0.5 * kappa)) / kappa
    grad = w * np.where(quad, u / kappa, np.sign(u))
    return loss, grad


def integrated_cdf(d, z) -> np.ndarray:
    """Integrated CDF F2(z) = E[(z - X)+] of the atom mixture, exact."""
    a = _atoms(d)
    z = np.asarray(z, dtype=float)
    return np.maximum(z[..., None] - a, 0.0).mean(axis=-1)


def ssd_dominates(a, b) -> bool:
    """Second-order stochastic dominance of a over b.

    True iff the integrated CDF of a lies at or below that of b everywhere.
    For Dirac mixtures both integrated CDFs are piecewise linear with
    breakpoints at the atoms, so checking the union of the two atom sets is
    exact: beyond the largest atom both slopes are 1 and the gap equals
    mean(b) - mean(a), which the largest breakpoint already witnesses.
    A small tolerance scaled to the atom magnitude makes equal
    distributions mutually dominant under floating point.
    """
    aa = _atoms(a)
    bb = _atoms(b)
    zs = np.concatenate([aa, bb])
    eps = 1e-9 * max(1.0, float(np.abs(zs).max()))
    return bool(np.all(integrated_cdf(aa, zs) <= integrated_cdf(bb, zs) + eps))


def cvar(d, alpha: float) -> float:
    """Mean of the ceil(alpha * N) smallest atoms (lower-tail average)."""
    if isinstance(alpha, bool) or not isinstance(alpha, (int, float, np.floating)):
        raise BadAlpha(f"alpha must be a number in (0, 1], got {alpha!r}")
    if not 0.0 < alpha <= 1.0:
        raise BadAlpha(f"alpha must lie in (0, 1], got {alpha}")
    a = np.sort(_atoms(d))
    k = int(np.ceil(alpha * a.size - 1e-12))
    k = min(max(k, 1), a.size)
    return float(a[:k].mean())
