"""Spectral machinery for Metzler and nonnegative matrices.

Every spectrum needed by the model analysis is the Perron root of a
Metzler or nonnegative matrix: the real eigenvalue with the largest
real part (for a nonnegative matrix that is the spectral radius).  It
is taken from one dense ``np.linalg.eigvals`` call, and its eigenvector
from one replaced-row solve of (S - lambda I) y = 0 with
``network.left_null_vector``.  The eigen-residual ||S y - lambda y||_inf
is the certificate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import graphs
from .network import left_null_vector

EIG_TOL = 1e-10
METZLER_TOL = 1e-12
SEMI_POSITIVE_TOL = 1e-12


@dataclass
class SpectralResult:
    """Outcome of a Perron-root computation.

    ``mu`` is the spectral abscissa, ``rho`` the spectral radius
    (whichever was requested), ``perron_vector`` the eigenvector
    normalized to unit max entry, reported only when it is strictly
    positive with a residual within EIG_TOL (always for irreducible
    input), and ``residual`` the ||G y - lambda y||_inf of the solved
    eigenvector (NaN when that solve is singular).  The eigen-solve is
    direct, so ``iterations`` is 0.
    """

    mu: float | None = None
    rho: float | None = None
    perron_vector: np.ndarray | None = None
    residual: float = np.nan
    iterations: int = 0
    converged: bool = False


def _perron(S: np.ndarray):
    """Perron root of a Metzler matrix S, its eigenvector and residual.

    Returns (lam, y, residual): lam is the eigenvalue with the largest
    real part, y the solved eigenvector scaled to unit max entry, and
    residual ||S y - lam y||_inf.  y is None unless it is strictly
    positive with residual <= EIG_TOL * max(1, max |s_ij|), which holds
    for irreducible S.  For reducible S the replaced-row solve can be
    singular (then y is None and the residual NaN) or ill-conditioned.
    """
    eig = np.linalg.eigvals(S)
    lam = float(eig[np.argmax(eig.real)].real)
    try:
        y = left_null_vector((S - lam * np.eye(S.shape[0])).T)
    except np.linalg.LinAlgError:
        return lam, None, np.nan
    y = y / np.max(np.abs(y))
    residual = float(np.max(np.abs(S @ y - lam * y)))
    certified = y.min() > 0 and residual <= EIG_TOL * max(1.0, float(np.max(np.abs(S))))
    return lam, (y if certified else None), residual


def _require_metzler(G: np.ndarray):
    off = G - np.diag(np.diag(G))
    worst = float(off.min()) if off.size else 0.0
    if worst < -METZLER_TOL * max(1.0, float(np.max(np.abs(G)))):
        raise ValueError(f"matrix is not Metzler: off-diagonal entry {worst}")


def spectral_abscissa(G: np.ndarray) -> SpectralResult:
    """Largest real part of the spectrum of a Metzler matrix.

    For a Metzler matrix the abscissa is itself an eigenvalue (the
    Perron root), with a nonnegative eigenvector that is reported
    (max-normalized) when it is strictly positive.
    """
    G = np.asarray(G, dtype=float)
    _require_metzler(G)
    mu, y, residual = _perron(G)
    return SpectralResult(mu=mu, perron_vector=y, residual=residual, converged=True)


def spectral_radius(G: np.ndarray) -> SpectralResult:
    """Perron root of a nonnegative matrix: its largest real eigenvalue."""
    G = np.asarray(G, dtype=float)
    if G.size and float(G.min()) < -METZLER_TOL * max(1.0, float(np.max(np.abs(G)))):
        raise ValueError(f"matrix is not nonnegative: entry {float(G.min())}")
    G = np.maximum(G, 0.0)
    rho, y, residual = _perron(G)
    return SpectralResult(rho=rho, perron_vector=y, residual=residual, converged=True)


@dataclass
class MMatrixReport:
    """Independent nonsingular-M-matrix criteria for a Z-matrix.

    ``stability``: all eigenvalues have positive real part (checked via
    the spectral abscissa of -A).  ``inverse_positive``: A^{-1} >= 0
    entrywise (None when A is singular to tolerance).
    ``semi_positive``: some x >> 0 has Ax >> 0, with x built from the
    Perron vector(s) of -A (per strongly connected component; exact for
    irreducible and block-diagonal A).
    ``agree`` reports whether all evaluated criteria give one verdict.
    """

    stability: bool
    inverse_positive: bool | None
    semi_positive: bool
    singular: bool
    mu_neg: float
    agree: bool


def mmatrix_checks(A: np.ndarray) -> MMatrixReport:
    """Evaluate the stability / inverse-positivity / semi-positivity
    characterizations of a Z-matrix independently and report agreement."""
    A = np.asarray(A, dtype=float)
    n = A.shape[0]
    off = A - np.diag(np.diag(A))
    if off.size and float(off.max()) > METZLER_TOL * max(1.0, float(np.max(np.abs(A)))):
        raise ValueError("matrix is not a Z-matrix: positive off-diagonal entry")

    mu_neg = spectral_abscissa(-A).mu
    stability = mu_neg < -EIG_TOL
    singular = abs(mu_neg) <= EIG_TOL

    inverse_positive = None
    if not singular:
        try:
            X = np.linalg.solve(A, np.eye(n))
            inverse_positive = bool(X.min() >= -1e-10)
        except np.linalg.LinAlgError:
            singular = True

    semi_positive = _semi_positivity(A)

    verdicts = [stability, semi_positive]
    if inverse_positive is not None:
        verdicts.append(inverse_positive)
    agree = len(set(verdicts)) == 1
    return MMatrixReport(stability, inverse_positive, semi_positive, singular,
                         float(mu_neg), agree)


def _semi_positivity(A: np.ndarray) -> bool:
    """Test for x >> 0 with Ax >> 0 using Perron vectors of -A.

    The candidate is assembled per strongly connected component of A's
    sparsity pattern, so block-diagonal Z-matrices are handled exactly.
    """
    x = np.zeros(A.shape[0])
    for comp in graphs.strongly_connected_components(A):
        idx = np.array(comp)
        _, y, _ = _perron(-A[np.ix_(idx, idx)])
        if y is None:
            return False
        x[idx] = y
    if x.min() <= SEMI_POSITIVE_TOL:
        return False
    w = A @ x
    return bool(w.min() > SEMI_POSITIVE_TOL * max(1.0, float(np.max(np.abs(A)))))
