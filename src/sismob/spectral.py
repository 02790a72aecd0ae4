"""Spectral machinery for Metzler and nonnegative matrices.

Every spectrum needed by the model analysis is the Perron root of a
Metzler or nonnegative matrix: the real eigenvalue with the largest
real part (for a nonnegative matrix that is the spectral radius).  It
is found by Noda's iteration (Numer. Math. 17, 1971) from y = 1: with
r = (S y) / y, solve (max r I - S) z = y and set y = z / max z.  For
y >> 0 the Collatz-Wielandt bracket min r <= lambda <= max r is the
certificate; it closes quadratically for irreducible S.  If a solve is
singular, or leaves y not strictly positive (the bracket then certifies
nothing), or the bracket is open after NODA_MAX_ITER solves (reducible
input only: the model matrices are irreducible by construction), the
root comes from one dense ``np.linalg.eigvals`` call and its eigenvector
from one replaced-row solve of (S - lambda I) y = 0 instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import graphs
from .network import left_null_vector

EIG_TOL = 1e-10
METZLER_TOL = 1e-12
SEMI_POSITIVE_TOL = 1e-12
NODA_TOL = 1e-13
NODA_MAX_ITER = 20  # the model matrices take 4-7 solves from n = 10 to 160


@dataclass
class SpectralResult:
    """Outcome of a Perron-root computation.

    ``mu`` is the spectral abscissa, ``rho`` the spectral radius
    (whichever was requested), ``perron_vector`` the eigenvector
    normalized to unit max entry, reported only when it is strictly
    positive with a residual within EIG_TOL (always for irreducible
    input), and ``residual`` the ||G y - lambda y||_inf of that
    eigenvector (NaN when the fallback's solve is singular).
    ``iterations`` counts the Noda solves, and ``converged`` says that
    the ``bracket`` (min r, max r) around the root closed to
    NODA_TOL * max(1, max |g_ij|); otherwise the fallback ran.
    """

    mu: float | None = None
    rho: float | None = None
    perron_vector: np.ndarray | None = None
    residual: float = np.nan
    iterations: int = 0
    converged: bool = False
    bracket: tuple[float, float] | None = None


def _perron(S: np.ndarray, scale: float):
    """(lam, result): the Perron root of a Metzler matrix S, whose
    max(1, max |s_ij|) is ``scale``, and a SpectralResult without
    ``mu``/``rho``.  lam is the midpoint of the closed bracket."""
    n = S.shape[0]
    shifted, s_diag = np.negative(S, order="C"), S.diagonal()
    diagonal = shifted.reshape(-1)[::n + 1]  # a view (C order): hi I - S in place
    y = np.ones(n)
    # on reducible input y can lose positivity, underflow or overflow; the
    # bracket certifies nothing then (a zero or non-finite y_i makes r_i
    # infinite or NaN), so the fallback takes over at once
    with np.errstate(all="ignore"):
        for solves in range(NODA_MAX_ITER + 1):
            r = S @ y
            r /= y
            lo, hi = float(r.min()), float(r.max())
            if (hi - lo <= NODA_TOL * scale or solves == NODA_MAX_ITER
                    or not y.min() > 0):
                break
            np.subtract(hi, s_diag, out=diagonal)
            try:
                z = np.linalg.solve(shifted, y)
            except np.linalg.LinAlgError:
                break
            y = z / z.max()
    converged = bool(hi - lo <= NODA_TOL * scale and y.min() > 0)
    if converged:
        lam = 0.5 * (lo + hi)
    else:
        eig = np.linalg.eigvals(S)
        lam = float(eig[np.argmax(eig.real)].real)
        try:
            y = left_null_vector((S - lam * np.eye(n)).T)
        except np.linalg.LinAlgError:
            return lam, SpectralResult(iterations=solves)
    y = y / np.max(np.abs(y))
    residual = float(np.max(np.abs(S @ y - lam * y)))
    certified = y.min() > 0 and residual <= EIG_TOL * scale
    return lam, SpectralResult(perron_vector=y if certified else None, residual=residual,
                               iterations=solves, converged=converged,
                               bracket=(lo, hi) if converged else None)


def _scale(G: np.ndarray) -> float:
    """max(1, max |g_ij|), refusing NaN and infinite entries before they
    can reach a solver or make numpy warn."""
    scale = float(np.max(np.abs(G)))
    if not math.isfinite(scale):
        raise ValueError("matrix has NaN or infinite entries")
    return max(1.0, scale)


def spectral_abscissa(G: np.ndarray) -> SpectralResult:
    """Largest real part of the spectrum of a Metzler matrix.

    For a Metzler matrix the abscissa is itself an eigenvalue (the
    Perron root), with a nonnegative eigenvector that is reported
    (max-normalized) when it is strictly positive.
    """
    G = np.asarray(G, dtype=float)
    scale = _scale(G)
    worst = float((G - np.diag(np.diag(G))).min())
    if worst < -METZLER_TOL * scale:
        raise ValueError(f"matrix is not Metzler: off-diagonal entry {worst}")
    mu, result = _perron(G, scale)
    result.mu = mu
    return result


def spectral_radius(G: np.ndarray) -> SpectralResult:
    """Perron root of a nonnegative matrix: its largest real eigenvalue."""
    G = np.asarray(G, dtype=float)
    scale = _scale(G)
    if float(G.min()) < -METZLER_TOL * scale:
        raise ValueError(f"matrix is not nonnegative: entry {float(G.min())}")
    rho, result = _perron(np.maximum(G, 0.0), scale)
    result.rho = rho
    return result


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
    scale = _scale(A)
    off = A - np.diag(np.diag(A))
    if float(off.max()) > METZLER_TOL * scale:
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
        block = -A[np.ix_(idx, idx)]
        y = _perron(block, _scale(block))[1].perron_vector
        if y is None:
            return False
        x[idx] = y
    if x.min() <= SEMI_POSITIVE_TOL:
        return False
    w = A @ x
    return bool(w.min() > SEMI_POSITIVE_TOL * _scale(A))
