"""Spectral machinery for Metzler and nonnegative matrices.

Every spectrum needed by the model analysis is the Perron root of a
Metzler or nonnegative matrix: the real eigenvalue with the largest
real part (for a nonnegative matrix that is the spectral radius).  It
is found by Noda's iteration (Numer. Math. 17, 1971) from y = 1: with
r = (S y) / y, solve (max r I - S) z = y and set y = z / max z.  For
y >> 0 the Collatz-Wielandt bracket min r <= lambda <= max r is the
certificate; it closes quadratically for irreducible S.  The iteration
runs on a stack of K matrices, each lane from its own y = 1, with one
stacked matmul and one stacked solve per step.  A lane leaves the stack
when its bracket closes, when its y is not strictly positive (the bracket
then certifies nothing; a singular solve makes y NaN), or after
NODA_MAX_ITER solves (reducible input only: the model matrices are
irreducible by construction).  A lane left with an open bracket takes its
root from one dense ``np.linalg.eigvals`` call and its eigenvector from
one replaced-row solve of (S - lambda I) y = 0.
"""

from __future__ import annotations

import contextlib
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
    ``iterations`` counts the Noda solves (a singular one included), and
    ``converged`` says that the ``bracket`` (min r, max r) around the root
    closed to NODA_TOL * max(1, max |g_ij|); otherwise the fallback ran.
    """

    mu: float | None = None
    rho: float | None = None
    perron_vector: np.ndarray | None = None
    residual: float = np.nan
    iterations: int = 0
    converged: bool = False
    bracket: tuple[float, float] | None = None


def _perron(S: np.ndarray, scale: np.ndarray, root: str) -> list:
    """One SpectralResult per lane of a (K, n, n) stack S of Metzler matrices
    with max(1, max |s_ij|) ``scale``, its Perron root in field ``root``; numpy's
    stacked matmul and solve make one BLAS/LAPACK call per lane, so lanes keep apart."""
    K, n = S.shape[:2]
    lo, hi, solves, Y = np.empty(K), np.empty(K), np.zeros(K, dtype=int), np.ones((K, n))
    # the active lanes: their indices, matrices, hi I - S (C order), y and tolerance
    lanes, A, shifted, y, tol = np.arange(K), S, np.negative(S, order="C"), Y, NODA_TOL * scale
    # on reducible input y can lose positivity, underflow or overflow: a zero
    # or non-finite y_i makes r_i infinite or NaN, and the lane stops at once
    with np.errstate(all="ignore"):
        for step in range(NODA_MAX_ITER + 1):
            r = (A @ y[:, :, None])[:, :, 0]
            r /= y
            low, high = r.min(axis=1), r.max(axis=1)
            stop = (high - low <= tol) | ~(y.min(axis=1) > 0) | (step == NODA_MAX_ITER)
            if stop.any():  # compact the stack only when some lane stops
                done, keep = lanes[stop], ~stop
                lo[done], hi[done], solves[done], Y[done] = low[stop], high[stop], step, y[stop]
                if not keep.any():
                    break
                lanes, A, shifted, y, tol, high = (
                    v[keep] for v in (lanes, A, shifted, y, tol, high))
            np.subtract(high[:, None], A.diagonal(axis1=1, axis2=2),
                        out=shifted.reshape(len(lanes), -1)[:, ::n + 1])
            try:
                z = np.linalg.solve(shifted, y[:, :, None])[:, :, 0]
            except np.linalg.LinAlgError:  # a singular lane gets y = NaN and stops
                z = np.full_like(y, np.nan)
                for k in range(len(lanes)):
                    with contextlib.suppress(np.linalg.LinAlgError):
                        z[k] = np.linalg.solve(shifted[k], y[k])
            y = z / z.max(axis=1, keepdims=True)
    converged = (hi - lo <= NODA_TOL * scale) & (Y.min(axis=1) > 0)
    lam = 0.5 * (lo + hi)
    for k in np.flatnonzero(~converged):  # the dense fallback, lane by lane
        eig = np.linalg.eigvals(S[k])
        lam[k] = eig[np.argmax(eig.real)].real
        try:
            Y[k] = left_null_vector((S[k] - lam[k] * np.eye(n)).T)
        except np.linalg.LinAlgError:
            Y[k] = np.nan  # no eigenvector: residual NaN
    Y = Y / np.max(np.abs(Y), axis=1, keepdims=True)
    residual = np.max(np.abs((S @ Y[:, :, None])[:, :, 0] - lam[:, None] * Y), axis=1)
    certified = (Y.min(axis=1) > 0) & (residual <= EIG_TOL * scale)
    return [SpectralResult(**{root: x}, perron_vector=y if ok else None, residual=res,
                           iterations=its, converged=conv, bracket=(a, b) if conv else None)
            for x, y, ok, res, its, conv, a, b in zip(
                lam.tolist(), Y, certified.tolist(), residual.tolist(), solves.tolist(),
                converged.tolist(), lo.tolist(), hi.tolist())]


def _scale(G: np.ndarray) -> np.ndarray:
    """max(1, max |g_ij|) of each matrix of a stack, refusing NaN and
    infinite entries before they can reach a solver or make numpy warn.  max |g_ij| is
    max(max g_ij, -min g_ij), bit for bit, without a copy of the stack."""
    scale = np.maximum(G.max(axis=(-2, -1)), -G.min(axis=(-2, -1)))
    if not np.all(np.isfinite(scale)):
        raise ValueError("matrix has NaN or infinite entries")
    return np.maximum(scale, 1.0)


def spectral_abscissas(G: np.ndarray) -> list:
    """One SpectralResult per matrix of a (K, n, n) stack of Metzler
    matrices: the largest real part of its spectrum, itself an eigenvalue
    (the Perron root) with a nonnegative eigenvector."""
    G = np.ascontiguousarray(G, dtype=float)  # the bits must not depend on memory order
    scale = _scale(G)
    worst = G.min(axis=(1, 2), initial=np.inf, where=~np.eye(G.shape[1], dtype=bool))
    if np.any(worst < -METZLER_TOL * scale):
        raise ValueError(f"matrix is not Metzler: off-diagonal entry {float(worst.min())}")
    return _perron(G, scale, "mu")


def spectral_radii(G: np.ndarray) -> list:
    """One SpectralResult per matrix of a (K, n, n) stack of nonnegative
    matrices: its Perron root, the largest real eigenvalue."""
    G = np.ascontiguousarray(G, dtype=float)  # the bits must not depend on memory order
    scale = _scale(G)
    low = G.min(axis=(1, 2))
    if np.any(low < -METZLER_TOL * scale):
        raise ValueError(f"matrix is not nonnegative: entry {float(low.min())}")
    return _perron(np.maximum(G, 0.0), scale, "rho")


def spectral_abscissa(G: np.ndarray) -> SpectralResult:
    """``spectral_abscissas`` of one matrix."""
    return spectral_abscissas(np.asarray(G)[None])[0]


def spectral_radius(G: np.ndarray) -> SpectralResult:
    """``spectral_radii`` of one matrix."""
    return spectral_radii(np.asarray(G)[None])[0]


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
    if float((A - np.diag(np.diag(A))).max()) > METZLER_TOL * _scale(A):
        raise ValueError("matrix is not a Z-matrix: positive off-diagonal entry")

    mu_neg = spectral_abscissa(-A).mu
    stability = mu_neg < -EIG_TOL
    singular = abs(mu_neg) <= EIG_TOL

    inverse_positive = None
    if not singular:
        try:
            inverse_positive = bool(np.linalg.solve(A, np.eye(len(A))).min() >= -1e-10)
        except np.linalg.LinAlgError:
            singular = True

    semi_positive = _semi_positivity(A)

    agree = len({stability, semi_positive, inverse_positive} - {None}) == 1
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
        y = _perron(block[None], _scale(block[None]), "mu")[0].perron_vector
        if y is None:
            return False
        x[idx] = y
    if x.min() <= SEMI_POSITIVE_TOL:
        return False
    w = A @ x
    return bool(w.min() > SEMI_POSITIVE_TOL * _scale(A))
