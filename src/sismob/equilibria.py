"""Equilibrium computation and stability classification.

At the stationary populations v the infection dynamics linearize to the
irreducible Metzler matrix B F* - D - L*.  Its spectral abscissa mu is
the stability threshold: the disease-free equilibrium (p = 0, x = v) is
globally asymptotically stable iff mu <= 0, and a unique positive
endemic equilibrium exists iff mu > 0.  When at least one node has a
positive recovery rate the threshold can equivalently be stated through
the reproduction number R0 = rho((L* + D)^{-1} B F*).  With F* = U V,
U the m stacked n x n identities and V = F*[:n], R0 is the spectral
radius of the n x n matrix V Z, where Z solves (L* + D) Z = B U.
``threshold`` computes (mu, R0, classification) and is the one routine
behind both ``classify`` and the CLI sweep.

The endemic point p* is the positive zero of

    f(p) = G p - p o (B F* p),   G = B F* - D - L*,

found by Newton's method from p = 1 with the Jacobian
J(p) = G - diag(B F* p) - diag(p) B F*.  The iterates decrease
monotonically onto p* (Ortega and Rheinboldt's monotone Newton
theorem): every second partial of f is -(B F*)_ij <= 0, so f is
order-concave; J(p) is Metzler with J(p) <= J(p*) entrywise for
p >= p*, and J(p*) is Hurwitz because the endemic point is stable when
mu > 0, so -J(p)^{-1} >= 0 along the way; and f(1) = -delta <= 0 since
the rows of L* sum to zero.  Each step is one nm x nm solve.

The paper's monotone self-map

    H(p) = (I + A (P + (I - P) M))^{-1} A p,   A = (L* + D)^{-1} B,

has the same positive fixed point and is kept as
``apply_infection_map``, the oracle the tests iterate from p = 1.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, fields, is_dataclass

import numpy as np

from .dynamics import ModelSpec
from .errors import ConvergenceError
from .network import left_null_vector
from .spectral import _scale, spectral_abscissa, spectral_abscissas, spectral_radii

MU_TIE_TOL = 1e-10
Z_SOLVE_TOL = 1e-10  # bound on the backward error of threshold's (L* + D) Z = B U solve
# Newton's relative step tolerance and step cap.  Far above p* a step
# roughly halves p, then convergence is quadratic: mu = 1e-8 takes
# about 30 steps.
NEWTON_STEP_TOL = 1e-13
NEWTON_MAX_ITER = 100
# certificate: ||f(p*)||_inf <= RESIDUAL_TOL * max(p*)
RESIDUAL_TOL = 1e-8
MARGIN_SLACK = 1e-9
# _lambda2's certificates, each relative to max(1, max |entry|) of its matrix:
# w's residual ||w^T (B M + L*)||_inf (1.6e-13 measured at nm = 320) and the
# smallest eigenvalue of the symmetrized matrix, 0 in exact arithmetic
NULL_VECTOR_TOL = 1e-10
ZERO_EIGENVALUE_TOL = 1e-10
# Floating-point guard when deciding the lambda2 sufficient condition;
# instances built to satisfy it with equality must not flip sign.
CONDITION_EVAL_TOL = 1e-12

DFE_STABLE = "DFE_stable"
DFE_UNSTABLE = "DFE_unstable_EE_exists"


@dataclass(frozen=True, eq=False)
class EquilibriumMatrices:
    """Model matrices evaluated at the stationary populations.  The
    diagonal B and D are held as the stacked rate vectors b and d."""

    v: np.ndarray
    v_per_layer: tuple
    F: np.ndarray
    L: np.ndarray
    M: np.ndarray
    b: np.ndarray              # beta repeated over the m classes
    d: np.ndarray              # delta repeated over the m classes
    G: np.ndarray              # B F - D - L, the linearization at the DFE
    BF = property(lambda self: self.b[:, None] * self.F, doc="B F, the bits G starts from")


def _plain(value):
    """``value`` in JSON-ready Python types: a dataclass as the dict of its
    fields, an array as its ``tolist()``."""
    if is_dataclass(value):
        return {field.name: _plain(getattr(value, field.name)) for field in fields(value)}
    return value.tolist() if isinstance(value, np.ndarray) else value


@dataclass
class ConditionReport:
    """Verdicts of the recovery-vs-infection stability conditions.

    ``nec_per_node``/``nec_exists`` are necessary for a stable DFE,
    ``suf_all`` and ``suf_lambda2`` sufficient.  ``suf_lambda2`` is None
    when the bound does not apply (all recovery deficits equal, or a
    one-dimensional system).
    """

    nec_per_node: list
    nec_exists: bool
    suf_all: bool
    suf_lambda2: bool | None
    lambda2: float | None
    s: float
    s_lower: float | None
    w: np.ndarray | None
    weighted_deficit_sum: float | None
    condition_value: float | None

    def to_dict(self) -> dict:
        return _plain(self)


@dataclass
class EquilibriumReport:
    """Stationary populations, threshold quantities, and classification."""

    v: np.ndarray
    mu: float
    R0: float | None
    classification: str
    marginal: bool
    p_star: np.ndarray | None
    conditions: ConditionReport

    def to_dict(self) -> dict:
        return _plain(self)


def equilibrium_matrices(spec: ModelSpec) -> EquilibriumMatrices:
    """Validate all layers (through their stationary laws), then build the
    DFE linearization from F*, L* and M, which the network assembles once
    for all its specs."""
    return equilibrium_stack([(spec.net, spec.beta, spec.delta)]).lanes[0]


@dataclass(frozen=True, eq=False)
class EquilibriumStack:
    """The EquilibriumMatrices of lanes built together: lane k's G, b and d are
    G[k], b[k] and d[k] of one (K, nm, nm) and two (K, nm) arrays."""

    lanes: tuple               # of EquilibriumMatrices
    G: np.ndarray
    b: np.ndarray
    d: np.ndarray


def equilibrium_stack(points) -> EquilibriumStack:
    """``equilibrium_matrices`` of each (network, beta, delta) of ``points``, of one n
    and m: G of all lanes in one broadcast, over the F* and L* of a network all
    share, else over their stacks.  A lane's F*, L*, M and v are its network's."""
    nets, betas, deltas = zip(*points)
    F, L = (getattr(nets[0].assembled, name) if len(set(nets)) == 1
            else np.stack([getattr(net.assembled, name) for net in nets]) for name in "FL")
    b, d = (np.tile(rates, (1, nets[0].m)) for rates in (betas, deltas))
    G = b[:, :, None] * F  # B F*
    diagonal = np.arange(G.shape[-1])
    G[:, diagonal, diagonal] -= d
    G -= L
    lanes = tuple(EquilibriumMatrices(v=net.stationary.v, v_per_layer=net.stationary.v_per_layer,
                                      F=net.assembled.F, L=net.assembled.L, M=net.assembled.M,
                                      b=b[k], d=d[k], G=G[k]) for k, net in enumerate(nets))
    return EquilibriumStack(lanes=lanes, G=G, b=b, d=d)


def threshold(stack: EquilibriumStack) -> list:
    """Threshold quantities (mu, R0, classification) of each lane of ``stack``,
    solved on its G stack as it was built.

    mu is the spectral abscissa of the DFE linearization, R0 the spectral
    radius of V Z with (L* + D) Z = B U (None when no recovery rate is
    positive), and the disease-free state counts as stable when mu <=
    MU_TIE_TOL.  Each lane gets the bits it gets alone.  A Z whose
    relative backward error exceeds Z_SOLVE_TOL raises ``ConvergenceError``."""
    mu = [res.mu for res in spectral_abscissas(stack.G)]
    R0, recovering = {}, np.flatnonzero(np.any(stack.d > 0, axis=1))  # else L* singular
    if recovering.size:
        nm, n = stack.d.shape[1], len(stack.lanes[0].v_per_layer[0])
        LD = np.stack([stack.lanes[k].L for k in recovering])
        LD[:, np.arange(nm), np.arange(nm)] += stack.d[recovering]
        BU = np.zeros((len(recovering), nm, n))  # U's stacked identities times B
        BU[:, np.arange(nm), np.arange(nm) % n] = stack.b[recovering]
        V = np.stack([stack.lanes[k].F[:n] for k in recovering])
        Z = np.linalg.solve(LD, BU)
        VZ = V @ Z
        R = LD @ Z
        R -= BU  # certified by each lane's relative backward error in inf-norms, with
        # |R|, |L* + D|, |Z| and |B U| taken in place: the chunk's peak memory is the solve's
        r, ld, z, bu = ((np.abs(A, out=A) @ np.ones(A.shape[2])).max(1) for A in (R, LD, Z, BU))
        if not np.all((error := r / (ld * z + bu)) <= Z_SOLVE_TOL):  # NaN fails too
            raise ConvergenceError(f"(L* + D) Z = B U solve: relative backward error "
                                   f"{error.max():.3e} above {Z_SOLVE_TOL}")
        R0 = dict(zip(recovering.tolist(), [res.rho for res in spectral_radii(VZ)]))
    return [(x, R0.get(k), DFE_UNSTABLE if x > MU_TIE_TOL else DFE_STABLE)
            for k, x in enumerate(mu)]


def _lambda2(b: np.ndarray, M: np.ndarray, L: np.ndarray):
    """Weighted-Laplacian quantities (w, lambda2) of the lambda2 bound for
    stacked infection rates b (the diagonal of B), M and L*: w is the
    positive left null vector of B M + L* scaled to max w = 1, and lambda2
    the second smallest eigenvalue of (W (B M + L*) + (B M + L*)^T W) / 2.
    That matrix has eigenvector 1 for the eigenvalue 0 when w is exact.  A
    residual ||w^T (B M + L*)||_inf above NULL_VECTOR_TOL, or a smallest
    eigenvalue off 0 by more than ZERO_EIGENVALUE_TOL, each times its matrix's
    max(1, max |entry|), raises ``ConvergenceError``.
    """
    lap = b[:, None] * M + L
    w = left_null_vector(lap)
    if np.any(w <= 0):  # B M + L* is irreducible, so w is positive
        raise ConvergenceError(f"lambda2: left null vector has nonpositive entries (smallest "
                               f"{w.min():.3e}, largest {w.max():.3e}): the weights span more "
                               "orders of magnitude than double precision resolves")
    w = w / w.max()
    bound = NULL_VECTOR_TOL * _scale(lap)
    if not (residual := float(np.max(np.abs(w @ lap)))) <= bound:  # NaN fails too
        raise ConvergenceError(f"lambda2: left null vector residual {residual:.3e} "
                               f"exceeds {bound:.3e}")
    with np.errstate(over="ignore"):  # an overflow is refused below
        sym = 0.5 * (w[:, None] * lap + lap.T * w)
    bound = ZERO_EIGENVALUE_TOL * _scale(sym)
    eigenvalues = np.linalg.eigvalsh(sym)
    if not abs(eigenvalues[0]) <= bound:
        raise ConvergenceError(f"lambda2: smallest eigenvalue {eigenvalues[0]:.3e} is not 0 "
                               f"to within {bound:.3e}")
    return w, float(eigenvalues[1])


def endemic_fixed_point(spec: ModelSpec, mats: EquilibriumMatrices | None = None,
                        mu: float | None = None) -> np.ndarray:
    """Endemic infected fractions p* >> 0, by monotone Newton from p = 1.

    Requires mu > 0 and at least one positive recovery rate (``mu`` may
    be passed to skip recomputing it).  An iterate outside (0, 1] raises
    ``ConvergenceError``.  The returned point is certified by the
    stationarity residual
    ||(B F* - D - L* - P* B F*) p*||_inf <= 1e-8 max(p*).
    """
    if mats is None:
        mats = equilibrium_matrices(spec)
    if not np.any(mats.d > 0):
        raise ValueError("endemic fixed point needs at least one positive recovery rate "
                         "(with none, the endemic state is p = 1)")
    if mu is None:
        mu = float(spectral_abscissa(mats.G).mu)
    if mu <= MU_TIE_TOL:
        raise ValueError(f"no endemic equilibrium: threshold mu = {mu:.3e} is not positive")
    BF = mats.BF
    diagonal = np.diag_indices_from(BF)
    p = np.ones(BF.shape[0])
    for _ in range(NEWTON_MAX_ITER):
        q = BF @ p
        J = mats.G - p[:, None] * BF
        J[diagonal] -= q
        dp = np.linalg.solve(J, p * q - mats.G @ p)
        p = p + dp
        if not np.all((p > 0.0) & (p <= 1.0)):
            raise ConvergenceError("Newton iterate left (0, 1]")
        # In exact arithmetic every step lowers every entry until p = p*.
        # A step that raises one is rounding: near the threshold p* is
        # determined only to about eps |G| / mu relative, and the steps
        # stall there above NEWTON_STEP_TOL.
        if np.max(np.abs(dp)) <= NEWTON_STEP_TOL * p.max() or np.any(dp > 0.0):
            break
    else:
        raise ConvergenceError(f"Newton iteration did not converge in {NEWTON_MAX_ITER} steps")

    residual = float(np.max(np.abs(mats.G @ p - p * (BF @ p))))
    bound = RESIDUAL_TOL * float(p.max())
    if residual > bound:
        raise ConvergenceError(f"endemic point residual {residual:.3e} exceeds {bound:.3e}")
    return p


def apply_infection_map(mats: EquilibriumMatrices, p: np.ndarray) -> np.ndarray:
    """One application of the monotone map H whose fixed points are the
    endemic equilibria."""
    if not np.any(mats.d > 0):
        raise ValueError("H is defined only when some recovery rate is positive")
    A = np.linalg.solve(mats.L + np.diag(mats.d), np.diag(mats.b))
    p = np.asarray(p, dtype=float)
    T = np.eye(len(p)) + A @ (np.diag(p) + (1.0 - p)[:, None] * mats.M)
    return np.linalg.solve(T, A @ p)


def stability_conditions(spec: ModelSpec, mats: EquilibriumMatrices | None = None) -> ConditionReport:
    """Evaluate the necessary and sufficient DFE-stability conditions.

    (per-node necessary)  every node i has some class a with
                          delta_i > beta_i - nu^a_i;
    (exists necessary)    some node has delta_i >= beta_i;
    (all sufficient)      every node has delta_i >= beta_i;
    (lambda2 sufficient)  the weighted-Laplacian eigenvalue bound

        lambda2 / ((1 + sqrt(1 + lambda2 / sum_k w_k (delta_k - beta_k - s)))^2 nm + 1) + s >= 0

    with s = min_i (delta_i - beta_i), w the positive left null vector
    of (B M + L*) scaled to max w = 1, and lambda2 the second smallest
    eigenvalue of (W (B M + L*) + (B M + L*)^T W) / 2.  The margin a
    given mobility structure can absorb is s_lower = -lambda2 / (4 m n + 1).
    """
    if mats is None:
        mats = equilibrium_matrices(spec)
    beta = np.asarray(spec.beta)
    delta = np.asarray(spec.delta)
    n, m, nm = spec.n, spec.m, spec.nm

    nu = -np.diagonal(spec.net.Q, axis1=1, axis2=2)  # (m, n) exit rates
    nec_per_node = np.any(delta > beta - nu, axis=0).tolist()
    nec_exists = bool(np.any(delta >= beta))
    suf_all = bool(np.all(delta >= beta))

    s = float(np.min(delta - beta))
    if nm < 2:
        return ConditionReport(nec_per_node, nec_exists, suf_all, None,
                               None, s, None, None, None, None)

    w, lambda2 = _lambda2(mats.b, mats.M, mats.L)
    s_lower = -lambda2 / (4.0 * m * n + 1.0)

    deficits = np.tile(delta - beta, m) - s  # per stacked index, >= 0
    weighted = float(w @ deficits)
    if weighted <= 0.0:
        # All recovery deficits equal: the perturbed-Laplacian bound does
        # not apply; report it as not applicable rather than guessing.
        return ConditionReport(nec_per_node, nec_exists, suf_all, None,
                               lambda2, s, s_lower, w, weighted, None)

    value = lambda2 / ((1.0 + np.sqrt(1.0 + lambda2 / weighted)) ** 2 * nm + 1.0) + s
    suf_lambda2 = bool(value >= -CONDITION_EVAL_TOL)
    return ConditionReport(nec_per_node, nec_exists, suf_all, suf_lambda2,
                           lambda2, s, s_lower, w, weighted, float(value))


def classify(spec: ModelSpec) -> EquilibriumReport:
    """Full equilibrium analysis of a model instance.

    Computes the stationary populations, the threshold mu, R0 when at
    least one recovery rate is positive, the stability-condition
    verdicts, and the endemic point when one exists.  |mu| within
    MU_TIE_TOL of zero is flagged marginal (and classified stable, since
    the disease-free state is stable exactly at the threshold).
    """
    stack = equilibrium_stack([(spec.net, spec.beta, spec.delta)])
    mats, (mu, R0, classification) = stack.lanes[0], threshold(stack)[0]

    marginal = abs(mu) <= MU_TIE_TOL
    p_star = None
    if classification == DFE_UNSTABLE:
        if not np.any(mats.d > 0):
            p_star = np.ones(spec.nm)  # no recovery anywhere: everyone ends up infected
        else:
            p_star = endemic_fixed_point(spec, mats, mu=mu)

    conditions = stability_conditions(spec, mats)
    return EquilibriumReport(v=mats.v, mu=mu, R0=R0, classification=classification,
                             marginal=marginal, p_star=p_star, conditions=conditions)


def margin_recovery_rates(net, beta, s_factor: float, deficit_nodes):
    """Recovery rates that stabilize the disease-free state despite a
    recovery deficit at chosen nodes.

    Given infection rates and a mobility network, this computes the
    eigenvalue quantities of the lambda2 sufficient condition, sets the
    worst deficit to s = s_factor * s_lower (s_factor in (0, 1)), puts
    delta_i = beta_i + s at the deficit nodes, and solves the condition
    with equality for the uniform extra recovery d at all other nodes,
    inflated by the relative MARGIN_SLACK so the condition holds
    robustly in floating point.

    Returns (delta, info) where info carries lambda2, s_lower, s, d.
    Raises ValueError where s < -beta_i at a deficit node i, since that
    delta_i would be negative.
    """
    beta = np.asarray(beta, dtype=float)
    n, m, nm = net.n, net.m, net.nm
    if beta.shape != (n,) or np.any(beta <= 0):
        raise ValueError(f"beta must be n={n} positive infection rates, got shape {beta.shape}")
    if not 0.0 < s_factor < 1.0:
        raise ValueError(f"s_factor must lie in (0, 1), got {s_factor}")
    if any(isinstance(i, bool) or not isinstance(i, numbers.Integral) for i in deficit_nodes):
        raise ValueError(f"deficit_nodes must be integer node indices, got {deficit_nodes!r}")
    deficit_nodes = sorted({int(i) for i in deficit_nodes})
    if not deficit_nodes or len(deficit_nodes) >= n:
        raise ValueError("deficit_nodes must be a nonempty proper subset of the nodes")
    if any(i < 0 or i >= n for i in deficit_nodes):
        raise ValueError(f"deficit_nodes out of range for n={n}")
    if nm < 2:
        raise ValueError("the lambda2 construction needs nm >= 2")

    mats = net.assembled
    w, lambda2 = _lambda2(np.tile(beta, m), mats.M, mats.L)

    s_lower = -lambda2 / (4.0 * m * n + 1.0)
    s = s_factor * s_lower

    # Invert the condition at equality for the weighted deficit sum T:
    # lambda2 / ((1 + sqrt(1 + lambda2/T))^2 nm + 1) = -s.
    g = (lambda2 / (-s) - 1.0) / nm
    target = lambda2 / ((np.sqrt(g) - 1.0) ** 2 - 1.0)

    deficit_mask = np.zeros(n, dtype=bool)
    deficit_mask[deficit_nodes] = True
    w_rest = float(w @ np.tile(~deficit_mask, m))
    d = (target / w_rest) * (1.0 + MARGIN_SLACK)

    delta = beta + s + np.where(deficit_mask, 0.0, d)
    if np.any(delta < 0):
        raise ValueError(f"recovery rates would be negative: the deficit s = {s:.6g} "
                         "is below -beta at a deficit node")
    info = {"lambda2": lambda2, "s_lower": float(s_lower), "s": float(s), "d": float(d)}
    return delta, info
