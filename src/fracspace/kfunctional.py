"""Quadratic-form K-functionals and the real-interpolation norm.

For a pair of SPD Gram forms (M1, M2) defining norms (X, Y),

    K(u, t)^2 = inf over x + y = u of ( |x|_X^2 + t^2 |y|_Y^2 ),

attained at the y solving (M1 + t^2 M2) y = M1 u. For a spectral model
(X = ambient, Y = operator graph norm) the same infimum has the closed
form sum_j t^2 lam_j^2 c_j^2 / (1 + t^2 lam_j^2), evaluated at a batch of
t by the NumPy kernel `_kernels.k2_batch`. The interpolation norm
is |u|_theta = ( int_0^inf t^(-2 theta) K(u,t)^2 dt/t )^(1/2); `interp_norms_sq`
computes it for many vectors and thetas by Simpson in tau = ln t with panel
doubling, plus tails from the analytic envelopes K <= |u|_X and K <= t |u|_Y.

Identity linking the two scales, exact for finite spectra up to
quadrature error:  |u|_theta^2 = i_theta(theta) * frac_norm(theta, u)^2.

k_brute and k_sum_brute avoid the closed forms entirely; they exist as
independent test oracles.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import linalg

from ._kernels import k2_batch
from .errors import (
    ConvergenceFailure,
    InvalidConfig,
    NonPositiveT,
    QuadratureNotConverged,
    SingularSystem,
    ThetaOutOfRange,
)
from .spectral import SpectralModel, _coeffs

_TINY = 1e-300


@dataclass(frozen=True)
class QuadraticPair:
    """SPD Gram forms (m1, m2) for the norm pair (X, Y).

    A pair restricted to a subspace span(Z) is the pair (Z^T m1 Z,
    Z^T m2 Z) acting on coordinates; `verify_intersection_lemma` forms it
    from a retraction's subspace basis.
    """

    m1: np.ndarray
    m2: np.ndarray


def build_quadratic_pair(m1, m2) -> QuadraticPair:
    """Validate symmetry and positive-definiteness (by factorization)."""
    M1 = np.array(m1, dtype=np.float64)
    M2 = np.array(m2, dtype=np.float64)
    for name, M in (("m1", M1), ("m2", M2)):
        if M.ndim != 2 or M.shape[0] != M.shape[1] or M.shape != M1.shape:
            raise SingularSystem(f"{name} must be square and match m1: {M.shape}")
        scale = max(1.0, float(np.max(np.abs(M))))
        if np.max(np.abs(M - M.T)) > 1e-12 * scale:
            raise SingularSystem(f"{name} is not symmetric to 1e-12")
        try:
            linalg.cholesky(M, lower=True)
        except linalg.LinAlgError as exc:
            raise SingularSystem(f"{name} is not positive definite") from exc
    M1.setflags(write=False)
    M2.setflags(write=False)
    return QuadraticPair(M1, M2)


def pair_from_model(model: SpectralModel) -> QuadraticPair:
    """The coefficient-space pair (identity, diag lam^2) of a model."""
    lam2 = model.eigenvalues**2
    return build_quadratic_pair(np.eye(model.dim), np.diag(lam2))


def _check_t(t) -> float:
    t = float(t)
    if not (math.isfinite(t) and t > 0.0):
        raise NonPositiveT(f"t must be a positive real, got {t}")
    return t


def _check_theta(theta) -> float:
    theta = float(theta)
    if not (math.isfinite(theta) and 0.0 < theta < 1.0):
        raise ThetaOutOfRange(f"theta must lie in (0, 1), got {theta}")
    return theta


def _forms(pair: QuadraticPair, u):
    """The forms of pair and u as a flat float vector of matching length."""
    vec = np.asarray(u, dtype=np.float64).ravel()
    if vec.shape != (pair.m1.shape[0],):
        raise SingularSystem(
            f"vector length {vec.shape} != forms of size {pair.m1.shape[0]}"
        )
    return pair.m1, pair.m2, vec


# ---- pointwise K


def k_spectral(model: SpectralModel, u, t) -> float:
    """Closed-form K for a spectral model."""
    t = _check_t(t)
    c = _coeffs(model, u)
    val = k2_batch(model.eigenvalues, c * c, np.array([t]))[0]
    return math.sqrt(max(float(val), 0.0))


def k_quadratic(pair: QuadraticPair, u, t) -> float:
    """K by the SPD minimizer: solve (M1 + t^2 M2) y = M1 u, evaluate at y.

    Evaluating the objective at the minimizer (rather than subtracting
    two nearly equal quadratics) keeps small-t values accurate.
    """
    t = _check_t(t)
    M1, M2, vec = _forms(pair, u)
    H = M1 + (t * t) * M2
    try:
        cf = linalg.cho_factor(H, lower=True)
    except linalg.LinAlgError as exc:
        raise SingularSystem("minimizer system failed to factorize") from exc
    y = linalg.cho_solve(cf, M1 @ vec)
    r = vec - y
    k2 = float(r @ (M1 @ r) + (t * t) * (y @ (M2 @ y)))
    return math.sqrt(max(k2, 0.0))


def _golden_min(f, lo, hi, iters=90):
    """Golden-section minimum of f on [lo, hi]; returns (x, f(x))."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(iters):
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    x = (a + b) / 2.0
    return x, f(x)


def k_brute(model_or_pair, u, t, max_iter=200000) -> float:
    """K by direct minimization, no closed forms; the test oracle.

    Spectral route: the objective separates per coordinate; each term is
    minimized by golden section on the bracket [0, c_j]. Pair route:
    steepest descent with exact line search on the strictly convex
    quadratic objective, started from y = 0.
    """
    t = _check_t(t)
    if isinstance(model_or_pair, SpectralModel):
        model = model_or_pair
        c = _coeffs(model, u)
        total = 0.0
        for cj, lam in zip(c, model.eigenvalues):
            w = (t * lam) ** 2

            def term(y, cj=cj, w=w):
                return (cj - y) ** 2 + w * y * y

            lo, hi = min(0.0, cj), max(0.0, cj)
            _, val = _golden_min(term, lo, hi)
            total += val
        return math.sqrt(max(total, 0.0))

    M1, M2, vec = _forms(model_or_pair, u)
    H = M1 + (t * t) * M2
    m = M1 @ vec
    f0 = float(vec @ m)  # objective at y = 0
    y = np.zeros_like(vec)
    fval = f0
    for _ in range(max_iter):
        g = 2.0 * (H @ y - m)
        gg = float(g @ g)
        if gg == 0.0:
            break
        gHg = float(g @ (H @ g))
        step = gg / (2.0 * gHg)
        decrease = step * gg - step * step * gHg
        y -= step * g
        fval -= decrease
        if decrease <= 1e-16 * max(fval, _TINY):
            break
    else:
        raise ConvergenceFailure("descent did not stall below tolerance")
    r = vec - y
    k2 = float(r @ (M1 @ r) + (t * t) * (y @ (M2 @ y)))
    return math.sqrt(max(k2, 0.0))


def k_sum_brute(model_or_pair, u, t) -> float:
    """Sum-form functional inf over x + y = u of (|x|_X + t |y|_Y).

    The minimizer lies on the curve y(mu) = (M1 + mu M2)^-1 M1 u,
    mu >= 0 (stationarity), with the endpoints y = 0 and y = u included
    separately. Scans log mu, then refines by golden section. Oracle for
    the norm-equivalence K <= k_sum <= sqrt(2) K of the two conventions.
    """
    t = _check_t(t)
    if isinstance(model_or_pair, SpectralModel):
        model = model_or_pair
        c = _coeffs(model, u)
        lam2 = model.eigenvalues**2

        def objective(s):
            mu = math.exp(s)
            denom = 1.0 + mu * lam2
            x = c * (mu * lam2) / denom
            y = c / denom
            return math.sqrt(float(x @ x)) + t * math.sqrt(float(lam2 @ (y * y)))

        norm_x = math.sqrt(float(c @ c))
        norm_y = t * math.sqrt(float(lam2 @ (c * c)))
    else:
        M1, M2, vec = _forms(model_or_pair, u)
        m = M1 @ vec

        def objective(s):
            mu = math.exp(s)
            y = linalg.solve(M1 + mu * M2, m, assume_a="pos")
            x = vec - y
            return math.sqrt(max(float(x @ (M1 @ x)), 0.0)) + t * math.sqrt(
                max(float(y @ (M2 @ y)), 0.0)
            )

        norm_x = math.sqrt(max(float(vec @ m), 0.0))
        norm_y = t * math.sqrt(max(float(vec @ (M2 @ vec)), 0.0))

    if norm_x == 0.0:
        return 0.0
    grid = np.linspace(-46.0, 46.0, 231)
    vals = [objective(s) for s in grid]
    i = int(np.argmin(vals))
    lo = grid[max(i - 1, 0)]
    hi = grid[min(i + 1, len(grid) - 1)]
    _, refined = _golden_min(objective, lo, hi, iters=60)
    return min(refined, vals[i], norm_x, norm_y)


# ---- interpolation norm


@dataclass(frozen=True)
class QuadratureRule:
    """Simpson-in-log-t window and refinement policy."""

    log_t_min: float
    log_t_max: float
    refinement_tol: float = 1e-6
    max_panels: int = 2**20

    def __post_init__(self):
        if not self.log_t_min < self.log_t_max:
            raise InvalidConfig(
                f"need log_t_min < log_t_max, got {self.log_t_min}, {self.log_t_max}"
            )
        if not self.refinement_tol > 0:
            raise InvalidConfig("refinement_tol must be positive")
        if self.max_panels < 2:
            raise InvalidConfig("max_panels must be at least 2")

    @classmethod
    def for_spectrum(cls, eigenvalues, tol=1e-6, max_panels=2**20):
        """Default window: the integrand decays like e^((2-2 theta) tau)
        left of ln(1e-4/lam_max) and e^(-2 theta tau) right of
        ln(1e4/lam_min), keeping truncation below 1e-6 relative for
        theta in [0.05, 0.95]."""
        lam = np.asarray(eigenvalues, dtype=np.float64)
        lam = lam[lam > 0]
        if lam.size == 0:
            raise InvalidConfig("no positive eigenvalues for quadrature window")
        return cls(
            log_t_min=math.log(1e-4 / float(lam.max())),
            log_t_max=math.log(1e4 / float(lam.min())),
            refinement_tol=tol,
            max_panels=max_panels,
        )

    @classmethod
    def from_config(cls, doc: dict | None, fallback: "QuadratureRule"):
        """Overlay CLI config keys (log_t_min, log_t_max, tol, max_panels)."""
        if not doc:
            return fallback
        return cls(
            log_t_min=float(doc.get("log_t_min", fallback.log_t_min)),
            log_t_max=float(doc.get("log_t_max", fallback.log_t_max)),
            refinement_tol=float(doc.get("tol", fallback.refinement_tol)),
            max_panels=int(doc.get("max_panels", fallback.max_panels)),
        )


# new nodes per kernel call: no array spans every node of a 2^20-panel grid
_NODE_BLOCK = 2**15


def interp_norms_sq(lam, coeffs, thetas, rule: QuadratureRule) -> np.ndarray:
    """|u_k|_theta^2 for every theta and column u_k of coeffs (m, q), as a
    (len(thetas), q) array: Simpson in tau = ln t plus analytic tails.

    K^2 is theta-free and the grids nest, so a doubling makes one kernel
    call, at the new nodes only, and e^(-2 theta tau) weighs every theta at
    once: Simpson is (2 S + 4 N) h / 3 with S the trapezoid sum of the
    coarser grid and N the new nodes' sum. Each cell keeps its first total
    within refinement_tol of the previous doubling's.
    """
    thetas = np.array([_check_theta(th) for th in thetas])[:, None]
    c2 = np.asarray(coeffs, dtype=np.float64) ** 2
    a, b = rule.log_t_min, rule.log_t_max
    # envelopes K^2 <= t^2 |u|_Y^2 (left) and K^2 <= |u|_X^2 (right) are
    # asymptotically exact at the default window edges
    tail = ((lam * lam) @ c2) * np.exp((2.0 - 2.0 * thetas) * a) / (2.0 - 2.0 * thetas)
    tail += c2.sum(axis=0) * np.exp(-2.0 * thetas * b) / (2.0 * thetas)
    prev, done = np.full(tail.shape, np.nan), np.zeros(tail.shape, dtype=bool)
    panels = min(64, rule.max_panels - rule.max_panels % 2)
    tau = np.linspace(a, b, panels + 1)
    weights = np.exp(-2.0 * thetas * tau)
    weights[:, [0, -1]] /= 2.0  # trapezoid ends
    k2 = k2_batch(lam, c2, np.exp(tau))
    coarse, new = weights[:, 0::2] @ k2[0::2], weights[:, 1::2] @ k2[1::2]
    while True:
        simpson = (2.0 * coarse + 4.0 * new) * ((b - a) / panels) / 3.0 + tail
        total = np.where(done, prev, simpson)
        bad = total[~np.isfinite(total)]
        if bad.size:
            raise QuadratureNotConverged(
                f"non-finite integrand: total {float(bad[0])} at {panels} panels"
            )
        done |= np.abs(total - prev) <= rule.refinement_tol * np.maximum(total, _TINY)
        if done.all():
            return total
        prev, panels = total, 2 * panels
        if panels > rule.max_panels:
            raise QuadratureNotConverged(f"panel cap {rule.max_panels} hit")
        odd = np.linspace(a, b, panels + 1)[1::2]
        coarse = coarse + new
        new = sum(
            np.exp(-2.0 * thetas * block) @ k2_batch(lam, c2, np.exp(block))
            for block in np.array_split(odd, 1 + odd.size // _NODE_BLOCK)
        )


def congruence(pair: QuadraticPair):
    """Reduce an SPD pair to spectral form.

    Returns (lam_eff, V, transform) where the pencil M2 v = mu M1 v gives
    V with V^T M1 V = I, lam_eff = sqrt(mu), and coordinates of a vector
    are transform @ vector. In those coordinates the pair is
    (identity, diag lam_eff^2).
    """
    M1, M2 = pair.m1, pair.m2
    try:
        mu, V = linalg.eigh(M2, M1)
    except linalg.LinAlgError as exc:
        raise SingularSystem("congruence eigendecomposition failed") from exc
    lam_eff = np.sqrt(np.clip(mu, 0.0, None))
    return lam_eff, V, V.T @ M1


def interp_norm(model_or_pair, theta, u, rule: QuadratureRule | None = None) -> float:
    """The interpolation norm |u|_theta for a model or an SPD pair."""
    theta = _check_theta(theta)
    if isinstance(model_or_pair, SpectralModel):
        model = model_or_pair
        lam = model.eigenvalues
        c = _coeffs(model, u)
    else:
        pair = model_or_pair
        _, _, vec = _forms(pair, u)
        lam, _, transform = congruence(pair)
        c = transform @ vec
    if rule is None:
        rule = QuadratureRule.for_spectrum(lam)
    return math.sqrt(max(interp_norms_sq(lam, c[:, None], (theta,), rule).item(), 0.0))


def i_theta(theta) -> float:
    """pi / (2 sin(pi theta)), the interpolation-to-fractional constant."""
    theta = _check_theta(theta)
    return math.pi / (2.0 * math.sin(math.pi * theta))
