"""Independent oracles that only the tests use.

Each one reaches its quantity by a route the package does not take:
K by direct minimization with no closed form (`k_brute`), the sum-form
functional (`k_sum_brute`), the closed form of K for one vector
(`k_spectral`), the coefficient-space pair of a spectrum
(`pair_from_model`), the harmonic lift by a dense solve of its own
(`harmonic_lift`), the harmonic retraction on the nodes, with no
parity classes (`nodal_harmonic_retraction`), and the Gram deviation of a
whole basis (`basis_gram_deviation`), where the package checks the 1D
factors. The tests compare the package's one route of each quantity with
these.
"""
import math

import numpy as np

from fracspace import (
    DimensionMismatch,
    GridDomain,
    QuadraticPair,
    SobolevGrams,
    SolverFailure,
    SpectralModel,
    build_quadratic_pair,
    interior_indices,
)
from fracspace._kernels import k2_batch
from fracspace.kfunctional import _TINY, _check_t, _forms
from fracspace.retractions import _low_rank_gram_norm
from fracspace.spectral import _coeffs, _pow2_scale


def pair_from_model(model: SpectralModel) -> QuadraticPair:
    """The coefficient-space pair (identity, diag lam^2) of a model."""
    lam2 = model.eigenvalues**2
    return build_quadratic_pair(np.eye(model.dim), np.diag(lam2))


def k_spectral(model: SpectralModel, u, t) -> float:
    """Closed-form K for a spectral model, squaring the coefficients at
    the scale of `_pow2_scale` (K is homogeneous of degree 1)."""
    t = _check_t(t)
    c = _coeffs(model, u)
    scale = _pow2_scale(c)
    val = k2_batch(model.eigenvalues, (c / scale) ** 2, np.array([t]))[0]
    return scale * math.sqrt(float(val))


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
    """K by direct minimization, no closed forms.

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
        raise SolverFailure("descent did not stall below tolerance")
    r = vec - y
    k2 = float(r @ (M1 @ r) + (t * t) * (y @ (M2 @ y)))
    return math.sqrt(max(k2, 0.0))


def k_sum_brute(model: SpectralModel, u, t) -> float:
    """Sum-form functional inf over x + y = u of (|x|_X + t |y|_Y).

    The minimizer lies on the curve y(mu) = (I + mu diag lam^2)^-1 c,
    mu >= 0 (stationarity), with the endpoints y = 0 and y = u included
    separately. Scans log mu, then refines by golden section. Oracle for
    the norm-equivalence K <= k_sum <= sqrt(2) K of the two conventions.
    """
    t = _check_t(t)
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
    if norm_x == 0.0:
        return 0.0
    grid = np.linspace(-46.0, 46.0, 231)
    vals = [objective(s) for s in grid]
    i = int(np.argmin(vals))
    lo = grid[max(i - 1, 0)]
    hi = grid[min(i + 1, len(grid) - 1)]
    _, refined = _golden_min(objective, lo, hi, iters=60)
    return min(refined, vals[i], norm_x, norm_y)


def harmonic_lift(domain: GridDomain, grams: SobolevGrams, u) -> np.ndarray:
    """Zero-boundary solution of the interior equation of u, by a dense
    LU solve with the interior block of the stiffness S = g1 - g0.

    w has zero boundary values and the same interior second differences
    as u (interior rows of the stiffness agree), so w = u whenever u
    already vanishes on the boundary, and the gradient energy of w never
    exceeds that of u.
    """
    u = np.asarray(u, dtype=np.float64).ravel()
    if u.shape[0] != grams.g0.shape[0]:
        raise DimensionMismatch(
            f"grid function length {u.shape[0]} != {grams.g0.shape[0]}"
        )
    idx = interior_indices(domain)
    S_i = grams.g1[idx] - grams.g0[idx]
    w = np.zeros_like(u)
    w[idx] = np.linalg.solve(S_i[:, idx], S_i @ u)
    return w


def nodal_harmonic_retraction(domain: GridDomain, grams: SobolevGrams):
    """(B, h_bound, d_bound) of the harmonic lift on the nodes, the route
    the parity classes replaced: B = S_ii^-1 S[idx, :] by one Cholesky
    solve with the nodal interior stiffness, and each bound
    `_low_rank_gram_norm` of the rank-nb complement I - T = Y R^T with a
    nodal Cholesky factor of g1 or g2."""
    from scipy import linalg

    idx = interior_indices(domain)
    S_i = grams.g1[idx] - grams.g0[idx]
    B = linalg.cho_solve(linalg.cho_factor(S_i[:, idx], lower=True), S_i)
    m = B.shape[1]
    bdy = np.setdiff1d(np.arange(m), idx)
    R = np.zeros((m, bdy.size))
    R[bdy, np.arange(bdy.size)] = 1.0
    Y = R.copy()
    Y[idx] = -B[:, bdy]
    bounds = [
        _low_rank_gram_norm(Y, R, linalg.cholesky(g, lower=True))
        for g in (grams.g1, grams.g2)
    ]
    return B, *bounds


def basis_gram_deviation(V: np.ndarray) -> float:
    """max |V^T V - I| over the whole basis V, the m x m check that
    `stokes_ambient_model` replaced by one on its two DST-I factors."""
    gram = V.T @ V
    gram.flat[:: V.shape[1] + 1] -= 1.0
    return float(np.max(np.abs(gram)))
