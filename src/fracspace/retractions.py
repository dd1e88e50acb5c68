"""Retractions onto subspaces and the intersection-lemma verification.

A retraction is a linear T with T z = z on a subspace H0 = span(Z) that
is bounded on both legs of a norm pair (H, D). Its two measured bounds
give C = max(h_bound, d_bound), and for every u in H0 and t > 0 the
optimal ambient decomposition u = f + g transported by T yields

    K0(u, t)^2 <= |Tf|_H^2 + t^2 |Tg|_D^2 <= 2 C^2 K(u, t)^2,

alongside the free inequality K <= K0 (the subspace admits fewer
decompositions). Integrated, the subspace interpolation norm is
equivalent to the ambient one within [1, sqrt(2) C].

Bounds are measured as exact operator norms of the assembled discrete
maps, not estimated from probes, so the inequality chain above holds
deterministically. Each norm is the square root of the top eigenvalue
of one symmetric Gram X X^T, taken on the short side of a factor X with
the same largest singular value (after a Cholesky similarity for a Gram
norm); no dense SVD is formed. The harmonic lift takes one such norm per
leg; the divergence-free retraction takes one in all, since
A T A^-1 = T^T makes its two bounds equal, and its factor is the r x m
inner map B of T = Z B, as |Z B|_2 = |B|_2 for orthonormal Z.

The pointwise minimizers come from the generalised eigenpairs of the
ambient pencil (M2, M1) and of the reduced pencil, the same two
eigensolves that give the spectral coordinates of the integrated check,
the probe vectors (reduced eigenvectors) and the quadrature window
(ambient spectrum); in those coordinates every t is diagonal, and
`k2_batch` and `interp_norms_sq` take all probes at once. One Cholesky
solve per pencil at the middle t recomputes K^2 and K0^2 as an in-run
cross-check.

Two concrete retractions: the harmonic lift (solve the zero-boundary
Dirichlet problem with the same interior second differences) and the
divergence-free retraction T = Z Ac^-1 Z^T A built from a staggered-grid
Stokes system (Ac the constrained operator).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import linalg

from ._kernels import k2_batch
from .errors import (
    DimensionMismatch,
    InvalidConfig,
    RetractionIdentityViolated,
    SingularConstrainedOperator,
    SolverFailure,
)
from .kfunctional import QuadraticPair, QuadratureRule, congruence, interp_norms_sq
from .operators import (
    GridDomain,
    SobolevGrams,
    StokesSystem,
    interior_indices,
    zero_boundary_basis,
)
from .reporting import make_report

IDENTITY_TOL = 1e-10


@dataclass(frozen=True)
class Retraction:
    """Linear map with T|span(Z) = identity and measured pair bounds."""

    map: np.ndarray
    subspace_basis: np.ndarray
    h_bound: float
    d_bound: float


def _top_singular_value(X: np.ndarray) -> float:
    """Largest singular value of X: sqrt of the top eigenvalue of X X^T.

    A non-finite or non-positive top eigenvalue (a NaN in X, or X = 0)
    raises SolverFailure instead of returning a number.
    """
    k = X.shape[0] - 1
    try:
        top = linalg.eigvalsh(X @ X.T, subset_by_index=[k, k])[0]
    except (ValueError, linalg.LinAlgError) as exc:  # ValueError: a NaN or inf
        raise SolverFailure(f"top eigenvalue of the Gram X X^T failed: {exc}") from exc
    if not (math.isfinite(top) and top > 0.0):
        raise SolverFailure(f"top eigenvalue of the Gram X X^T is {top!r}")
    return math.sqrt(top)


def gram_operator_norm(T: np.ndarray, gram: np.ndarray) -> float:
    """Operator norm of T in the norm |u| = sqrt(u^T gram u).

    Equals the largest singular value of N = L^T T L^-T for
    gram = L L^T, taken as sqrt of the top eigenvalue of N N^T.
    """
    L = linalg.cholesky(gram, lower=True)
    E = L.T @ T
    N = linalg.solve_triangular(L, E.T, lower=True).T
    return _top_singular_value(N)


def _check_identity(T: np.ndarray, Z: np.ndarray) -> None:
    # the Frobenius norm bounds the 2-norm from above and needs no SVD
    resid = float(np.linalg.norm(T @ Z - Z))
    if not resid <= IDENTITY_TOL:
        raise RetractionIdentityViolated(
            "retraction deviates from the identity on the subspace: "
            f"Frobenius residual {resid:.3e}"
        )


def _build_retraction(T, Z, h_bound, d_bound) -> Retraction:
    _check_identity(T, Z)
    T = np.asarray(T, dtype=np.float64)
    T.setflags(write=False)
    return Retraction(map=T, subspace_basis=Z, h_bound=h_bound, d_bound=d_bound)


# ---- harmonic lift


def _stiffness_solver(grams: SobolevGrams, idx: np.ndarray):
    S = grams.g1 - grams.g0
    try:
        factor = linalg.cho_factor(S[np.ix_(idx, idx)], lower=True)
    except linalg.LinAlgError as exc:
        raise SolverFailure("interior stiffness failed to factorize") from exc
    return S, factor


def harmonic_lift(domain: GridDomain, grams: SobolevGrams, u) -> np.ndarray:
    """Zero-boundary solution of the interior equation of u.

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
    S, factor = _stiffness_solver(grams, idx)
    w = np.zeros_like(u)
    w[idx] = linalg.cho_solve(factor, S[idx, :] @ u)
    return w


def harmonic_retraction(domain: GridDomain, grams: SobolevGrams) -> Retraction:
    """The harmonic lift as a retraction for the pair (g1, g2)."""
    idx = interior_indices(domain)
    S, factor = _stiffness_solver(grams, idx)
    m = grams.g0.shape[0]
    T = np.zeros((m, m))
    T[idx, :] = linalg.cho_solve(factor, S[idx, :])
    Z = zero_boundary_basis(domain)
    return _build_retraction(
        T, Z, gram_operator_norm(T, grams.g1), gram_operator_norm(T, grams.g2)
    )


# ---- divergence-free retraction


def stokes_retraction(sys: StokesSystem) -> Retraction:
    """T = Z Ac^-1 Z^T A on velocity unknowns; identity on ker(divergence).

    The bounds are exact operator norms: h_bound = |T|_2 and
    d_bound = |A T A^-1|_2 for the D-norm |f|_D = |A f|. A and Ac are
    symmetric, so A T A^-1 = A Z Ac^-1 Z^T = T^T and d_bound = h_bound
    comes from the one norm. With T = Z B, B = Ac^-1 Z^T A, and Z
    orthonormal, |T|_2 = |B|_2: the sqrt of the top eigenvalue of the
    r x r Gram B B^T.
    """
    A = sys.vector_laplacian
    Z = sys.nullbasis
    try:
        factor = linalg.cho_factor(sys.constrained_op, lower=True)
    except linalg.LinAlgError as exc:
        raise SingularConstrainedOperator(
            "constrained operator failed to factorize"
        ) from exc
    B = linalg.cho_solve(factor, Z.T @ A)
    T = Z @ B
    bound = _top_singular_value(B)
    return _build_retraction(T, Z, bound, bound)


# ---- probe vectors


def subspace_probes(Z, V, n_random=20, n_eig=5, seed=42) -> list:
    """Probe family in span(Z): n_random decaying random vectors followed
    by the n_eig lowest reduced-pencil eigenvectors.

    V holds the eigenvectors of the reduced pencil (Z^T m2 Z, Z^T m1 Z)
    in ascending eigenvalue order, as `congruence` returns them; random
    probes decay like j^(-1.5) against these modes so they lie
    (numerically) in every intermediate space; low modes stress the
    large-t regime. n_eig above the reduced dimension raises
    InvalidConfig.
    """
    r = Z.shape[1]
    if n_eig > r:
        raise InvalidConfig(f"n_eig={n_eig} probes exceed the reduced dimension {r}")
    rng = np.random.default_rng(seed)
    decay = np.arange(1, r + 1, dtype=np.float64) ** -1.5
    probes = []
    for _ in range(n_random):
        coeffs = decay * rng.uniform(-1.0, 1.0, size=r)
        probes.append(Z @ (V @ coeffs))
    for i in range(n_eig):
        probes.append(Z @ V[:, i])
    return probes


# ---- the intersection-lemma verification


def verify_intersection_lemma(
    pair: QuadraticPair,
    T: Retraction,
    theta_list,
    quadrature: dict | None = None,
    *,
    lemma_label: str = "Lemma 4.3",
    grid_label: str = "",
    experiment_name: str = "intersection",
    t_points: int = 65,
    seed: int = 42,
    cfg_hash: str = "",
):
    """Pointwise and integrated checks of the retraction inequality chain.

    pair is the ambient pair; the subspace is span(Z) for Z =
    T.subspace_basis, and the reduced pair is (Z^T M1 Z, Z^T M2 Z). The
    probes are `subspace_probes(Z, V_red, seed=seed)` (20 decaying plus
    the 5 lowest modes of the reduced pencil), and the quadrature window
    is the `for_spectrum` window of the ambient pencil, overlaid by the
    quadrature config keys. For each probe u and each t on the
    log-spaced grid spanning that window: form the ambient optimal
    decomposition u = f + g, transport it, and check

        K <= K0,   K0^2 <= |Tf|_H^2 + t^2 |Tg|_D^2 <= 2 C^2 K^2,

    with C = max(h_bound, d_bound). Per theta, compare the subspace and
    ambient interpolation norms: the ratio must land in
    [1, sqrt(2) * max(C, h_bound)]. Cells carry a relative slack of 1e-9
    (pointwise) / 1e-5 (integrated) for rounding.

    Both minimizers are read off the pencil eigenpairs that `congruence`
    returns (V^T M1 V = I, V^T M2 V = diag lam^2): for u = V a, with
    x = t^2 lam^2 and s = 1 / (1 + x), g = V (s a), f = V (x s a) and
    K^2 = sum a^2 x s; the transported term uses the Grams of T V, formed
    once. At the middle t, Cholesky solves of (M1 + t^2 M2) g = M1 u and
    (M1 + t^2 M2) f = t^2 M2 u for all probes at once recompute K^2 and
    K0^2; a relative deviation above 1e-9 raises SolverFailure.
    """
    M1, M2 = pair.m1, pair.m2
    Tm, Z = T.map, T.subspace_basis
    _check_identity(Tm, Z)
    C = max(T.h_bound, T.d_bound)
    c_prime = math.sqrt(2.0) * max(C, T.h_bound)
    M1r = Z.T @ M1 @ Z
    M2r = Z.T @ M2 @ Z
    lam_amb, V_amb, w_amb = congruence(pair)
    lam_red, V_red, w_red = congruence(QuadraticPair(M1r, M2r))
    probe_vectors = subspace_probes(Z, V_red, seed=seed)
    rule = QuadratureRule.from_config(quadrature, QuadratureRule.for_spectrum(lam_amb))

    # pointwise chain for every t and probe from the eigenpairs
    U = np.column_stack(probe_vectors)
    Cr = Z.T @ U
    a = w_amb @ U
    a_r = w_red @ Cr
    TV = Tm @ V_amb
    P1 = TV.T @ M1 @ TV
    P2 = TV.T @ M2 @ TV
    taus = np.linspace(rule.log_t_min, rule.log_t_max, t_points)
    ts = [math.exp(tau) for tau in taus]
    t2s = np.array(ts) ** 2
    x = t2s[:, None] * lam_amb**2
    k2 = k2_batch(lam_amb, a * a, np.array(ts))
    k02 = k2_batch(lam_red, a_r * a_r, np.array(ts))
    mid = np.empty_like(k2)
    for i, t2 in enumerate(t2s):
        s = 1.0 / (1.0 + x[i])
        fh = a * (x[i] * s)[:, None]
        gh = a * s[:, None]
        mid[i] = np.sum(fh * (P1 @ fh), axis=0) + t2 * np.sum(gh * (P2 @ gh), axis=0)

    # independent route at one t: Cholesky minimizers of all probes at once
    im = t_points // 2
    t2 = float(t2s[im])
    try:
        amb = linalg.cho_factor(M1 + t2 * M2, lower=True)
        red = linalg.cho_factor(M1r + t2 * M2r, lower=True)
    except linalg.LinAlgError as exc:
        raise SolverFailure(f"minimizer factorization failed at t={ts[im]}") from exc
    for name, factor, F1, F2, X, eig in (
        ("K", amb, M1, M2, U, k2[im]),
        ("K0", red, M1r, M2r, Cr, k02[im]),
    ):
        # f from its own equation, not as X - g: at small t, t^2 F2 lies
        # below the rounding of F1 and the subtraction cancels
        gf = linalg.cho_solve(factor, np.hstack([F1 @ X, t2 * (F2 @ X)]))
        g, f = np.hsplit(gf, 2)
        chol = np.sum(f * (F1 @ f), axis=0) + t2 * np.sum(g * (F2 @ g), axis=0)
        dev = float(np.max(np.abs(eig - chol) / chol))
        if not dev <= 1e-9:
            raise SolverFailure(
                f"{name}^2 from the pencil eigenpairs deviates from the Cholesky "
                f"minimizers by {dev:.3e} relative at t={ts[im]}"
            )

    cells = []
    slack = 1.0 + 1e-9
    for t, k2_t, k02_t, mid_t in zip(ts, k2.tolist(), k02.tolist(), mid.tolist()):
        for p in range(len(probe_vectors)):
            r1 = math.sqrt(k2_t[p] / k02_t[p])
            r2 = k02_t[p] / mid_t[p]
            r3 = mid_t[p] / (2.0 * C * C * k2_t[p])
            worst = max(r1, r2, r3)
            cells.append(
                {
                    "lemma": lemma_label,
                    "grid": grid_label,
                    "check": "pointwise",
                    "theta": None,
                    "t": t,
                    "probe": p,
                    "ratio": worst,
                    "bound": 1.0,
                    "pass": bool(worst <= slack),
                }
            )

    # integrated comparison in the same spectral coordinates
    sq_amb = interp_norms_sq(lam_amb, a, theta_list, rule).tolist()
    sq_red = interp_norms_sq(lam_red, a_r, theta_list, rule).tolist()
    for theta, amb_theta, red_theta in zip(theta_list, sq_amb, sq_red):
        theta = float(theta)
        for p in range(len(probe_vectors)):
            n_amb = math.sqrt(max(amb_theta[p], 0.0))
            n_red = math.sqrt(max(red_theta[p], 0.0))
            ratio = n_red / n_amb
            ok = (1.0 - 1e-5) <= ratio <= c_prime * (1.0 + 1e-5)
            cells.append(
                {
                    "lemma": lemma_label,
                    "grid": grid_label,
                    "check": "interp-ratio",
                    "theta": theta,
                    "t": None,
                    "probe": p,
                    "ratio": ratio,
                    "bound": c_prime,
                    "pass": bool(ok),
                }
            )

    parameters = {
        "lemma": lemma_label,
        "grid": grid_label,
        "n_probes": len(probe_vectors),
        "t_points": t_points,
        "thetas": [float(th) for th in theta_list],
        "log_t_min": rule.log_t_min,
        "log_t_max": rule.log_t_max,
        "h_bound": T.h_bound,
        "d_bound": T.d_bound,
        "c_measured": C,
        "c_prime": c_prime,
    }
    return make_report(experiment_name, parameters, cells, seed=seed, cfg_hash=cfg_hash)
