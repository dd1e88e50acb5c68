"""Retractions onto subspaces and the intersection-lemma verification.

A retraction is a linear T with T z = z on a subspace H0 = span(Z) that
is bounded on both legs of a norm pair (H, D). Its two measured bounds
give C = max(h_bound, d_bound), and for every u in H0 and t > 0 the
optimal ambient decomposition u = f + g transported by T yields

    K0(u, t)^2 <= |Tf|_H^2 + t^2 |Tg|_D^2 <= 2 C^2 K(u, t)^2,

alongside the free inequality K <= K0 (the subspace admits fewer
decompositions). Integrated, the subspace interpolation norm is
equivalent to the ambient one within [1, sqrt(2) C].

Both concrete retractions factor through the subspace, T = Z B with
an r x m inner map B, and a `Retraction` is that pair: T x = Z (B x),
and no m x m map is stored.

Bounds are measured as exact operator norms of the discrete maps, not
estimated from probes, so the inequality chain above holds
deterministically, and no dense SVD is formed. The harmonic lift takes
one norm per leg from its complement. T = Z B with B Z = I is
idempotent, T^2 = Z (B Z) B = T, and for an idempotent other than 0
and I the norm of T equals that of I - T in every inner-product norm
(Kato's identity; see Szyld, Numer. Algorithms 42, 2006). For the
lift, I - T = Y R^T has rank nb, the number of boundary nodes: it sends
u to the discrete harmonic extension of its boundary values u[bdy].
`_low_rank_gram_norm` takes the Gram norm of that rank-nb map from the
Cholesky factor of the Gram that `sobolev_grams` keeps, with nb
triangular solves, a thin QR and one nb x nb eigensolve; no m x m
array is formed. The divergence-free retraction takes one
norm in all, since A T A^-1 = T^T makes its two bounds equal. Its one
route is `stokes_bound` on the sparse stream-function pencil of
`operators.stokes_pencil`, the one assembly of a Stokes grid:
T = C K^-1 C^T A for the discrete curl C and
K = C^T A C, and |T|_2^2 is the top eigenvalue of T^T T, taken by
Lanczos (`lanczos_eigenvalue`, ARPACK through
scipy.sparse.linalg.eigsh) with T and T^T applied through the one LU
of K. The same routine in shift-invert mode gives the lowest
eigenvalue of the constrained operator, from the pencil (K, C^T C).

The pointwise minimizers come from the generalised eigenpairs of the
ambient pencil (M2, M1) and of the reduced pencil, the same two
eigensolves that give the spectral coordinates of the integrated check,
the probe vectors (`probe_coordinates` of the reduced pencil, which
depend on its spectral projectors alone, not on the eigenbasis) and
the quadrature window (`QuadratureRule.from_config` of the ambient
spectrum); in those coordinates every t is diagonal, and `k2_batch` and
`interp_norms_sq` take all probes at once. The transported term reads
the reduced forms Z^T M Z through B, never the ambient forms through an
m x m map. `k2_by_cholesky` of each pencil at the middle t recomputes
K^2 and K0^2 as an in-run cross-check.
The identity T z = z on the subspace is checked once, when a
`Retraction` is constructed, so the verification trusts its input.

Two concrete retractions: the harmonic lift (solve the zero-boundary
Dirichlet problem with the same interior second differences; Z the
interior indicators, B = S_ii^-1 S[idx, :] for the stiffness S) and the
divergence-free retraction T = Z Ac^-1 Z^T A built from the dense Z and
Ac of a staggered-grid Stokes pencil (Ac the constrained operator,
B = Ac^-1 Z^T A), with its bound from that pencil. The latter also runs
on the sparse pencil alone (`stokes_apply`, `check_stokes_identity`),
with no dense Z, Ac or B.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._kernels import k2_batch
from .errors import (
    DimensionMismatch,
    InvalidConfig,
    RetractionIdentityViolated,
    SolverFailure,
)
from .kfunctional import (
    QuadraticPair,
    QuadratureRule,
    congruence,
    interp_norms_sq,
    k2_by_cholesky,
)
from .operators import (
    GridDomain,
    SobolevGrams,
    StokesPencil,
    interior_indices,
    zero_boundary_basis,
)
from .reporting import at_most

IDENTITY_TOL = 1e-10

# columns per block of the Stokes whole-subspace identity check: all
# 1024 columns of the n = 32 grid at once held about 40 MB of temporaries
IDENTITY_BLOCK = 128

# seed of the Lanczos start vector, fixed apart from the run seed so that
# every eigenvalue repeats bit for bit
LANCZOS_SEED = 0

# probes per verification: decaying random combinations of the reduced
# modes, then projections onto the lowest eigenvalue clusters
N_RANDOM_PROBES = 20
N_MODE_PROBES = 5

# eigenvalues that agree to this relative tolerance form one cluster
CLUSTER_RTOL = 1e-8


@dataclass(frozen=True)
class Retraction:
    """Linear map T = Z B with T|span(Z) = identity and measured pair bounds.

    subspace_basis Z (m x r) spans the subspace and inner B (r x m) maps
    into its coordinates, so T x = Z (B x); no m x m map is stored.
    Construction checks the identity: the Frobenius norm of Z (B Z) - Z,
    which bounds the 2-norm from above, needs no SVD and does not assume
    Z orthonormal, must not exceed IDENTITY_TOL, or
    RetractionIdentityViolated is raised. B is then stored read-only,
    without a copy for a float64 array.
    """

    subspace_basis: np.ndarray
    inner: np.ndarray
    h_bound: float
    d_bound: float

    def __post_init__(self):
        Z = self.subspace_basis
        resid = float(np.linalg.norm(Z @ (self.inner @ Z) - Z))
        if not resid <= IDENTITY_TOL:
            raise RetractionIdentityViolated(
                "retraction deviates from the identity on the subspace: "
                f"Frobenius residual {resid:.3e}"
            )
        B = np.asarray(self.inner, dtype=np.float64)
        B.setflags(write=False)
        object.__setattr__(self, "inner", B)


def _top_singular_value(X: np.ndarray) -> float:
    """Largest singular value of X: sqrt of the top eigenvalue of X X^T.

    A non-finite or non-positive top eigenvalue (a NaN in X, or X = 0)
    raises SolverFailure instead of returning a number.
    """
    from scipy import linalg

    k = X.shape[0] - 1
    try:
        top = linalg.eigvalsh(X @ X.T, subset_by_index=[k, k])[0]
    except (ValueError, linalg.LinAlgError) as exc:  # ValueError: a NaN or inf
        raise SolverFailure(f"top eigenvalue of the Gram X X^T failed: {exc}") from exc
    if not (math.isfinite(top) and top > 0.0):
        raise SolverFailure(f"top eigenvalue of the Gram X X^T is {top!r}")
    return math.sqrt(top)


def lanczos_eigenvalue(op, size: int, *, mass=None, inverse=None) -> float:
    """One end eigenvalue of a symmetric operator by Lanczos (ARPACK).

    Without `inverse`: the largest eigenvalue of op, a symmetric
    size x size operator (a matrix or a function applying it). With
    `inverse` (a function applying op^-1) and the symmetric positive
    definite `mass`: the eigenvalue of the pencil (op, mass) nearest 0,
    in shift-invert mode about 0, which for an SPD pencil is the
    smallest. `scipy.sparse.linalg.eigsh` runs with tol=0 (machine
    precision) from a fixed start vector, the standard normal draw of
    LANCZOS_SEED, so a call repeats exactly whatever the run seed.
    Non-convergence, an ARPACK failure (a NaN in op), or a non-finite
    or non-positive eigenvalue raises SolverFailure.
    """
    from scipy.sparse.linalg import ArpackError, LinearOperator, eigsh

    def operator(a):
        if callable(a):
            return LinearOperator((size, size), matvec=a, dtype=np.float64)
        return a

    v0 = np.random.default_rng(LANCZOS_SEED).standard_normal(size)
    mode = {"which": "LA"}
    if inverse is not None:
        mode = {"which": "LM", "sigma": 0.0, "M": mass, "OPinv": operator(inverse)}
    try:
        ends = eigsh(operator(op), k=1, v0=v0, tol=0, return_eigenvectors=False, **mode)
    except ArpackError as exc:  # ArpackNoConvergence is one
        raise SolverFailure(f"Lanczos eigenvalue failed: {exc}") from exc
    value = float(ends[0])
    if not (math.isfinite(value) and value > 0.0):
        raise SolverFailure(f"Lanczos eigenvalue is {value!r}")
    return value


def _low_rank_gram_norm(Y: np.ndarray, R: np.ndarray, L: np.ndarray) -> float:
    """Operator norm of the rank-k map Y R^T (Y and R m x k) in the norm
    |u| = sqrt(u^T G u), for G = L L^T with L lower triangular.

    It is the largest singular value of L^T Y R^T L^-T = (L^T Y) X^T for
    X = L^-1 R. With the thin QR X = Q R_x, X^T = R_x^T Q^T and Q has
    orthonormal columns, so it is the largest singular value of the
    k x m matrix R_x (L^T Y)^T: k triangular solves, a thin QR and one
    k x k eigensolve (`_top_singular_value`), with no m x m array. L is
    not scanned for non-finite entries (that scan builds an m x m mask):
    a NaN in L, Y or R reaches the eigensolve, which raises SolverFailure.
    """
    from scipy import linalg

    X = linalg.solve_triangular(L, R, lower=True, check_finite=False)
    R_x = np.linalg.qr(X, mode="r")
    return _top_singular_value(R_x @ (L.T @ Y).T)


# ---- harmonic lift


def _stiffness_solver(grams: SobolevGrams, idx: np.ndarray):
    """The interior rows S[idx, :] of the stiffness S = g1 - g0 and the
    Cholesky factor of their interior block S_ii; S itself is not formed.
    A block that is not SPD, or holds a NaN, raises SolverFailure."""
    from scipy import linalg

    S_i = grams.g1[idx] - grams.g0[idx]
    try:
        factor = linalg.cho_factor(S_i[:, idx], lower=True)
    except (ValueError, linalg.LinAlgError) as exc:  # ValueError: a NaN or inf
        raise SolverFailure("interior stiffness failed to factorize") from exc
    return S_i, factor


def harmonic_lift(domain: GridDomain, grams: SobolevGrams, u) -> np.ndarray:
    """Zero-boundary solution of the interior equation of u.

    w has zero boundary values and the same interior second differences
    as u (interior rows of the stiffness agree), so w = u whenever u
    already vanishes on the boundary, and the gradient energy of w never
    exceeds that of u.
    """
    from scipy import linalg

    u = np.asarray(u, dtype=np.float64).ravel()
    if u.shape[0] != grams.g0.shape[0]:
        raise DimensionMismatch(
            f"grid function length {u.shape[0]} != {grams.g0.shape[0]}"
        )
    idx = interior_indices(domain)
    S_i, factor = _stiffness_solver(grams, idx)
    w = np.zeros_like(u)
    w[idx] = linalg.cho_solve(factor, S_i @ u)
    return w


def harmonic_retraction(domain: GridDomain, grams: SobolevGrams) -> Retraction:
    """The harmonic lift as a retraction for the pair (g1, g2).

    T = Z B for the interior indicator columns Z and B = S_ii^-1 S[idx, :].
    Since B Z = I, T is idempotent, so each bound |T|_G equals
    |I - T|_G (Kato's identity). I - T = Y R^T for the indicator
    columns R of the boundary nodes, R^T u = u[bdy], and Y = (I - T) R:
    Y[bdy] = I and Y[idx] = -B[:, bdy], the discrete harmonic extension
    of each boundary node. `_low_rank_gram_norm` takes both bounds from
    the Cholesky factors of g1 and g2 that `sobolev_grams` keeps, so no
    Gram is factored here and no m x m array is formed.
    """
    from scipy import linalg

    idx = interior_indices(domain)
    S_i, factor = _stiffness_solver(grams, idx)
    B = linalg.cho_solve(factor, S_i)
    m = B.shape[1]
    bdy = np.setdiff1d(np.arange(m), idx)
    R = np.zeros((m, bdy.size))
    R[bdy, np.arange(bdy.size)] = 1.0
    Y = R.copy()
    Y[idx] = -B[:, bdy]
    bounds = [_low_rank_gram_norm(Y, R, L) for L in (grams.g1_factor, grams.g2_factor)]
    return Retraction(zero_boundary_basis(domain), B, *bounds)


# ---- divergence-free retraction


def stokes_apply(p: StokesPencil, X: np.ndarray, *, transpose: bool = False):
    """T X for T = C K^-1 C^T A, or T^T X = A C K^-1 C^T X, on the columns
    of X; K^-1 goes through the pencil's one LU."""
    C, A, solve = p.curl, p.vector_laplacian, p.stiffness_lu.solve
    if transpose:
        return A @ (C @ solve(C.T @ X))
    return C @ solve(C.T @ (A @ X))


def stokes_bound(p: StokesPencil) -> float:
    """|T|_2 of the divergence-free retraction T = C K^-1 C^T A.

    The sqrt of the top eigenvalue of T^T T, by `lanczos_eigenvalue` on
    the sparse pencil: each step applies T and T^T through the one LU of
    K. It equals |B|_2 for T = Z B of any orthonormal basis Z of ker D,
    and it is the one route of this bound.
    """
    m = p.vector_laplacian.shape[0]
    top = lanczos_eigenvalue(
        lambda x: stokes_apply(p, stokes_apply(p, x), transpose=True), m
    )
    return math.sqrt(top)


def check_stokes_identity(p: StokesPencil) -> float:
    """The Frobenius residual of T Z - Z = C (K^-1 K W - W) over the
    whole orthonormal basis Z = C W of ker D, the check that `Retraction`
    makes on construction; above IDENTITY_TOL it raises
    RetractionIdentityViolated. The columns of W go through in blocks of
    IDENTITY_BLOCK, and the squared block residuals add up."""
    r = p.stiffness.shape[0]
    sq = 0.0
    for j in range(0, r, IDENTITY_BLOCK):
        W = p.stream_modes(np.eye(r, min(IDENTITY_BLOCK, r - j), k=-j))
        E = p.stiffness_lu.solve(p.stiffness @ W) - W
        sq += float(np.linalg.norm(p.curl @ E)) ** 2
    resid = math.sqrt(sq)
    if not resid <= IDENTITY_TOL:
        raise RetractionIdentityViolated(
            "retraction deviates from the identity on the subspace: "
            f"Frobenius residual {resid:.3e}"
        )
    return resid


def stokes_retraction(p: StokesPencil) -> Retraction:
    """T = Z Ac^-1 Z^T A on velocity unknowns; identity on ker(divergence).

    The bounds are exact operator norms: h_bound = |T|_2 and
    d_bound = |A T A^-1|_2 for the D-norm |f|_D = |A f|. A and Ac are
    symmetric, so A T A^-1 = A Z Ac^-1 Z^T = T^T and d_bound = h_bound
    comes from the one norm, `stokes_bound` of the pencil, which does not
    depend on the basis Z. The retraction keeps (Z, B) for the pencil's
    `null_basis` Z and B = Ac^-1 Z^T A = Ac^-1 (A Z)^T, solved through
    one Cholesky factor of its `constrained_op` Ac (SolverFailure
    if Ac is not SPD); the m x m product Z B is never formed.
    """
    from scipy import linalg

    Z = p.null_basis()
    try:
        factor = linalg.cho_factor(p.constrained_op(Z), lower=True)
    except linalg.LinAlgError as exc:
        raise SolverFailure("constrained operator is not SPD") from exc
    B = linalg.cho_solve(factor, (p.vector_laplacian @ Z).T)
    bound = stokes_bound(p)
    return Retraction(Z, B, bound, bound)


# ---- probe vectors


def check_probe_dimension(r: int) -> int:
    """Return r, the reduced dimension, if it holds the N_MODE_PROBES
    mode probes; raise InvalidConfig otherwise."""
    if N_MODE_PROBES > r:
        raise InvalidConfig(
            f"{N_MODE_PROBES} mode probes exceed the reduced dimension {r}"
        )
    return r


def probe_coordinates(lam, V, transform, seed=42) -> np.ndarray:
    """The probe coordinates of a pencil, one column per probe: the
    N_RANDOM_PROBES random probes, then the N_MODE_PROBES mode probes.

    lam holds the ascending eigenvalues and V the matching eigenvector
    columns; transform maps coordinates to eigen-coefficients
    (`congruence`'s third output, or V^T for a mass-1 model). For seeded
    uniform draws w on [-1, 1]^r, random probe i is
    V diag((lam / lam_1)^-1.5) transform w_i, which decays so that it
    lies (numerically) in every intermediate space, and mode probe k is
    V_k (transform w)_k, the spectral projection of its w onto the k-th
    cluster of eigenvalues, a run of consecutive lam that agree to
    CLUSTER_RTOL relative; low modes stress the large-t regime. Both are
    functions of the spectral projectors, which alone are unique inside a
    degenerate eigenspace (Kato, Perturbation Theory, ch. II), so the
    probes do not depend on the basis or the signs an eigensolver picks
    there. Fewer than N_MODE_PROBES clusters raise InvalidConfig.
    """
    lam = np.asarray(lam, dtype=np.float64)
    r = lam.size
    cluster = np.cumsum(np.r_[False, np.diff(lam) > CLUSTER_RTOL * lam[1:]])
    if cluster[-1] + 1 < N_MODE_PROBES:
        raise InvalidConfig(
            f"{N_MODE_PROBES} mode probes exceed the {cluster[-1] + 1} eigenvalue clusters"
        )
    draws = np.random.default_rng(seed).uniform(
        -1.0, 1.0, size=(N_RANDOM_PROBES + N_MODE_PROBES, r)
    )
    coeffs = transform @ draws.T
    coeffs[:, :N_RANDOM_PROBES] *= ((lam / lam[0]) ** -1.5)[:, None]
    coeffs[:, N_RANDOM_PROBES:] *= cluster[:, None] == np.arange(N_MODE_PROBES)
    return V @ coeffs


# ---- the intersection-lemma verification


def verify_intersection_lemma(
    pair: QuadraticPair,
    T: Retraction,
    theta_list,
    quadrature: dict | None = None,
    *,
    lemma_label: str = "Lemma 4.3",
    grid_label: str = "",
    t_points: int = 65,
    seed: int = 42,
):
    """Pointwise and integrated checks of the retraction inequality chain.

    pair is the ambient pair; the subspace is span(Z) for Z =
    T.subspace_basis, and the reduced pair is (Z^T M1 Z, Z^T M2 Z). T
    satisfies T z = z on span(Z) by construction, so it is not checked
    again. The probes are Z times the `probe_coordinates` of the reduced
    pencil (20 decaying, then projections onto its 5 lowest eigenvalue
    clusters), and the quadrature rule is
    `QuadratureRule.from_config(quadrature, ambient spectrum)`.
    For each probe u and each t on the log-spaced grid spanning that
    window: form the ambient optimal decomposition u = f + g, transport
    it, and check

        K <= K0,   K0^2 <= |Tf|_H^2 + t^2 |Tg|_D^2 <= 2 C^2 K^2,

    with C = max(h_bound, d_bound). Per theta, compare the subspace and
    ambient interpolation norms: the ratio must land in [1, sqrt(2) * C]. Cells carry a relative slack of 1e-9
    (pointwise) / 1e-5 (integrated) for rounding.

    Both minimizers are read off the pencil eigenpairs that `congruence`
    returns (V^T M1 V = I, V^T M2 V = diag lam^2): for u = V a, with
    x = t^2 lam^2 and s = 1 / (1 + x), g = V (s a), f = V (x s a) and
    K^2 = sum a^2 x s. The transported term uses the Grams of T V, formed
    once from the reduced forms: T V = Z W with W = B V, so
    (T V)^T M1 (T V) = W^T (Z^T M1 Z) W, and likewise for M2. At the
    middle t, `k2_by_cholesky` of each pencil recomputes K^2 and K0^2
    for all probes at once; a relative deviation above 1e-9, or a failed
    factorization, raises SolverFailure.

    Returns (cells, parameters): the report cells and the run's window,
    probe count and bounds, for the caller's report.
    """
    M1, M2 = pair.m1, pair.m2
    Z = T.subspace_basis
    C = float(np.maximum(T.h_bound, T.d_bound))  # a NaN bound stays NaN
    c_prime = math.sqrt(2.0) * C
    M1r = Z.T @ M1 @ Z
    M2r = Z.T @ M2 @ Z
    lam_amb, V_amb, w_amb = congruence(pair)
    lam_red, V_red, w_red = congruence(QuadraticPair(M1r, M2r))
    Cr = probe_coordinates(lam_red, V_red, w_red, seed)
    U = Z @ Cr
    n_probes = U.shape[1]
    rule = QuadratureRule.from_config(quadrature, lam_amb)

    # pointwise chain for every t and probe from the eigenpairs
    a = w_amb @ U
    a_r = w_red @ Cr
    W = T.inner @ V_amb
    P1 = W.T @ M1r @ W
    P2 = W.T @ M2r @ W
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
    for name, F1, F2, X, eig in (
        ("K", M1, M2, U, k2[im]),
        ("K0", M1r, M2r, Cr, k02[im]),
    ):
        chol = k2_by_cholesky(F1, F2, X, t2)
        dev = float(np.max(np.abs(eig - chol) / chol))
        if not dev <= 1e-9:
            raise SolverFailure(
                f"{name}^2 from the pencil eigenpairs deviates from the Cholesky "
                f"minimizers by {dev:.3e} relative at t={ts[im]}"
            )

    # each cell's ratio is the largest of K/K0, K0^2/mid and mid/(2 C^2 K^2);
    # np.maximum propagates a NaN from any of the three
    worst = np.maximum(
        np.maximum(np.sqrt(k2 / k02), k02 / mid), mid / (2.0 * C * C * k2)
    )
    cells = []
    for t, worst_t in zip(ts, worst.tolist()):
        for p, ratio in enumerate(worst_t):
            cells.append(
                at_most(
                    ratio,
                    1.0,
                    rel=1e-9,
                    lemma=lemma_label,
                    grid=grid_label,
                    check="pointwise",
                    theta=None,
                    t=t,
                    probe=p,
                )
            )

    # integrated comparison in the same spectral coordinates
    n_amb = np.sqrt(interp_norms_sq(lam_amb, a, theta_list, rule))
    n_red = np.sqrt(interp_norms_sq(lam_red, a_r, theta_list, rule))
    for theta, ratio_theta in zip(theta_list, (n_red / n_amb).tolist()):
        for p, ratio in enumerate(ratio_theta):
            cells.append(
                at_most(
                    ratio,
                    c_prime,
                    rel=1e-5,
                    floor=1.0,
                    lemma=lemma_label,
                    grid=grid_label,
                    check="interp-ratio",
                    theta=float(theta),
                    t=None,
                    probe=p,
                )
            )

    parameters = {
        "lemma": lemma_label,
        "grid": grid_label,
        "n_probes": n_probes,
        "t_points": t_points,
        "thetas": [float(th) for th in theta_list],
        "log_t_min": rule.log_t_min,
        "log_t_max": rule.log_t_max,
        "h_bound": T.h_bound,
        "d_bound": T.d_bound,
        "c_measured": C,
        "c_prime": c_prime,
    }
    return cells, parameters
