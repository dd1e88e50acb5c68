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
and no m x m map is stored. It is kept per symmetry class, in the
lifted coordinates that the spectral forms of the pencils use
(`kfunctional.SpectralForm`): the harmonic lift as its four class
blocks (B_c, and Z_c the gather of the class's interior coordinates),
the divergence-free retraction as one block of the dense (Z, B).

Bounds are measured as exact operator norms of the discrete maps, not
estimated from probes, so the inequality chain above holds
deterministically, and no dense SVD is formed. The harmonic lift takes
one norm per leg from its complement. T = Z B with B Z = I is
idempotent, T^2 = Z (B Z) B = T, and for an idempotent other than 0
and I the norm of T equals that of I - T in every inner-product norm
(Kato's identity; see Szyld, Numer. Algorithms 42, 2006). For the
lift, I - T = Y R^T has rank nb, the number of boundary nodes: it sends
u to the discrete harmonic extension of its boundary values u[bdy].
T, g1 and g2 commute with the square's reflections, so the lift is
solved per reflection-parity class of the rotated forms that
`sobolev_grams` keeps, and each bound is the largest over the classes:
`_low_rank_gram_norm` takes the Gram norm of a class's rank-nb_c
complement from the class Cholesky factor of the Gram, with nb_c
triangular solves, a thin QR and one nb_c x nb_c eigensolve; no m x m
array is formed. The divergence-free retraction takes one
norm in all, since A T A^-1 = T^T makes its two bounds equal. Its one
route is `stokes_bound` on the sparse stream-function pencil of
`operators.stokes_pencil`, the one assembly of a Stokes grid:
T = C K^-1 C^T A for the discrete curl C and
K = C^T A C, and |T|_2^2 is the top eigenvalue of T^T T, taken by
Lanczos (`lanczos_eigenvalue`, ARPACK through
scipy.sparse.linalg.eigsh) with T and T^T applied through the one
factor of K, a SuperLU per parity class of the pencil's class
coordinates R^T psi (`operators.StokesPencil.solve`). The same routine
in shift-invert mode gives the lowest eigenvalue of the constrained
operator, from the pencil (R^T K R, (C R)^T (C R)), orthogonally
similar to (K, C^T C).

The intersection-lemma engine takes the ambient pair and the reduced
pair (Z^T M1 Z, Z^T M2 Z), each with its pencil in spectral form
(a `kfunctional.SpectralPair`): closed-form for the pencils that
separate under DST-I modes (`operators.zero_boundary_pencil`, the
reduced harmonic one, and `operators.stokes_ambient_model` for the
ambient Stokes pair (I, A^2)), a dense `congruence` per reflection-parity
class for the two that do not. Those forms give the minimizers, in which
every t is diagonal, the probes (`probe_coordinates` of the reduced
form, a function of its spectral projectors alone, and the one probe
recipe of the 2D runners: `stokes-equivalence` takes it of the
constrained Stokes form) and the quadrature window of the ambient
spectrum; probes and coefficients go through the forms' class-by-class
apply. The transported term goes through the
r x m matrix W~ = transform_red B V_amb, never through an m x m map.
T commutes with the reflections, so W~ couples no two classes, and it
is formed per class, W~_c = transform_red,c B_c V_amb,c from the class
blocks of the three (`transported_blocks`), with no entry between two
classes and no nodal copy of B, V or transform; the t loop runs per
class block, T_BLOCK values of t per product. `k2_by_cholesky` of each
pair's nodal forms at the middle t recomputes K^2 and K0^2 as an in-run
cross-check, which also checks the closed forms. The identity T z = z
on the subspace is checked when a `Retraction` is constructed (as
|B Z - I|_F for its orthonormal Z, summed over the classes: a gather of
B_c for the harmonic lift), so the verification trusts its input.

Two concrete retractions: the harmonic lift (solve the zero-boundary
Dirichlet problem with the same interior second differences; Z the
interior indicators, B = S_ii^-1 S[idx, :] for the stiffness S, solved
and kept per class) and
the divergence-free retraction T = C K^-1 C^T A of a staggered-grid
Stokes pencil, kept with the pencil's dense orthonormal basis Z of
ker D as B = Z^T T = (T^T Z)^T, one block. B, the bound and every other Stokes
quantity go through the pencil's one factor of K; no constrained
operator is factored. The retraction's checks also run on the sparse
pencil alone (`stokes_apply`, and `check_stokes_identity` on the class
blocks of R^T K R and C R that the pencil keeps), with no dense Z or B.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._kernels import k2_batch
from .errors import (
    InvalidConfig,
    RetractionIdentityViolated,
    SolverFailure,
)
from .kfunctional import (
    QuadratureRule,
    SpectralForm,
    SpectralPair,
    interp_norms_sq,
    k2_by_cholesky,
)
from .operators import (
    GridDomain,
    SobolevGrams,
    StokesPencil,
    _lift,
    interior_indices,
)
from .reporting import at_most_table

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

# values of t per product of the transported term
T_BLOCK = 13


@dataclass(frozen=True)
class RetractionBlock:
    """T = Z B on one symmetry class, in lifted coordinates.

    inner B_c maps the class's ambient coordinates cols to its subspace
    coordinates rows, both indices into the lifted coordinates in the
    order of B_c's columns and rows; it is stored read-only, without a
    copy for a float64 array. basis is the class's Z_c: the index of the
    columns of B_c whose coordinates span the subspace (Z_c =
    I[:, basis]), or a dense orthonormal Z_c. label is the class, None
    for one block of all coordinates.
    """

    label: int | None
    rows: np.ndarray
    cols: np.ndarray
    inner: np.ndarray
    basis: np.ndarray

    def __post_init__(self):
        B = np.asarray(self.inner, dtype=np.float64)
        B.setflags(write=False)
        object.__setattr__(self, "inner", B)

    def identity_residual(self) -> np.ndarray:
        """B_c Z_c - I: for an index basis the gather B_c[:, basis] - I."""
        Z = self.basis
        E = self.inner[:, Z] if Z.ndim == 1 else self.inner @ Z
        E.flat[:: E.shape[1] + 1] -= 1.0
        return E


@dataclass(frozen=True)
class Retraction:
    """Linear map T = Z B with T|span(Z) = identity and measured pair
    bounds, kept per symmetry class.

    Z (m x r) has orthonormal columns spanning the subspace and B
    (r x m) maps into its coordinates, so T x = Z (B x); no m x m map is
    stored. lifts holds the rotations of the ambient and the subspace
    coordinates, as `kfunctional.SpectralForm.lift` (none: the
    identity); in those lifted coordinates Z and B are block diagonal,
    one `RetractionBlock` (Z_c, B_c) per class. basis gives Z on the
    nodes: the index of its unit columns (Z = I[:, basis]), or Z itself.
    T z = z on span(Z) exactly when B_c Z_c = I for every class, and for
    orthonormal Z the Frobenius norm of B Z - I equals that of
    Z (B Z) - Z. Construction checks the identity: that norm over all
    classes, which bounds the 2-norm from above and needs no SVD, must
    not exceed IDENTITY_TOL, or RetractionIdentityViolated is raised.
    The nodal Z and B are formed only on access (`subspace_basis`,
    `inner`), for the tests and the nodal oracles; the verification
    reads the blocks.
    """

    blocks: tuple
    basis: np.ndarray
    h_bound: float
    d_bound: float
    lifts: tuple = ((), ())

    def __post_init__(self):
        sq = sum(float(np.linalg.norm(b.identity_residual())) ** 2 for b in self.blocks)
        _check_identity(math.sqrt(sq))

    @property
    def shape(self) -> tuple[int, int]:
        """(r, m), the shape of B."""
        blocks = self.blocks
        return sum(b.rows.size for b in blocks), sum(b.cols.size for b in blocks)

    def embed(self, X: np.ndarray) -> np.ndarray:
        """Z X on the nodes, for the columns X of subspace coordinates."""
        if self.basis.ndim == 2:
            return self.basis @ X
        Y = np.zeros((self.shape[1], X.shape[1]))
        Y[self.basis] = X
        return Y

    @property
    def subspace_basis(self) -> np.ndarray:
        """Z on the nodes (m x r)."""
        return self.embed(np.eye(self.shape[0]))

    @property
    def inner(self) -> np.ndarray:
        """B on the nodes (r x m): the class blocks scattered and lifted,
        B = L_sub blockdiag(B_c) L_amb^T."""
        B = np.zeros(self.shape)
        for b in self.blocks:
            B[np.ix_(b.rows, b.cols)] = b.inner
        ambient, subspace = self.lifts
        return _lift(ambient, _lift(subspace, B).T).T


def dense_retraction(Z, B, h_bound: float, d_bound: float) -> Retraction:
    """The one-block `Retraction` T = Z B for a dense orthonormal Z (m x r)
    and B (r x m), with no classes and no lift."""
    r, m = np.shape(B)
    block = RetractionBlock(None, np.arange(r), np.arange(m), B, Z)
    return Retraction((block,), Z, h_bound, d_bound)


def _check_identity(resid: float) -> float:
    """resid, the Frobenius residual of T z - z over an orthonormal basis
    of the subspace, unless it exceeds IDENTITY_TOL (or is NaN): then
    RetractionIdentityViolated."""
    if not resid <= IDENTITY_TOL:
        raise RetractionIdentityViolated(
            "retraction deviates from the identity on the subspace: "
            f"Frobenius residual {resid:.3e}"
        )
    return resid


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


def _stiffness_solver(S: np.ndarray, inner: np.ndarray):
    """The interior rows S[inner, :] of a class block S of the stiffness
    and the Cholesky factor of their interior block S_ii. A block that is
    not SPD, or holds a NaN, raises SolverFailure."""
    from scipy import linalg

    S_i = S[inner]
    try:
        factor = linalg.cho_factor(S_i[:, inner], lower=True)
    except (ValueError, linalg.LinAlgError) as exc:  # ValueError: a NaN or inf
        raise SolverFailure("interior stiffness failed to factorize") from exc
    return S_i, factor


def harmonic_retraction(domain: GridDomain, grams: SobolevGrams) -> Retraction:
    """The harmonic lift as a retraction for the pair (g1, g2).

    T = Z B for the interior indicator columns Z and B = S_ii^-1 S[idx, :]
    for the stiffness S = g1 - g0. S, g1 and g2 commute with the
    reflections, so B is solved per parity class of the rotated forms
    (`SobolevGrams.classes`): B_c = S_ii,c^-1 S_c[int_c, :], with the
    interior int_c the class's coordinates of the zero-boundary subspace,
    all but the even and the odd combination of an axis's two end nodes.
    The blocks stay in the rotated coordinates, lifted by the parity
    rotation U of an axis (U (x) U in 2D) and by its interior rows and
    columns U_i on the subspace, the rotation of
    `operators.zero_boundary_pencil`; Z_c is the gather of int_c, so
    `Retraction` checks the identity per class as |B_c[:, int_c] - I|.
    Since B Z = I, T is idempotent, so each bound |T|_G equals
    |I - T|_G (Kato's identity), and as T, g1 and g2 are block diagonal
    in the rotated coordinates it is the largest over the classes. Per
    class, I - T = Y R^T for the indicator columns R of the class's
    boundary coordinates and Y[bdy] = I, Y[int] = -B_c[:, bdy];
    `_low_rank_gram_norm` takes both bounds from the class Cholesky
    factors of g1 and g2 that `sobolev_grams` keeps. No Gram is factored
    here, and no m x m array and no nodal B is formed.
    """
    from scipy import linalg

    U, d = grams.rotation, domain.dimension
    on_axis = U[0] == 0.0  # the rotated columns that vanish on the end nodes
    interior = on_axis if d == 1 else np.logical_and.outer(on_axis, on_axis).ravel()
    row = np.cumsum(interior) - 1  # the subspace coordinate of each interior one
    blocks, bounds = [], [0.0, 0.0]
    for c in grams.classes:
        inner = interior[c.index]
        S_i, factor = _stiffness_solver(c.g1 - c.g0, inner)
        B_c = linalg.cho_solve(factor, S_i)
        bdy, int_c = np.flatnonzero(~inner), np.flatnonzero(inner)
        R = np.zeros((inner.size, bdy.size))
        R[bdy, np.arange(bdy.size)] = 1.0
        Y = R.copy()
        Y[inner] = -B_c[:, bdy]
        factors = (c.g1_factor, c.g2_factor)
        bounds = [max(b, _low_rank_gram_norm(Y, R, L)) for b, L in zip(bounds, factors)]
        rows = row[c.index[int_c]]
        blocks.append(RetractionBlock(c.label, rows, c.index, B_c, int_c))
    lifts = ((U,) * d, (U[1:-1][:, on_axis],) * d)
    return Retraction(tuple(blocks), interior_indices(domain), *bounds, lifts)


# ---- divergence-free retraction


def stokes_apply(p: StokesPencil, X: np.ndarray, *, transpose: bool = False):
    """T X for T = C K^-1 C^T A, or T^T X = A C K^-1 C^T X, on the columns
    of X, with the stream function in the pencil's class coordinates:
    T = (C R) (R^T K R)^-1 (C R)^T A, through `StokesPencil.solve` and
    the stored class curl and its transpose, with no rotation."""
    CR, CRt, A = p.class_curl, p.class_curl_transpose, p.vector_laplacian
    if transpose:
        return A @ (CR @ p.solve(CRt @ X))
    return CR @ p.solve(CRt @ (A @ X))


def stokes_bound(p: StokesPencil) -> float:
    """|T|_2 of the divergence-free retraction T = C K^-1 C^T A.

    The sqrt of the top eigenvalue of T^T T, by `lanczos_eigenvalue` on
    the sparse pencil: each step applies T and T^T through the one
    factor of K. It equals |B|_2 for T = Z B of any orthonormal basis Z
    of ker D, and it is the one route of this bound.
    """
    m = p.vector_laplacian.shape[0]
    top = lanczos_eigenvalue(
        lambda x: stokes_apply(p, stokes_apply(p, x), transpose=True), m
    )
    return math.sqrt(top)


def check_stokes_identity(p: StokesPencil) -> float:
    """The Frobenius residual of T Z - Z = C (K^-1 K W - W) over the
    whole orthonormal basis Z = C W of ker D, which equals the |B Z - I|
    that `Retraction` checks on construction; above IDENTITY_TOL it raises
    RetractionIdentityViolated.

    It runs per parity class, in the pencil's class coordinates R^T psi:
    R^T W is block diagonal, its class block W_c the rotated DST-I
    product times `scale` (`StokesPencil.class_modes`), so the residual
    of class c is C_c (K_c^-1 K_c W_c - W_c) for the class block K_c of
    R^T K R, its factor and the class's columns C_c of C R, all kept by
    the pencil (`StokesPencil.class_blocks`). The columns of each W_c go
    through in blocks of IDENTITY_BLOCK, and the squared block residuals
    add up.
    """
    sq = 0.0
    for c, (_, K_c, factor, C_c) in enumerate(p.class_blocks):
        size = K_c.shape[0]
        for j in range(0, size, IDENTITY_BLOCK):
            W = p.class_modes(c, np.arange(j, min(j + IDENTITY_BLOCK, size)))
            E = factor.solve(K_c @ W) - W
            sq += float(np.linalg.norm(C_c @ E)) ** 2
    return _check_identity(math.sqrt(sq))


def stokes_retraction(p: StokesPencil, Z: np.ndarray) -> Retraction:
    """T = C K^-1 C^T A on velocity unknowns; identity on ker(divergence).

    The bounds are exact operator norms: h_bound = |T|_2 and
    d_bound = |A T A^-1|_2 for the D-norm |f|_D = |A f|. A and K are
    symmetric, so A T A^-1 = A C K^-1 C^T = T^T and d_bound = h_bound
    comes from the one norm, `stokes_bound` of the pencil, which does not
    depend on the basis Z. The retraction keeps (Z, B) as one block
    (`dense_retraction`) for an orthonormal basis Z of ker D, the
    pencil's `null_basis`, and B = Z^T T = (T^T Z)^T, applied through
    the pencil's one factor of K (`stokes_apply`); T = Z B since Z Z^T is
    the orthogonal projector onto ker D = span C. The m x m product Z B
    is never formed.
    """
    B = stokes_apply(p, Z, transpose=True).T
    bound = stokes_bound(p)
    return dense_retraction(Z, B, bound, bound)


# ---- probe vectors


def check_probe_dimension(r: int) -> int:
    """Return r, the reduced dimension, if it holds the N_MODE_PROBES
    mode probes; raise InvalidConfig otherwise."""
    if N_MODE_PROBES > r:
        raise InvalidConfig(
            f"{N_MODE_PROBES} mode probes exceed the reduced dimension {r}"
        )
    return r


def probe_coordinates(form: SpectralForm, seed=42) -> np.ndarray:
    """The probe coordinates of a pencil in spectral form, one column per
    probe: the N_RANDOM_PROBES random probes, then the N_MODE_PROBES mode
    probes, formed by the form's class-by-class apply (`modes`,
    `coefficients`).

    For seeded uniform draws w on [-1, 1]^r, random probe i is
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
    lam = form.lam
    draws = np.random.default_rng(seed).uniform(
        -1.0, 1.0, size=(N_RANDOM_PROBES + N_MODE_PROBES, lam.size)
    )
    coeffs = form.coefficients(draws.T)
    cluster = np.cumsum(np.r_[False, np.diff(lam) > CLUSTER_RTOL * lam[1:]])
    if cluster[-1] + 1 < N_MODE_PROBES:
        raise InvalidConfig(
            f"{N_MODE_PROBES} mode probes exceed the {cluster[-1] + 1} eigenvalue clusters"
        )
    coeffs[:, :N_RANDOM_PROBES] *= ((lam / lam[0]) ** -1.5)[:, None]
    coeffs[:, N_RANDOM_PROBES:] *= cluster[:, None] == np.arange(N_MODE_PROBES)
    return form.modes(coeffs)


# ---- the intersection-lemma verification


def transported_blocks(ambient: SpectralPair, reduced: SpectralPair, T: Retraction):
    """The class blocks of the transported term W~ = transform_red B V_amb
    (r x m): (rows, cols, W~_c) per block of T, rows the positions of the
    reduced eigenpairs and cols those of the ambient ones.

    T commutes with the reflections, so W~ couples no two classes, and
    W~_c = transform_red,c B_c V_amb,c is formed from the class blocks of
    the three, in the lifted coordinates that T and the two pairs share
    (InvalidConfig otherwise); no entry between two classes is formed.
    A block of T without a label (one block of all coordinates, as the
    Stokes retraction) meets the one block of an ambient pair without
    classes and every class of the reduced pair
    (`SpectralForm.lifted_coefficients`).
    """
    for lift, pair in zip(T.lifts, (ambient, reduced)):
        same = len(lift) == len(pair.lift) and all(map(np.array_equal, lift, pair.lift))
        if not same:
            raise InvalidConfig("the retraction and the pairs differ in their lifts")
    out = []
    for b in T.blocks:
        amb = ambient.block(b.label)
        TV = b.inner @ amb.V
        if b.label is None:
            out.append((slice(None), amb.positions, reduced.lifted_coefficients(TV)))
        else:
            red = reduced.block(b.label)
            out.append((red.positions, amb.positions, red.transform @ TV))
    return out


def verify_intersection_lemma(
    ambient: SpectralPair,
    reduced: SpectralPair,
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

    ambient is the ambient pair (M1, M2) and reduced the pair
    (Z^T M1 Z, Z^T M2 Z) on the coordinates of the subspace span(Z), Z =
    T.subspace_basis, each with its pencil in spectral form, per class in
    the lifted coordinates of T. T satisfies T z = z on span(Z) by
    construction, so it is not checked again. The probes are Z times the
    probe coordinates of the reduced pencil (`probe_coordinates`: 20
    decaying, then projections onto its 5 lowest eigenvalue clusters),
    formed by the forms' class-by-class apply (`SpectralForm.modes` and
    `coefficients`, `Retraction.embed`), and the quadrature rule is
    `QuadratureRule.from_config(quadrature, ambient.lam)`.
    For each probe u and each t on the log-spaced grid spanning that
    window: form the ambient optimal decomposition u = f + g, transport
    it, and check

        K <= K0,   K0^2 <= |Tf|_H^2 + t^2 |Tg|_D^2 <= 2 C^2 K^2,

    with C = max(h_bound, d_bound). Per theta, compare the subspace and
    ambient interpolation norms: the ratio must land in [1, sqrt(2) * C].
    Cells carry a relative slack of 1e-9 (pointwise) / 1e-5 (integrated)
    for rounding.

    Both minimizers are read off the spectral forms: for u = V a, with
    x = t^2 lam^2 and s = 1 / (1 + x), g = V (s a), f = V (x s a) and
    K^2 = sum a^2 x s. The transported term is taken in the reduced
    eigen-coefficients of T V_amb = Z B V_amb, W~ = transform_red B V_amb:
    |Tf|_M1^2 = |W~ f^|^2 and |Tg|_M2^2 = |lam_red W~ g^|^2 for
    f^ = x s a and g^ = s a, each formed directly, never as a
    difference. W~ is formed per class block (`transported_blocks`: one
    block for the one-block Stokes retraction), and the products run
    per block, each for T_BLOCK values of t at once. At the middle t,
    `k2_by_cholesky` of each pair's nodal forms recomputes K^2 and K0^2
    for all probes at once, which also checks any closed form; a
    relative deviation above 1e-9, or a failed factorization, raises
    SolverFailure.

    Returns (cells, parameters). cells is two CellTables: the pointwise
    ratios, one row per t and one column per probe, then the interp
    ratios, one row per theta. parameters holds the run's window, probe
    count and bounds, for the caller's report.
    """
    C = float(np.maximum(T.h_bound, T.d_bound))  # a NaN bound stays NaN
    c_prime = math.sqrt(2.0) * C
    lam_amb, lam_red = ambient.lam, reduced.lam
    Cr = probe_coordinates(reduced, seed)
    U = T.embed(Cr)
    n_probes = U.shape[1]
    rule = QuadratureRule.from_config(quadrature, lam_amb)

    # pointwise chain for every t and probe from the eigenpairs
    a = ambient.coefficients(U)
    a_r = reduced.coefficients(Cr)
    taus = np.linspace(rule.log_t_min, rule.log_t_max, t_points)
    ts = [math.exp(tau) for tau in taus]
    t2s = np.array(ts) ** 2
    x = t2s[:, None] * lam_amb**2
    k2 = k2_batch(lam_amb, a * a, np.array(ts))
    k02 = k2_batch(lam_red, a_r * a_r, np.array(ts))
    mid = np.zeros_like(k2)
    for rows, cols, Wc in transported_blocks(ambient, reduced, T):
        ac, lr = a[cols, None], lam_red[rows, None, None]
        for i in range(0, t_points, T_BLOCK):
            ti = slice(i, i + T_BLOCK)
            xs = x[ti, cols].T[:, :, None]
            s = 1.0 / (1.0 + xs)
            # (mode, t, f^ then g^): one product for every t of the block
            F = np.concatenate([ac * (xs * s), ac * s], axis=2)
            TF = Wc @ F.reshape(Wc.shape[1], -1)
            tf, tg = np.split(TF.reshape(Wc.shape[0], -1, 2 * n_probes), 2, axis=2)
            tg = lr * tg
            mid[ti] += np.sum(tf * tf, axis=0) + t2s[ti, None] * np.sum(tg * tg, axis=0)

    # independent route at one t: Cholesky minimizers of all probes at once
    im = t_points // 2
    t2 = float(t2s[im])
    for name, pair, X, eig in (("K", ambient, U, k2[im]), ("K0", reduced, Cr, k02[im])):
        chol = k2_by_cholesky(pair.m1, pair.m2, X, t2)
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
    probes = ("probe", range(n_probes))
    pointwise = at_most_table(
        worst,
        1.0,
        rel=1e-9,
        rows=("t", ts),
        cols=probes,
        lemma=lemma_label,
        grid=grid_label,
        check="pointwise",
        theta=None,
    )

    # integrated comparison in the same spectral coordinates
    n_amb = np.sqrt(interp_norms_sq(lam_amb, a, theta_list, rule))
    n_red = np.sqrt(interp_norms_sq(lam_red, a_r, theta_list, rule))
    interp = at_most_table(
        n_red / n_amb,
        c_prime,
        rel=1e-5,
        floor=1.0,
        rows=("theta", [float(th) for th in theta_list]),
        cols=probes,
        lemma=lemma_label,
        grid=grid_label,
        check="interp-ratio",
        t=None,
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
    return [pointwise, interp], parameters
