"""Concrete desk-scale operators on the unit interval and unit square.

Provides the 1D Dirichlet Laplacian with its analytic spectrum (sampled
sine eigenfunctions, orthonormal under the trapezoid mass h by
discrete sine orthogonality), finite-difference
Dirichlet Laplacians in 1D/2D, discrete Sobolev Gram forms on the full
node set (boundary included), and a staggered-grid Stokes system.
`stokes_pencil` is the one assembly of the Stokes operators: the vector
Laplacian A, the divergence D and the discrete curl C as scipy.sparse
arrays, and the n^2 x n^2 stream-function pencil (C^T A C, C^T C) with
one sparse LU. The runners that need dense arrays read them from that
pencil: the orthonormal basis Z = C W of ker D in closed form (the
discrete curl of DST-I stream-function modes, with no factorization of
D), the constrained operator Z^T A Z, and A by `.toarray()`.

Every grid matrix is assembled from dense 1D pieces combined with
np.kron, or with scipy.sparse.kron for the Stokes operators (the
tensor-product structure of Lynch, Rice & Thomas, Numer. Math. 6,
1964): trapezoid weights, the edge differences of the path
graph, Dirichlet and full-node second differences, and the staggered
forward difference from faces to cells. A 2D operator acting along both
axes is the Kronecker sum M (x) I + I (x) M of its 1D stencil. The same
structure gives the spectra of the Dirichlet Kronecker sums in closed
form: `laplacian_fd` and `stokes_ambient_model` take tensor products of
DST-I modes and sums of their eigenvalues, with no eigensolver. Only
the constrained operator Z^T A Z, which is not a Kronecker sum, is
diagonalized densely.

Grid convention: n interior points per axis, mesh width h = 1/(n+1).
Apart from the sparse pencil the matrices are dense, so sizes are
capped (1D n <= 2048, 2D n <= 32 per axis). SciPy is imported inside
each function that calls it, not with the package.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidConfig, SolverFailure
from .spectral import SpectralModel, build_spectral_model

MAX_N_1D = 2048
MAX_N_2D = 32


@dataclass(frozen=True)
class GridDomain:
    """Uniform grid on the unit interval or square; n interior points per axis."""

    dimension: int
    n: int

    @property
    def h(self) -> float:
        return 1.0 / (self.n + 1)

    @property
    def cell_volume(self) -> float:
        """h^d as repeated products (pow may differ from h * h by an ulp)."""
        return math.prod([self.h] * self.dimension)


def grid_domain(dimension: int, n: int) -> GridDomain:
    if dimension not in (1, 2):
        raise InvalidConfig(f"dimension must be 1 or 2, got {dimension}")
    if n < 2:
        raise InvalidConfig(f"need at least 2 interior points per axis, got {n}")
    cap = MAX_N_1D if dimension == 1 else MAX_N_2D
    if n > cap:
        raise InvalidConfig(f"n={n} exceeds the {dimension}D cap of {cap}")
    dom = GridDomain(dimension, n)
    if abs(dom.h * (n + 1) - 1.0) > 1e-14:
        raise InvalidConfig(f"mesh width inconsistent for n={n}")
    return dom


def stokes_domain(n: int) -> GridDomain:
    """`grid_domain(2, n)` for a staggered Stokes grid, which needs n >= 3."""
    dom = grid_domain(2, n)
    if n < 3:
        raise InvalidConfig(f"need n >= 3 for a staggered grid, got {n}")
    return dom


def _check_stokes_grid(domain: GridDomain) -> None:
    """Raise InvalidConfig unless domain passes the rules of `stokes_domain`."""
    if domain.dimension != 2:
        raise InvalidConfig("the Stokes system is assembled on the unit square")
    stokes_domain(domain.n)


def laplacian_1d_analytic(n_modes: int, n_grid: int | None = None) -> SpectralModel:
    """Analytic 1D Dirichlet spectrum: lam_k = (k pi)^2, sqrt(2) sin(k pi x).

    Eigenfunctions are sampled on n_grid interior points x_i = i h,
    h = 1/(n_grid + 1), with mass h (the trapezoid rule on zero-boundary
    samples). For k, l <= n_grid the samples are exactly orthonormal
    under that mass by discrete sine (DST-I) orthogonality,
    2 h sum_i sin(k pi x_i) sin(l pi x_i) = delta_kl, so the sampled
    columns are used as they are; build_spectral_model checks the Gram
    deviation against ORTHO_TOL, which guards rounding.
    """
    if n_modes < 1:
        raise InvalidConfig(f"need at least one mode, got {n_modes}")
    if n_modes > MAX_N_1D:
        raise InvalidConfig(f"n_modes={n_modes} exceeds the 1D cap of {MAX_N_1D}")
    if n_grid is None:
        n_grid = max(n_modes, min(2 * n_modes + 1, MAX_N_1D))
    if n_grid < n_modes or n_grid > MAX_N_1D:
        raise InvalidConfig(f"n_grid={n_grid} must lie in [{n_modes}, {MAX_N_1D}]")
    h = 1.0 / (n_grid + 1)
    x = h * np.arange(1, n_grid + 1)
    k = np.arange(1, n_modes + 1)
    basis = math.sqrt(2.0) * np.sin(np.pi * np.outer(x, k))
    return build_spectral_model((k * np.pi) ** 2, basis, h)


def _second_difference_1d(n: int, h: float) -> np.ndarray:
    """Dirichlet second difference on n interior nodes (zero just outside)."""
    T = 2.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)
    return T / (h * h)


def _dirichlet_modes(size: int, h: float) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form eigenpairs of `_second_difference_1d(size, h)`.

    For i, k = 1..size: the orthonormal DST-I matrix S,
    S[i-1, k-1] = sqrt(2/(size+1)) sin(pi i k / (size+1)), whose columns
    are the eigenvectors, and the eigenvalues
    mu_k = (4/h^2) sin^2(k pi / (2 (size+1))). The mesh width h scales
    the eigenvalues only: it is 1/(size+1) on the n interior nodes of an
    axis, where mu_k = (4/h^2) sin^2(k pi h / 2) bit for bit, and
    1/size on the n+1 cells of a staggered axis.
    """
    k = np.arange(1, size + 1)
    S = math.sqrt(2.0 / (size + 1)) * np.sin(np.pi * np.outer(k, k) / (size + 1))
    mu = (4.0 / (h * h)) * np.sin(k * (np.pi * (1.0 / (size + 1)) / 2.0)) ** 2
    return S, mu


def _kron_sum_modes(p, q) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs of P (x) I + I (x) Q from the eigenpairs (S, mu) of P
    and of Q: the columns of S_P (x) S_Q with eigenvalues mu_P + mu_Q."""
    return np.kron(p[0], q[0]), np.add.outer(p[1], q[1]).ravel()


def _forward_difference(m: int) -> np.ndarray:
    """(m-1) x m edge differences u[a+1] - u[a] along a path of m nodes."""
    return np.eye(m - 1, m, k=1) - np.eye(m - 1, m)


def _kron_sum(M: np.ndarray, d: int) -> np.ndarray:
    """M acting along each of d axes: M in 1D, M (x) I + I (x) M in 2D."""
    if d == 1:
        return M
    eye = np.eye(M.shape[0])
    return np.kron(M, eye) + np.kron(eye, M)


def laplacian_fd(domain: GridDomain) -> SpectralModel:
    """Finite-difference Dirichlet Laplacian, diagonalized in closed form.

    3-point stencil in 1D, 5-point (the Kronecker sum of two 3-point
    stencils) in 2D. Its eigenpairs are the DST-I modes of
    `_dirichlet_modes` in 1D and their tensor products in 2D, with no
    eigensolver; mass h^d on interior nodes, so Euclidean eigenvectors
    rescale by h^(-d/2).
    """
    modes = _dirichlet_modes(domain.n, domain.h)
    if domain.dimension == 2:
        modes = _kron_sum_modes(modes, modes)
    V, lam = modes
    mass = domain.cell_volume
    return build_spectral_model(lam, V / math.sqrt(mass), mass)


@dataclass(frozen=True)
class SobolevGrams:
    """Nested discrete Sobolev forms on the full node set.

    g0: trapezoid mass; g1 = g0 + first-difference stiffness;
    g2 = g1 + Gram of centered second difference quotients.
    The three forms are read-only, so a pair can wrap g1 and g2 without
    a copy. g1_factor and g2_factor are the lower Cholesky factors of g1
    and g2 from the SPD check of `sobolev_grams`, the one factorization
    of each.
    """

    g0: np.ndarray
    g1: np.ndarray
    g2: np.ndarray
    g1_factor: np.ndarray
    g2_factor: np.ndarray


def _node_count(domain: GridDomain) -> int:
    m = domain.n + 2
    return m if domain.dimension == 1 else m * m


def interior_indices(domain: GridDomain) -> np.ndarray:
    """Flat indices of interior nodes in the full (boundary-included) grid."""
    m = domain.n + 2
    if domain.dimension == 1:
        return np.arange(1, m - 1)
    ii, jj = np.meshgrid(np.arange(1, m - 1), np.arange(1, m - 1), indexing="ij")
    return (ii * m + jj).ravel()


def zero_boundary_basis(domain: GridDomain) -> np.ndarray:
    """Euclidean-orthonormal columns spanning zero-boundary grid functions."""
    idx = interior_indices(domain)
    Z = np.zeros((_node_count(domain), idx.size))
    Z[idx, np.arange(idx.size)] = 1.0
    return Z


def sobolev_grams(domain: GridDomain) -> SobolevGrams:
    """Assemble g0, g1, g2 on the full grid (boundary nodes included).

    One path for both dimensions: the dimension enters only through the
    Kronecker products of three 1D pieces on the m = n + 2 nodes of an
    axis and the cell volume h^d.
      g0: trapezoid weights w, diag(w) in 1D and diag(w (x) w) in 2D;
      stiffness: P = E^T E for the edge differences E of the path graph,
        P / h in 1D and P (x) I + I (x) P in 2D (edge weight h^(d-2));
      top form: Q = D2^T D2 for the centred second-difference rows D2
        (scaled by 1/h^2 before the product), h^d times the Kronecker
        sum of Q (weight h^d per row along each axis).
    g0 is diagonal, so its SPD check is a finite, positive diagonal; g1
    and g2 pass an SPD check by Cholesky, and their factors are kept.
    Each form is stored read-only.
    """
    from scipy import linalg

    h, d = domain.h, domain.dimension
    m = domain.n + 2
    w = np.full(m, h)
    w[0] = w[-1] = h / 2.0
    E = _forward_difference(m)
    D2 = (E[1:] - E[:-1]) / (h * h)
    w0 = w if d == 1 else np.kron(w, w)
    if not (np.isfinite(w0).all() and (w0 > 0.0).all()):
        raise SolverFailure("g0 failed the SPD check")
    g0 = np.diag(w0)
    g0.setflags(write=False)
    g1 = g0 + _kron_sum(E.T @ E, d) / h ** (2 - d)
    g2 = g1 + domain.cell_volume * _kron_sum(D2.T @ D2, d)
    factors = []
    for name, M in (("g1", g1), ("g2", g2)):
        try:
            factors.append(linalg.cholesky(M, lower=True))
        except linalg.LinAlgError as exc:
            raise SolverFailure(f"{name} failed the SPD check") from exc
        M.setflags(write=False)
    return SobolevGrams(g0, g1, g2, g1_factor=factors[0], g2_factor=factors[1])


def _staggered_difference(n: int, h: float) -> np.ndarray:
    """(n+1) x n forward difference from the n interior faces of an axis
    to its n + 1 cells; the two wall faces carry no unknown (no-slip)."""
    return _forward_difference(n + 2)[:, 1:-1] / h


@dataclass(frozen=True)
class StokesPencil:
    """The staggered-grid Stokes system in stream-function form, sparse.

    Velocity components live on cell faces (x-component on vertical
    interior faces, y-component on horizontal interior faces), pressure
    on the (n+1)^2 cell centers, the stream function on the n^2 interior
    cell corners. vector_laplacian A (m x m), divergence D and curl C
    (m x n^2) are scipy.sparse CSR arrays, the one assembly of the
    Stokes operators. The stream function carries the pencil (K, C^T C)
    of the stiffness K = C^T A C (CSC) and the corner Laplacian C^T C
    (curl_gram); stiffness_lu is the one sparse LU of K (SuperLU),
    through which every solve with K goes. Since span C = ker D, the
    divergence-free retraction is T = C K^-1 C^T A and the spectrum of
    the constrained operator Z^T A Z is that of (K, C^T C). The
    orthonormal basis of ker D is Z = C W with W = (S (x) S) diag(scale)
    for the DST-I matrix S (`dst`); `null_vectors` applies it without
    forming it, and `null_basis` and `constrained_op` form the dense Z
    and Ac = Z^T A Z, each with its runtime checks.
    """

    vector_laplacian: "sparse.csr_array"
    divergence: "sparse.csr_array"
    curl: "sparse.csr_array"
    stiffness: "sparse.csc_array"
    curl_gram: "sparse.csr_array"
    stiffness_lu: "sparse.linalg.SuperLU"
    dst: np.ndarray
    scale: np.ndarray
    grid: GridDomain

    def stream_modes(self, c: np.ndarray) -> np.ndarray:
        """W c for coordinates c (n^2 x k): each column scaled, reshaped
        to n x n (row-major) and taken through the 2D DST-I S X S^T."""
        n, S = self.grid.n, self.dst
        X = (self.scale[:, None] * c).T.reshape(-1, n, n)
        return (S @ X @ S.T).reshape(-1, n * n).T

    def null_vectors(self, c: np.ndarray) -> np.ndarray:
        """Z c = C W c: the divergence-free fields with null-basis
        coordinates c (n^2 x k)."""
        return self.curl @ self.stream_modes(c)

    def null_basis(self) -> np.ndarray:
        """The dense orthonormal basis Z = C W of ker D (m x n^2).

        It is orthonormal by construction and spans ker D by the rank
        check of `stokes_pencil`; runtime checks of |D Z| and
        |Z^T Z - I| (1e-10 each) guard the rounding and raise
        SolverFailure, also for a NaN.
        """
        Z = self.null_vectors(np.eye(self.stiffness.shape[0]))
        if not np.max(np.abs(self.divergence @ Z)) <= 1e-10:
            raise SolverFailure("null basis fails divergence-free check")
        if not np.max(np.abs(Z.T @ Z - np.eye(Z.shape[1]))) <= 1e-10:
            raise SolverFailure("null basis fails the orthonormality check")
        return Z

    def constrained_op(self, Z: np.ndarray) -> np.ndarray:
        """The dense constrained operator Ac = Z^T (A Z) on the
        `null_basis` Z, with the sparse A; checked symmetric to 1e-12
        relative (SolverFailure). The same operator is W^T K W,
        but K = C^T A C has entries of order h^-4 whose products with
        the smooth modes cancel, so that route rounds the low end of Ac
        more."""
        Ac = Z.T @ (self.vector_laplacian @ Z)
        if not np.max(np.abs(Ac - Ac.T)) <= 1e-12 * max(1.0, np.max(np.abs(Ac))):
            raise SolverFailure("constrained operator is not symmetric")
        return Ac


def stokes_pencil(domain: GridDomain) -> StokesPencil:
    """Assemble the staggered-grid Stokes system, sparse.

    Every operator is a Kronecker product of dense 1D stencils, taken
    with scipy.sparse.kron. Each velocity block of A is the Kronecker
    sum of Dirichlet second differences along its two axes, and
    D = [I (x) G, G (x) I] for the identity I on the n + 1 cells of an
    axis and the staggered difference G from its n interior faces to
    its cells. The null space of D is in closed form (Harlow & Welch
    1965): a stream function psi on the corners, zero on the walls, has
    the discrete curl C psi with C = [G (x) I_n; -(I_n (x) G)], and
    D C = G (x) G - G (x) G = 0, which is checked. C^T C = G^T G (x) I
    + I (x) G^T G is diagonalized by S (x) S with eigenvalues
    mu_k + mu_l, which gives scale = (mu_k + mu_l)^(-1/2).

    span C = ker D needs rank D = (n+1)^2 - 1 (only the constant
    pressure mode is incompatible). That is measured, not assumed: the
    pressure matrix D D^T + 1 1^T / (n+1)^2 = G G^T (x) I + I (x) G G^T
    + 1 1^T / (n+1)^2 is SPD exactly then, and a failed dense Cholesky
    of it raises SolverFailure.

    K is SPD, so its one splu runs in SuperLU's symmetric mode: a
    minimum-degree ordering of K^T + K applied to rows and columns
    alike, and diagonal pivots, which keeps less fill than the default
    column ordering. No m x m or m x n^2 dense array is formed.
    SciPy is imported here, not with the package.
    """
    from scipy import linalg, sparse
    from scipy.sparse.linalg import splu

    _check_stokes_grid(domain)  # the same size rules as the runners' check
    n, h = domain.n, domain.h
    G = _staggered_difference(n, h)
    try:
        linalg.cholesky(_kron_sum(G @ G.T, 2) + 1.0 / (n + 1) ** 2, lower=True)
    except linalg.LinAlgError as exc:
        raise SolverFailure(
            "divergence rank check failed: the pressure matrix is not SPD"
        ) from exc

    def kron(a, b):
        return sparse.kron(sparse.csr_array(a), sparse.csr_array(b), format="csr")

    faces, cells = np.eye(n), np.eye(n + 1)
    lap = _second_difference_1d
    Lu = kron(cells, lap(n, h)) + kron(lap(n + 1, h), faces)
    Lv = kron(faces, lap(n + 1, h)) + kron(lap(n, h), cells)
    A = sparse.block_diag([Lu, Lv], format="csr")
    D = sparse.hstack([kron(cells, G), kron(G, cells)], format="csr")
    C = sparse.vstack([kron(G, faces), -kron(faces, G)], format="csr")
    if not abs(D @ C).max() <= 1e-10:
        raise SolverFailure("the discrete curl is not divergence-free")
    K = (C.T @ (A @ C)).tocsc()
    S, mu = _dirichlet_modes(n, h)
    return StokesPencil(
        vector_laplacian=A,
        divergence=D,
        curl=C,
        stiffness=K,
        curl_gram=(C.T @ C).tocsr(),
        stiffness_lu=splu(
            K,
            permc_spec="MMD_AT_PLUS_A",
            diag_pivot_thresh=0.0,
            options={"SymmetricMode": True},
        ),
        dst=S,
        scale=1.0 / np.sqrt(np.add.outer(mu, mu)).ravel(),
        grid=domain,
    )


def stokes_spectral_model(p: StokesPencil) -> SpectralModel:
    """Diagonalize the constrained operator Ac over null-space coordinates."""
    from scipy import linalg

    try:
        lam, V = linalg.eigh(p.constrained_op(p.null_basis()))
    except linalg.LinAlgError as exc:
        raise SolverFailure("constrained eigendecomposition failed") from exc
    return build_spectral_model(lam, V)


def stokes_ambient_model(domain: GridDomain) -> SpectralModel:
    """The full vector Laplacian on the velocity unknowns of a staggered
    grid (the rules of `stokes_domain`), in closed form.

    Each velocity block is a Kronecker sum of Dirichlet second
    differences on n faces and on n + 1 cells of an axis, so its
    eigenpairs are tensor products of their DST-I modes (Lynch, Rice &
    Thomas 1964), with no eigensolver and no assembly. The physical mass
    is h^2; the scalar drops out of every norm ratio and operator norm
    used here, so the model keeps mass 1.
    """
    from scipy import linalg

    _check_stokes_grid(domain)
    n, h = domain.n, domain.h
    faces, cells = _dirichlet_modes(n, h), _dirichlet_modes(n + 1, h)
    Vu, lam_u = _kron_sum_modes(cells, faces)
    Vv, lam_v = _kron_sum_modes(faces, cells)
    lam = np.concatenate([lam_u, lam_v])
    return build_spectral_model(lam, linalg.block_diag(Vu, Vv))
