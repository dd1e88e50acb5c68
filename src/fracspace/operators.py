"""Concrete desk-scale operators on the unit interval and unit square.

Provides the 1D Dirichlet Laplacian with its analytic spectrum (sampled
sine eigenfunctions, orthonormal under the trapezoid mass Gram by
discrete sine orthogonality), finite-difference
Dirichlet Laplacians in 1D/2D, discrete Sobolev Gram forms on the full
node set (boundary included), and a staggered-grid Stokes system: vector
Laplacian, discrete divergence, an orthonormal basis of its null space,
and the constrained operator.

Grid convention: n interior points per axis, mesh width h = 1/(n+1).
Dense eigendecompositions only, so sizes are capped (1D n <= 2048,
2D n <= 32 per axis).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import linalg

from .errors import (
    EigensolveFailure,
    EmptyNullspace,
    FactorizationFailure,
    InvalidConfig,
    SingularSystem,
)
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


def _fix_signs(V: np.ndarray) -> np.ndarray:
    """Deterministic column orientation: largest-magnitude entry positive."""
    idx = np.argmax(np.abs(V), axis=0)
    signs = np.sign(V[idx, np.arange(V.shape[1])])
    signs[signs == 0] = 1.0
    return V * signs


def laplacian_1d_analytic(n_modes: int, n_grid: int | None = None) -> SpectralModel:
    """Analytic 1D Dirichlet spectrum: lam_k = (k pi)^2, sqrt(2) sin(k pi x).

    Eigenfunctions are sampled on n_grid interior points x_i = i h,
    h = 1/(n_grid + 1), under the trapezoid mass Gram (h * identity for
    zero-boundary samples). For k, l <= n_grid the samples are exactly
    orthonormal in that Gram by discrete sine (DST-I) orthogonality,
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
    return build_spectral_model((k * np.pi) ** 2, basis, h * np.eye(n_grid))


def _second_difference_1d(n: int, h: float) -> np.ndarray:
    T = 2.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)
    return T / (h * h)


def laplacian_fd(domain: GridDomain) -> SpectralModel:
    """Finite-difference Dirichlet Laplacian, fully diagonalized.

    3-point stencil in 1D, 5-point in 2D; mass Gram h^d * identity on
    interior nodes, so Euclidean eigenvectors rescale by h^(-d/2).
    """
    h = domain.h
    T = _second_difference_1d(domain.n, h)
    if domain.dimension == 1:
        L = T
        scale = math.sqrt(h)
    else:
        eye = np.eye(domain.n)
        L = np.kron(eye, T) + np.kron(T, eye)
        scale = h
    try:
        lam, V = linalg.eigh(L)
    except linalg.LinAlgError as exc:
        raise EigensolveFailure("dense eigendecomposition failed") from exc
    V = _fix_signs(V) / scale
    gram = (scale * scale) * np.eye(L.shape[0])
    return build_spectral_model(lam, V, gram)


@dataclass(frozen=True)
class SobolevGrams:
    """Nested discrete Sobolev forms on the full node set.

    g0: trapezoid mass; g1 = g0 + first-difference stiffness;
    g2 = g1 + Gram of centered second difference quotients.
    """

    g0: np.ndarray
    g1: np.ndarray
    g2: np.ndarray


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

    Stencils: forward differences on edges for the stiffness (weight
    h^(d-2) per edge) and centered second differences per axis (weight
    h^d per row) for the top form.
    """
    h = domain.h
    m = domain.n + 2
    if domain.dimension == 1:
        w = np.full(m, h)
        w[0] = w[-1] = h / 2.0
        g0 = np.diag(w)
        S = np.zeros((m, m))
        for a in range(m - 1):
            b = a + 1
            S[a, a] += 1.0 / h
            S[b, b] += 1.0 / h
            S[a, b] -= 1.0 / h
            S[b, a] -= 1.0 / h
        rows = []
        for i in range(1, m - 1):
            row = np.zeros(m)
            row[i - 1], row[i], row[i + 1] = 1.0, -2.0, 1.0
            rows.append(row / (h * h))
        D2 = np.array(rows)
        B = h * (D2.T @ D2)
    else:
        w1 = np.full(m, h)
        w1[0] = w1[-1] = h / 2.0
        g0 = np.diag(np.outer(w1, w1).ravel())

        def idx(i, j):
            return i * m + j

        S = np.zeros((m * m, m * m))
        for i in range(m):
            for j in range(m):
                for a, b in (
                    (idx(i, j), idx(i + 1, j)) if i + 1 < m else (None, None),
                    (idx(i, j), idx(i, j + 1)) if j + 1 < m else (None, None),
                ):
                    if a is None:
                        continue
                    S[a, a] += 1.0  # 2D edge weight h^d / h^2 = 1
                    S[b, b] += 1.0
                    S[a, b] -= 1.0
                    S[b, a] -= 1.0
        rows = []
        for i in range(m):
            for j in range(m):
                if 0 < i < m - 1:
                    row = np.zeros(m * m)
                    row[idx(i - 1, j)], row[idx(i, j)], row[idx(i + 1, j)] = 1, -2, 1
                    rows.append(row / (h * h))
                if 0 < j < m - 1:
                    row = np.zeros(m * m)
                    row[idx(i, j - 1)], row[idx(i, j)], row[idx(i, j + 1)] = 1, -2, 1
                    rows.append(row / (h * h))
        D2 = np.array(rows)
        B = (h * h) * (D2.T @ D2)
    g1 = g0 + S
    g2 = g1 + B
    for name, M in (("g0", g0), ("g1", g1), ("g2", g2)):
        try:
            linalg.cholesky(M, lower=True)
        except linalg.LinAlgError as exc:
            raise SingularSystem(f"{name} failed the SPD check") from exc
    return SobolevGrams(g0=g0, g1=g1, g2=g2)


@dataclass(frozen=True)
class StokesSystem:
    """Staggered-grid Stokes data on the unit square.

    Velocity components live on cell faces (x-component on vertical
    interior faces, y-component on horizontal interior faces), pressure
    on the (n+1)^2 cell centers. nullbasis Z is a Euclidean-orthonormal
    basis of ker(divergence), so Z Z^T is the orthogonal projector onto
    it; constrained_op = Z^T A Z.
    """

    vector_laplacian: np.ndarray
    divergence: np.ndarray
    nullbasis: np.ndarray
    constrained_op: np.ndarray
    grid: GridDomain


def build_stokes(domain: GridDomain) -> StokesSystem:
    """Assemble the staggered-grid Stokes system.

    The null space of the divergence is extracted by a rank-revealing
    orthogonal factorization (SVD), treating singular values below
    1e-10 * sigma_max as zero; the divergence always has rank
    deficiency one (the constant pressure mode).
    """
    if domain.dimension != 2:
        raise InvalidConfig("the Stokes system is assembled on the unit square")
    n = domain.n
    if n < 3:
        raise InvalidConfig(f"need n >= 3 for a staggered grid, got {n}")
    m = n + 1  # cells per side
    h = domain.h
    nu_x, nu_y = n, n + 1  # x-velocity unknowns per row / rows
    n_u = nu_x * nu_y
    n_v = (n + 1) * n
    lap = _second_difference_1d
    Lu = np.kron(np.eye(nu_y), lap(nu_x, h)) + np.kron(lap(nu_y, h), np.eye(nu_x))
    Lv = np.kron(np.eye(n), lap(n + 1, h)) + np.kron(lap(n, h), np.eye(n + 1))
    A = linalg.block_diag(Lu, Lv)

    def iu(i, jr):  # x-velocity at interior line x = i*h, cell row jr
        return jr * nu_x + (i - 1)

    def iv(ic, jl):  # y-velocity at interior line y = jl*h, cell column ic
        return n_u + (jl - 1) * (n + 1) + ic

    D = np.zeros((m * m, n_u + n_v))
    for a in range(m):
        for b in range(m):
            r = b * m + a
            if a >= 1:
                D[r, iu(a, b)] -= 1.0 / h
            if a + 1 <= n:
                D[r, iu(a + 1, b)] += 1.0 / h
            if b >= 1:
                D[r, iv(a, b)] -= 1.0 / h
            if b + 1 <= n:
                D[r, iv(a, b + 1)] += 1.0 / h

    try:
        _, s, Vt = np.linalg.svd(D)
    except np.linalg.LinAlgError as exc:
        raise FactorizationFailure("divergence factorization failed") from exc
    rank = int(np.count_nonzero(s > 1e-10 * s.max()))
    if rank >= D.shape[1]:
        raise EmptyNullspace("divergence has a trivial null space")
    Z = _fix_signs(Vt[rank:].T)
    C = Z.T @ A @ Z

    if np.max(np.abs(D @ Z)) > 1e-10:
        raise FactorizationFailure("null basis fails divergence-free check")
    if np.max(np.abs(Z.T @ Z - np.eye(Z.shape[1]))) > 1e-10:
        raise FactorizationFailure("null basis fails the orthonormality check")
    if np.max(np.abs(C - C.T)) > 1e-12 * max(1.0, np.max(np.abs(C))):
        raise FactorizationFailure("constrained operator is not symmetric")
    try:
        linalg.cholesky(C, lower=True)
    except linalg.LinAlgError as exc:
        raise FactorizationFailure("constrained operator is not SPD") from exc
    return StokesSystem(
        vector_laplacian=A,
        divergence=D,
        nullbasis=Z,
        constrained_op=C,
        grid=domain,
    )


def stokes_spectral_model(sys: StokesSystem) -> SpectralModel:
    """Diagonalize the constrained operator over null-space coordinates."""
    try:
        lam, V = linalg.eigh(sys.constrained_op)
    except linalg.LinAlgError as exc:
        raise EigensolveFailure("constrained eigendecomposition failed") from exc
    return build_spectral_model(lam, _fix_signs(V))


def stokes_ambient_model(sys: StokesSystem) -> SpectralModel:
    """Diagonalize the full vector Laplacian on velocity unknowns.

    The physical mass form is h^2 * identity; the scalar drops out of
    every norm ratio and operator norm used here, so the ambient Gram is
    taken as the identity.
    """
    try:
        lam, V = linalg.eigh(sys.vector_laplacian)
    except linalg.LinAlgError as exc:
        raise EigensolveFailure("vector Laplacian eigendecomposition failed") from exc
    return build_spectral_model(lam, _fix_signs(V))
