"""Concrete desk-scale operators on the unit interval and unit square.

Provides the analytic spectrum of the 1D Dirichlet Laplacian, discrete
Sobolev Gram forms on the full node set (boundary included), and a
staggered-grid Stokes system. `stokes_pencil` is the one assembly of
the Stokes operators: the vector Laplacian A, the divergence D and the
discrete curl C as scipy.sparse arrays, and the n^2 x n^2
stream-function pencil (C^T A C, C^T C), solved with one SuperLU per
reflection-parity class, formed at the first solve; rank D is checked
by one more sparse LU, of the pressure matrix with one pressure pinned.
Every factor is a symmetric-mode SuperLU that must show its matrix SPD
(`_spd_lu`). The runners that need dense arrays read them from that
pencil: the orthonormal basis Z = C W of ker D in closed form (the
discrete curl of DST-I stream-function modes, with no factorization of
D), the constrained operator Z^T A Z, and A by `.toarray()`. Both Stokes
spectra are `kfunctional.SpectralForm`s: `stokes_spectral_model` of
Z^T A Z in class blocks, `stokes_ambient_model` of A in one block.

Every grid matrix is assembled from dense 1D pieces combined with
np.kron, or with scipy.sparse.kron for the Stokes operators (the
tensor-product structure of Lynch, Rice & Thomas, Numer. Math. 6,
1964): trapezoid weights, the edge differences of the path
graph, Dirichlet and full-node second differences, and the staggered
forward difference from faces to cells. A 2D operator acting along both
axes is the Kronecker sum M (x) I + I (x) M of its 1D stencil, written
into strided diagonals with no product by an identity (`_kron_sum`).
The same structure gives the spectra of the Dirichlet Kronecker sums in
closed form: `stokes_ambient_model` and `zero_boundary_pencil` (the
pencil of (g1, g2) on zero-boundary functions) take tensor
products of DST-I modes, with no eigensolver. Every other operator
here is unchanged by the square's two reflections, so it is split per
reflection-parity class (Bossavit, Comput. Methods Appl. Mech. Engrg.
56, 1986) after rotating each axis into even and odd node combinations
(`_parity_rotation`). One function, `_class_index`, gives the
coordinates of each class, of the rotated grids and of the DST-I modes
alike: `sobolev_grams` assembles (g0, g1, g2) per class
from the rotated 1D pieces (`ClassForms`), the blocks that the
harmonic retraction solves and factors and that `sobolev_pencil`
diagonalizes; `StokesPencil` keeps K, C and C^T C in the class
coordinates of the rotated stream-function grid; and Z^T A Z is
diagonalized per class of the DST-I stream modes, which carry their
parities (`StokesPencil.classes`, `kfunctional.class_eigh`). The two
harmonic pencils stay in those class blocks, in the rotated
coordinates (`kfunctional.SpectralForm` with its lift U (x) U):
`sobolev_pencil` keeps the class eigenpairs as they are solved, and
`zero_boundary_pencil` builds each class block from the entries of
U^T S of its parities (`_class_kron`), with no n^2 x n^2 product.

Grid convention: n interior points per axis, mesh width h = 1/(n+1).
Apart from the sparse pencil the 2D matrices are dense, so 2D grids are
capped at n <= 32 per axis. The 1D models are spectra alone; the 1D cap
n <= 2048 bounds the dense 1D Sobolev forms ((n+2)^2 entries each) and
the per-mode quadrature work of the 1D runners. SciPy is imported
inside each function that calls it, not with the package.
"""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidConfig, SolverFailure
from .spectral import SpectralModel, build_spectral_model

MAX_N_1D = 2048
MAX_N_2D = 32

# Gram deviation allowed for the eigenvectors of a Stokes model;
# exactly-orthonormal inputs are held to 1e-10 in the tests.
ORTHO_TOL = 1e-8


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


def laplacian_1d_analytic(n_modes: int) -> SpectralModel:
    """Analytic 1D Dirichlet spectrum lam_k = (k pi)^2, k = 1..n_modes,
    of the eigenfunctions sqrt(2) sin(k pi x)."""
    if n_modes < 1:
        raise InvalidConfig(f"need at least one mode, got {n_modes}")
    if n_modes > MAX_N_1D:
        raise InvalidConfig(f"n_modes={n_modes} exceeds the 1D cap of {MAX_N_1D}")
    k = np.arange(1, n_modes + 1)
    return build_spectral_model((k * np.pi) ** 2)


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


def _kron_sum(*axes: np.ndarray) -> np.ndarray:
    """The 1D operators of the axes, each acting along its own: M in 1D,
    M_x (x) I + I (x) M_y in 2D.

    In 2D, M_x and M_y are written into the strided diagonals of a zeroed
    (a, b, a, b) array, K[:, j, :, j] = M_x and K[i, :, i, :] += M_y,
    with no product by an identity: the entries equal those of the two
    np.kron products and their sum, apart from the sign of a zero where
    both products are -0.0.
    """
    if len(axes) == 1:
        return axes[0]
    Mx, My = axes
    a, b = Mx.shape[0], My.shape[0]
    K = np.zeros((a, b, a, b))
    K[:, np.arange(b), :, np.arange(b)] = Mx
    K[np.arange(a), :, np.arange(a), :] += My
    return K.reshape(a * b, a * b)


@dataclass(frozen=True)
class ClassForms:
    """The Sobolev forms on one reflection-parity class of the nodes.

    In the coordinates (U (x) U)^T x of a 2D grid (U^T x in 1D), for the
    parity rotation U of an axis (`_parity_rotation`), the forms are block
    diagonal, one block per class p in 1D or 2 p_x + p_y in 2D. label is
    the class, index its rotated coordinates (ascending), g0, g1 and g2
    are the class blocks, and g1_factor and g2_factor the lower Cholesky
    factors of the blocks of g1 and g2.
    """

    label: int
    index: np.ndarray
    g0: np.ndarray
    g1: np.ndarray
    g2: np.ndarray
    g1_factor: np.ndarray
    g2_factor: np.ndarray


@dataclass(frozen=True)
class SobolevGrams:
    """Nested discrete Sobolev forms on the full node set.

    g0: trapezoid mass; g1 = g0 + first-difference stiffness;
    g2 = g1 + Gram of centered second difference quotients.
    The three forms are read-only, so a pair can wrap g1 and g2 without
    a copy. classes holds the same forms per reflection-parity class in
    the rotated coordinates of `rotation`, the parity rotation U of an
    axis (`ClassForms`), with the class Cholesky factors of g1 and g2
    from the SPD check of `sobolev_grams`; no nodal form is factored.
    """

    g0: np.ndarray
    g1: np.ndarray
    g2: np.ndarray
    rotation: np.ndarray
    classes: tuple


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


def _sobolev_pieces(domain: GridDomain):
    """The 1D pieces of the Sobolev forms on the m = n + 2 nodes of an
    axis: the trapezoid weights w, the stiffness P = E^T E of the edge
    differences E of the path graph, and Q = D2^T D2 of the centred
    second-difference rows D2 (scaled by 1/h^2 before the product)."""
    h, m = domain.h, domain.n + 2
    w = np.full(m, h)
    w[0] = w[-1] = h / 2.0
    E = _forward_difference(m)
    D2 = (E[1:] - E[:-1]) / (h * h)
    return w, E.T @ E, D2.T @ D2


def _sobolev_forms(axes, domain: GridDomain):
    """g0, g1, g2 from the 1D mass W, stiffness P and top form Q of each
    axis, axes holding one (W, P, Q) per axis: W_x (x) W_y in 2D, the
    stiffness with edge weight h^(d-2) and the top form with weight h^d,
    each as a Kronecker sum."""
    h, d = domain.h, domain.dimension
    W, P, Q = zip(*axes)
    g0 = W[0] if d == 1 else np.kron(*W)
    g1 = _kron_sum(*P) / h ** (2 - d)
    g1 += g0
    g2 = domain.cell_volume * _kron_sum(*Q)
    g2 += g1
    return g0, g1, g2


def sobolev_grams(domain: GridDomain) -> SobolevGrams:
    """Assemble g0, g1, g2 on the full grid (boundary nodes included),
    on the nodes and per reflection-parity class.

    One path for both dimensions and for the nodes and the classes: the
    dimension enters only through the Kronecker products of three 1D
    pieces on the m = n + 2 nodes of an axis (`_sobolev_pieces`,
    combined by `_sobolev_forms`) and the cell volume h^d.
      g0: trapezoid weights w, diag(w) in 1D and diag(w (x) w) in 2D;
      stiffness: P = E^T E for the edge differences E of the path graph,
        P / h in 1D and P (x) I + I (x) P in 2D (edge weight h^(d-2));
      top form: Q = D2^T D2 for the centred second-difference rows D2
        (scaled by 1/h^2 before the product), h^d times the Kronecker
        sum of Q (weight h^d per row along each axis).
    The pieces are unchanged by the reflection x -> 1 - x of an axis, so
    the parity rotation U of `_parity_rotation` takes each to an even and
    an odd block; a rotated piece with an entry between the two above
    1e-12 of its largest raises SolverFailure. The forms of a class are
    assembled from the blocks of its parities (`ClassForms`), equal bit
    for bit to the class blocks of the rotated forms, which are never
    formed whole. g0 is diagonal, so its SPD check is finite, positive
    weights w; g1 and g2 pass an SPD check by one Cholesky factorization
    per class block, and the factors are kept. Every form is stored
    read-only.
    """
    from scipy import linalg

    from .kfunctional import check_class_coupling

    d = domain.dimension
    w, P, Q = _sobolev_pieces(domain)
    if not (np.isfinite(w).all() and (w > 0.0).all()):
        raise SolverFailure("g0 failed the SPD check")
    U, parity = _parity_rotation(domain.n + 2)
    rotated = [U.T @ M @ U for M in (np.diag(w), P, Q)]
    for M in rotated:
        check_class_coupling(M, parity[:, None] != parity, "a Sobolev piece")
    axes = [_class_index(parity, p, 1) for p in (0, 1)]
    classes = []
    for label, parities in enumerate(itertools.product((0, 1), repeat=d)):
        cols = [axes[p] for p in parities]
        pieces = [[M[np.ix_(c, c)] for M in rotated] for c in cols]
        forms = _sobolev_forms(pieces, domain)
        factors = []
        for name, M in (("g1", forms[1]), ("g2", forms[2])):
            try:
                factors.append(linalg.cholesky(M, lower=True))
            except linalg.LinAlgError as exc:
                raise SolverFailure(f"{name} failed the SPD check") from exc
        for M in forms:
            M.setflags(write=False)
        index = _class_index(parity, label, d)
        classes.append(ClassForms(label, index, *forms, *factors))
    nodal = _sobolev_forms([(np.diag(w), P, Q)] * d, domain)
    for M in nodal:
        M.setflags(write=False)
    return SobolevGrams(*nodal, rotation=U, classes=tuple(classes))


def _parity_rotation(m: int) -> tuple[np.ndarray, np.ndarray]:
    """The orthogonal m x m U that splits an axis of m nodes into even
    and odd columns under the reflection i -> m - 1 - i, and the parity
    of each column: first the even (e_i + e_(m-1-i)) / sqrt 2 for
    i < m // 2 and the centre node e_(m//2) when m is odd, then the odd
    (e_i - e_(m-1-i)) / sqrt 2."""
    half, even = m // 2, m - m // 2
    i = np.arange(half)
    U = np.zeros((m, m))
    U[i, i] = U[m - 1 - i, i] = U[i, even + i] = math.sqrt(0.5)
    U[m - 1 - i, even + i] = -math.sqrt(0.5)
    if m % 2:
        U[half, half] = 1.0
    return U, (np.arange(m) >= even).astype(np.int64)


def _class_index(parity: np.ndarray, c: int, dimension: int = 2) -> np.ndarray:
    """The coordinates of reflection-parity class c, ascending: of a grid
    with parity.size points per axis (row-major in 2D), those whose
    parities (parity of each index of an axis, 0 even and 1 odd) are the
    binary digits of c, p_x first: c = 2 p_x + p_y in 2D, c = p in 1D.

    It is the one partition into classes of the square's grids: the
    rotated nodes and interior points of `_parity_rotation`, and the
    DST-I modes, whose parity is that of their 0-based index.
    """
    index = np.zeros(1, dtype=np.int64)
    for axis in range(dimension):
        p = (c >> (dimension - 1 - axis)) & 1
        index = np.add.outer(index * parity.size, np.flatnonzero(parity == p)).ravel()
    return index


def _class_kron(S: np.ndarray, c: int, modes: np.ndarray) -> np.ndarray:
    """Columns modes (DST-I modes k n + l, row-major) of the block of
    class c of (U (x) U)^T (S (x) S), for an n x n DST-I matrix S of an
    axis and its parity rotation U (`_parity_rotation`); the rows are
    the rotated coordinates of class c (`_class_index`).

    DST-I mode k (0-based) has the parity of k, so U^T S couples even
    rows to even modes and odd to odd, and each entry is the product of
    one entry of U^T S per axis, with no n^2 x n^2 array formed.
    """
    n = S.shape[0]
    U, parity = _parity_rotation(n)
    rotated = U.T @ S
    x, y = np.divmod(_class_index(parity, c), n)
    k, l = np.divmod(modes, n)
    # formed mode by mode, so the block is column-major: the layout fixes
    # the rounding of every product with it
    return (rotated.T[k[:, None], x] * rotated.T[l[:, None], y]).T


def _lift(axes: tuple, X: np.ndarray) -> np.ndarray:
    """(U (x) U) X in 2D, U X in 1D, for axes holding the square rotation
    U of each axis (the same on every axis), one axis at a time without
    forming the Kronecker product; X itself for no axes."""
    if not axes:
        return X
    U, a = axes[0], axes[0].shape[0]
    Y = U @ X.reshape(a, -1)
    if len(axes) == 2:
        Y = U @ Y.reshape(a, a, -1)
    return Y.reshape(a ** len(axes), -1)


def sobolev_pencil(grams: SobolevGrams):
    """The pencil of (g1, g2) on the full node set of a 2D grid, solved
    per reflection-parity class: a `kfunctional.SpectralForm` with the
    lift U (x) U.

    It reads the class blocks of `sobolev_grams` (`ClassForms`), the
    forms in the coordinates of the parity rotation U (x) U, and solves
    them per class (`kfunctional.block_congruence`). The eigenpairs stay
    in those coordinates, one block per class; nothing is lifted to the
    nodes.
    """
    from .kfunctional import SpectralForm, block_congruence

    if len(grams.classes) != 4:  # one class per parity of each of two axes
        raise InvalidConfig("the blocked Sobolev pencil is built on the unit square")
    form = block_congruence([(c.label, c.index, c.g1, c.g2) for c in grams.classes])
    return SpectralForm(form.lam, form.blocks, (grams.rotation,) * 2)


def zero_boundary_pencil(domain: GridDomain):
    """The pencil of (g1, g2) on the zero-boundary subspace of a 2D grid,
    in closed form: a `kfunctional.SpectralForm`, lam ascending (stable
    sort), per reflection-parity class with the lift U (x) U of the
    parity rotation U of an interior axis.

    On the interior nodes the forms are Z^T g1 Z = h^2 I + P (x) I +
    I (x) P and Z^T g2 Z = Z^T g1 Z + (P^2 (x) I + I (x) P^2) / h^2 for
    P = tridiag(-1, 2, -1), so the DST-I product S (x) S of
    `_dirichlet_modes` diagonalizes both (Lynch, Rice & Thomas 1964),
    with d1 = h^2 + p_k + p_l, d2 = d1 + (p_k^2 + p_l^2) / h^2 for the
    eigenvalues p_k of P, and mu = d2 / d1. Then V = (S (x) S) d1^-1/2,
    lam = sqrt(mu) and transform = V^T Z^T g1 Z = d1^1/2 (S (x) S)^T.
    DST-I mode k (0-based) of an axis is even under x -> 1 - x exactly
    when k is even, which gives each mode its parity class, as in
    `sobolev_pencil`. The block of class c holds its modes in ascending
    order, V_c = (S_x (x) S_y) d1^-1/2 and transform_c = d1^1/2 (S_x (x)
    S_y)^T for the even or odd blocks S_x, S_y of U^T S
    (`_class_kron`), so no n^2 x n^2 array is formed. A d1 or mu that
    is not finite and positive raises SolverFailure.
    """
    from .kfunctional import SpectralBlock, SpectralForm

    if domain.dimension != 2:
        raise InvalidConfig("the zero-boundary pencil is built on the unit square")
    n, h2 = domain.n, domain.cell_volume
    S, p = _dirichlet_modes(n, 1.0)
    d1 = h2 + np.add.outer(p, p).ravel()
    mu = (d1 + np.add.outer(p * p, p * p).ravel() / h2) / d1
    bad = ~(np.isfinite(mu) & (mu > 0.0) & (d1 > 0.0))
    if bad.any():
        raise SolverFailure(f"zero-boundary pencil eigenvalue {float(mu[bad][0])!r}")
    order = np.argsort(mu, kind="stable")
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    U, parity = _parity_rotation(n)
    blocks = []
    for c in range(4):
        modes = _class_index(np.arange(n) % 2, c)
        modes = modes[np.argsort(rank[modes])]  # in ascending order of mu
        SS, s = _class_kron(S, c, modes), np.sqrt(d1[modes])
        index = _class_index(parity, c)
        blocks.append(SpectralBlock(c, index, rank[modes], SS / s, s[:, None] * SS.T))
    return SpectralForm(np.sqrt(mu[order]), tuple(blocks), (U, U))


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
    Stokes operators, beside the stiffness K = C^T A C (CSC) and the
    corner Laplacian C^T C (curl_gram). Since span C = ker D, the
    divergence-free retraction is T = C K^-1 C^T A and the spectrum of
    the constrained operator Z^T A Z is that of the pencil (K, C^T C).

    Every solve with K runs in the class coordinates y = R^T psi of the
    stream function: R = U (x) U for the parity rotation U of an axis
    (`_parity_rotation`), its columns in class order (`_class_index`),
    so each class is a slice of y, and R^T K R is block diagonal since K
    commutes with the square's reflections. The class operators C R,
    (C R)^T, R^T K R and (C R)^T (C R), and per class the block K_c, its
    `_spd_lu` factor and the columns of C R (`class_blocks`), are formed
    once, on first use by a solve; `solve` applies (R^T K R)^-1 slice by
    slice, with no rotation. `stokes_spectral_model` never solves, so
    it forms none of them.

    The orthonormal basis of ker D is Z = C W with W = (S (x) S)
    diag(scale) for the DST-I matrix S (`dst`); `null_vectors` applies
    it without forming it, `class_modes` gives the class blocks of
    R^T W, and `null_basis_and_gram` and `constrained_op` form the dense
    Z, Z^T Z and Ac = Z^T A Z, each with its runtime checks.
    """

    vector_laplacian: "sparse.csr_array"
    divergence: "sparse.csr_array"
    curl: "sparse.csr_array"
    stiffness: "sparse.csc_array"
    curl_gram: "sparse.csr_array"
    dst: np.ndarray
    scale: np.ndarray
    grid: GridDomain

    @property
    def classes(self) -> np.ndarray:
        """The reflection-parity class 2 (k mod 2) + (l mod 2) of each
        DST-I stream mode j, k, l = divmod(j, n) (`_class_index`);
        Z^T A Z and Z^T A^2 Z couple no two classes."""
        n = self.grid.n
        classes = np.empty(n * n, dtype=np.int64)
        for c in range(4):
            classes[_class_index(np.arange(n) % 2, c)] = c
        return classes

    def stream_modes(self, c: np.ndarray) -> np.ndarray:
        """W c for coordinates c (n^2 x k): each column scaled, reshaped
        to n x n (row-major) and taken through the 2D DST-I S X S^T."""
        n, S = self.grid.n, self.dst
        X = (self.scale[:, None] * c).T.reshape(-1, n, n)
        return (S @ X @ S.T).reshape(-1, n * n).T

    def class_modes(self, c: int, cols: np.ndarray) -> np.ndarray:
        """Columns cols of W_c, the block of class c of R^T W in the
        class coordinates of class c (rows) and the stream modes of
        class c in ascending order (columns, both by `_class_index`):
        the rotated DST-I product (`_class_kron`) times `scale`, with no
        n^2 x n^2 array formed.
        """
        modes = _class_index(np.arange(self.grid.n) % 2, c)[cols]
        return _class_kron(self.dst, c, modes) * self.scale[modes]

    @functools.cached_property
    def class_rotation(self) -> "sparse.csc_array":
        """R = U (x) U (CSC), its columns in class order."""
        from scipy import sparse

        U, parity = _parity_rotation(self.grid.n)
        order = np.concatenate([_class_index(parity, c) for c in range(4)])
        return sparse.kron(*[sparse.csr_array(U)] * 2, format="csc")[:, order]

    @functools.cached_property
    def class_curl(self) -> "sparse.csr_array":
        """C R, the curl of the class coordinates (CSR)."""
        return (self.curl @ self.class_rotation).tocsr()

    @functools.cached_property
    def class_curl_transpose(self) -> "sparse.csr_array":
        """(C R)^T, stored (CSR) for the products of every solve."""
        return self.class_curl.T.tocsr()

    @functools.cached_property
    def class_curl_gram(self) -> "sparse.csr_array":
        """(C R)^T (C R) = R^T C^T C R (CSR)."""
        return (self.class_curl_transpose @ self.class_curl).tocsr()

    @functools.cached_property
    def class_stiffness(self) -> "sparse.csr_array":
        """R^T K R (CSR), from the nodal K, symmetric to the bit: (M + M^T) / 2."""
        R = self.class_rotation
        M = R.T @ (self.stiffness @ R)
        return ((M + M.T) / 2.0).tocsr()

    @functools.cached_property
    def class_blocks(self) -> tuple:
        """Per class: (s, K_c, the `_spd_lu` factor of K_c, C_c) for its
        slice s of the class coordinates, K_c = class_stiffness[s, s] and
        C_c = class_curl[:, s]. An off-class entry of class_stiffness above
        1e-12 of the largest, or a non-SPD K_c, raises SolverFailure."""
        from .kfunctional import check_class_coupling

        _, parity = _parity_rotation(self.grid.n)
        sizes = [_class_index(parity, c).size for c in range(4)]
        classes, e = np.repeat(np.arange(4), sizes), self.class_stiffness.tocoo()
        off_class = classes[e.row] != classes[e.col]
        check_class_coupling(e.data, off_class, "the stream-function stiffness K")
        blocks, ends = [], np.cumsum(sizes).tolist()
        failure = "the stream-function stiffness K is not SPD"
        for s in map(slice, [0, *ends], ends):
            K_c = self.class_stiffness[s, s]
            blocks.append((s, K_c, _spd_lu(K_c, failure), self.class_curl[:, s]))
        return tuple(blocks)

    def solve(self, y: np.ndarray) -> np.ndarray:
        """(R^T K R)^-1 y for class coordinates y (a vector or columns)."""
        x = np.empty_like(y)
        for s, _, lu, _ in self.class_blocks:
            x[s] = lu.solve(y[s])
        return x

    def null_vectors(self, c: np.ndarray) -> np.ndarray:
        """Z c = C W c: the divergence-free fields with null-basis
        coordinates c (n^2 x k)."""
        return self.curl @ self.stream_modes(c)

    def null_basis(self) -> np.ndarray:
        """The dense orthonormal basis Z = C W of ker D (m x n^2), the first
        of `null_basis_and_gram`."""
        return self.null_basis_and_gram()[0]

    def null_basis_and_gram(self) -> tuple[np.ndarray, np.ndarray]:
        """The dense orthonormal basis Z = C W of ker D (m x n^2) and its
        Gram Z^T Z.

        Z is orthonormal by construction and spans ker D by the rank
        check of `stokes_pencil`; runtime checks of |D Z| and
        |Z^T Z - I| (1e-10 each) guard the rounding and raise
        SolverFailure, also for a NaN. The Gram is the one of the check.
        """
        Z = self.null_vectors(np.eye(self.stiffness.shape[0]))
        if not np.max(np.abs(self.divergence @ Z)) <= 1e-10:
            raise SolverFailure("null basis fails divergence-free check")
        gram = Z.T @ Z
        if not np.max(np.abs(gram - np.eye(Z.shape[1]))) <= 1e-10:
            raise SolverFailure("null basis fails the orthonormality check")
        return Z, gram

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


def _spd_lu(M, failure: str):
    """The SuperLU factor of the sparse M, returned only when it shows M
    SPD; SolverFailure(failure) otherwise.

    SuperLU runs in symmetric mode: a minimum-degree ordering of M + M^T
    on rows and columns alike, and diagonal pivots, which keeps less
    fill than the default column ordering. Equal row and column
    permutations and every diagonal entry of U above 1e-10 of the
    largest make M SPD. A factorization that fails, also for a NaN,
    raises as well.
    """
    from scipy.sparse.linalg import splu

    try:
        lu = splu(
            M.tocsc(),
            permc_spec="MMD_AT_PLUS_A",
            diag_pivot_thresh=0.0,
            options={"SymmetricMode": True},
        )
    except RuntimeError:  # SuperLU: an exactly singular factor
        raise SolverFailure(failure) from None
    pivots = lu.U.diagonal()
    spd = np.array_equal(lu.perm_r, lu.perm_c) and pivots.min() > 1e-10 * pivots.max()
    if not spd:
        raise SolverFailure(failure)
    return lu


def _check_pressure_rank(P) -> None:
    """Raise SolverFailure unless the sparse pressure matrix P = D D^T
    has the constants as its only null vectors: pinning one pressure
    (dropping the first row and column) leaves an SPD matrix exactly
    then, which `_spd_lu` checks."""
    _spd_lu(P[1:, 1:], "divergence rank check failed: the pressure matrix is not SPD")


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
    sparse pressure matrix D D^T = G G^T (x) I + I (x) G G^T goes to
    `_check_pressure_rank`, which raises SolverFailure otherwise.

    K = C^T A C is factored per reflection-parity class at the pencil's
    first solve, not here (`StokesPencil.class_blocks`). No m x m or
    m x n^2 dense array is formed. SciPy is imported here, not with the
    package.
    """
    from scipy import sparse

    _check_stokes_grid(domain)  # the same size rules as the runners' check
    n, h = domain.n, domain.h
    G = _staggered_difference(n, h)

    def kron(a, b):
        return sparse.kron(sparse.csr_array(a), sparse.csr_array(b), format="csr")

    faces, cells = np.eye(n), np.eye(n + 1)
    _check_pressure_rank(kron(G @ G.T, cells) + kron(cells, G @ G.T))
    lap = _second_difference_1d
    Lu = kron(cells, lap(n, h)) + kron(lap(n + 1, h), faces)
    Lv = kron(faces, lap(n + 1, h)) + kron(lap(n, h), cells)
    A = sparse.block_diag([Lu, Lv], format="csr")
    D = sparse.hstack([kron(cells, G), kron(G, cells)], format="csr")
    C = sparse.vstack([kron(G, faces), -kron(faces, G)], format="csr")
    if not abs(D @ C).max() <= 1e-10:
        raise SolverFailure("the discrete curl is not divergence-free")
    S, mu = _dirichlet_modes(n, h)
    return StokesPencil(
        vector_laplacian=A,
        divergence=D,
        curl=C,
        stiffness=(C.T @ (A @ C)).tocsc(),
        curl_gram=(C.T @ C).tocsr(),
        dst=S,
        scale=1.0 / np.sqrt(np.add.outer(mu, mu)).ravel(),
        grid=domain,
    )


def _check_orthonormal(*bases: np.ndarray) -> None:
    """Raise SolverFailure unless the Gram deviation |V^T V - I| of every
    basis V is within ORTHO_TOL (also for a NaN)."""
    for V in bases:
        gram = V.T @ V
        gram.flat[:: V.shape[1] + 1] -= 1.0
        gram_dev = np.max(np.abs(gram))
        if not gram_dev <= ORTHO_TOL:
            raise SolverFailure(f"basis Gram deviation {gram_dev:.3e} > {ORTHO_TOL}")


def stokes_spectral_model(p: StokesPencil):
    """The constrained operator Ac = Z^T A Z over null-space coordinates
    in spectral form: a `kfunctional.SpectralForm` with no lift,
    diagonalized by one `eigh` per reflection-parity class of the stream
    modes (`kfunctional.class_eigh` with `StokesPencil.classes`), lam
    ascending and read-only.

    The orthonormality of each class block of eigenvectors is checked
    against ORTHO_TOL, and an eigenvalue that is not finite and positive
    (the spectrum of a failed eigensolve) raises SolverFailure, as does
    the eigensolve itself.
    """
    from scipy import linalg

    from .kfunctional import SpectralForm, class_eigh

    try:
        Ac = p.constrained_op(p.null_basis())
        lam, blocks = class_eigh(Ac, classes=p.classes)
    except (ValueError, linalg.LinAlgError) as exc:  # ValueError: a NaN or inf
        raise SolverFailure("constrained eigendecomposition failed") from exc
    _check_orthonormal(*(b.V for b in blocks))
    return SpectralForm(build_spectral_model(lam).eigenvalues, blocks)


def stokes_ambient_model(domain: GridDomain):
    """The full vector Laplacian on the velocity unknowns of a staggered
    grid (the rules of `stokes_domain`), in closed form: the one-block
    `kfunctional.dense_form` of its spectrum, ascending (stable sort)
    and read-only, and its Euclidean-orthonormal eigenvectors V (m x m),
    with transform V^T.

    Each velocity block is a Kronecker sum of Dirichlet second
    differences on n faces and on n + 1 cells of an axis, so its
    eigenpairs are tensor products of their DST-I modes (Lynch, Rice &
    Thomas 1964), with no eigensolver and no assembly. The physical mass
    h^2 drops out of every norm ratio and operator norm used here, so V
    is orthonormal in the Euclidean product. A Kronecker product, and a
    block diagonal, of orthonormal factors is orthonormal, so the Gram
    check runs on the two DST-I factors, not on the m x m V.
    """
    from scipy import linalg

    from .kfunctional import dense_form

    _check_stokes_grid(domain)
    n, h = domain.n, domain.h
    faces, cells = _dirichlet_modes(n, h), _dirichlet_modes(n + 1, h)
    _check_orthonormal(faces[0], cells[0])
    Vu, lam_u = _kron_sum_modes(cells, faces)
    Vv, lam_v = _kron_sum_modes(faces, cells)
    lam = np.concatenate([lam_u, lam_v])
    order = np.argsort(lam, kind="stable")
    V = linalg.block_diag(Vu, Vv)[:, order]
    return dense_form(build_spectral_model(lam[order]).eigenvalues, V, V.T)
