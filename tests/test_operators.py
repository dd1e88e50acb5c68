import dataclasses
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from scipy import linalg, sparse
from scipy.sparse import linalg as sparse_linalg

from fracspace import (
    GridDomain,
    InvalidConfig,
    QuadraticPair,
    RunConfig,
    SolverFailure,
    congruence,
    grid_domain,
    interior_indices,
    laplacian_1d_analytic,
    sobolev_grams,
    sobolev_pencil,
    stokes_ambient_model,
    stokes_domain,
    stokes_pencil,
    stokes_spectral_model,
    zero_boundary_basis,
    zero_boundary_pencil,
)
from fracspace import operators
from fracspace.experiments import (
    _harmonic_setup,
    _stokes_setup,
    stokes_equivalence_study,
)
from oracles import basis_gram_deviation


def test_grid_domain_validation():
    with pytest.raises(InvalidConfig):
        grid_domain(3, 4)
    with pytest.raises(InvalidConfig):
        grid_domain(1, 0)
    with pytest.raises(InvalidConfig):
        grid_domain(1, 4096)  # above the 1D cap
    with pytest.raises(InvalidConfig):
        grid_domain(2, 64)  # above the 2D cap
    d = grid_domain(2, 8)
    assert d.h == pytest.approx(1.0 / 9.0)


def test_analytic_1d_eigendata():
    m = laplacian_1d_analytic(8)
    j = np.arange(1, 9)
    np.testing.assert_allclose(m.eigenvalues, (j * np.pi) ** 2, rtol=1e-14)
    assert m.dim == 8
    for n_modes in (0, operators.MAX_N_1D + 1):
        with pytest.raises(InvalidConfig):
            laplacian_1d_analytic(n_modes)


def _fd_modes(domain):
    """The closed-form eigenpairs (lam ascending, V) of the 3-point (1D)
    or 5-point (2D) Dirichlet Laplacian: the DST-I modes of
    `_dirichlet_modes`, and in 2D their tensor products."""
    modes = operators._dirichlet_modes(domain.n, domain.h)
    if domain.dimension == 2:
        modes = operators._kron_sum_modes(modes, modes)
    V, lam = modes
    order = np.argsort(lam, kind="stable")
    return lam[order], V[:, order]


def test_fd_1d_small_spectrum():
    # n = 3, h = 1/4: second-difference eigenvalues 16(2 - sqrt(2)), 32,
    # 16(2 + sqrt(2))
    lam, _ = _fd_modes(grid_domain(1, 3))
    want = np.array([16 * (2 - math.sqrt(2)), 32.0, 16 * (2 + math.sqrt(2))])
    np.testing.assert_allclose(lam, want, rtol=1e-12)


def test_fd_1d_converges_at_second_order():
    # fitted order of the eigenvalue error for k = 1..5 under mesh halving
    ns = (31, 63, 127, 255)
    exact = (np.arange(1, 6) * np.pi) ** 2
    errs, hs = [], []
    for n in ns:
        lam, _ = _fd_modes(grid_domain(1, n))
        errs.append(np.abs(lam[:5] - exact))
        hs.append(1.0 / (n + 1))
    orders = np.polyfit(np.log(hs), np.log(np.array(errs)), 1)[0]
    assert np.all((orders >= 1.95) & (orders <= 2.05)), orders


def test_fd_converges_to_analytic():
    lam, _ = _fd_modes(grid_domain(1, 255))
    exact = laplacian_1d_analytic(5).eigenvalues
    # relative defect of the 3-point stencil is (k pi h)^2 / 12
    np.testing.assert_allclose(lam[:5], exact, rtol=5e-4)


def _dirichlet_matrix(domain):
    """The 3-point (1D) or 5-point (2D) Dirichlet Laplacian, assembled."""
    n, h = domain.n, domain.h
    T = (2.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)) / (h * h)
    if domain.dimension == 1:
        return T
    return np.kron(T, np.eye(n)) + np.kron(np.eye(n), T)


def _assert_closed_form_diagonalizes(lam, V, L):
    # eigenvalues against a dense eigensolve, eigenvectors by reconstruction
    np.testing.assert_allclose(lam, np.linalg.eigvalsh(L), rtol=1e-12)
    rebuilt = (V * lam) @ V.T
    assert np.max(np.abs(rebuilt - L)) <= 1e-12 * np.max(np.abs(L))


@pytest.mark.parametrize("dimension", [1, 2])
@pytest.mark.parametrize("n", range(3, 11))
def test_fd_closed_form_matches_dense_eigensolve(dimension, n):
    d = grid_domain(dimension, n)
    _assert_closed_form_diagonalizes(*_fd_modes(d), _dirichlet_matrix(d))


@pytest.mark.parametrize("n", range(3, 11))
def test_stokes_ambient_closed_form_matches_dense_eigensolve(n):
    p = stokes_pencil(grid_domain(2, n))
    form = stokes_ambient_model(p.grid)
    _assert_closed_form_diagonalizes(form.lam, form.V, p.vector_laplacian.toarray())


def _assert_spectral_form_of(form, M1, M2):
    """A closed-form spectral form of the pencil (M1, M2), formed densely
    on the nodes, against the dense `congruence` of the same pair: lam to
    1e-12 relative, and V^T M1 V = I, V^T M2 V = diag lam^2 (scaled by
    lam^-1 on both sides) and transform = V^T M1, each to 1e-12."""
    lam, V, transform = form.lam, form.V, form.transform
    oracle = congruence(QuadraticPair(M1, M2)).lam
    np.testing.assert_allclose(lam, oracle, rtol=1e-12, atol=0.0)
    eye = np.eye(lam.size)
    assert np.max(np.abs(V.T @ M1 @ V - eye)) <= 1e-12
    assert np.max(np.abs((V.T @ M2 @ V) / np.outer(lam, lam) - eye)) <= 1e-12
    assert np.max(np.abs(transform - V.T @ M1)) <= 1e-12 * np.max(np.abs(transform))


@pytest.mark.parametrize("n", range(3, 17))
def test_zero_boundary_pencil_matches_congruence(n):
    d = grid_domain(2, n)
    grams = sobolev_grams(d)
    Z = zero_boundary_basis(d)
    M1, M2 = Z.T @ grams.g1 @ Z, Z.T @ grams.g2 @ Z
    _assert_spectral_form_of(zero_boundary_pencil(d), M1, M2)


def test_zero_boundary_pencil_takes_a_square():
    with pytest.raises(InvalidConfig, match="unit square"):
        zero_boundary_pencil(grid_domain(1, 4))
    with pytest.raises(InvalidConfig, match="unit square"):
        sobolev_pencil(sobolev_grams(grid_domain(1, 4)))


@pytest.mark.parametrize("n", range(3, 11))
def test_stokes_ambient_pair_matches_congruence(n):
    # the pair (I, A^2) of the intersection runs, in A's closed-form modes
    ambient, _, _ = _stokes_setup(grid_domain(2, n))
    _assert_spectral_form_of(ambient, ambient.m1, ambient.m2)


@pytest.mark.parametrize("n", [3, 4, 8, 16, 32])
def test_gathered_reduced_forms_equal_the_indicator_products(n):
    d = grid_domain(2, n)
    grams = sobolev_grams(d)
    Z = zero_boundary_basis(d)
    ix = np.ix_(interior_indices(d), interior_indices(d))
    for g in (grams.g1, grams.g2):
        assert np.array_equal(g[ix], Z.T @ g @ Z)
    if n <= 8:
        _, reduced, _ = _harmonic_setup(d)
        assert np.array_equal(reduced.m1, Z.T @ grams.g1 @ Z)
        assert np.array_equal(reduced.m2, Z.T @ grams.g2 @ Z)


@pytest.mark.parametrize("n", range(2, 33))
def test_dirichlet_modes_keep_the_grid_eigenvalue_expression(n):
    # stokes_pencil reads these eigenvalues; on the interior axis they must
    # be the h-form bit for bit
    h = 1.0 / (n + 1)
    k = np.arange(1, n + 1)
    want = (4.0 / (h * h)) * np.sin(k * (np.pi * h / 2.0)) ** 2
    np.testing.assert_array_equal(operators._dirichlet_modes(n, h)[1], want)


def test_fd_2d_lowest_eigenvalue():
    lam, _ = _fd_modes(grid_domain(2, 15))
    # lowest mode of the 5-point stencil approximates 2 pi^2
    assert lam[0] == pytest.approx(2 * math.pi**2, rel=5e-3)


def test_sobolev_grams_1d_hat_energy():
    d = grid_domain(1, 9)
    grams = sobolev_grams(d)
    h = d.h
    hat = np.zeros(11)
    hat[5] = 1.0
    stiff = grams.g1 - grams.g0
    assert hat @ stiff @ hat == pytest.approx(2.0 / h, rel=1e-12)


def test_sobolev_grams_constant_function():
    d = grid_domain(1, 9)
    grams = sobolev_grams(d)
    one = np.ones(11)
    # trapezoid mass of 1 on [0,1] is 1; gradient energy is 0
    assert one @ grams.g0 @ one == pytest.approx(1.0, rel=1e-12)
    assert one @ (grams.g1 - grams.g0) @ one == pytest.approx(0.0, abs=1e-12)


def _node_coordinates(domain):
    """x and y at every node of the full grid (y is None in 1D); the flat
    node index is i * m + j with x = i h, y = j h."""
    m = domain.n + 2
    t = domain.h * np.arange(m)
    if domain.dimension == 1:
        return t, None
    return np.kron(t, np.ones(m)), np.kron(np.ones(m), t)


@pytest.mark.parametrize("dimension", [1, 2])
@pytest.mark.parametrize("n", [3, 4, 8])
def test_sobolev_grams_mass_closed_forms(dimension, n):
    d = grid_domain(dimension, n)
    grams = sobolev_grams(d)
    x, _ = _node_coordinates(d)
    one = np.ones_like(x)
    # the trapezoid rule is exact for 1 and x
    assert one @ grams.g0 @ one == pytest.approx(1.0, rel=1e-13)
    assert one @ grams.g0 @ x == pytest.approx(0.5, rel=1e-13)


@pytest.mark.parametrize("dimension", [1, 2])
@pytest.mark.parametrize("n", [3, 5, 8])
def test_sobolev_grams_stiffness_closed_forms(dimension, n):
    d = grid_domain(dimension, n)
    h, m = d.h, n + 2
    grams = sobolev_grams(d)
    stiff = grams.g1 - grams.g0
    x, y = _node_coordinates(d)
    # each edge along x carries the difference h at weight h^(d-2)
    edges = (m - 1) * m ** (dimension - 1)
    want = edges * h ** (dimension - 2) * h * h
    assert x @ stiff @ x == pytest.approx(want, rel=1e-12)
    if dimension == 2:
        assert y @ stiff @ y == pytest.approx(want, rel=1e-12)
        assert x @ stiff @ y == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("dimension", [1, 2])
@pytest.mark.parametrize("n", [3, 6, 8])
def test_sobolev_grams_top_form_closed_forms(dimension, n):
    d = grid_domain(dimension, n)
    h, m = d.h, n + 2
    grams = sobolev_grams(d)
    top = grams.g2 - grams.g1
    x, y = _node_coordinates(d)
    # every interior second difference of x^2 along x is 2, weight h^d
    x_rows = (m - 2) * m ** (dimension - 1)
    want = 4.0 * h**dimension * x_rows
    assert (x * x) @ top @ (x * x) == pytest.approx(want, rel=1e-10)
    if dimension == 2:
        r2 = x * x + y * y
        assert r2 @ top @ r2 == pytest.approx(2.0 * want, rel=1e-10)
        assert (x * y) @ top @ (x * y) == pytest.approx(0.0, abs=1e-10 * want)


@pytest.mark.parametrize("n", [3, 4, 6, 7])
def test_sobolev_grams_2d_commute_with_the_axis_swap(n):
    # swapping x and y permutes node indices; the Kronecker sums are
    # invariant under it entry for entry
    m = n + 2
    swap = np.arange(m * m).reshape(m, m).T.ravel()
    grams = sobolev_grams(grid_domain(2, n))
    for g in (grams.g0, grams.g1, grams.g2):
        np.testing.assert_array_equal(g[np.ix_(swap, swap)], g)


def test_sobolev_grams_2d_are_spd(grams_2d):
    for g in (grams_2d.g0, grams_2d.g1, grams_2d.g2):
        np.testing.assert_allclose(g, g.T, atol=1e-14)
        assert np.linalg.eigvalsh(g)[0] > 0


@pytest.mark.parametrize("h", [-0.2, math.nan, math.inf])
def test_sobolev_grams_g0_check_rejects_a_bad_trapezoid_weight(monkeypatch, h):
    # g0 is diagonal: a non-positive or non-finite weight fails its SPD
    # check without a factorization
    monkeypatch.setattr(GridDomain, "h", property(lambda self: h))
    with pytest.raises(SolverFailure, match="g0 failed the SPD check"):
        sobolev_grams(GridDomain(1, 4))


def test_interior_indices_and_zero_boundary_basis():
    d = grid_domain(2, 4)
    idx = interior_indices(d)
    assert idx.shape[0] == 16
    Z = zero_boundary_basis(d)
    assert Z.shape == (36, 16)
    np.testing.assert_array_equal(Z.T @ Z, np.eye(16))
    # columns are indicators of interior nodes
    assert set(np.flatnonzero(Z.sum(axis=1))) == set(idx.tolist())


def test_stokes_kernel_dimension():
    # oracle: the closed-form curl basis spans the SVD null space of D
    for n in range(3, 11):
        p = stokes_pencil(grid_domain(2, n))
        N = linalg.null_space(p.divergence.toarray())
        Z = p.null_basis()
        assert N.shape[1] == Z.shape[1] == n * n
        assert np.max(np.abs(Z @ Z.T - N @ N.T)) <= 1e-12, n


def _negated_pressure_splu(monkeypatch):
    # the pinned (n+1)^2 - 1 pressure matrix of n = 4 reaches SuperLU
    # negated, so its diagonal pivots come out negative; the stiffness
    # factorization is left as it is
    real = sparse_linalg.splu

    def negated(a, *args, **kwargs):
        return real(-a if a.shape == (24, 24) else a, *args, **kwargs)

    monkeypatch.setattr(sparse_linalg, "splu", negated)


def test_stokes_rank_check_raises(monkeypatch):
    # a pressure matrix that fails its SPD factorization means
    # rank D < (n+1)^2 - 1
    _negated_pressure_splu(monkeypatch)
    cfg = RunConfig(experiment="stokes-equivalence", sizes=(4,))
    with pytest.raises(SolverFailure, match="rank"):
        stokes_equivalence_study(cfg)


def test_stokes_divergence_annihilates_kernel(stokes_small):
    DZ = stokes_small.divergence @ stokes_small.null_basis()
    assert np.max(np.abs(DZ)) <= 1e-10


@pytest.mark.parametrize("n", [3, 5, 8])
def test_divergence_of_uniform_flows(n):
    # a uniform flow leaves only the wall cells of each row (or column):
    # (delta_{a,0} - delta_{a,n}) / h; cell index b (n + 1) + a
    p = stokes_pencil(grid_domain(2, n))
    h = p.grid.h
    wall = np.zeros(n + 1)
    wall[0], wall[-1] = 1.0 / h, -1.0 / h
    n_u = n * (n + 1)
    x_flow = np.concatenate([np.ones(n_u), np.zeros(n_u)])
    y_flow = x_flow[::-1]
    D = p.divergence
    tol = dict(rtol=1e-15, atol=1e-12)
    np.testing.assert_allclose(D @ x_flow, np.tile(wall, n + 1), **tol)
    np.testing.assert_allclose(D @ y_flow, np.repeat(wall, n + 1), **tol)


@pytest.mark.parametrize("n", [3, 4, 8])
def test_divergence_annihilates_the_discrete_curl(n):
    # stream function on the n^2 interior cell corners, zero on the walls:
    # u = d psi / dy on vertical faces, v = -d psi / dx on horizontal faces
    p = stokes_pencil(grid_domain(2, n))
    h = p.grid.h
    psi = np.pad(np.random.default_rng(n).standard_normal((n, n)), 1)  # psi[j, i]
    u = np.diff(psi[:, 1:-1], axis=0) / h  # u[b, i - 1]: cell row b, face x = i h
    v = -np.diff(psi[1:-1, :], axis=1) / h  # v[j - 1, a]: face y = j h, column a
    vel = np.concatenate([u.ravel(), v.ravel()])
    scale = np.max(np.abs(vel)) / h
    assert np.max(np.abs(p.divergence @ vel)) <= 1e-13 * scale
    Z = p.null_basis()
    dev = np.linalg.norm(Z @ (Z.T @ vel) - vel) / np.linalg.norm(vel)
    assert dev <= 1e-12


def test_stokes_projector(stokes_small):
    Z = stokes_small.null_basis()
    P = Z @ Z.T
    np.testing.assert_allclose(P, P.T, atol=1e-12)
    np.testing.assert_allclose(P @ P, P, atol=1e-10)
    np.testing.assert_allclose(P @ Z, Z, atol=1e-10)


def test_stokes_rejects_non_orthonormal_null_basis(monkeypatch):
    real_modes = operators._dirichlet_modes

    def scaled_modes(n, h):
        S, mu = real_modes(n, h)
        return S * (1.0 + 1e-6), mu

    monkeypatch.setattr(operators, "_dirichlet_modes", scaled_modes)
    p = stokes_pencil(grid_domain(2, 4))
    for dense in (p.null_basis, lambda: stokes_spectral_model(p)):
        with pytest.raises(SolverFailure, match="orthonormal"):
            dense()


def test_stokes_rejects_a_null_basis_outside_ker_d(stokes_small):
    # a divergence off by one entry no longer annihilates Z = C W
    D = stokes_small.divergence.tolil()
    D[0, 0] += 1.0
    broken = dataclasses.replace(stokes_small, divergence=D.tocsr())
    with pytest.raises(SolverFailure, match="divergence-free"):
        broken.null_basis()


def test_stokes_rejects_an_asymmetric_constrained_operator(stokes_small):
    A = stokes_small.vector_laplacian.tolil()
    A[0, 1] += 1.0
    broken = dataclasses.replace(stokes_small, vector_laplacian=A.tocsr())
    with pytest.raises(SolverFailure, match="symmetric"):
        broken.constrained_op(stokes_small.null_basis())


def test_stokes_nan_pencil_fails_its_guards(stokes_small):
    # a NaN scale makes the whole null basis NaN; the |D Z| guard must
    # reject it rather than hand it on to SciPy's finiteness check
    nan_scale = np.full_like(stokes_small.scale, np.nan)
    broken = dataclasses.replace(stokes_small, scale=nan_scale)
    for dense in (broken.null_basis, lambda: stokes_spectral_model(broken)):
        with pytest.raises(SolverFailure, match="divergence-free"):
            dense()


def test_stokes_nan_operator_fails_the_symmetry_guard(stokes_small):
    A = stokes_small.vector_laplacian.copy()
    A.data[0] = np.nan
    broken = dataclasses.replace(stokes_small, vector_laplacian=A)
    with pytest.raises(SolverFailure, match="symmetric"):
        broken.constrained_op(stokes_small.null_basis())


def test_stokes_constrained_operator_spd(stokes_small):
    C = stokes_small.constrained_op(stokes_small.null_basis())
    np.testing.assert_allclose(C, C.T, atol=1e-10)
    assert np.linalg.eigvalsh(C)[0] > 0


def test_stokes_rejects_tiny_grid():
    for make in (stokes_domain, lambda n: stokes_pencil(grid_domain(2, n))):
        with pytest.raises(InvalidConfig):
            make(2)


def test_stokes_ambient_model_takes_a_staggered_grid():
    # the ambient model needs no assembly, but the same grid rules
    for dom in (grid_domain(1, 4), grid_domain(2, 2)):
        with pytest.raises(InvalidConfig):
            stokes_ambient_model(dom)


@pytest.mark.parametrize("n", range(3, 17))
def test_ambient_factor_check_agrees_with_the_whole_basis_check(monkeypatch, n):
    # the Gram check of the two DST-I factors against the m x m oracle: both
    # pass on the closed form, and both fail once the factors are scaled by
    # 1 + 1e-7 (a Gram deviation of 2e-7)
    dom = grid_domain(2, n)
    assert basis_gram_deviation(stokes_ambient_model(dom).V) <= operators.ORTHO_TOL
    modes = operators._dirichlet_modes

    def scaled_modes(size, h):
        S, mu = modes(size, h)
        return S * (1.0 + 1e-7), mu

    monkeypatch.setattr(operators, "_dirichlet_modes", scaled_modes)
    with pytest.raises(SolverFailure, match="basis Gram deviation"):
        stokes_ambient_model(dom)
    monkeypatch.setattr(operators, "_check_orthonormal", lambda *bases: None)
    broken = stokes_ambient_model(dom).V
    assert basis_gram_deviation(broken) > operators.ORTHO_TOL


@pytest.mark.parametrize("dimension", [1, 2])
@pytest.mark.parametrize("n", range(3, 33))
def test_sobolev_forms_match_the_kronecker_products(dimension, n):
    # the forms from the strided-diagonal Kronecker sums, byte for byte
    # against np.kron with identity matrices, on the nodes and per class
    d = grid_domain(dimension, n)
    w, P, Q = operators._sobolev_pieces(d)

    def kron_sum(M):
        if dimension == 1:
            return M
        eye = np.eye(M.shape[0])
        return np.kron(M, eye) + np.kron(eye, M)

    g0 = np.diag(w) if dimension == 1 else np.kron(np.diag(w), np.diag(w))
    g1 = kron_sum(P) / d.h ** (2 - dimension) + g0
    g2 = d.cell_volume * kron_sum(Q) + g1
    grams = sobolev_grams(d)
    for got, want in zip((grams.g0, grams.g1, grams.g2), (g0, g1, g2)):
        assert got.tobytes() == want.tobytes()
    # the sum itself equals the products', up to the sign of a zero
    np.testing.assert_array_equal(operators._kron_sum(*[P] * dimension), kron_sum(P))


@pytest.mark.parametrize("n", [3, 4, 5, 8, 15, 16, 31, 32])
def test_stored_curl_transpose_multiplies_like_the_transpose(n):
    # every solve of the Stokes bound multiplies by (C R)^T; the stored CSR
    # transpose of the class curl gives the products of its .T bit for bit
    p = stokes_pencil(grid_domain(2, n))
    X = np.random.default_rng(n).standard_normal((p.curl.shape[0], 3))
    for x in (X[:, 0], X):
        stored, transpose = p.class_curl_transpose @ x, p.class_curl.T @ x
        assert stored.tobytes() == transpose.tobytes()


@pytest.mark.parametrize("n", range(3, 17))
def test_class_operators_are_exact(n):
    # the class stiffness R^T K R and curl Gram (C R)^T (C R) are symmetric
    # to the bit, the class curl is divergence-free exactly, and R is the
    # orthogonal U (x) U in class order
    p = stokes_pencil(grid_domain(2, n))
    for M in (p.class_stiffness, p.class_curl_gram):
        assert (M != M.T).nnz == 0
    assert np.max(np.abs(p.divergence @ p.class_curl)) == 0.0
    R = p.class_rotation.toarray()
    assert np.max(np.abs(R.T @ R - np.eye(n * n))) <= 1e-15
    # the class stiffness and curl Gram are the nodal K and C^T C, rotated
    pairs = ((p.class_stiffness, p.stiffness), (p.class_curl_gram, p.curl_gram))
    for M, nodal in pairs:
        whole = nodal.toarray()
        assert np.max(np.abs(R @ M @ R.T - whole)) <= 1e-12 * np.max(np.abs(whole))


def test_stokes_models(stokes_small):
    con = stokes_spectral_model(stokes_small)
    amb = stokes_ambient_model(stokes_small.grid)
    assert con.lam.size == stokes_small.curl.shape[1]
    assert amb.lam.size == stokes_small.vector_laplacian.shape[0]
    assert np.all(np.diff(con.lam) >= 0)
    assert con.lam[0] > 0
    # ambient model reconstructs the vector Laplacian
    V = amb.V
    A = V @ np.diag(amb.lam) @ V.T
    np.testing.assert_allclose(A, stokes_small.vector_laplacian.toarray(), atol=1e-8)
    # constrained eigenvalues interlace above the ambient floor
    assert con.lam[0] >= amb.lam[0] * (1 - 1e-12)



# ---- the sparse stream-function pencil


def _kron_stokes_oracle(n):
    """A and D by dense np.kron of 1D stencils written out here, apart
    from the package's assembly, and the orthonormal curl basis
    Z = C (S (x) S) diag((mu_k + mu_l)^(-1/2)) from the dense curl C."""
    h = 1.0 / (n + 1)

    def lap(k):
        return (2.0 * np.eye(k) - np.eye(k, k=1) - np.eye(k, k=-1)) / (h * h)

    G = (np.eye(n + 1, n) - np.eye(n + 1, n, k=-1)) / h
    faces, cells = np.eye(n), np.eye(n + 1)
    Lu = np.kron(cells, lap(n)) + np.kron(lap(n + 1), faces)
    Lv = np.kron(faces, lap(n + 1)) + np.kron(lap(n), cells)
    A = linalg.block_diag(Lu, Lv)
    D = np.hstack([np.kron(cells, G), np.kron(G, cells)])
    C = np.vstack([np.kron(G, faces), -np.kron(faces, G)])
    k = np.arange(1, n + 1)
    S = math.sqrt(2.0 * h) * np.sin(np.pi * h * np.outer(k, k))
    mu = (4.0 / (h * h)) * np.sin(k * np.pi * h / 2.0) ** 2
    Z = C @ np.kron(S, S) / np.sqrt(np.add.outer(mu, mu)).ravel()
    return A, D, Z


@pytest.mark.parametrize("n", range(3, 33))
def test_sparse_pencil_matches_build_stokes(n):
    # the pencil's A and D equal the dense np.kron oracle in value (np.kron
    # writes some zeros as -0.0), and C W is the oracle's curl basis; so is
    # the checked dense null basis of the pencil
    A, D, Z = _kron_stokes_oracle(n)
    p = stokes_pencil(grid_domain(2, n))
    assert np.array_equal(p.vector_laplacian.toarray(), A)
    assert np.array_equal(p.divergence.toarray(), D)
    CW = p.null_vectors(np.eye(n * n))
    assert np.max(np.abs(CW - Z)) <= 1e-14, n
    assert np.array_equal(p.null_basis(), CW)


@pytest.mark.parametrize("n", [3, 4, 8])
def test_sparse_pencil_stiffness_and_curl_gram(n):
    # K = C^T A C is symmetric, and W^T K W is the constrained operator Ac
    # while W^T G W = I for G = C^T C
    p = stokes_pencil(grid_domain(2, n))
    Ac = p.constrained_op(p.null_basis())
    K, G = p.stiffness.toarray(), p.curl_gram.toarray()
    assert np.array_equal(K, K.T)
    W = p.stream_modes(np.eye(n * n))
    scale = max(1.0, np.max(np.abs(Ac)))
    assert np.max(np.abs(W.T @ K @ W - Ac)) <= 1e-12 * scale
    assert np.max(np.abs(W.T @ G @ W - np.eye(n * n))) <= 1e-12
    assert np.max(np.abs(p.divergence @ p.curl)) == 0.0


def test_sparse_pencil_rank_check_raises(monkeypatch):
    # one sparse factorization of the pinned pressure matrix decides the
    # rank of D
    _negated_pressure_splu(monkeypatch)
    with pytest.raises(SolverFailure, match="rank"):
        stokes_pencil(grid_domain(2, 4))


def _pressure_matrix(n):
    G = operators._staggered_difference(n, 1.0 / (n + 1))
    P, eye = sparse.csr_array(G @ G.T), sparse.eye_array(n + 1)
    return sparse.csr_array(sparse.kron(P, eye) + sparse.kron(eye, P))


@pytest.mark.parametrize("n", [3, 4, 8, 16])
def test_pressure_rank_check_finds_a_second_null_vector(n):
    # two uncoupled copies of a grid's pressure matrix: pinning the first
    # cell leaves the constant of the second copy in the null space
    P = _pressure_matrix(n)
    operators._check_pressure_rank(P)
    with pytest.raises(SolverFailure, match="rank"):
        operators._check_pressure_rank(sparse.block_diag([P, P], format="csr"))


def test_sparse_pencil_rejects_tiny_grid():
    with pytest.raises(InvalidConfig):
        stokes_pencil(grid_domain(2, 2))


def test_import_leaves_scipy_sparse_out():
    # every route imports SciPy on first use, not the package: no scipy
    # module, scipy.sparse and scipy.linalg included, is loaded
    code = (
        "import sys, fracspace; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    src = os.path.dirname(os.path.dirname(operators.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"
