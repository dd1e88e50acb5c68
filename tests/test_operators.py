import math

import numpy as np
import pytest

from fracspace import (
    FactorizationFailure,
    InvalidConfig,
    build_stokes,
    grid_domain,
    interior_indices,
    laplacian_1d_analytic,
    laplacian_fd,
    sobolev_grams,
    stokes_ambient_model,
    stokes_spectral_model,
    zero_boundary_basis,
)


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
    # columns orthonormal in the h-weighted gram
    G = m.ambient_gram
    np.testing.assert_allclose(m.basis.T @ G @ m.basis, np.eye(8), atol=1e-10)


@pytest.mark.parametrize(
    "n_modes, n_grid",
    [(2048, 2048), (256, None), (100, 2048)],
)
def test_analytic_1d_sampled_sines_orthonormal(n_modes, n_grid):
    # discrete sine orthogonality: the raw samples need no orthonormalisation
    # pass, with n_grid == n_modes the tightest case
    m = laplacian_1d_analytic(n_modes, n_grid)
    assert m.ambient_dim == (n_grid if n_grid is not None else 2 * n_modes + 1)
    dev = np.max(np.abs(m.basis.T @ m.ambient_gram @ m.basis - np.eye(n_modes)))
    assert dev <= 1e-12


def test_fd_1d_small_spectrum():
    # n = 3, h = 1/4: second-difference eigenvalues 16(2 - sqrt(2)), 32,
    # 16(2 + sqrt(2))
    m = laplacian_fd(grid_domain(1, 3))
    want = np.array([16 * (2 - math.sqrt(2)), 32.0, 16 * (2 + math.sqrt(2))])
    np.testing.assert_allclose(m.eigenvalues, want, rtol=1e-12)


def test_fd_converges_to_analytic():
    fd = laplacian_fd(grid_domain(1, 255))
    exact = (np.arange(1, 6) * np.pi) ** 2
    # relative defect of the 3-point stencil is (k pi h)^2 / 12
    np.testing.assert_allclose(fd.eigenvalues[:5], exact, rtol=5e-4)


def test_fd_2d_lowest_eigenvalue():
    m = laplacian_fd(grid_domain(2, 15))
    # lowest mode of the 5-point stencil approximates 2 pi^2
    assert m.eigenvalues[0] == pytest.approx(2 * math.pi**2, rel=5e-3)


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


def test_sobolev_grams_2d_are_spd(grams_2d):
    for g in (grams_2d.g0, grams_2d.g1, grams_2d.g2):
        np.testing.assert_allclose(g, g.T, atol=1e-14)
        assert np.linalg.eigvalsh(g)[0] > 0


def test_interior_indices_and_zero_boundary_basis():
    d = grid_domain(2, 4)
    idx = interior_indices(d)
    assert idx.shape[0] == 16
    Z = zero_boundary_basis(d)
    assert Z.shape == (36, 16)
    np.testing.assert_array_equal(Z.T @ Z, np.eye(16))
    # columns are indicators of interior nodes
    assert set(np.flatnonzero(Z.sum(axis=1))) == set(idx.tolist())


def test_stokes_kernel_dimension(stokes_small):
    n = stokes_small.grid.n
    assert stokes_small.nullbasis.shape[1] == n * n
    D = stokes_small.divergence
    rank = D.shape[1] - n * n
    assert D.shape[0] - rank == 1  # one incompatible constraint (total flux)


def test_stokes_divergence_annihilates_kernel(stokes_small):
    DZ = stokes_small.divergence @ stokes_small.nullbasis
    assert np.max(np.abs(DZ)) <= 1e-10


def test_stokes_projector(stokes_small):
    Z = stokes_small.nullbasis
    P = Z @ Z.T
    np.testing.assert_allclose(P, P.T, atol=1e-12)
    np.testing.assert_allclose(P @ P, P, atol=1e-10)
    np.testing.assert_allclose(
        P @ stokes_small.nullbasis, stokes_small.nullbasis, atol=1e-10
    )


def test_stokes_rejects_non_orthonormal_null_basis(monkeypatch):
    real_svd = np.linalg.svd

    def scaled_svd(a, *args, **kwargs):
        U, s, Vt = real_svd(a, *args, **kwargs)
        return U, s, Vt * (1.0 + 1e-6)

    monkeypatch.setattr(np.linalg, "svd", scaled_svd)
    with pytest.raises(FactorizationFailure, match="orthonormal"):
        build_stokes(grid_domain(2, 4))


def test_stokes_constrained_operator_spd(stokes_small):
    C = stokes_small.constrained_op
    np.testing.assert_allclose(C, C.T, atol=1e-10)
    assert np.linalg.eigvalsh(C)[0] > 0


def test_stokes_rejects_tiny_grid():
    with pytest.raises(InvalidConfig):
        build_stokes(grid_domain(2, 2))


def test_stokes_models(stokes_small):
    con = stokes_spectral_model(stokes_small)
    amb = stokes_ambient_model(stokes_small)
    assert con.dim == stokes_small.nullbasis.shape[1]
    assert amb.dim == stokes_small.vector_laplacian.shape[0]
    assert np.all(np.diff(con.eigenvalues) >= 0)
    assert con.eigenvalues[0] > 0
    # ambient model reconstructs the vector Laplacian
    A = amb.basis @ np.diag(amb.eigenvalues) @ amb.basis.T
    np.testing.assert_allclose(A, stokes_small.vector_laplacian, atol=1e-8)
    # constrained eigenvalues interlace above the ambient floor
    assert con.eigenvalues[0] >= amb.eigenvalues[0] * (1 - 1e-12)

