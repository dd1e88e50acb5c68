import dataclasses
import math

import numpy as np
import pytest

from fracspace import (
    DimensionMismatch,
    InvalidConfig,
    SolverFailure,
    SpectralModel,
    apply_fractional_power,
    build_spectral_model,
    frac_norm,
    grid_domain,
    higher_power_decomposition_check,
    kfunctional,
    operators,
    stokes_ambient_model,
    stokes_pencil,
    stokes_spectral_model,
)


def test_build_sorts_ascending_and_permutes_basis():
    lam = np.array([4.0, 1.0, 9.0, 1.0])
    m = build_spectral_model(lam)
    assert np.array_equal(m.eigenvalues, [1.0, 1.0, 4.0, 9.0])
    assert np.array_equal(lam, [4.0, 1.0, 9.0, 1.0])  # the input is copied
    # the ambient Stokes builder permutes its eigenvector columns with the
    # sort of its spectrum: A V = V diag(lam), lam ascending
    p = stokes_pencil(grid_domain(2, 4))
    form = stokes_ambient_model(p.grid)
    lam, V = form.lam, form.V
    assert np.all(np.diff(lam) >= 0.0)
    A = p.vector_laplacian.toarray()
    assert np.max(np.abs(A @ V - V * lam)) <= 1e-10 * np.max(np.abs(A))


def test_build_rejects_nonpositive_eigenvalue():
    with pytest.raises(SolverFailure, match="min eigenvalue"):
        build_spectral_model(np.array([1.0, 0.0]))
    with pytest.raises(SolverFailure, match="min eigenvalue"):
        build_spectral_model(np.array([-1.0, 2.0]))


def _stokes_models_with_eigenvectors_times(monkeypatch, factor):
    """Both Stokes builders on a 4 x 4 grid, their eigenvectors multiplied
    by factor: the constrained one through `class_eigh`, the ambient one
    through the DST-I modes of an axis."""
    class_eigh, modes = kfunctional.class_eigh, operators._dirichlet_modes

    def scaled_eigh(*args, **kwargs):
        lam, blocks = class_eigh(*args, **kwargs)
        return lam, tuple(dataclasses.replace(b, V=factor * b.V) for b in blocks)

    def scaled_modes(size, h):
        S, mu = modes(size, h)
        return factor * S, mu

    p = stokes_pencil(grid_domain(2, 4))
    monkeypatch.setattr(kfunctional, "class_eigh", scaled_eigh)
    monkeypatch.setattr(operators, "_dirichlet_modes", scaled_modes)
    return (lambda: stokes_spectral_model(p), lambda: stokes_ambient_model(p.grid))


def test_build_rejects_nonorthonormal_basis(monkeypatch):
    # the Gram check of the Stokes builders' eigenvectors
    for build in _stokes_models_with_eigenvectors_times(monkeypatch, 2.0):
        with pytest.raises(SolverFailure, match="basis Gram deviation"):
            build()


def test_build_rejects_nan_basis(monkeypatch):
    for build in _stokes_models_with_eigenvectors_times(monkeypatch, math.nan):
        with pytest.raises(SolverFailure, match="basis Gram deviation"):
            build()


def test_build_shape_mismatch():
    with pytest.raises(DimensionMismatch):
        build_spectral_model(np.array([]))


def test_model_arrays_are_read_only(small_model, stokes_small):
    with pytest.raises(ValueError):
        small_model.eigenvalues[0] = 7.0
    for form in (
        stokes_spectral_model(stokes_small),
        stokes_ambient_model(stokes_small.grid),
    ):
        with pytest.raises(ValueError):
            form.lam[0] = 7.0


def test_model_is_its_spectrum():
    # a model holds the spectrum alone; dim is its length
    assert [f.name for f in dataclasses.fields(SpectralModel)] == ["eigenvalues"]
    assert build_spectral_model(np.array([2.0, 1.0, 3.0])).dim == 3


def test_coeff_vector_rejects_wrong_length(small_model):
    with pytest.raises(DimensionMismatch):
        frac_norm(small_model, 0.5, np.ones(4))
    with pytest.raises(DimensionMismatch):
        apply_fractional_power(small_model, 0.5, np.ones(4))


def test_fractional_power_semigroup(small_model):
    c = np.array([1.0, -2.0, 0.5, 0.0, 3.0, -1.0])
    ab = apply_fractional_power(
        small_model, 0.3, apply_fractional_power(small_model, 0.4, c)
    )
    direct = apply_fractional_power(small_model, 0.7, c)
    np.testing.assert_allclose(ab, direct, rtol=1e-14)
    # negative exponent inverts
    back = apply_fractional_power(
        small_model, -0.7, apply_fractional_power(small_model, 0.7, c)
    )
    np.testing.assert_allclose(back, c, rtol=1e-13)


def test_fractional_power_zero_is_identity_copy(small_model):
    c = np.arange(6, dtype=np.float64)
    out = apply_fractional_power(small_model, 0.0, c)
    np.testing.assert_array_equal(out, c)
    assert out is not c


def test_frac_norm_known_value():
    m = build_spectral_model(np.array([4.0]))
    # lam^(2 alpha) |c|^2 = 4^1 * 9 = 36
    assert frac_norm(m, 0.5, np.array([3.0])) == pytest.approx(6.0, rel=1e-15)


@pytest.mark.parametrize("alpha", [-0.5, 0.0, 0.5, 1.0])
def test_frac_norm_of_columns_matches_each_column(small_model, alpha):
    # each column is squared at its own power of two: a column of 1e-200
    # beside one of 1e200 keeps its norm, and a zero column is 0
    C = np.random.default_rng(3).standard_normal((6, 5))
    C *= np.array([1.0, 1e-200, 1e200, 0.0, 3.0])
    norms = frac_norm(small_model, alpha, C)
    assert norms.shape == (5,)
    assert norms[3] == 0.0 and np.all(norms[[0, 1, 2, 4]] > 0.0)
    for j in range(5):
        one = frac_norm(small_model, alpha, C[:, j])
        assert norms[j] == pytest.approx(one, rel=1e-14, abs=0.0)
    with pytest.raises(DimensionMismatch):
        frac_norm(small_model, alpha, np.ones((4, 5)))


def test_frac_norm_squares_coefficients_near_the_float_maximum():
    # a scale of 2^1024 would overflow: the scale stops at 2^1023, below
    # which c / scale stays under 2 and its square under 4
    m = build_spectral_model(np.array([1.0, 1.0]))
    c = np.array([1.5 * 2.0**1023, 0.0])
    assert frac_norm(m, 0.5, c) == c[0]
    assert frac_norm(m, 0.5, np.column_stack([c, c / 2.0])).tolist() == [c[0], c[0] / 2]


def test_frac_norm_rejects_a_nan_exponent(small_model):
    with pytest.raises(InvalidConfig, match="exponent must be finite"):
        frac_norm(small_model, math.nan, np.ones(6))


def test_higher_power_check_passes(small_model):
    c = np.array([1.0, -0.5, 0.25, 0.1, -0.05, 0.01])
    cell = higher_power_decomposition_check(small_model, 0.25, 0.75, c)
    assert cell["pass"]
    assert cell["check"] == "higher-power"


def test_higher_power_check_rejects_bad_order(small_model):
    c = np.ones(6)
    with pytest.raises(InvalidConfig, match="need beta >= alpha >= 0"):
        higher_power_decomposition_check(small_model, 0.75, 0.25, c)
    with pytest.raises(InvalidConfig, match="need beta >= alpha >= 0"):
        higher_power_decomposition_check(small_model, -0.1, 0.5, c)


def test_frac_norm_scaling_is_exactly_homogeneous(small_model):
    c = np.array([0.3, -1.2, 0.7, 2.0, -0.4, 0.9])
    base = frac_norm(small_model, 0.6, c)
    assert frac_norm(small_model, 0.6, 2.0 * c) == pytest.approx(
        2.0 * base, rel=1e-15
    )


def test_moment_inequality(small_model):
    rng = np.random.default_rng(5)
    for _ in range(20):
        c = rng.standard_normal(6)
        for theta in (0.25, 0.5, 0.75):
            lhs = frac_norm(small_model, theta, c)
            rhs = frac_norm(small_model, 0.0, c) ** (1 - theta) * frac_norm(
                small_model, 1.0, c
            ) ** theta
            assert lhs <= rhs * (1 + 1e-12)


def test_frac_norm_monotone_in_alpha_above_unit_spectrum():
    # all eigenvalues >= 1 so alpha -> norm is nondecreasing
    m = build_spectral_model(np.array([1.0, 3.0, 10.0]))
    c = np.array([1.0, 1.0, 1.0])
    norms = [frac_norm(m, a, c) for a in (0.0, 0.25, 0.5, 1.0, 1.5)]
    assert all(b >= a * (1 - 1e-15) for a, b in zip(norms, norms[1:]))


def test_nan_eigenvalue_rejected():
    with pytest.raises(SolverFailure, match="min eigenvalue"):
        build_spectral_model(np.array([1.0, math.nan]))
