import math

import numpy as np
import pytest
from scipy import linalg

from fracspace import (
    DimensionMismatch,
    InvalidExponentOrder,
    NonPositiveEigenvalue,
    NotOrthonormal,
    SingularSystem,
    apply_fractional_power,
    build_spectral_model,
    frac_norm,
    from_coeffs,
    higher_power_decomposition_check,
    to_coeffs,
)


def test_build_sorts_ascending_and_permutes_basis():
    lam = np.array([4.0, 1.0, 9.0])
    basis = np.eye(3)
    m = build_spectral_model(lam, basis)
    assert np.array_equal(m.eigenvalues, [1.0, 4.0, 9.0])
    # column for eigenvalue 1.0 was column 1 of the input
    assert np.array_equal(m.basis[:, 0], basis[:, 1])


def test_build_rejects_nonpositive_eigenvalue():
    with pytest.raises(NonPositiveEigenvalue):
        build_spectral_model(np.array([1.0, 0.0]), np.eye(2))
    with pytest.raises(NonPositiveEigenvalue):
        build_spectral_model(np.array([-1.0, 2.0]), np.eye(2))


def test_build_rejects_nonorthonormal_basis():
    with pytest.raises(NotOrthonormal):
        build_spectral_model(np.array([1.0, 2.0]), 2.0 * np.eye(2))


def test_build_shape_mismatch():
    with pytest.raises(DimensionMismatch):
        build_spectral_model(np.array([1.0, 2.0]), np.eye(3))


def test_model_arrays_are_read_only(small_model):
    with pytest.raises(ValueError):
        small_model.eigenvalues[0] = 7.0
    with pytest.raises(ValueError):
        small_model.basis[0, 0] = 7.0


def test_coeff_roundtrip_with_gram():
    rng = np.random.default_rng(1)
    mass = 0.25
    s = rng.standard_normal((3, 3))
    # Euclidean eigenvectors of s s^T, rescaled, are orthonormal under mass * I
    _, q = linalg.eigh(s @ s.T)
    m = build_spectral_model(np.array([1.0, 2.0, 3.0]), q / np.sqrt(mass), mass)
    assert m.mass == mass
    u = rng.standard_normal(3)
    c = to_coeffs(m, u)
    assert isinstance(c, np.ndarray) and c.shape == (3,)
    np.testing.assert_allclose(from_coeffs(m, c), u, atol=1e-12)


def test_coeff_vector_rejects_wrong_length(small_model):
    with pytest.raises(DimensionMismatch):
        frac_norm(small_model, 0.5, np.ones(4))
    with pytest.raises(DimensionMismatch):
        apply_fractional_power(small_model, 0.5, np.ones(4))
    with pytest.raises(DimensionMismatch):
        to_coeffs(small_model, np.ones(4))


@pytest.mark.parametrize("mass", [0.0, -1.0, math.nan, math.inf])
def test_build_rejects_unusable_mass(mass):
    with pytest.raises(SingularSystem):
        build_spectral_model(np.array([1.0, 2.0]), np.eye(2), mass)


def test_build_rejects_nan_basis():
    with pytest.raises(NotOrthonormal):
        build_spectral_model(np.array([1.0, 2.0]), np.diag([1.0, math.nan]))


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
    m = build_spectral_model(np.array([4.0]), np.eye(1))
    # lam^(2 alpha) |c|^2 = 4^1 * 9 = 36
    assert frac_norm(m, 0.5, np.array([3.0])) == pytest.approx(6.0, rel=1e-15)


def test_higher_power_check_passes(small_model):
    c = np.array([1.0, -0.5, 0.25, 0.1, -0.05, 0.01])
    cell = higher_power_decomposition_check(small_model, 0.25, 0.75, c)
    assert cell["pass"]
    assert cell["check"] == "higher-power"


def test_higher_power_check_rejects_bad_order(small_model):
    c = np.ones(6)
    with pytest.raises(InvalidExponentOrder):
        higher_power_decomposition_check(small_model, 0.75, 0.25, c)
    with pytest.raises(InvalidExponentOrder):
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
    m = build_spectral_model(np.array([1.0, 3.0, 10.0]), np.eye(3))
    c = np.array([1.0, 1.0, 1.0])
    norms = [frac_norm(m, a, c) for a in (0.0, 0.25, 0.5, 1.0, 1.5)]
    assert all(b >= a * (1 - 1e-15) for a, b in zip(norms, norms[1:]))


def test_nan_eigenvalue_rejected():
    with pytest.raises(NonPositiveEigenvalue):
        build_spectral_model(np.array([1.0, math.nan]), np.eye(2))
