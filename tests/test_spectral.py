import json
import math

import numpy as np
import pytest
from scipy import linalg

from fracspace import (
    CoeffVector,
    DimensionMismatch,
    InvalidExponentOrder,
    NonPositiveEigenvalue,
    NotOrthonormal,
    SingularSystem,
    apply_fractional_power,
    build_spectral_model,
    coeffs_from_json,
    coeffs_to_json,
    frac_inner,
    frac_norm,
    from_coeffs,
    higher_power_decomposition_check,
    model_from_json,
    model_to_json,
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


def test_build_rejects_asymmetric_gram():
    g = np.array([[1.0, 0.5], [0.0, 1.0]])
    with pytest.raises(SingularSystem):
        build_spectral_model(np.array([1.0, 2.0]), np.eye(2), g)


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
    gram = np.diag([0.25, 1.0, 3.0])
    s = rng.standard_normal((3, 3))
    # eigenvectors of the symmetric pencil (s s^T, gram) are gram-orthonormal
    _, basis = linalg.eigh(s @ s.T, gram)
    m = build_spectral_model(np.array([1.0, 2.0, 3.0]), basis, gram)
    u = rng.standard_normal(3)
    c = to_coeffs(m, u)
    np.testing.assert_allclose(from_coeffs(m, c), u, atol=1e-12)


def test_coeff_vector_rejects_wrong_length(small_model):
    with pytest.raises(DimensionMismatch):
        CoeffVector(np.ones(4), small_model)


def test_fractional_power_semigroup(small_model):
    c = np.array([1.0, -2.0, 0.5, 0.0, 3.0, -1.0])
    u = CoeffVector(c, small_model)
    ab = apply_fractional_power(
        small_model, 0.3, apply_fractional_power(small_model, 0.4, u)
    )
    direct = apply_fractional_power(small_model, 0.7, u)
    np.testing.assert_allclose(ab.coeffs, direct.coeffs, rtol=1e-14)
    # negative exponent inverts
    back = apply_fractional_power(
        small_model, -0.7, apply_fractional_power(small_model, 0.7, u)
    )
    np.testing.assert_allclose(back.coeffs, c, rtol=1e-13)


def test_fractional_power_zero_is_identity_copy(small_model):
    c = np.arange(6, dtype=np.float64)
    out = apply_fractional_power(small_model, 0.0, c)
    np.testing.assert_array_equal(out.coeffs, c)


def test_frac_norm_known_value():
    m = build_spectral_model(np.array([4.0]), np.eye(1))
    # lam^(2 alpha) |c|^2 = 4^1 * 9 = 36
    assert frac_norm(m, 0.5, np.array([3.0])) == pytest.approx(6.0, rel=1e-15)


def test_frac_inner_matches_norm(small_model):
    c = np.array([1.0, 2.0, -1.0, 0.5, 0.0, 1.5])
    n2 = frac_inner(small_model, 0.4, c, c)
    assert n2 == pytest.approx(frac_norm(small_model, 0.4, c) ** 2, rel=1e-14)


def test_higher_power_check_passes(small_model):
    c = np.array([1.0, -0.5, 0.25, 0.1, -0.05, 0.01])
    rep = higher_power_decomposition_check(small_model, 0.25, 0.75, c)
    assert rep.passed
    assert rep.cells[0]["check"] == "higher-power"


def test_higher_power_check_rejects_bad_order(small_model):
    c = np.ones(6)
    with pytest.raises(InvalidExponentOrder):
        higher_power_decomposition_check(small_model, 0.75, 0.25, c)
    with pytest.raises(InvalidExponentOrder):
        higher_power_decomposition_check(small_model, -0.1, 0.5, c)


def test_model_json_roundtrip(sine_model):
    doc = json.loads(model_to_json(sine_model))
    assert set(doc) == {"eigenvalues", "basis", "ambient_gram"}
    m2 = model_from_json(model_to_json(sine_model))
    np.testing.assert_array_equal(m2.eigenvalues, sine_model.eigenvalues)
    np.testing.assert_array_equal(m2.basis, sine_model.basis)
    np.testing.assert_array_equal(m2.ambient_gram, sine_model.ambient_gram)


def test_model_json_null_gram(small_model):
    doc = json.loads(model_to_json(small_model))
    assert doc["ambient_gram"] is None
    m2 = model_from_json(model_to_json(small_model))
    assert m2.ambient_gram is None


def test_coeffs_json_roundtrip(small_model):
    u = CoeffVector(np.array([1.0, -2.0, 3.5, 0.0, 1e-8, 7.0]), small_model)
    doc = json.loads(coeffs_to_json(u))
    assert set(doc) == {"coeffs"}
    v = coeffs_from_json(small_model, coeffs_to_json(u))
    np.testing.assert_array_equal(v.coeffs, u.coeffs)


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


def test_polarization_identity(small_model):
    rng = np.random.default_rng(11)
    u = rng.standard_normal(6)
    v = rng.standard_normal(6)
    lhs = frac_inner(small_model, 0.3, u, v)
    rhs = (
        frac_norm(small_model, 0.3, u + v) ** 2
        - frac_norm(small_model, 0.3, u - v) ** 2
    ) / 4.0
    assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-12)


def test_cauchy_schwarz(small_model):
    rng = np.random.default_rng(13)
    for _ in range(10):
        u = rng.standard_normal(6)
        v = rng.standard_normal(6)
        lhs = abs(frac_inner(small_model, 0.7, u, v))
        rhs = frac_norm(small_model, 0.7, u) * frac_norm(small_model, 0.7, v)
        assert lhs <= rhs * (1 + 1e-12)


def test_nan_eigenvalue_rejected():
    with pytest.raises(NonPositiveEigenvalue):
        build_spectral_model(np.array([1.0, math.nan]), np.eye(2))
