import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fracspace import (
    DimensionMismatch,
    InvalidConfig,
    QuadratureNotConverged,
    QuadratureRule,
    SolverFailure,
    build_quadratic_pair,
    build_spectral_model,
    congruence,
    decaying_probes,
    frac_norm,
    i_theta,
    interp_norm,
    k_quadratic,
    laplacian_1d_analytic,
)
from fracspace.experiments import lemma_fps_sweep
from fracspace.kfunctional import interp_norms_sq
from oracles import k_brute, k_spectral, k_sum_brute, pair_from_model

# ---- strategies: modest sizes, finite values, spread spectra

_dims = st.integers(min_value=1, max_value=8)


@st.composite
def _model_and_coeffs(draw):
    n = draw(_dims)
    lam = sorted(
        draw(
            st.lists(
                st.floats(min_value=1e-2, max_value=1e3),
                min_size=n,
                max_size=n,
            )
        )
    )
    c = draw(
        st.lists(
            st.floats(min_value=-100.0, max_value=100.0),
            min_size=n,
            max_size=n,
        )
    )
    model = build_spectral_model(np.array(lam))
    return model, np.array(c)


# ---- pointwise K


def test_single_mode_closed_form():
    m = build_spectral_model(np.array([3.0]))
    t = 0.7
    want = math.sqrt((t * 3.0) ** 2 / (1.0 + (t * 3.0) ** 2))
    assert k_spectral(m, np.array([1.0]), t) == pytest.approx(want, rel=1e-14)
    # unit eigenvalue: K(t) = t / sqrt(1 + t^2)
    unit = build_spectral_model(np.array([1.0]))
    for t in (0.1, 1.0, 7.0):
        want = t / math.sqrt(1.0 + t * t)
        assert k_spectral(unit, np.array([1.0]), t) == pytest.approx(want, rel=1e-8)


def test_interp_norm_identity_single_mode():
    m = build_spectral_model(np.array([2.5]))
    for theta in (0.15, 0.5, 0.85):
        num = interp_norm(m, theta, np.array([1.3])) ** 2
        den = i_theta(theta) * frac_norm(m, theta, np.array([1.3])) ** 2
        assert num == pytest.approx(den, rel=1e-6)


def test_k_quadratic_matches_spectral(small_model):
    rng = np.random.default_rng(2)
    pair = pair_from_model(small_model)
    for t in (1e-3, 0.1, 1.0, 10.0, 1e3):
        c = rng.standard_normal(6)
        assert k_quadratic(pair, c, t) == pytest.approx(
            k_spectral(small_model, c, t), rel=1e-12
        )


def test_k_quadratic_dense_pair_matches_congruent_diagonal(spd_pair):
    form = congruence(spd_pair)
    lam, transform = form.lam, form.transform
    model = build_spectral_model(lam)
    rng = np.random.default_rng(4)
    u = rng.standard_normal(lam.shape[0])
    c = transform @ u
    for t in (0.05, 1.0, 20.0):
        assert k_quadratic(spd_pair, u, t) == pytest.approx(
            k_spectral(model, c, t), rel=1e-10
        )


def test_k_brute_agrees(small_model):
    rng = np.random.default_rng(6)
    pair = pair_from_model(small_model)
    c = rng.standard_normal(6)
    for t in (0.02, 0.5, 4.0):
        k_ref = k_spectral(small_model, c, t)
        assert k_brute(small_model, c, t) == pytest.approx(k_ref, rel=1e-6)
        assert k_brute(pair, c, t) == pytest.approx(k_ref, rel=1e-6)


def test_k_sum_sandwich(small_model):
    rng = np.random.default_rng(7)
    for t in (0.05, 1.0, 12.0):
        c = rng.standard_normal(6)
        k = k_spectral(small_model, c, t)
        s = k_sum_brute(small_model, c, t)
        assert k <= s * (1 + 1e-9)
        assert s <= math.sqrt(2.0) * k * (1 + 1e-9)


def test_k_rejects_bad_t(small_model):
    for t in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(InvalidConfig, match="t must be a positive real"):
            k_spectral(small_model, np.ones(6), t)


def test_pair_validation():
    with pytest.raises(SolverFailure, match="not positive definite"):
        build_quadratic_pair(np.zeros((2, 2)), np.eye(2))  # not SPD
    asym = np.array([[1.0, 0.3], [0.0, 1.0]])
    with pytest.raises(SolverFailure, match="not symmetric"):
        build_quadratic_pair(asym, np.eye(2))
    with pytest.raises(DimensionMismatch, match="must be square and match m1"):
        build_quadratic_pair(np.eye(2), np.eye(3))


# ---- quadrature rule and interpolation norm


def test_rule_validation():
    with pytest.raises(InvalidConfig):
        QuadratureRule(1.0, 1.0)
    with pytest.raises(InvalidConfig):
        QuadratureRule(0.0, 1.0, refinement_tol=0.0)
    with pytest.raises(InvalidConfig):
        QuadratureRule(0.0, 1.0, max_panels=0)
    with pytest.raises(InvalidConfig, match="no positive eigenvalues"):
        QuadratureRule.for_spectrum(np.array([0.0, -1.0]))


def test_rule_default_window():
    lam = np.array([2.0, 8.0])
    rule = QuadratureRule.for_spectrum(lam)
    assert rule.log_t_min == pytest.approx(math.log(1e-4 / 8.0))
    assert rule.log_t_max == pytest.approx(math.log(1e4 / 2.0))


def test_rule_from_config_overlay():
    lam = np.array([2.0, 8.0])
    base = QuadratureRule.for_spectrum(lam)
    rule = QuadratureRule.from_config({"tol": 1e-8, "max_panels": 512}, lam)
    assert rule.refinement_tol == 1e-8
    assert rule.max_panels == 512
    assert (rule.log_t_min, rule.log_t_max) == (base.log_t_min, base.log_t_max)
    assert QuadratureRule.from_config(None, lam) == base
    window = QuadratureRule.from_config({"log_t_min": -1.0, "log_t_max": 1.0}, lam)
    assert (window.log_t_min, window.log_t_max) == (-1.0, 1.0)
    assert window.refinement_tol == base.refinement_tol


def test_quadrature_not_converged():
    m = build_spectral_model(np.array([1.0]))
    rule = QuadratureRule(-5.0, 5.0, refinement_tol=1e-30, max_panels=8)
    with pytest.raises(QuadratureNotConverged):
        interp_norm(m, 0.5, np.array([1.0]), rule)


def test_quadrature_fails_at_first_non_finite_pass(monkeypatch):
    import fracspace.kfunctional as kf

    real_k2_batch = kf.k2_batch
    calls = []

    def counting_k2_batch(*args):
        calls.append(1)
        return real_k2_batch(*args)

    monkeypatch.setattr(kf, "k2_batch", counting_k2_batch)
    m = build_spectral_model(np.array([1.0]))
    rule = QuadratureRule(-5.0, 1e308)  # e^tau overflows: the integrand is NaN
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
        QuadratureNotConverged, match="non-finite integrand.* at 64 panels"
    ):
        interp_norm(m, 0.5, np.array([1.0]), rule)
    assert len(calls) == 1  # no panel doubling after the first NaN total


def test_interp_norms_sq_columns_match_single_vectors(small_model):
    # batching over probes and thetas changes no cell beyond rounding
    rng = np.random.default_rng(12)
    C = rng.standard_normal((6, 7)) * np.geomspace(1.0, 1e-3, 6)[:, None]
    thetas = (0.1, 0.35, 0.5, 0.9)
    rule = QuadratureRule.for_spectrum(small_model.eigenvalues, tol=1e-8)
    batched = interp_norms_sq(small_model.eigenvalues, C, thetas, rule)
    assert batched.shape == (4, 7)
    for i, theta in enumerate(thetas):
        for k in range(C.shape[1]):
            alone = interp_norm(small_model, theta, C[:, k], rule) ** 2
            assert batched[i, k] == pytest.approx(alone, rel=1e-13)


def test_interp_norms_sq_node_blocks_match(monkeypatch, small_model):
    # past the first pass the new nodes go to the kernel in blocks, which
    # bounds memory near the panel cap; uneven blocks must cover every node
    import fracspace.kfunctional as kf

    C = np.random.default_rng(13).standard_normal((6, 3))
    rule = QuadratureRule.for_spectrum(small_model.eigenvalues, tol=1e-10)
    whole = interp_norms_sq(small_model.eigenvalues, C, (0.3, 0.7), rule)
    monkeypatch.setattr(kf, "_K2_PAIRS", 7 * small_model.dim)  # blocks of 7 nodes
    blocked = interp_norms_sq(small_model.eigenvalues, C, (0.3, 0.7), rule)
    np.testing.assert_allclose(blocked, whole, rtol=1e-13)


def test_interp_norms_sq_bounds_the_kernel_buffer(monkeypatch):
    # at 2048 modes a doubling's new nodes reach the kernel in blocks of
    # 2^23 // 2048 nodes, up to the panel cap, which this rule always hits
    import fracspace.kfunctional as kf

    real_k2_batch = kf.k2_batch
    pairs = []

    def counting_k2_batch(lam, c2, ts):
        pairs.append(len(ts) * len(lam))
        return real_k2_batch(lam, c2, ts)

    monkeypatch.setattr(kf, "k2_batch", counting_k2_batch)
    model = laplacian_1d_analytic(2048)
    window = QuadratureRule.for_spectrum(model.eigenvalues)
    rule = QuadratureRule(
        window.log_t_min, window.log_t_max, refinement_tol=1e-300, max_panels=2**16
    )
    C = np.column_stack(decaying_probes(model.dim, 1, 42))
    with pytest.raises(QuadratureNotConverged, match="panel cap"):
        interp_norms_sq(model.eigenvalues, C, (0.1, 0.5, 0.9), rule)
    assert max(pairs) <= 2**23
    assert sum(pairs) == (2**16 + 1) * 2048  # every node evaluated once


def test_lemma_sweep_makes_one_kernel_call_per_doubling(monkeypatch):
    import fracspace.kfunctional as kf

    model = laplacian_1d_analytic(64)
    probes = decaying_probes(model.dim, 20, 42)
    thetas = tuple(round(0.1 * k, 1) for k in range(1, 10))
    rule = QuadratureRule.for_spectrum(model.eigenvalues)
    real_k2_batch = kf.k2_batch
    calls = []

    def counting_k2_batch(*args):
        calls.append((np.shape(args[1]), len(args[2])))
        return real_k2_batch(*args)

    monkeypatch.setattr(kf, "k2_batch", counting_k2_batch)
    cells = lemma_fps_sweep(model, thetas, probes, rule)
    assert len(cells) == 9 * 20
    batched = list(calls)
    # the slowest cell alone needs as many doublings as the whole sweep
    slowest = 0
    for theta in thetas:
        for u in probes:
            calls.clear()
            interp_norm(model, theta, u, rule)
            slowest = max(slowest, len(calls))
    assert len(batched) == slowest >= 2
    # every call takes all 20 probes, first at every node, then at the new ones
    new_nodes = [65] + [64 * 2**i for i in range(slowest - 1)]
    assert batched == [((64, 20), n) for n in new_nodes]


def test_interp_norm_identity(small_model):
    rng = np.random.default_rng(8)
    c = rng.standard_normal(6)
    for theta in (0.2, 0.5, 0.8):
        num = interp_norm(small_model, theta, c) ** 2
        den = i_theta(theta) * frac_norm(small_model, theta, c) ** 2
        assert num == pytest.approx(den, rel=1e-6)


def test_interp_norm_theta_range(small_model):
    for theta in (0.0, 1.0, -0.2, 1.3):
        with pytest.raises(InvalidConfig, match="theta must lie in"):
            interp_norm(small_model, theta, np.ones(6))


def test_interp_norm_dense_pair_matches_model(spd_pair):
    form = congruence(spd_pair)
    lam, transform = form.lam, form.transform
    model = build_spectral_model(lam)
    rng = np.random.default_rng(9)
    u = rng.standard_normal(lam.shape[0])
    c = transform @ u
    for theta in (0.3, 0.7):
        assert interp_norm(spd_pair, theta, u) == pytest.approx(
            interp_norm(model, theta, c), rel=1e-9
        )


def test_i_theta_half_is_exact():
    assert i_theta(0.5) == math.pi / 2.0


def test_congruence_normalizes_first_form(spd_pair):
    form = congruence(spd_pair)
    lam, V, transform = form.lam, form.V, form.transform
    np.testing.assert_allclose(V.T @ spd_pair.m1 @ V, np.eye(7), atol=1e-10)
    np.testing.assert_allclose(
        V.T @ spd_pair.m2 @ V, np.diag(lam**2), rtol=1e-9, atol=1e-12
    )
    rng = np.random.default_rng(10)
    u = rng.standard_normal(7)
    c = transform @ u
    assert float(c @ c) == pytest.approx(float(u @ spd_pair.m1 @ u), rel=1e-12)


# ---- property tests


@settings(max_examples=25, deadline=None)
@given(_model_and_coeffs(), st.floats(min_value=1e-3, max_value=1e3))
def test_k_bounded_by_endpoints(mc, t):
    model, c = mc
    k = k_spectral(model, c, t)
    nx = frac_norm(model, 0.0, c)
    ny = frac_norm(model, 1.0, c)
    assert k <= nx * (1 + 1e-12) + 1e-300
    assert k <= t * ny * (1 + 1e-12) + 1e-300


@settings(max_examples=25, deadline=None)
@given(
    _model_and_coeffs(),
    st.floats(min_value=1e-3, max_value=10.0),
    st.floats(min_value=1.0, max_value=100.0),
)
def test_k_monotone_in_t(mc, t, factor):
    model, c = mc
    assert k_spectral(model, c, t) <= k_spectral(model, c, t * factor) * (1 + 1e-12)


# found by a random run: squared as it is, c underflows into subnormals
TINY_COEFFS = (
    build_spectral_model(np.array([1.0])),
    np.array([2.29323056e-162]),
)


@settings(max_examples=25, deadline=None)
@given(_model_and_coeffs(), st.floats(min_value=0.1, max_value=5.0))
@example(TINY_COEFFS, 1.0)
def test_k_homogeneous(mc, t):
    model, c = mc
    lhs = k_spectral(model, 3.0 * c, t)
    rhs = 3.0 * k_spectral(model, c, t)
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-300)


@pytest.mark.parametrize("c0", [2.29323056e-162, 2.58131625e-246, 1e200])
def test_norms_of_a_tiny_or_huge_vector(c0):
    # squared as they are, these coefficients underflow into subnormals
    # (or overflow), which cost K and the norms their homogeneity
    model = build_spectral_model(np.array([1.0]))
    c = np.array([c0])
    k = k_spectral(model, c, 1.0)
    assert k == pytest.approx(c0 * math.sqrt(0.5), rel=1e-15, abs=0.0)
    assert k_spectral(model, 3.0 * c, 1.0) == pytest.approx(3.0 * k, rel=1e-12, abs=0.0)
    assert frac_norm(model, 0.5, c) == pytest.approx(c0, rel=1e-15, abs=0.0)
    assert k <= frac_norm(model, 0.0, c)
    assert k_spectral(model, np.zeros(1), 1.0) == frac_norm(model, 0.5, np.zeros(1)) == 0.0


def test_pow2_scale_leaves_normal_norms_bit_identical(sine_model):
    # a power of two divides exactly: the rescaled norm is the plain one
    c = np.random.default_rng(0).standard_normal(sine_model.eigenvalues.size) * 1e3
    lam = sine_model.eigenvalues
    plain = math.sqrt(float(np.power(lam, 0.6) @ (c * c)))
    assert frac_norm(sine_model, 0.3, c) == plain


@settings(max_examples=25, deadline=None)
@given(_model_and_coeffs())
def test_quadratic_route_matches_spectral_route(mc):
    model, c = mc
    pair = pair_from_model(model)
    for t in (0.01, 1.0, 100.0):
        ks = k_spectral(model, c, t)
        kq = k_quadratic(pair, c, t)
        assert kq == pytest.approx(ks, rel=1e-9, abs=1e-12)
