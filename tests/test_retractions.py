import json
import math
import os

import numpy as np
import pytest
from scipy import linalg

from fracspace import (
    DimensionMismatch,
    InvalidConfig,
    QuadratureRule,
    RetractionIdentityViolated,
    RunConfig,
    SolverFailure,
    build_quadratic_pair,
    build_stokes,
    gram_operator_norm,
    grid_domain,
    harmonic_lift,
    harmonic_retraction,
    sobolev_grams,
    stokes_retraction,
    subspace_probes,
    verify_intersection_lemma,
    zero_boundary_basis,
)
from fracspace import retractions
from fracspace.cli import main
from fracspace.experiments import (
    _harmonic_setup,
    _stokes_setup,
    run_halft1,
    run_intersection,
    run_stokes_retraction,
)
from fracspace.retractions import _build_retraction, _top_singular_value


def _dense_gram_norm(T, gram):
    """|L^T T L^-T|_2 for gram = L L^T, from a full dense SVD."""
    L = linalg.cholesky(gram, lower=True)
    N = linalg.solve_triangular(L, (L.T @ T).T, lower=True).T
    return np.linalg.norm(N, 2)


def test_gram_operator_norm_euclidean():
    T = np.diag([3.0, 1.0, 0.5])
    assert gram_operator_norm(T, np.eye(3)) == pytest.approx(3.0, rel=1e-12)


def test_gram_operator_norm_weighted_similarity():
    rng = np.random.default_rng(0)
    T = rng.standard_normal((4, 4))
    g = np.diag([1.0, 2.0, 4.0, 8.0])
    norm = gram_operator_norm(T, g)
    # definition: sup |Tu|_g / |u|_g over random probes never exceeds it
    worst = 0.0
    for _ in range(200):
        u = rng.standard_normal(4)
        num = np.sqrt((T @ u) @ g @ (T @ u))
        den = np.sqrt(u @ g @ u)
        worst = max(worst, num / den)
    assert worst <= norm * (1 + 1e-10)
    assert worst >= norm * 0.9  # probes come close in 4 dimensions


@pytest.mark.parametrize("m, seed", [(5, 0), (30, 1), (80, 2)])
def test_gram_operator_norm_matches_dense_svd_ill_conditioned(m, seed):
    # random square T against an SPD Gram of condition number 1e10
    rng = np.random.default_rng(seed)
    T = rng.standard_normal((m, m))
    Q, _ = np.linalg.qr(rng.standard_normal((m, m)))
    gram = (Q * np.logspace(-5, 5, m)) @ Q.T
    gram = 0.5 * (gram + gram.T)
    oracle = _dense_gram_norm(T, gram)
    assert gram_operator_norm(T, gram) == pytest.approx(oracle, rel=1e-12, abs=0.0)


@pytest.mark.parametrize(
    "X",
    [
        np.array([[1.0, np.nan], [0.0, 1.0]]),
        np.array([[np.inf, 0.0], [0.0, 1.0]]),
        np.zeros((3, 5)),
    ],
    ids=["nan", "inf", "zero"],
)
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_top_singular_value_fails_loudly(X):
    with pytest.raises(SolverFailure):
        _top_singular_value(X)


def test_build_retraction_rejects_broken_identity():
    Z = np.eye(3)[:, :1]
    T = np.zeros((3, 3))
    with pytest.raises(RetractionIdentityViolated):
        _build_retraction(T, Z, 1.0, 1.0)
    # Retraction is a public dataclass, so the lemma check repeats the test
    broken = retractions.Retraction(map=T, subspace_basis=Z, h_bound=1.0, d_bound=1.0)
    pair = build_quadratic_pair(np.eye(3), np.eye(3))
    with pytest.raises(RetractionIdentityViolated):
        verify_intersection_lemma(pair, broken, (0.5,))


def test_identity_check_bounds_the_residual_by_frobenius():
    # residual 0.8e-10 I: its 2-norm passes 1e-10, its Frobenius norm does not
    Z = np.eye(4)
    T = (1.0 + 0.8e-10) * np.eye(4)
    with pytest.raises(RetractionIdentityViolated, match="Frobenius"):
        _build_retraction(T, Z, 1.0, 1.0)


def test_harmonic_lift_fixes_zero_boundary_vectors():
    d = grid_domain(2, 6)
    grams = sobolev_grams(d)
    Z = zero_boundary_basis(d)
    rng = np.random.default_rng(1)
    for _ in range(20):
        u = Z @ rng.standard_normal(Z.shape[1])
        w = harmonic_lift(d, grams, u)
        assert np.max(np.abs(w - u)) <= 1e-10 * max(1.0, np.max(np.abs(u)))


def test_harmonic_lift_zero_boundary_and_energy():
    d = grid_domain(2, 6)
    grams = sobolev_grams(d)
    Z = zero_boundary_basis(d)
    boundary = np.flatnonzero(Z.sum(axis=1) == 0)
    stiff = grams.g1 - grams.g0
    rng = np.random.default_rng(2)
    for _ in range(50):
        u = rng.standard_normal(grams.g0.shape[0])
        w = harmonic_lift(d, grams, u)
        assert np.max(np.abs(w[boundary])) == 0.0
        assert w @ stiff @ w <= u @ stiff @ u * (1 + 1e-12)


def test_harmonic_lift_dimension_check():
    d = grid_domain(2, 6)
    grams = sobolev_grams(d)
    with pytest.raises(DimensionMismatch):
        harmonic_lift(d, grams, np.ones(5))


def test_harmonic_retraction_identity_and_bounds():
    d = grid_domain(2, 6)
    grams = sobolev_grams(d)
    ret = harmonic_retraction(d, grams)
    Z = zero_boundary_basis(d)
    assert np.max(np.abs(ret.map @ Z - Z)) <= 1e-10
    # identity on a nontrivial subspace forces both norms >= 1
    assert ret.h_bound >= 1.0 - 1e-12
    assert ret.d_bound >= 1.0 - 1e-12


@pytest.mark.parametrize("n", range(3, 17))
def test_harmonic_bounds_match_dense_svd(n):
    d = grid_domain(2, n)
    grams = sobolev_grams(d)
    ret = harmonic_retraction(d, grams)
    h_oracle = _dense_gram_norm(ret.map, grams.g1)
    d_oracle = _dense_gram_norm(ret.map, grams.g2)
    assert ret.h_bound == pytest.approx(h_oracle, rel=1e-12, abs=0.0)
    assert ret.d_bound == pytest.approx(d_oracle, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("n", [3, 4, 5, 8, 16])
def test_stokes_bound_matches_dense_svd(n):
    # |T|_2 of the full m x m map, apart from the r x r Gram route
    ret = stokes_retraction(build_stokes(grid_domain(2, n)))
    oracle = np.linalg.norm(ret.map, 2)
    assert ret.h_bound == pytest.approx(oracle, rel=1e-12, abs=0.0)
    assert ret.d_bound == ret.h_bound


def test_stokes_retraction_identity():
    for n in (4, 5, 8):
        sys = build_stokes(grid_domain(2, n))
        ret = stokes_retraction(sys)
        Z = sys.nullbasis
        assert np.max(np.abs(ret.map @ Z - Z)) <= 1e-10
        # the D-norm bound |A T A^-1|_2 measured densely, apart from the code
        A = sys.vector_laplacian
        d_norm = np.linalg.norm(A @ ret.map @ np.linalg.inv(A), 2)
        assert ret.d_bound == pytest.approx(d_norm, rel=1e-10)


def _reduced_eigenvectors(pair, Z):
    """Eigenvectors of the reduced pencil (Z^T M2 Z, Z^T M1 Z)."""
    return linalg.eigh(Z.T @ pair.m2 @ Z, Z.T @ pair.m1 @ Z)[1]


def test_subspace_probes_shape_and_span():
    d = grid_domain(2, 5)
    grams = sobolev_grams(d)
    Z = zero_boundary_basis(d)
    V = _reduced_eigenvectors(build_quadratic_pair(grams.g1, grams.g2), Z)
    probes = subspace_probes(Z, V, n_random=7, n_eig=3, seed=5)
    assert len(probes) == 10
    for v in probes:
        resid = np.linalg.norm(v - Z @ (Z.T @ v))
        assert resid <= 1e-10 * np.linalg.norm(v)
    # the last n_eig probes are the lowest reduced modes
    np.testing.assert_array_equal(probes[7], Z @ V[:, 0])
    again = subspace_probes(Z, V, n_random=7, n_eig=3, seed=5)
    for a, b in zip(probes, again):
        np.testing.assert_array_equal(a, b)
    with pytest.raises(InvalidConfig):
        subspace_probes(Z, V, n_eig=Z.shape[1] + 1)


@pytest.mark.parametrize(
    "experiment, sizes", [("halft1", ["2"]), ("intersection", ["2", "3"])]
)
def test_cli_grid_too_small_for_probes_exits_2(tmp_path, capsys, experiment, sizes):
    assert main([experiment, "--size", *sizes, "--out", str(tmp_path)]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == "InvalidConfig"
    assert os.listdir(tmp_path) == []


def test_verify_intersection_small_grid():
    d = grid_domain(2, 5)
    grams = sobolev_grams(d)
    pair = build_quadratic_pair(grams.g1, grams.g2)
    ret = harmonic_retraction(d, grams)
    window = {"log_t_min": -12.0, "log_t_max": 8.0}
    rep = verify_intersection_lemma(
        pair, ret, (0.3, 0.7), window, grid_label="n5", t_points=17, seed=3
    )
    assert rep.passed
    kinds = {c["check"] for c in rep.cells}
    assert kinds == {"pointwise", "interp-ratio"}
    n_pointwise = sum(1 for c in rep.cells if c["check"] == "pointwise")
    assert n_pointwise == 25 * 17
    assert rep.parameters["n_probes"] == 25
    assert (rep.parameters["log_t_min"], rep.parameters["log_t_max"]) == (-12.0, 8.0)
    assert rep.parameters["h_bound"] >= 1.0 - 1e-12


def _pointwise_by_cholesky(pair, T, probes, log_t_min, log_t_max, t_points):
    """Worst pointwise ratio per (t, probe) from per-probe Cholesky solves."""
    M1, M2, Z = pair.m1, pair.m2, T.subspace_basis
    M1r, M2r = Z.T @ M1 @ Z, Z.T @ M2 @ Z
    C = max(T.h_bound, T.d_bound)

    def split(F1, F2, t2, u):
        g = linalg.solve(F1 + t2 * F2, F1 @ u, assume_a="pos")
        f = u - g
        return f, g, f @ F1 @ f + t2 * (g @ F2 @ g)

    out = []
    for tau in np.linspace(log_t_min, log_t_max, t_points):
        t = math.exp(tau)
        for u in probes:
            f, g, k2 = split(M1, M2, t * t, u)
            _, _, k02 = split(M1r, M2r, t * t, Z.T @ u)
            tf, tg = T.map @ f, T.map @ g
            mid = tf @ M1 @ tf + t * t * (tg @ M2 @ tg)
            worst = max(math.sqrt(k2 / k02), k02 / mid, mid / (2 * C * C * k2))
            out.append((t, worst))
    return out


@pytest.mark.parametrize("setup, n", [(_harmonic_setup, 6), (_stokes_setup, 4)])
def test_pointwise_cells_match_cholesky_minimizers(setup, n):
    pair, T = setup(n)
    rep = verify_intersection_lemma(pair, T, (0.5,), t_points=17)
    cells = [c for c in rep.cells if c["check"] == "pointwise"]
    # the same probes, rebuilt from a reduced-pencil eigensolve of our own
    Z = T.subspace_basis
    probes = subspace_probes(Z, _reduced_eigenvectors(pair, Z), seed=42)
    assert len(probes) == 25
    window = rep.parameters["log_t_min"], rep.parameters["log_t_max"]
    oracle = _pointwise_by_cholesky(pair, T, probes, *window, 17)
    assert len(cells) == len(oracle) == 17 * 25
    for cell, (t, ratio) in zip(cells, oracle):
        assert cell["t"] == t
        assert cell["ratio"] == pytest.approx(ratio, rel=1e-10, abs=0.0)
    assert rep.passed


def test_pointwise_cross_check_catches_wrong_eigenvalues(monkeypatch):
    real_congruence = retractions.congruence

    def perturbed(pair):
        lam, V, transform = real_congruence(pair)
        return lam * (1.0 + 1e-6), V, transform

    monkeypatch.setattr(retractions, "congruence", perturbed)
    pair, T = _harmonic_setup(6)
    with pytest.raises(SolverFailure, match="Cholesky"):
        verify_intersection_lemma(pair, T, (0.5,), t_points=17)


@pytest.mark.parametrize(
    "runner, experiment, sizes",
    [(run_intersection, "intersection", (6, 4)), (run_halft1, "halft1", (4, 6))],
)
def test_one_eigensolve_per_pencil(monkeypatch, runner, experiment, sizes):
    # two grids, each with an ambient and a reduced pencil: probes and
    # window come from those two solves, not from solves of their own
    calls = []
    real_eigh = linalg.eigh

    def counting(*args, **kwargs):
        calls.append(args[0].shape)
        return real_eigh(*args, **kwargs)

    monkeypatch.setattr(linalg, "eigh", counting)
    rep = runner(RunConfig(experiment=experiment, sizes=sizes))
    assert rep.passed
    assert len(calls) == 4, calls


@pytest.mark.parametrize(
    "runner, experiment, expected",
    [(run_stokes_retraction, "stokes-retraction", 2), (run_halft1, "halft1", 0)],
)
def test_dense_svd_count(monkeypatch, runner, experiment, expected):
    # the only dense SVDs left are the null bases of D, one per Stokes grid;
    # a matrix 2-norm runs an SVD inside numpy, so it counts as one
    calls = []
    real_svd, real_norm = np.linalg.svd, np.linalg.norm

    def counting_svd(a, *args, **kwargs):
        calls.append(("svd", np.shape(a)))
        return real_svd(a, *args, **kwargs)

    def counting_norm(x, ord=None, *args, **kwargs):
        if np.ndim(x) == 2 and ord in (2, -2, "nuc"):
            calls.append(("norm", np.shape(x)))
        return real_norm(x, ord, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    monkeypatch.setattr(np.linalg, "norm", counting_norm)
    rep = runner(RunConfig(experiment=experiment, sizes=(4, 6)))
    assert rep.passed
    assert len(calls) == expected, calls


@pytest.mark.parametrize("n", [4, 12])
def test_stokes_window_matches_ambient_operator_spectrum(n):
    # the window comes from sqrt(eig(A^2, I)); eig(A) is the old route
    rep = run_intersection(RunConfig(experiment="intersection", sizes=(4, n)))
    params = rep.parameters["stokes"]
    A = build_stokes(grid_domain(2, n)).vector_laplacian
    oracle = QuadratureRule.for_spectrum(np.linalg.eigvalsh(A))
    assert params["log_t_min"] == pytest.approx(oracle.log_t_min, rel=0.0, abs=1e-12)
    assert params["log_t_max"] == pytest.approx(oracle.log_t_max, rel=0.0, abs=1e-12)


@pytest.mark.parametrize(
    "experiment, sizes, window",
    [("intersection", ["4", "4"], [-60, -50]), ("halft1", ["4", "6"], [-300, -299])],
)
def test_cross_check_survives_tiny_t_windows(
    tmp_path, capsys, experiment, sizes, window
):
    # at the middle t, t^2 M2 lies below the rounding of M1, so the
    # cross-check must solve for f, not cancel it out of u - g
    quad = {"log_t_min": window[0], "log_t_max": window[1]}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"quadrature": quad}))
    argv = [experiment, "--size", *sizes, "--config", str(cfg), "--out", str(tmp_path)]
    assert main(argv) == 0, capsys.readouterr().err
