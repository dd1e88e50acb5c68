import dataclasses
import json
import math
import os
from sys import setprofile

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
    grid_domain,
    harmonic_lift,
    harmonic_retraction,
    lanczos_eigenvalue,
    sobolev_grams,
    stokes_bound,
    stokes_pencil,
    stokes_retraction,
    subspace_probes,
    verify_intersection_lemma,
    zero_boundary_basis,
)
from fracspace import experiments, operators, retractions
from fracspace.cli import main
from fracspace.experiments import (
    _harmonic_setup,
    _stokes_setup,
    run_halft1,
    run_intersection,
    run_stokes_retraction,
)
from fracspace.retractions import (
    IDENTITY_BLOCK,
    N_MODE_PROBES,
    N_RANDOM_PROBES,
    Retraction,
    check_stokes_identity,
    _low_rank_gram_norm,
    _top_singular_value,
)


def _dense_map(ret):
    """T = Z B as one dense m x m array, for the dense oracles."""
    return ret.subspace_basis @ ret.inner


def _dense_gram_norm(T, gram):
    """|L^T T L^-T|_2 for gram = L L^T, from a full dense SVD."""
    L = linalg.cholesky(gram, lower=True)
    N = linalg.solve_triangular(L, (L.T @ T).T, lower=True).T
    return np.linalg.norm(N, 2)


def _indicator_columns(m, rows):
    """The m x k identity columns at rows: R^T u = u[rows]."""
    R = np.zeros((m, len(rows)))
    R[rows, np.arange(len(rows))] = 1.0
    return R


def _gram_norm(Y, R, gram):
    """`_low_rank_gram_norm` of Y R^T from a Cholesky factor of gram."""
    return _low_rank_gram_norm(Y, R, linalg.cholesky(gram, lower=True))


def test_gram_operator_norm_euclidean():
    # rank-2 map e0 -> 3 e0, e2 -> e2 - 0.5 e3 in 4 dimensions
    R = _indicator_columns(4, [0, 2])
    Y = np.array([[3.0, 0.0], [0.0, 0.0], [0.0, 1.0], [0.0, -0.5]])
    assert _gram_norm(Y, R, np.eye(4)) == pytest.approx(3.0, rel=1e-12)
    assert _gram_norm(Y, R, np.eye(4)) == pytest.approx(
        _dense_gram_norm(Y @ R.T, np.eye(4)), rel=1e-12, abs=0.0
    )


def test_gram_operator_norm_weighted_similarity():
    rng = np.random.default_rng(0)
    Y, R = rng.standard_normal((4, 2)), _indicator_columns(4, [1, 3])
    T = Y @ R.T
    g = np.diag([1.0, 2.0, 4.0, 8.0])
    norm = _gram_norm(Y, R, g)
    assert norm == pytest.approx(_dense_gram_norm(T, g), rel=1e-12, abs=0.0)
    # definition: sup |Tu|_g / |u|_g over random probes never exceeds it
    worst = 0.0
    for _ in range(200):
        u = rng.standard_normal(4)
        num = np.sqrt((T @ u) @ g @ (T @ u))
        den = np.sqrt(u @ g @ u)
        worst = max(worst, num / den)
    assert worst <= norm * (1 + 1e-10)
    assert worst >= norm * 0.9  # probes come close in 4 dimensions


def _ill_conditioned_gram(m, rng):
    """A random SPD Gram of condition number 1e10."""
    Q, _ = np.linalg.qr(rng.standard_normal((m, m)))
    gram = (Q * np.logspace(-5, 5, m)) @ Q.T
    return 0.5 * (gram + gram.T)


@pytest.mark.parametrize("m, seed", [(5, 0), (30, 1), (80, 2)])
def test_gram_operator_norm_matches_dense_svd_ill_conditioned(m, seed):
    # random rank-k maps Y R^T, for indicator and for dense R, against an
    # SPD Gram of condition number 1e10
    rng = np.random.default_rng(seed)
    gram = _ill_conditioned_gram(m, rng)
    k = max(1, m // 4)
    Y = rng.standard_normal((m, k))
    rows = np.sort(rng.choice(m, k, replace=False))
    for R in (_indicator_columns(m, rows), rng.standard_normal((m, k))):
        oracle = _dense_gram_norm(Y @ R.T, gram)
        assert _gram_norm(Y, R, gram) == pytest.approx(oracle, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("m, k, seed", [(5, 3, 0), (30, 24, 1), (80, 60, 2)])
def test_oblique_projection_norm_equals_its_complement(m, k, seed):
    # Kato's identity |P|_G = |I - P|_G for a random oblique idempotent
    # P = X (W^T X)^-1 W^T of rank k: I - P = Y R^T with R an orthonormal
    # basis of (range X)^perp and Y = (I - P) R, since (I - P) X = 0
    rng = np.random.default_rng(seed)
    gram = _ill_conditioned_gram(m, rng)
    X, W = rng.standard_normal((m, k)), rng.standard_normal((m, k))
    P = X @ np.linalg.solve(W.T @ X, W.T)
    R = np.linalg.qr(X, mode="complete")[0][:, k:]
    Y = R - P @ R
    oracle = _dense_gram_norm(P, gram)
    assert oracle > 1.0 + 1e-3  # oblique, not orthogonal in the G-norm
    assert _gram_norm(Y, R, gram) == pytest.approx(oracle, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("where", ["Y", "R", "L"])
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_gram_norm_of_a_nan_map_fails_loudly(where):
    args = {"Y": np.ones((6, 2)), "R": _indicator_columns(6, [0, 5]), "L": np.eye(6)}
    args[where][3, 1] = np.nan
    with pytest.raises(SolverFailure):
        _low_rank_gram_norm(**args)


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


def _spd_matrix(m, seed):
    rng = np.random.default_rng(seed)
    Q, _ = np.linalg.qr(rng.standard_normal((m, m)))
    M = (Q * np.logspace(0, 2, m)) @ Q.T
    return 0.5 * (M + M.T)


@pytest.mark.parametrize("m, seed", [(12, 0), (60, 1)])
def test_lanczos_eigenvalue_matches_dense_ends(m, seed):
    # the top eigenvalue, and the lowest of a pencil by shift-invert,
    # against a dense eigvalsh
    K, M = _spd_matrix(m, seed), _spd_matrix(m, seed + 10)
    top = lanczos_eigenvalue(lambda x: K @ x, m)
    assert top == pytest.approx(np.linalg.eigvalsh(K)[-1], rel=1e-12, abs=0)
    K_inv = np.linalg.inv(K)
    low = lanczos_eigenvalue(K, m, mass=M, inverse=lambda x: K_inv @ x)
    assert low == pytest.approx(linalg.eigvalsh(K, M)[0], rel=1e-12, abs=0)


@pytest.mark.parametrize(
    "op",
    [lambda x: x * np.nan, lambda x: -x, lambda x: 0.0 * x],
    ids=["nan", "negative", "zero"],
)
def test_lanczos_eigenvalue_fails_loudly(op):
    with pytest.raises(SolverFailure, match="Lanczos"):
        lanczos_eigenvalue(op, 20)


def test_lanczos_non_convergence_raises_solver_failure(monkeypatch):
    from scipy.sparse import linalg as splinalg

    def stalled(*args, **kwargs):
        raise splinalg.ArpackNoConvergence("no convergence", np.array([]), None)

    monkeypatch.setattr(splinalg, "eigsh", stalled)
    with pytest.raises(SolverFailure, match="no convergence"):
        lanczos_eigenvalue(lambda x: x, 20)


def test_lanczos_repeats_exactly():
    # a fixed start vector: eigsh without v0 draws a new one per call
    p = stokes_pencil(grid_domain(2, 12))

    def ends():
        low = lanczos_eigenvalue(
            p.stiffness, 144, mass=p.curl_gram, inverse=p.stiffness_lu.solve
        )
        return [stokes_bound(p), low]

    assert repr(ends()) == repr(ends())


def test_build_retraction_rejects_broken_identity():
    # the public dataclass checks the identity itself, so no broken
    # retraction can reach the lemma check
    with pytest.raises(RetractionIdentityViolated):
        Retraction(
            subspace_basis=np.eye(3)[:, :1], inner=np.zeros((1, 3)), h_bound=1.0, d_bound=1.0
        )


def test_retraction_inner_is_stored_read_only_without_a_copy():
    B = np.eye(3)[:2]
    ret = Retraction(subspace_basis=np.eye(3)[:, :2], inner=B, h_bound=1.0, d_bound=1.0)
    assert ret.inner is B
    assert not ret.inner.flags.writeable


@pytest.mark.parametrize(
    "make, n",
    [
        (lambda d: harmonic_retraction(d, sobolev_grams(d)), 6),
        (lambda d: stokes_retraction(build_stokes(d)), 4),
    ],
    ids=["harmonic", "stokes"],
)
def test_retractions_store_no_ambient_square_map(make, n):
    ret = make(grid_domain(2, n))
    m, r = ret.subspace_basis.shape
    assert r < m
    assert ret.inner.shape == (r, m)
    assert not hasattr(ret, "map")


def test_identity_check_bounds_the_residual_by_frobenius():
    # residual 0.8e-10 I: its 2-norm passes 1e-10, its Frobenius norm does not
    Z = np.eye(4)
    B = (1.0 + 0.8e-10) * np.eye(4)
    with pytest.raises(RetractionIdentityViolated, match="Frobenius"):
        Retraction(subspace_basis=Z, inner=B, h_bound=1.0, d_bound=1.0)


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
    np.testing.assert_array_equal(ret.subspace_basis, Z)
    assert np.max(np.abs(_dense_map(ret) @ Z - Z)) <= 1e-10
    # identity on a nontrivial subspace forces both norms >= 1
    assert ret.h_bound >= 1.0 - 1e-12
    assert ret.d_bound >= 1.0 - 1e-12


@pytest.mark.parametrize(
    "d",
    [pytest.param(grid_domain(2, n), id=str(n)) for n in [*range(3, 17), 24]]
    + [pytest.param(grid_domain(1, 32), id="1d-32")],
)
def test_harmonic_bounds_match_dense_svd(d):
    grams = sobolev_grams(d)
    ret = harmonic_retraction(d, grams)
    T = _dense_map(ret)
    h_oracle = _dense_gram_norm(T, grams.g1)
    d_oracle = _dense_gram_norm(T, grams.g2)
    assert ret.h_bound == pytest.approx(h_oracle, rel=1e-12, abs=0.0)
    assert ret.d_bound == pytest.approx(d_oracle, rel=1e-12, abs=0.0)


def _counting_cholesky(monkeypatch):
    """Record the shape of every scipy.linalg.cholesky call."""
    calls = []
    real = linalg.cholesky

    def counting(a, *args, **kwargs):
        calls.append(np.shape(a))
        return real(a, *args, **kwargs)

    monkeypatch.setattr(linalg, "cholesky", counting)
    return calls


def test_harmonic_retraction_factors_no_gram_and_forms_no_square_array(monkeypatch):
    # the bounds read the factors that sobolev_grams kept. Every array
    # bound to a name or returned by a Python function during the call,
    # in this package or in numpy and scipy, is checked: none is m x m
    # unless it is one of the Grams or their factors, or a view of them
    d = grid_domain(2, 6)
    grams = sobolev_grams(d)
    m = grams.g0.shape[0]
    inputs = [getattr(grams, f.name) for f in dataclasses.fields(grams)]
    calls = _counting_cholesky(monkeypatch)
    square = []

    def check(where, value):
        if (
            isinstance(value, np.ndarray)
            and value.shape == (m, m)
            and not any(np.may_share_memory(value, g) for g in inputs)
        ):
            square.append(where)

    def profile(frame, event, arg):
        if event not in ("call", "return"):
            return
        if event == "return":
            check(f"{frame.f_code.co_name} returned", arg)
        for name, value in frame.f_locals.items():
            check(f"{frame.f_code.co_name}.{name}", value)

    setprofile(profile)
    try:
        harmonic_retraction(d, grams)
    finally:
        setprofile(None)
    assert calls == []
    assert square == [], square


def test_harmonic_setup_makes_five_choleskys(monkeypatch):
    # the SPD checks of g0, g1, g2 (sobolev_grams) and of m1, m2
    # (build_quadratic_pair); the bounds factor no Gram again
    calls = _counting_cholesky(monkeypatch)
    _harmonic_setup(grid_domain(2, 6))
    assert calls == [(64, 64)] * 5, calls


@pytest.mark.parametrize("n", [3, 4, 5, 8, 16])
def test_stokes_bound_matches_dense_svd(n):
    # |T|_2 of the full m x m map, apart from the r x r Gram route
    ret = stokes_retraction(build_stokes(grid_domain(2, n)))
    oracle = np.linalg.norm(_dense_map(ret), 2)
    assert ret.h_bound == pytest.approx(oracle, rel=1e-12, abs=0.0)
    assert ret.d_bound == ret.h_bound


@pytest.mark.parametrize("n", [4, 12])
def test_stokes_identity_check_covers_every_column(n):
    # r = n^2 columns: 16 fill part of one block, 144 a block and a part.
    # The block sum equals the residual of all columns at once, and the
    # LU of a perturbed stiffness fails the check
    from scipy.sparse.linalg import splu

    p = stokes_pencil(grid_domain(2, n))
    r = n * n
    assert r % IDENTITY_BLOCK != 0
    W = p.stream_modes(np.eye(r))
    whole = np.linalg.norm(p.curl @ (p.stiffness_lu.solve(p.stiffness @ W) - W))
    assert check_stokes_identity(p) == pytest.approx(whole, rel=1e-12, abs=0.0)
    broken = dataclasses.replace(p, stiffness_lu=splu(p.stiffness * (1.0 + 1e-6)))
    with pytest.raises(RetractionIdentityViolated, match="Frobenius"):
        check_stokes_identity(broken)


def _svd_basis_system(sys):
    """sys with the null basis of D from a dense SVD, the route the closed
    form replaced, and the constrained operator and factor rebuilt on it."""
    Z = linalg.null_space(sys.divergence)
    C = Z.T @ sys.vector_laplacian @ Z
    return dataclasses.replace(
        sys, nullbasis=Z, constrained_op=C, constrained_factor=linalg.cho_factor(C)
    )


@pytest.mark.parametrize("n", [4, 8, 12])
def test_stokes_results_do_not_depend_on_the_null_basis(n):
    # T and the spectrum of Ac are invariant under a change of basis of ker D:
    # the Lanczos bound of the stream-function pencil against the dense |B|_2
    # of the SVD-basis system, B = Ac^-1 Z^T A
    sys = build_stokes(grid_domain(2, n))
    svd_sys = _svd_basis_system(sys)
    Z = svd_sys.nullbasis
    B = linalg.cho_solve(svd_sys.constrained_factor, Z.T @ sys.vector_laplacian)
    bound = stokes_retraction(sys).h_bound
    assert np.linalg.norm(B, 2) == pytest.approx(bound, rel=1e-11, abs=0)
    lam_min = np.linalg.eigvalsh(sys.constrained_op)[0]
    svd_lam_min = np.linalg.eigvalsh(svd_sys.constrained_op)[0]
    assert svd_lam_min == pytest.approx(lam_min, rel=1e-11, abs=0)


def test_stokes_retraction_identity():
    for n in (4, 5, 8):
        sys = build_stokes(grid_domain(2, n))
        ret = stokes_retraction(sys)
        Z = sys.nullbasis
        T = _dense_map(ret)
        assert np.max(np.abs(T @ Z - Z)) <= 1e-10
        # the D-norm bound |A T A^-1|_2 measured densely, apart from the code
        A = sys.vector_laplacian
        d_norm = np.linalg.norm(A @ T @ np.linalg.inv(A), 2)
        assert ret.d_bound == pytest.approx(d_norm, rel=1e-10)


def _reduced_eigenvectors(pair, Z):
    """Eigenvectors of the reduced pencil (Z^T M2 Z, Z^T M1 Z)."""
    return linalg.eigh(Z.T @ pair.m2 @ Z, Z.T @ pair.m1 @ Z)[1]


def test_subspace_probes_shape_and_span():
    d = grid_domain(2, 5)
    grams = sobolev_grams(d)
    Z = zero_boundary_basis(d)
    V = _reduced_eigenvectors(build_quadratic_pair(grams.g1, grams.g2), Z)
    probes = subspace_probes(Z, V, seed=5)
    assert len(probes) == N_RANDOM_PROBES + N_MODE_PROBES
    for v in probes:
        resid = np.linalg.norm(v - Z @ (Z.T @ v))
        assert resid <= 1e-10 * np.linalg.norm(v)
    # the last N_MODE_PROBES probes are the lowest reduced modes
    np.testing.assert_array_equal(probes[N_RANDOM_PROBES], Z @ V[:, 0])
    again = subspace_probes(Z, V, seed=5)
    for a, b in zip(probes, again):
        np.testing.assert_array_equal(a, b)
    with pytest.raises(InvalidConfig):
        subspace_probes(Z[:, : N_MODE_PROBES - 1], V[: N_MODE_PROBES - 1, : N_MODE_PROBES - 1])


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
    cells, params = verify_intersection_lemma(
        pair, ret, (0.3, 0.7), window, grid_label="n5", t_points=17, seed=3
    )
    assert all(c["pass"] for c in cells)
    kinds = {c["check"] for c in cells}
    assert kinds == {"pointwise", "interp-ratio"}
    n_pointwise = sum(1 for c in cells if c["check"] == "pointwise")
    assert n_pointwise == 25 * 17
    assert params["n_probes"] == 25
    assert (params["log_t_min"], params["log_t_max"]) == (-12.0, 8.0)
    assert params["h_bound"] >= 1.0 - 1e-12


def _pointwise_by_cholesky(pair, T, probes, log_t_min, log_t_max, t_points):
    """Worst pointwise ratio per (t, probe) from per-probe Cholesky solves."""
    M1, M2, Z = pair.m1, pair.m2, T.subspace_basis
    M1r, M2r = Z.T @ M1 @ Z, Z.T @ M2 @ Z
    C = max(T.h_bound, T.d_bound)
    Tm = _dense_map(T)

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
            tf, tg = Tm @ f, Tm @ g
            mid = tf @ M1 @ tf + t * t * (tg @ M2 @ tg)
            worst = max(math.sqrt(k2 / k02), k02 / mid, mid / (2 * C * C * k2))
            out.append((t, worst))
    return out


@pytest.mark.parametrize("setup, n", [(_harmonic_setup, 6), (_stokes_setup, 4)])
def test_pointwise_cells_match_cholesky_minimizers(setup, n):
    pair, T = setup(grid_domain(2, n))
    all_cells, params = verify_intersection_lemma(pair, T, (0.5,), t_points=17)
    cells = [c for c in all_cells if c["check"] == "pointwise"]
    # the same probes, rebuilt from a reduced-pencil eigensolve of our own
    Z = T.subspace_basis
    probes = subspace_probes(Z, _reduced_eigenvectors(pair, Z), seed=42)
    assert len(probes) == 25
    window = params["log_t_min"], params["log_t_max"]
    oracle = _pointwise_by_cholesky(pair, T, probes, *window, 17)
    assert len(cells) == len(oracle) == 17 * 25
    for cell, (t, ratio) in zip(cells, oracle):
        assert cell["t"] == t
        assert cell["ratio"] == pytest.approx(ratio, rel=1e-10, abs=0.0)
    assert all(c["pass"] for c in all_cells)


def test_pointwise_cross_check_catches_wrong_eigenvalues(monkeypatch):
    real_congruence = retractions.congruence

    def perturbed(pair):
        lam, V, transform = real_congruence(pair)
        return lam * (1.0 + 1e-6), V, transform

    monkeypatch.setattr(retractions, "congruence", perturbed)
    pair, T = _harmonic_setup(grid_domain(2, 6))
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


def test_one_stokes_factorization_per_grid(monkeypatch):
    # the only dense factorization is the (n+1)^2 pressure Cholesky of the
    # rank check; the constrained operator Ac is never formed
    calls = []

    def counting(real):
        def wrapped(a, *args, **kwargs):
            calls.append(np.shape(a))
            return real(a, *args, **kwargs)

        return wrapped

    monkeypatch.setattr(linalg, "cho_factor", counting(linalg.cho_factor))
    monkeypatch.setattr(linalg, "cholesky", counting(linalg.cholesky))
    rep = run_stokes_retraction(
        RunConfig(experiment="stokes-retraction", sizes=(4, 6))
    )
    assert rep.passed
    assert calls == [(25, 25), (49, 49)], calls


def test_one_sparse_lu_of_the_stiffness_per_grid(monkeypatch):
    # the bound, lambda_min, both probe cells and the identity check all
    # solve with the pencil's one LU of K; every SuperLU factorization,
    # also one made inside eigsh, goes through gstrf
    from scipy.sparse.linalg._dsolve import _superlu

    calls = []
    real = _superlu.gstrf

    def counting(N, *args, **kwargs):
        calls.append(N)
        return real(N, *args, **kwargs)

    monkeypatch.setattr(_superlu, "gstrf", counting)
    rep = run_stokes_retraction(
        RunConfig(experiment="stokes-retraction", sizes=(4, 6))
    )
    assert rep.passed
    assert calls == [16, 36], calls


def test_stokes_retraction_runs_without_the_dense_system(monkeypatch):
    def must_not_run(*args, **kwargs):
        raise AssertionError("stokes-retraction built the dense Stokes system")

    monkeypatch.setattr(experiments, "build_stokes", must_not_run)
    monkeypatch.setattr(operators, "build_stokes", must_not_run)
    rep = run_stokes_retraction(
        RunConfig(experiment="stokes-retraction", sizes=(4, 6))
    )
    assert rep.passed


@pytest.mark.parametrize(
    "runner, experiment, expected",
    [(run_stokes_retraction, "stokes-retraction", 0), (run_halft1, "halft1", 0)],
)
def test_dense_svd_count(monkeypatch, runner, experiment, expected):
    # no dense SVD runs: the null basis of D is in closed form and the
    # bounds are Gram eigenvalues; a matrix 2-norm runs an SVD inside
    # numpy, so it counts as one
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
