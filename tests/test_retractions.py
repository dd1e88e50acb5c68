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
    QuadraticPair,
    QuadratureRule,
    RetractionIdentityViolated,
    RunConfig,
    SolverFailure,
    build_quadratic_pair,
    congruence,
    dense_retraction,
    grid_domain,
    harmonic_retraction,
    lanczos_eigenvalue,
    sobolev_grams,
    stokes_bound,
    stokes_pencil,
    stokes_retraction,
    stokes_spectral_model,
    verify_intersection_lemma,
    zero_boundary_basis,
)
from fracspace import experiments, operators, retractions
from fracspace.cli import main
from fracspace.kfunctional import dense_form
from fracspace.experiments import (
    _harmonic_setup,
    _stokes_setup,
    run_halft1,
    run_intersection,
    run_stokes_retraction,
    stokes_equivalence_study,
)
from fracspace.retractions import (
    CLUSTER_RTOL,
    IDENTITY_BLOCK,
    IDENTITY_TOL,
    N_MODE_PROBES,
    N_RANDOM_PROBES,
    check_stokes_identity,
    probe_coordinates,
    _low_rank_gram_norm,
    _top_singular_value,
)
from oracles import harmonic_lift, nodal_harmonic_retraction


def _dense_map(ret):
    """T = Z B as one dense m x m array, for the dense oracles."""
    return ret.subspace_basis @ ret.inner


def _stokes_retraction(p):
    """The Stokes retraction on the pencil's own null basis."""
    return stokes_retraction(p, p.null_basis())


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
            p.class_stiffness, 144, mass=p.class_curl_gram, inverse=p.solve
        )
        return [stokes_bound(p), low]

    assert repr(ends()) == repr(ends())


def test_build_retraction_rejects_broken_identity():
    # the public dataclass checks the identity itself, so no broken
    # retraction can reach the lemma check
    with pytest.raises(RetractionIdentityViolated):
        dense_retraction(np.eye(3)[:, :1], np.zeros((1, 3)), 1.0, 1.0)


def test_retraction_inner_is_stored_read_only_without_a_copy():
    B = np.eye(3)[:2]
    ret = dense_retraction(np.eye(3)[:, :2], B, 1.0, 1.0)
    (block,) = ret.blocks
    assert block.inner is B
    assert not block.inner.flags.writeable
    assert np.array_equal(ret.inner, B)


@pytest.mark.parametrize(
    "make, n",
    [
        (lambda d: harmonic_retraction(d, sobolev_grams(d)), 6),
        (lambda d: _stokes_retraction(stokes_pencil(d)), 4),
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
        dense_retraction(Z, B, 1.0, 1.0)


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


def _reflection_rotation(m):
    """An orthogonal m x m rotation into the even and odd combinations
    (e_i +- e_(m-1-i)) / sqrt 2 (and the centre node) of an axis."""
    U = np.zeros((m, m))
    for i in range(m // 2):
        U[[i, m - 1 - i], i] = math.sqrt(0.5)
        U[[i, m - 1 - i], m - 1 - i] = math.sqrt(0.5), -math.sqrt(0.5)
    if m % 2:
        U[m // 2, m // 2] = 1.0
    return U


def _rotated_dense_bounds(ret, grams, d):
    """|T|_g1 and |T|_g2 by the dense SVD of the whole map T after the
    orthogonal change of basis Q = U (x) U (U in 1D) into
    reflection-parity combinations, which leaves |T|_G = |Q^T T Q|_(Q^T G Q)
    as it is."""
    U = _reflection_rotation(d.n + 2)
    Q = U if d.dimension == 1 else np.kron(U, U)
    T = Q.T @ _dense_map(ret) @ Q
    return tuple(_dense_gram_norm(T, Q.T @ G @ Q) for G in (grams.g1, grams.g2))


@pytest.mark.parametrize(
    "d",
    [pytest.param(grid_domain(2, n), id=str(n)) for n in [*range(3, 17), 24]]
    + [pytest.param(grid_domain(1, 32), id="1d-32")],
)
def test_harmonic_bounds_match_dense_svd(d):
    # the dense SVD in rotated coordinates: in nodal ones it misses the
    # reference value of the 1D n = 32 d_bound (see
    # test_harmonic_bounds_match_an_mpmath_reference) by 3.6e-12 relative
    grams = sobolev_grams(d)
    ret = harmonic_retraction(d, grams)
    h_oracle, d_oracle = _rotated_dense_bounds(ret, grams, d)
    assert ret.h_bound == pytest.approx(h_oracle, rel=1e-12, abs=0.0)
    assert ret.d_bound == pytest.approx(d_oracle, rel=1e-12, abs=0.0)


# h_bound and d_bound of the 1D harmonic lift at n = 32, from the same
# forms in 60-digit mpmath arithmetic (Cholesky of g1 and g2, the Gram
# matrix L^T T L^-T and its top singular value), to 30 digits
H_BOUND_1D_32 = 1.04013833428587700260165550108
D_BOUND_1D_32 = 1.00376983006630162285213005677


def test_harmonic_bounds_match_an_mpmath_reference():
    d = grid_domain(1, 32)
    grams = sobolev_grams(d)
    ret = harmonic_retraction(d, grams)
    for h, dd in [(ret.h_bound, ret.d_bound), _rotated_dense_bounds(ret, grams, d)]:
        assert h == pytest.approx(H_BOUND_1D_32, rel=1e-12, abs=0.0)
        assert dd == pytest.approx(D_BOUND_1D_32, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("dimension", [1, 2])
@pytest.mark.parametrize("n", range(3, 17))
def test_class_harmonic_retraction_matches_the_nodal_route(dimension, n):
    # B and both bounds, per parity class and lifted to the nodes, against
    # the nodal Cholesky route of the oracle
    d = grid_domain(dimension, n)
    grams = sobolev_grams(d)
    ret = harmonic_retraction(d, grams)
    B, h_bound, d_bound = nodal_harmonic_retraction(d, grams)
    assert np.max(np.abs(ret.inner - B)) <= 1e-12 * np.max(np.abs(B))
    assert ret.h_bound == pytest.approx(h_bound, rel=1e-12, abs=0.0)
    assert ret.d_bound == pytest.approx(d_bound, rel=1e-12, abs=0.0)


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


def _class_sizes(n):
    """The sizes of the four parity classes of the (n + 2)^2 nodes."""
    even, odd = (n + 3) // 2, (n + 2) // 2
    return [even * even, even * odd, odd * even, odd * odd]


def test_harmonic_setup_makes_two_choleskys(monkeypatch):
    # the SPD checks of g1 and g2 (sobolev_grams; g0 is diagonal and is
    # not factored), each one Cholesky factorization of the block-diagonal
    # rotated form, made per parity class; the pair wraps the read-only g1
    # and g2 as they are, and the bounds factor no Gram again
    calls = _counting_cholesky(monkeypatch)
    pair, _, _ = _harmonic_setup(grid_domain(2, 6))
    assert calls == [(k, k) for k in _class_sizes(6) for _ in range(2)], calls
    assert sum(k for k, _ in calls) == 2 * 64
    grams = sobolev_grams(grid_domain(2, 6))
    assert np.array_equal(pair.m1, grams.g1) and np.array_equal(pair.m2, grams.g2)
    assert not (pair.m1.flags.writeable or pair.m2.flags.writeable)


def test_intersection_makes_one_pressure_cholesky_per_stokes_grid(monkeypatch):
    # the two SPD checks of the harmonic Grams (n = 4, per parity class)
    # and no Cholesky on the Stokes grid (n = 12): its divergence-rank
    # check factors the pressure matrix sparsely, its pair (I, A^2) is SPD
    # by construction and is not factored, and the retraction reuses the
    # grid's pencil
    calls = _counting_cholesky(monkeypatch)
    rep = run_intersection(RunConfig(experiment="intersection", sizes=(4, 12)))
    assert rep.passed
    assert calls == [(k, k) for k in _class_sizes(4) for _ in range(2)], calls


def test_sobolev_grams_make_no_nodal_cholesky(monkeypatch):
    # n = 8: m = 100 nodes, class blocks of 25; no m x m factorization
    calls = _counting_cholesky(monkeypatch)
    sobolev_grams(grid_domain(2, 8))
    assert calls and all(shape != (100, 100) for shape in calls), calls
    assert calls == [(25, 25)] * 8, calls


def test_stokes_setup_pair_is_the_read_only_identity_and_square():
    pair, _, _ = _stokes_setup(grid_domain(2, 4))
    A = stokes_pencil(grid_domain(2, 4)).vector_laplacian.toarray()
    assert np.array_equal(pair.m1, np.eye(A.shape[0]))
    assert np.array_equal(pair.m2, A @ A)
    assert not (pair.m1.flags.writeable or pair.m2.flags.writeable)


@pytest.mark.parametrize(
    "runner, experiment, sizes, expected",
    [
        (run_intersection, "intersection", (4, 6), [6]),
        (stokes_equivalence_study, "stokes-equivalence", (4, 6), [4, 6]),
    ],
)
def test_one_stokes_assembly_per_grid(monkeypatch, runner, experiment, sizes, expected):
    # the dense Z, Ac and A of a grid come from its one pencil, and
    # stokes_retraction and stokes_spectral_model read that pencil instead
    # of assembling their own
    calls = []
    real = operators.stokes_pencil

    def counting(domain):
        calls.append(domain.n)
        return real(domain)

    monkeypatch.setattr(operators, "stokes_pencil", counting)
    monkeypatch.setattr(experiments, "stokes_pencil", counting)
    rep = runner(RunConfig(experiment=experiment, sizes=sizes))
    assert rep.passed
    assert calls == expected, calls


@pytest.mark.parametrize("n", [3, 4, 5, 8, 16])
def test_stokes_bound_matches_dense_svd(n):
    # |T|_2 of the full m x m map, apart from the r x r Gram route
    ret = _stokes_retraction(stokes_pencil(grid_domain(2, n)))
    oracle = np.linalg.norm(_dense_map(ret), 2)
    assert ret.h_bound == pytest.approx(oracle, rel=1e-12, abs=0.0)
    assert ret.d_bound == ret.h_bound


@pytest.mark.parametrize("n", [4, 12])
def test_stokes_identity_check_covers_every_column(monkeypatch, n):
    # the columns of each class go through in blocks: a block of 3 leaves
    # a part at every class of n = 4 (4 columns) and n = 12 (36). The
    # block sum equals the residual of all columns of each class at once,
    # and the class factor of a perturbed stiffness fails the check
    p = stokes_pencil(grid_domain(2, n))
    assert check_stokes_identity(p) <= IDENTITY_TOL
    monkeypatch.setattr(retractions, "IDENTITY_BLOCK", 3)
    blocks = check_stokes_identity(p)
    monkeypatch.setattr(retractions, "IDENTITY_BLOCK", n * n)
    whole = check_stokes_identity(p)
    assert blocks == pytest.approx(whole, rel=1e-12, abs=0.0)
    # the lifted W_c are the stream modes of class c, in ascending order:
    # the classes together hold every column of W
    R = p.class_rotation
    W = p.stream_modes(np.eye(n * n))
    for c, (s, K_c, _, _) in enumerate(p.class_blocks):
        W_c = R[:, s] @ p.class_modes(c, np.arange(K_c.shape[0]))
        assert np.max(np.abs(W_c - W[:, p.classes == c])) <= 1e-14
    # class blocks of K beside the factors of the blocks of (1 + 1e-6) K
    real = operators._spd_lu
    monkeypatch.setattr(
        operators, "_spd_lu", lambda M, failure: real(M * (1.0 + 1e-6), failure)
    )
    broken = dataclasses.replace(p)  # a new pencil: nothing formed yet
    with pytest.raises(RetractionIdentityViolated, match="Frobenius"):
        check_stokes_identity(broken)
    # the perturbation leaves a residual of about 1e-6 sqrt(n^2), far
    # above rounding: the class loop matches the residual C (K^-1 K W - W)
    # of all columns of W at once, with the nodal K
    monkeypatch.setattr(retractions, "IDENTITY_TOL", math.inf)
    E = R @ broken.solve(R.T @ (p.stiffness @ W)) - W
    oracle = float(np.linalg.norm(p.curl @ E))
    assert oracle == pytest.approx(1e-6 * n, rel=1e-5)
    assert check_stokes_identity(broken) == pytest.approx(oracle, rel=1e-8, abs=0.0)


@pytest.mark.parametrize("n", range(3, 17))
def test_stokes_class_factor_solves_like_the_nodal_lu(n):
    # odd n: the centre corner of each axis is an even coordinate of its own
    from scipy.sparse.linalg import splu

    # the class solve of R^T b, rotated back by R, against the nodal K^-1 b
    p = stokes_pencil(grid_domain(2, n))
    nodal = splu(p.stiffness.tocsc())
    R = p.class_rotation
    rng = np.random.default_rng(n)
    for b in (rng.standard_normal(n * n), rng.standard_normal((n * n, 7))):
        y = p.solve(R.T @ b)
        x, oracle = R @ y, nodal.solve(b)
        assert y.shape == x.shape == b.shape
        assert np.max(np.abs(x - oracle)) <= 1e-12 * np.max(np.abs(oracle))
    # the class blocks the factors keep, lifted back, are K
    K = p.stiffness.toarray()
    whole = sum(
        R[:, s] @ (R[:, s] @ K_c.toarray()).T
        for s, K_c, _, _ in p.class_blocks
    )
    assert np.max(np.abs(whole - K)) <= 1e-12 * np.max(np.abs(K))


def test_stokes_solves_make_no_dense_rotation(monkeypatch):
    # the stream function stays in class coordinates: the bound, the
    # identity check and lambda_min never rotate by U (x) U (`_lift`, the
    # one dense Kronecker apply of the package, under both of its names)
    def must_not_run(*args, **kwargs):
        raise AssertionError("a Stokes solve rotated by U (x) U")

    for module in (operators, retractions):
        monkeypatch.setattr(module, "_lift", must_not_run)
    p = stokes_pencil(grid_domain(2, 8))
    assert check_stokes_identity(p) <= IDENTITY_TOL
    assert stokes_bound(p) > 1.0
    low = lanczos_eigenvalue(
        p.class_stiffness, 64, mass=p.class_curl_gram, inverse=p.solve
    )
    lam_min = np.linalg.eigvalsh(p.constrained_op(p.null_basis()))[0]
    assert low == pytest.approx(lam_min, rel=1e-10)


def _svd_basis_system(p):
    """The null basis Z of D from a dense SVD, the route the closed form
    replaced, and the constrained operator Z^T A Z on it."""
    Z = linalg.null_space(p.divergence.toarray())
    return Z, Z.T @ p.vector_laplacian.toarray() @ Z


@pytest.mark.parametrize("n", [4, 8, 12])
def test_stokes_results_do_not_depend_on_the_null_basis(n):
    # T and the spectrum of Ac are invariant under a change of basis of ker D:
    # the Lanczos bound of the stream-function pencil against the dense |B|_2
    # of the SVD-basis system, B = Ac^-1 Z^T A
    p = stokes_pencil(grid_domain(2, n))
    Z, Ac = _svd_basis_system(p)
    B = linalg.cho_solve(linalg.cho_factor(Ac), Z.T @ p.vector_laplacian.toarray())
    bound = _stokes_retraction(p).h_bound
    assert np.linalg.norm(B, 2) == pytest.approx(bound, rel=1e-11, abs=0)
    lam_min = np.linalg.eigvalsh(p.constrained_op(p.null_basis()))[0]
    svd_lam_min = np.linalg.eigvalsh(Ac)[0]
    assert svd_lam_min == pytest.approx(lam_min, rel=1e-11, abs=0)


def test_stokes_retraction_identity():
    for n in (4, 5, 8):
        p = stokes_pencil(grid_domain(2, n))
        ret = _stokes_retraction(p)
        Z = p.null_basis()
        T = _dense_map(ret)
        assert np.max(np.abs(T @ Z - Z)) <= 1e-10
        # the D-norm bound |A T A^-1|_2 measured densely, apart from the code
        A = p.vector_laplacian.toarray()
        d_norm = np.linalg.norm(A @ T @ np.linalg.inv(A), 2)
        assert ret.d_bound == pytest.approx(d_norm, rel=1e-10)


def test_stokes_retraction_b_matches_the_cholesky_route():
    # B = (T^T Z)^T through the pencil's factor of K against the route it
    # replaced, B = Ac^-1 (A Z)^T by a dense Cholesky of Ac = Z^T A Z
    for n in range(4, 17):
        p = stokes_pencil(grid_domain(2, n))
        Z = p.null_basis()
        AZ = p.vector_laplacian @ Z
        chol = linalg.cho_solve(linalg.cho_factor(Z.T @ AZ), AZ.T)
        B = stokes_retraction(p, Z).inner
        assert np.max(np.abs(B - chol)) <= 1e-12 * np.max(np.abs(chol)), n


def test_stokes_retraction_refuses_a_negated_laplacian():
    # A -> -A after assembly keeps K and its factor, so T turns into -T and
    # B Z = -I: no factorization sees it, the identity check does
    p = stokes_pencil(grid_domain(2, 4))
    broken = dataclasses.replace(p, vector_laplacian=-p.vector_laplacian)
    with pytest.raises(RetractionIdentityViolated, match="Frobenius"):
        _stokes_retraction(broken)


@pytest.mark.parametrize("dimension, n", [(1, 6), (2, 6), (2, 12)])
def test_harmonic_retraction_applies_the_oracle_lift(dimension, n):
    # T u = Z (B u) of the retraction against the oracle's own dense solve
    d = grid_domain(dimension, n)
    grams = sobolev_grams(d)
    ret = harmonic_retraction(d, grams)
    U = np.random.default_rng(8).standard_normal((grams.g0.shape[0], 10))
    lift = np.column_stack([harmonic_lift(d, grams, u) for u in U.T])
    TU = ret.subspace_basis @ (ret.inner @ U)
    assert np.max(np.abs(TU - lift)) <= 1e-12 * np.max(np.abs(lift))


def _reduced_probes(pair, Z, seed):
    """Z times the probe coordinates of the reduced pencil
    (Z^T M2 Z, Z^T M1 Z), from an eigensolve of our own."""
    M1r = Z.T @ pair.m1 @ Z
    mu, V = linalg.eigh(Z.T @ pair.m2 @ Z, M1r)
    return Z @ probe_coordinates(dense_form(np.sqrt(mu), V, V.T @ M1r), seed)


def test_probe_coordinates_shape_and_span():
    d = grid_domain(2, 5)
    grams = sobolev_grams(d)
    Z = zero_boundary_basis(d)
    pair = build_quadratic_pair(grams.g1, grams.g2)
    probes = _reduced_probes(pair, Z, seed=5)
    assert probes.shape == (Z.shape[0], N_RANDOM_PROBES + N_MODE_PROBES)
    resid = np.linalg.norm(probes - Z @ (Z.T @ probes), axis=0)
    assert np.all(resid <= 1e-10 * np.linalg.norm(probes, axis=0))
    # the lowest eigenvalue is simple, so the first mode probe is a
    # multiple of the lowest reduced mode
    M1r = Z.T @ pair.m1 @ Z
    v0 = Z @ linalg.eigh(Z.T @ pair.m2 @ Z, M1r, subset_by_index=[0, 0])[1][:, 0]
    first = probes[:, N_RANDOM_PROBES]
    cos = abs(first @ v0) / (np.linalg.norm(first) * np.linalg.norm(v0))
    assert cos == pytest.approx(1.0, rel=0.0, abs=1e-12)
    np.testing.assert_array_equal(probes, _reduced_probes(pair, Z, seed=5))
    lam = np.arange(1.0, N_MODE_PROBES)
    with pytest.raises(InvalidConfig):
        probe_coordinates(dense_form(lam, np.eye(4), np.eye(4)))


def _rotate_in_clusters(lam, V, seed):
    """V Q for a seeded Q: orthogonal inside each cluster of eigenvalues
    that agree to CLUSTER_RTOL, with random column signs; and the sizes
    of the clusters."""
    rng = np.random.default_rng(seed)
    cuts = np.flatnonzero(np.diff(lam) > CLUSTER_RTOL * lam[1:]) + 1
    Q = np.zeros((lam.size, lam.size))
    sizes = []
    for block in np.split(np.arange(lam.size), cuts):
        q = np.linalg.qr(rng.standard_normal((block.size, block.size)))[0]
        Q[np.ix_(block, block)] = q * rng.choice([-1.0, 1.0], size=block.size)
        sizes.append(block.size)
    return V @ Q, Q, sizes


def _assert_same_probes(got, want):
    dev = np.linalg.norm(got - want, axis=0) / np.linalg.norm(want, axis=0)
    assert np.max(dev) <= 1e-10, dev


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_harmonic_probes_do_not_depend_on_the_eigenbasis(seed):
    # the reduced pencil of the zero-boundary subspace, transform != V^T;
    # the x <-> y symmetry of the square pairs its eigenvalues
    d = grid_domain(2, 6)
    grams = sobolev_grams(d)
    Z = zero_boundary_basis(d)
    form = congruence(QuadraticPair(Z.T @ grams.g1 @ Z, Z.T @ grams.g2 @ Z))
    lam, V, transform = form.lam, form.V, form.transform
    VQ, Q, sizes = _rotate_in_clusters(lam, V, seed)
    assert max(sizes[:N_MODE_PROBES]) >= 2 and max(sizes) >= 2
    _assert_same_probes(
        probe_coordinates(dense_form(lam, VQ, Q.T @ transform), 42),
        probe_coordinates(form, 42),
    )


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_stokes_probes_do_not_depend_on_the_eigenbasis(seed):
    # the constrained model of a Stokes grid, transform = V^T: its class
    # blocks against a rotated dense basis
    form = stokes_spectral_model(stokes_pencil(grid_domain(2, 6)))
    lam = form.lam
    VQ, _, sizes = _rotate_in_clusters(lam, form.V, seed)
    assert max(sizes[:N_MODE_PROBES]) >= 2
    _assert_same_probes(
        probe_coordinates(dense_form(lam, VQ, VQ.T), 7), probe_coordinates(form, 7)
    )


def test_probes_need_five_eigenvalue_clusters():
    # six dimensions hold five probes, but two clusters do not
    def form(lam):
        return dense_form(np.array(lam), np.eye(6), np.eye(6))

    with pytest.raises(InvalidConfig, match="clusters"):
        probe_coordinates(form([1.0, 1.0, 1.0, 2.0, 2.0, 2.0]))
    # a relative gap of 1e-9 stays inside one cluster, 1e-7 splits it
    split = probe_coordinates(form([1.0, 1.0 + 1e-7, 2.0, 3.0, 4.0, 5.0]))
    assert np.count_nonzero(split[:, N_RANDOM_PROBES]) == 1
    with pytest.raises(InvalidConfig, match="clusters"):
        probe_coordinates(form([1.0, 1.0 + 1e-9, 2.0, 3.0, 4.0, 4.0]))


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
    window = {"log_t_min": -12.0, "log_t_max": 8.0}
    tables, params = verify_intersection_lemma(
        *_harmonic_setup(grid_domain(2, 5)),
        (0.3, 0.7),
        window,
        grid_label="n5",
        t_points=17,
        seed=3,
    )
    cells = [c for table in tables for c in table]
    assert all(c["pass"] for c in cells)
    kinds = {c["check"] for c in cells}
    assert kinds == {"pointwise", "interp-ratio"}
    n_pointwise = sum(1 for c in cells if c["check"] == "pointwise")
    assert n_pointwise == 25 * 17
    assert params["n_probes"] == 25
    assert (params["log_t_min"], params["log_t_max"]) == (-12.0, 8.0)
    assert params["h_bound"] >= 1.0 - 1e-12


def test_nan_retraction_fails_every_pointwise_cell():
    # a NaN map B leaves K and K0 finite, so Python's max(K/K0, NaN, NaN)
    # would keep the finite first ratio; every pointwise cell must fail
    pair, reduced, ret = _harmonic_setup(grid_domain(2, 5))
    for block in ret.blocks:  # past the identity check of construction
        object.__setattr__(block, "inner", np.full_like(block.inner, np.nan))
    tables, _ = verify_intersection_lemma(pair, reduced, ret, (0.5,), t_points=17)
    pointwise = [c for table in tables for c in table if c["check"] == "pointwise"]
    assert len(pointwise) == 25 * 17
    assert all(math.isnan(c["ratio"]) and c["pass"] is False for c in pointwise)


def test_nan_d_bound_fails_every_cell():
    # C = max(h_bound, d_bound) must not drop a NaN second bound
    pair, reduced, ret = _harmonic_setup(grid_domain(2, 5))
    object.__setattr__(ret, "d_bound", math.nan)
    tables, params = verify_intersection_lemma(pair, reduced, ret, (0.5,), t_points=17)
    cells = [c for table in tables for c in table]
    assert math.isnan(params["c_measured"])
    assert cells and not any(c["pass"] for c in cells)


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
    pair, reduced, T = setup(grid_domain(2, n))
    tables, params = verify_intersection_lemma(pair, reduced, T, (0.5,), t_points=17)
    all_cells = [c for table in tables for c in table]
    cells = [c for c in all_cells if c["check"] == "pointwise"]
    # the same probes, rebuilt from a reduced-pencil eigensolve of our own
    probes = _reduced_probes(pair, T.subspace_basis, seed=42).T
    assert len(probes) == 25
    window = params["log_t_min"], params["log_t_max"]
    oracle = _pointwise_by_cholesky(pair, T, probes, *window, 17)
    assert len(cells) == len(oracle) == 17 * 25
    for cell, (t, ratio) in zip(cells, oracle):
        assert cell["t"] == t
        assert cell["ratio"] == pytest.approx(ratio, rel=1e-10, abs=0.0)
    assert all(c["pass"] for c in all_cells)


def test_pointwise_cross_check_catches_wrong_eigenvalues(monkeypatch):
    # the ambient harmonic pencil, solved per parity class
    real_pencil = experiments.sobolev_pencil

    def perturbed(grams):
        form = real_pencil(grams)
        return dataclasses.replace(form, lam=form.lam * (1.0 + 1e-6))

    monkeypatch.setattr(experiments, "sobolev_pencil", perturbed)
    setup = _harmonic_setup(grid_domain(2, 6))
    with pytest.raises(SolverFailure, match="K\\^2 from the pencil eigenpairs"):
        verify_intersection_lemma(*setup, (0.5,), t_points=17)


def test_pointwise_cross_check_catches_a_wrong_closed_form(monkeypatch):
    # one closed-form mu of the reduced harmonic pencil scaled by 1 + 1e-6:
    # K0^2 from the spectral form leaves the Cholesky minimizers of the
    # gathered forms
    real_pencil = experiments.zero_boundary_pencil

    def perturbed(domain):
        form = real_pencil(domain)
        lam = form.lam.copy()
        lam[0] *= math.sqrt(1.0 + 1e-6)
        return dataclasses.replace(form, lam=lam)

    monkeypatch.setattr(experiments, "zero_boundary_pencil", perturbed)
    setup = _harmonic_setup(grid_domain(2, 6))
    with pytest.raises(SolverFailure, match="K0\\^2 from the pencil eigenpairs"):
        verify_intersection_lemma(*setup, (0.5,), t_points=17)


# the shapes of the dense eigensolves, one per parity class (even, even),
# (even, odd), (odd, even), (odd, odd): intersection (6, 4) has (g1, g2)
# on the 8^2 nodes of the harmonic grid (4 even and 4 odd per axis) and
# Z^T A^2 Z on the 4^2 stream modes of the Stokes grid (2 and 2);
# halft1 (5, 6) has (g1, g2) on 7^2 nodes (4 even with the centre node,
# 3 odd) and on 8^2 nodes
PENCIL_EIGENSOLVES = {
    "intersection": [(16, 16)] * 4 + [(4, 4)] * 4,
    "halft1": [(16, 16), (12, 12), (12, 12), (9, 9)] + [(16, 16)] * 4,
}


@pytest.mark.parametrize(
    "runner, experiment, sizes",
    [(run_intersection, "intersection", (6, 4)), (run_halft1, "halft1", (5, 6))],
)
def test_one_eigensolve_per_pencil(monkeypatch, runner, experiment, sizes):
    # two grids, each with an ambient and a reduced pencil: only the
    # ambient harmonic pencil (g1, g2) and the reduced Stokes pencil need a
    # dense eigensolve, one per parity block; the reduced harmonic pencil
    # and the ambient Stokes pair (I, A^2) are in closed form, and probes
    # and window come from those forms, not from solves of their own
    calls = []
    real_eigh = linalg.eigh

    def counting(*args, **kwargs):
        calls.append(args[0].shape)
        return real_eigh(*args, **kwargs)

    monkeypatch.setattr(linalg, "eigh", counting)
    rep = runner(RunConfig(experiment=experiment, sizes=sizes))
    assert rep.passed
    assert calls == PENCIL_EIGENSOLVES[experiment], calls


def _counting_dense_factorizations(monkeypatch):
    """Record the shape of every scipy.linalg.cho_factor and cholesky call."""
    calls = []

    def counting(real):
        def wrapped(a, *args, **kwargs):
            calls.append(np.shape(a))
            return real(a, *args, **kwargs)

        return wrapped

    monkeypatch.setattr(linalg, "cho_factor", counting(linalg.cho_factor))
    monkeypatch.setattr(linalg, "cholesky", counting(linalg.cholesky))
    return calls


def test_one_stokes_factorization_per_grid(monkeypatch):
    # no dense factorization: the rank check factors the pressure matrix
    # sparsely, with the stiffness factor as the grid's other factorization
    # (test_one_sparse_lu_of_the_stiffness_per_grid), and the constrained
    # operator Ac is never formed
    calls = _counting_dense_factorizations(monkeypatch)
    rep = run_stokes_retraction(
        RunConfig(experiment="stokes-retraction", sizes=(4, 6))
    )
    assert rep.passed
    assert calls == [], calls


def test_stokes_equivalence_makes_only_the_pressure_cholesky(monkeypatch):
    # the constrained model diagonalizes Ac = Z^T A Z without factoring it,
    # and each grid's rank check factors the pressure matrix sparsely, so
    # no dense factorization is made
    calls = _counting_dense_factorizations(monkeypatch)
    rep = stokes_equivalence_study(
        RunConfig(experiment="stokes-equivalence", sizes=(4, 6))
    )
    assert rep.passed
    assert calls == [], calls


def test_one_sparse_lu_of_the_stiffness_per_grid(monkeypatch):
    # per grid, the pinned (n+1)^2 - 1 pressure matrix of the rank check,
    # then the n^2 stiffness K, one SuperLU per parity class: the bound,
    # lambda_min, both probe cells and the identity check all solve with
    # the pencil's one class-blocked factor of K;
    # every SuperLU factorization, also one made inside eigsh, goes
    # through gstrf
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
    # n = 4 and 6: the pressure, then the four parity classes of K
    assert calls == [24, *[4] * 4, 48, *[9] * 4], calls
    # stokes-equivalence never solves with K, so it factors the pressure
    # matrices alone and forms no class operator
    calls.clear()
    pencils = []
    real_pencil = experiments.stokes_pencil

    def recording(domain):
        pencils.append(real_pencil(domain))
        return pencils[-1]

    monkeypatch.setattr(experiments, "stokes_pencil", recording)
    rep = stokes_equivalence_study(
        RunConfig(experiment="stokes-equivalence", sizes=(4, 6))
    )
    assert rep.passed
    assert calls == [24, 48], calls
    assert len(pencils) == 2
    for p in pencils:
        formed = [name for name in vars(p) if name.startswith("class_")]
        assert formed == [], formed


def test_stokes_retraction_runs_without_the_dense_system(monkeypatch):
    def must_not_run(*args, **kwargs):
        raise AssertionError("stokes-retraction formed a dense Z or Ac")

    monkeypatch.setattr(operators.StokesPencil, "null_basis", must_not_run)
    monkeypatch.setattr(operators.StokesPencil, "constrained_op", must_not_run)
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
    A = stokes_pencil(grid_domain(2, n)).vector_laplacian.toarray()
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
