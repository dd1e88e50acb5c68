"""The failure policy: every failed factorization or eigensolve, and every
pair or operator that is not SPD or positive, raises SolverFailure
instead of returning a number."""
import dataclasses
import math

import numpy as np
import pytest

from fracspace import (
    QuadraticPair,
    SolverFailure,
    build_quadratic_pair,
    build_spectral_model,
    congruence,
    grid_domain,
    harmonic_retraction,
    interp_norm,
    sobolev_grams,
    stokes_pencil,
    stokes_retraction,
    stokes_spectral_model,
    zero_boundary_pencil,
)
from fracspace import operators
from fracspace.kfunctional import k2_by_cholesky

INDEFINITE = np.diag([1.0, -1.0, 4.0])
WITH_NAN = np.diag([1.0, math.nan, 4.0])


def _negated_stokes_laplacian():
    # A -> -A keeps D, C and the null basis, so the dense guards pass and
    # Z^T (-A) Z reaches its eigensolve negative definite
    p = stokes_pencil(grid_domain(2, 4))
    return dataclasses.replace(p, vector_laplacian=-p.vector_laplacian)


def _stokes_retraction_with_nan_laplacian():
    # the pencil's factor of K is untouched, so a NaN in A passes every
    # factorization and reaches the Lanczos eigensolve of stokes_bound
    p = stokes_pencil(grid_domain(2, 4))
    broken = dataclasses.replace(p, vector_laplacian=p.vector_laplacian * math.nan)
    stokes_retraction(broken, p.null_basis())


def _sobolev_grams_with_negative_stiffness(monkeypatch):
    monkeypatch.setattr(operators, "_kron_sum", lambda *axes: -axes[0])
    sobolev_grams(grid_domain(1, 4))


def _stokes_pencil_with_rank_deficient_divergence(monkeypatch):
    # G = 0 leaves rank D = 0, and the pinned pressure matrix is zero, so
    # its sparse factorization is singular
    monkeypatch.setattr(
        operators, "_staggered_difference", lambda n, h: np.zeros((n + 1, n))
    )
    stokes_pencil(grid_domain(2, 4))


def _stokes_pencil_with_negated_pressure(monkeypatch):
    # the pinned (n+1)^2 - 1 = 24 pressure matrix of n = 4 reaches SuperLU
    # negated, so its pivots are negative
    from scipy.sparse import linalg as sparse_linalg

    real = sparse_linalg.splu
    monkeypatch.setattr(
        sparse_linalg,
        "splu",
        lambda a, *args, **kw: real(-a if a.shape == (24, 24) else a, *args, **kw),
    )
    stokes_pencil(grid_domain(2, 4))


def _first_solve(p):
    # the pencil factors K per class on its first solve, not when built
    p.solve(np.ones(p.stiffness.shape[0]))


def _stokes_pencil_with_negated_stiffness(monkeypatch):
    # negated second differences leave D, C and the pressure matrix as
    # they are and make A, and so K = C^T A C, negative definite
    real = operators._second_difference_1d
    monkeypatch.setattr(operators, "_second_difference_1d", lambda n, h: -real(n, h))
    _first_solve(stokes_pencil(grid_domain(2, 4)))


def _stokes_pencil_with_an_asymmetric_laplacian(monkeypatch):
    # one end of each Dirichlet second difference stiffened: A stays SPD,
    # but no longer commutes with the reflections, so K = C^T A C couples
    # the parity classes of the stream-function grid
    real = operators._second_difference_1d

    def asymmetric(n, h):
        T = real(n, h)
        T[0, 0] *= 2.0
        return T

    monkeypatch.setattr(operators, "_second_difference_1d", asymmetric)
    _first_solve(stokes_pencil(grid_domain(2, 4)))


def _congruence_with_an_off_class_entry():
    # classes (0, 0, 1): the entry coupling index 0 to index 2 is not zero
    m2 = np.diag([1.0, 2.0, 4.0])
    m2[0, 2] = m2[2, 0] = 1e-9
    congruence(QuadraticPair(np.eye(3), m2), np.array([0, 0, 1]))


def _zero_boundary_pencil_with_modes(mp, p_of):
    # the eigenvalues p of tridiag(-1, 2, -1) enter d1 and mu
    real = operators._dirichlet_modes
    mp.setattr(
        operators, "_dirichlet_modes", lambda n, h: (real(n, h)[0], p_of(real(n, h)[1]))
    )
    zero_boundary_pencil(grid_domain(2, 4))


def _harmonic_retraction_with_stiffness(g1_of):
    # the retraction solves with the class blocks of the rotated forms
    grams = sobolev_grams(grid_domain(1, 4))
    classes = tuple(dataclasses.replace(c, g1=g1_of(c)) for c in grams.classes)
    harmonic_retraction(grid_domain(1, 4), dataclasses.replace(grams, classes=classes))


# site -> (message fragment of its raise, call that reaches it)
SITES = {
    "k2_by_cholesky-indefinite": (
        "minimizer system failed to factorize",
        lambda mp: k2_by_cholesky(INDEFINITE, np.zeros((3, 3)), np.eye(3), 1.0),
    ),
    "k2_by_cholesky-nan": (
        "minimizer system failed to factorize",
        lambda mp: k2_by_cholesky(WITH_NAN, np.eye(3), np.eye(3), 1.0),
    ),
    "congruence-indefinite-m1": (
        "congruence eigendecomposition failed",
        lambda mp: congruence(QuadraticPair(INDEFINITE, np.eye(3))),
    ),
    "congruence-nan": (
        "congruence eigendecomposition failed",
        lambda mp: congruence(QuadraticPair(np.eye(3), WITH_NAN)),
    ),
    "build_quadratic_pair-indefinite": (
        "m2 is not positive definite",
        lambda mp: build_quadratic_pair(np.eye(3), INDEFINITE),
    ),
    "build_quadratic_pair-nan": (
        "m1 is not symmetric",
        lambda mp: build_quadratic_pair(WITH_NAN, np.eye(3)),
    ),
    "congruence-off-class": (
        "a form couples symmetry classes",
        lambda mp: _congruence_with_an_off_class_entry(),
    ),
    "sobolev_grams": ("g1 failed the SPD check", _sobolev_grams_with_negative_stiffness),
    "stokes_pencil-pressure": (
        "pressure matrix is not SPD",
        _stokes_pencil_with_negated_pressure,
    ),
    "stokes_pencil-rank": (
        "pressure matrix is not SPD",
        _stokes_pencil_with_rank_deficient_divergence,
    ),
    "stokes_spectral_model": (
        "min eigenvalue",
        lambda mp: stokes_spectral_model(_negated_stokes_laplacian()),
    ),
    "zero_boundary_pencil-nan": (
        "zero-boundary pencil eigenvalue nan",
        lambda mp: _zero_boundary_pencil_with_modes(mp, lambda p: p * math.nan),
    ),
    "zero_boundary_pencil-non-positive": (
        "zero-boundary pencil eigenvalue -",
        lambda mp: _zero_boundary_pencil_with_modes(mp, lambda p: -p),
    ),
    "_stiffness_solver-indefinite": (
        "interior stiffness failed to factorize",
        lambda mp: _harmonic_retraction_with_stiffness(lambda g: 2.0 * g.g0 - g.g1),
    ),
    "_stiffness_solver-nan": (
        "interior stiffness failed to factorize",
        lambda mp: _harmonic_retraction_with_stiffness(lambda g: g.g1 * math.nan),
    ),
    "stokes_retraction": (
        "Lanczos eigenvalue failed",
        lambda mp: _stokes_retraction_with_nan_laplacian(),
    ),
    "stokes_pencil-off-class": (
        "the stream-function stiffness K couples symmetry classes",
        _stokes_pencil_with_an_asymmetric_laplacian,
    ),
    "stokes_pencil-stiffness": (
        "the stream-function stiffness K is not SPD",
        _stokes_pencil_with_negated_stiffness,
    ),
    "build_spectral_model-indefinite": (
        "min eigenvalue",
        lambda mp: build_spectral_model(np.diag(INDEFINITE)),
    ),
    "build_spectral_model-nan": (
        "min eigenvalue",
        lambda mp: build_spectral_model(np.diag(WITH_NAN)),
    ),
}


@pytest.mark.parametrize("site", sorted(SITES))
def test_every_failed_factorization_or_eigensolve_raises_solver_failure(
    monkeypatch, site
):
    match, call = SITES[site]
    with pytest.raises(SolverFailure, match=match):
        call(monkeypatch)


def test_congruence_rejects_an_indefinite_pair_instead_of_clamping():
    # M1 = I is SPD, so the eigensolve succeeds; its eigenvalue -1 must
    # not be clipped to 0
    pair = QuadraticPair(np.eye(3), INDEFINITE)
    with pytest.raises(SolverFailure, match="not SPD"):
        congruence(pair)
    with pytest.raises(SolverFailure, match="not SPD"):
        interp_norm(pair, 0.5, np.ones(3))
