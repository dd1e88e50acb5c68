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
)
from fracspace import operators
from fracspace.kfunctional import k2_by_cholesky

INDEFINITE = np.diag([1.0, -1.0, 4.0])
WITH_NAN = np.diag([1.0, math.nan, 4.0])


def _negated_stokes_laplacian():
    # A -> -A keeps D, C and the null basis, so the dense guards pass and
    # Z^T (-A) Z reaches its factorization or eigensolve negative definite
    p = stokes_pencil(grid_domain(2, 4))
    return dataclasses.replace(p, vector_laplacian=-p.vector_laplacian)


def _sobolev_grams_with_negative_stiffness(monkeypatch):
    monkeypatch.setattr(operators, "_kron_sum", lambda M, d: -M)
    sobolev_grams(grid_domain(1, 4))


def _stokes_pencil_with_rank_deficient_divergence(monkeypatch):
    # G = 0 leaves rank D = 0, and the pressure matrix is the rank-one
    # 1 1^T / (n+1)^2
    monkeypatch.setattr(
        operators, "_staggered_difference", lambda n, h: np.zeros((n + 1, n))
    )
    stokes_pencil(grid_domain(2, 4))


def _harmonic_retraction_with_stiffness(g1_of):
    grams = sobolev_grams(grid_domain(1, 4))
    broken = dataclasses.replace(grams, g1=g1_of(grams))
    harmonic_retraction(grid_domain(1, 4), broken)


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
    "sobolev_grams": ("g1 failed the SPD check", _sobolev_grams_with_negative_stiffness),
    "stokes_pencil-pressure": (
        "pressure matrix is not SPD",
        _stokes_pencil_with_rank_deficient_divergence,
    ),
    "stokes_spectral_model": (
        "min eigenvalue",
        lambda mp: stokes_spectral_model(_negated_stokes_laplacian()),
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
        "constrained operator is not SPD",
        lambda mp: stokes_retraction(_negated_stokes_laplacian()),
    ),
    "build_spectral_model-indefinite": (
        "min eigenvalue",
        lambda mp: build_spectral_model(np.diag(INDEFINITE), np.eye(3)),
    ),
    "build_spectral_model-nan": (
        "min eigenvalue",
        lambda mp: build_spectral_model(np.diag(WITH_NAN), np.eye(3)),
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
