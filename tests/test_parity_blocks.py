"""The square's reflection-parity blocks: every dense 2D pencil solved per
class (`class_eigh`) against one dense `eigh` of the whole pencil, the
class labels against the reflections themselves, and the checks that
refuse a form or a transported term that couples two classes."""
import numpy as np
import pytest
from scipy import linalg

from fracspace import (
    SolverFailure,
    grid_domain,
    sobolev_grams,
    sobolev_pencil,
    stokes_pencil,
    stokes_spectral_model,
    verify_intersection_lemma,
    zero_boundary_pencil,
)
from fracspace import operators
from fracspace.experiments import _harmonic_setup, _stokes_setup
from fracspace.kfunctional import class_eigh

SIZES = range(3, 17)  # odd n: an even number of nodes; even n: a centre node


def _assert_matches_dense(lam, V, M1, M2, exact=0):
    """lam = sqrt(mu) for the pencil M2 v = mu M1 v against the dense eigh
    of the whole pencil to 1e-11 relative, and V^T M1 V = I to 1e-12.

    The lowest `exact` lam are known to be 1. Their pencil is the worst
    conditioned, and each route, dense or blocked, misses 1 by up to
    about 3e-11 (measured to n = 16), so they are held to 1 itself, to
    5e-11, instead of to the dense route.
    """
    dense = np.sqrt(linalg.eigh(M2, M1, eigvals_only=True))
    np.testing.assert_allclose(lam[exact:], dense[exact:], rtol=1e-11, atol=0.0)
    np.testing.assert_allclose(lam[:exact], 1.0, rtol=5e-11, atol=0.0)
    assert np.max(np.abs(V.T @ M1 @ V - np.eye(lam.size))) <= 1e-12


def _assert_reflection_parities(V, classes, side):
    """Column j of V, a function on a side x side grid (row-major), is even
    or odd under each axis reflection as its class 2 p_x + p_y says."""
    grid = V.reshape(side, side, -1)
    sign_x = 1.0 - 2.0 * (classes // 2)
    sign_y = 1.0 - 2.0 * (classes % 2)
    tol = 1e-12 * np.max(np.abs(V))
    assert np.max(np.abs(grid[::-1] - sign_x * grid)) <= tol
    assert np.max(np.abs(grid[:, ::-1] - sign_y * grid)) <= tol


@pytest.mark.parametrize("n", SIZES)
def test_sobolev_pencil_matches_the_dense_eigensolve(n):
    d = grid_domain(2, n)
    grams = sobolev_grams(d)
    lam, V, transform, classes = sobolev_pencil(grams)
    # g2 - g1 vanishes on the four bilinear functions: lam = 1, four times
    _assert_matches_dense(lam, V, grams.g1, grams.g2, exact=4)
    scale = np.max(np.abs(transform))
    assert np.max(np.abs(transform - V.T @ grams.g1)) <= 1e-12 * scale
    even, odd = (n + 3) // 2, (n + 2) // 2  # of the n + 2 nodes of an axis
    assert np.bincount(classes).tolist() == [even * even, even * odd, odd * even, odd * odd]
    _assert_reflection_parities(V, classes, n + 2)


@pytest.mark.parametrize("n", SIZES)
def test_zero_boundary_classes_are_the_reflection_parities(n):
    lam, V, _, classes = zero_boundary_pencil(grid_domain(2, n))
    _assert_reflection_parities(V, classes, n)


@pytest.mark.parametrize("n", SIZES)
def test_constrained_model_matches_the_dense_eigensolve(n):
    p = stokes_pencil(grid_domain(2, n))
    Ac = p.constrained_op(p.null_basis())
    model, V = stokes_spectral_model(p)
    lam = model.eigenvalues
    np.testing.assert_allclose(lam, linalg.eigvalsh(Ac), rtol=1e-11, atol=0.0)
    assert np.max(np.abs(V.T @ V - np.eye(n * n))) <= 1e-12


@pytest.mark.parametrize("n", SIZES)
def test_reduced_stokes_pencil_matches_the_dense_eigensolve(n):
    _, reduced, _ = _stokes_setup(grid_domain(2, n))
    _assert_matches_dense(reduced.lam, reduced.V, reduced.m1, reduced.m2)
    # each eigenvector lives on the stream modes of its class alone
    p = stokes_pencil(grid_domain(2, n))
    off = p.classes[:, None] != reduced.classes
    assert np.all(reduced.V[off] == 0.0)


def test_one_class_is_the_whole_pencil():
    # classes None: one eigh of the whole pencil, bit for bit
    g = sobolev_grams(grid_domain(2, 4))
    w, V, VtB, classes = class_eigh(g.g2, g.g1)
    w0, V0 = linalg.eigh(g.g2, g.g1)
    assert np.array_equal(w, w0) and np.array_equal(V, V0) and classes is None
    assert np.array_equal(VtB, V0.T @ g.g1)


def test_an_asymmetric_sobolev_piece_is_refused(monkeypatch):
    # one trapezoid weight scaled by 1 + 1e-6 couples even and odd columns
    real = operators._sobolev_pieces

    def asymmetric(domain):
        w, P, Q = real(domain)
        w = w.copy()
        w[0] *= 1.0 + 1e-6
        return w, P, Q

    monkeypatch.setattr(operators, "_sobolev_pieces", asymmetric)
    with pytest.raises(SolverFailure, match="couples symmetry classes"):
        sobolev_pencil(sobolev_grams(grid_domain(2, 5)))


def test_an_off_class_entry_of_the_constrained_operator_is_refused(monkeypatch):
    real = operators.StokesPencil.constrained_op

    def coupled(self, Z):
        Ac = real(self, Z).copy()
        i, j = 0, int(np.flatnonzero(self.classes != self.classes[0])[0])
        Ac[i, j] = Ac[j, i] = Ac[i, j] + 1e-9 * np.max(np.abs(Ac))
        return Ac

    monkeypatch.setattr(operators.StokesPencil, "constrained_op", coupled)
    with pytest.raises(SolverFailure, match="couples symmetry classes"):
        stokes_spectral_model(stokes_pencil(grid_domain(2, 5)))


@pytest.mark.parametrize("n", [5, 6])
def test_an_asymmetric_retraction_fails_the_transported_term_check(n):
    # one row of the harmonic B scaled by 1 + 1e-6: T no longer commutes
    # with the reflections, and W~ gains entries between two classes
    # (set past the identity check of construction, as the scaled row
    # breaks T z = z too)
    ambient, reduced, T = _harmonic_setup(grid_domain(2, n))
    tables, _ = verify_intersection_lemma(ambient, reduced, T, (0.5,), t_points=17)
    assert all(c["pass"] for table in tables for c in table)
    B = T.inner.copy()
    B[0] *= 1.0 + 1e-6
    object.__setattr__(T, "inner", B)
    with pytest.raises(SolverFailure, match="transported term couples"):
        verify_intersection_lemma(ambient, reduced, T, (0.5,), t_points=17)
