"""The square's reflection-parity blocks: every dense 2D pencil solved per
class (`class_eigh`) against one dense `eigh` of the whole pencil, the
class labels against the reflections themselves, the checks that refuse
a form that couples two classes, and the class blocks of the transported
term and of the harmonic lift against their dense nodal forms."""
import dataclasses
import math

import numpy as np
import pytest
from scipy import linalg

from fracspace import (
    RetractionIdentityViolated,
    SolverFailure,
    grid_domain,
    harmonic_retraction,
    sobolev_grams,
    sobolev_pencil,
    stokes_pencil,
    stokes_spectral_model,
    zero_boundary_pencil,
)
from fracspace import operators, retractions
from fracspace.experiments import _harmonic_setup, _stokes_setup
from fracspace.kfunctional import class_eigh
from fracspace.retractions import transported_blocks
from oracles import nodal_harmonic_retraction

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
    form = sobolev_pencil(grams)
    lam, V, transform, classes = form.lam, form.V, form.transform, form.classes
    # g2 - g1 vanishes on the four bilinear functions: lam = 1, four times
    _assert_matches_dense(lam, V, grams.g1, grams.g2, exact=4)
    scale = np.max(np.abs(transform))
    assert np.max(np.abs(transform - V.T @ grams.g1)) <= 1e-12 * scale
    even, odd = (n + 3) // 2, (n + 2) // 2  # of the n + 2 nodes of an axis
    assert np.bincount(classes).tolist() == [even * even, even * odd, odd * even, odd * odd]
    _assert_reflection_parities(V, classes, n + 2)


@pytest.mark.parametrize("n", SIZES)
def test_class_index_partitions_by_the_reflection_parities(n):
    # the rotated coordinates of the node grid (n + 2 per axis) and of the
    # interior grid (n), and the DST-I modes of an axis: each class's
    # columns are even or odd under each reflection as its label says,
    # and every coordinate lies in exactly one class
    S = operators._dirichlet_modes(n, 1.0)[0]
    grids = [(*operators._parity_rotation(m), m) for m in (n + 2, n)]
    grids.append((S, np.arange(n) % 2, n))
    for U, parity, side in grids:
        index = [operators._class_index(parity, c) for c in range(4)]
        joined = np.concatenate(index)
        assert np.array_equal(np.sort(joined), np.arange(side * side))
        classes = np.repeat(np.arange(4), [i.size for i in index])
        _assert_reflection_parities(np.kron(U, U)[:, joined], classes, side)
        for i in index:
            assert np.all(np.diff(i) > 0)
        # in 1D the classes are the even and the odd columns of an axis
        even, odd = (operators._class_index(parity, p, 1) for p in (0, 1))
        tol = 1e-12 * np.max(np.abs(U))
        for cols, sign in ((even, 1.0), (odd, -1.0)):
            assert np.max(np.abs(U[::-1, cols] - sign * U[:, cols])) <= tol
        assert np.array_equal(np.sort(np.r_[even, odd]), np.arange(side))


@pytest.mark.parametrize("n", SIZES)
def test_zero_boundary_classes_are_the_reflection_parities(n):
    form = zero_boundary_pencil(grid_domain(2, n))
    _assert_reflection_parities(form.V, form.classes, n)


@pytest.mark.parametrize("n", SIZES)
def test_constrained_model_matches_the_dense_eigensolve(n):
    p = stokes_pencil(grid_domain(2, n))
    Ac = p.constrained_op(p.null_basis())
    form = stokes_spectral_model(p)
    np.testing.assert_allclose(form.lam, linalg.eigvalsh(Ac), rtol=1e-11, atol=0.0)
    # each class block is orthonormal on the stream modes of its class
    assert [b.label for b in form.blocks] == [0, 1, 2, 3]
    for b in form.blocks:
        assert np.array_equal(b.index, np.flatnonzero(p.classes == b.label))
        assert np.max(np.abs(b.V.T @ b.V - np.eye(b.index.size))) <= 1e-12


@pytest.mark.parametrize("n", SIZES)
def test_reduced_stokes_pencil_matches_the_dense_eigensolve(n):
    _, reduced, _ = _stokes_setup(grid_domain(2, n))
    _assert_matches_dense(reduced.lam, reduced.V, reduced.m1, reduced.m2)
    # each eigenvector lives on the stream modes of its class alone
    p = stokes_pencil(grid_domain(2, n))
    off = p.classes[:, None] != reduced.classes
    assert np.all(reduced.V[off] == 0.0)


def test_one_class_is_the_whole_pencil():
    # classes None: one eigh of the whole pencil, bit for bit, as one
    # block without a label
    g = sobolev_grams(grid_domain(2, 4))
    w, (block,) = class_eigh(g.g2, g.g1)
    w0, V0 = linalg.eigh(g.g2, g.g1)
    assert np.array_equal(w, w0) and np.array_equal(block.V, V0)
    assert block.label is None
    assert np.array_equal(block.transform, V0.T @ g.g1)
    assert np.array_equal(block.index, np.arange(w.size))
    assert np.array_equal(block.positions, np.arange(w.size))


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


@pytest.mark.parametrize("n", SIZES)
def test_class_transported_term_matches_the_dense_oracle(n):
    # W~ = transform_red B V_amb formed whole on the nodes, with B from the
    # nodal Cholesky route of the oracle and the eigenvectors of both
    # pencils lifted whole (each checked against a dense eigh of its
    # pencil): every class block of the engine matches it, and it has no
    # entry between two classes. A dense eigh of the ambient pencil would
    # mix the degenerate eigenpairs of the classes (1, 2), so the oracle
    # keeps the class eigenvectors
    d = grid_domain(2, n)
    grams = sobolev_grams(d)
    ambient, reduced, T = _harmonic_setup(d)
    _assert_matches_dense(ambient.lam, ambient.V, grams.g1, grams.g2, exact=4)
    _assert_matches_dense(reduced.lam, reduced.V, reduced.m1, reduced.m2)
    B, _, _ = nodal_harmonic_retraction(d, grams)
    dense = reduced.transform @ B @ ambient.V
    scale = np.max(np.abs(dense))
    covered = np.zeros(dense.shape, dtype=bool)
    for rows, cols, W in transported_blocks(ambient, reduced, T):
        ix = np.ix_(rows, cols)
        assert np.max(np.abs(W - dense[ix])) <= 1e-12 * scale
        covered[ix] = True
    assert np.array_equal(covered, reduced.classes[:, None] == ambient.classes)
    assert np.max(np.abs(dense[~covered])) <= 1e-12 * scale


@pytest.mark.parametrize("n", SIZES)
def test_zero_boundary_class_blocks_match_the_dense_dst(n):
    # the closed form with np.kron(S, S) whole, columns sorted by mu,
    # against the class blocks lifted by the interior parity rotation
    d = grid_domain(2, n)
    form = zero_boundary_pencil(d)
    S, p = operators._dirichlet_modes(n, 1.0)
    d1 = d.cell_volume + np.add.outer(p, p).ravel()
    mu = (d1 + np.add.outer(p * p, p * p).ravel() / d.cell_volume) / d1
    order = np.argsort(mu, kind="stable")
    SS, s = np.kron(S, S)[:, order], np.sqrt(d1[order])
    np.testing.assert_array_equal(form.lam, np.sqrt(mu[order]))
    for got, want in ((form.V, SS / s), (form.transform, s[:, None] * SS.T)):
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
    U = operators._parity_rotation(n)[0]
    assert len(form.lift) == 2 and all(np.array_equal(L, U) for L in form.lift)
    for b in form.blocks:  # each block is its class's rotated rows and modes
        rotated = np.kron(U, U).T @ SS
        want = rotated[np.ix_(b.index, b.positions)] / s[b.positions]
        assert np.max(np.abs(b.V - want)) <= 1e-13 * np.max(np.abs(want))


def test_a_perturbed_class_block_fails_the_gather_identity_check(monkeypatch):
    # B_c[:, int_c] = I is checked per class by a gather: one entry of a
    # class's identity columns scaled by 1 + 1e-9 fails, one on a boundary
    # column does not; the gathered residual is the nodal |B Z - I|_F
    d = grid_domain(2, 6)
    T = harmonic_retraction(d, sobolev_grams(d))
    for c, block in enumerate(T.blocks):
        blocks = list(T.blocks)
        boundary = np.setdiff1d(np.arange(block.cols.size), block.basis)[0]
        for col, fails in ((block.basis[0], True), (boundary, False)):
            B = block.inner.copy()
            B[0, col] = (1.0 + 1e-9) * B[0, col] + 1e-9
            blocks[c] = dataclasses.replace(block, inner=B)
            if fails:
                with pytest.raises(RetractionIdentityViolated, match="Frobenius"):
                    dataclasses.replace(T, blocks=tuple(blocks))
            else:
                dataclasses.replace(T, blocks=tuple(blocks))
    monkeypatch.setattr(retractions, "IDENTITY_TOL", math.inf)
    B = T.blocks[1].inner.copy()
    B[2, T.blocks[1].basis[2]] += 1e-9
    blocks = list(T.blocks)
    blocks[1] = dataclasses.replace(blocks[1], inner=B)
    broken = dataclasses.replace(T, blocks=tuple(blocks))
    residuals = [np.linalg.norm(b.identity_residual()) for b in broken.blocks]
    gathered = math.sqrt(sum(r**2 for r in residuals))
    nodal = np.linalg.norm(broken.inner @ broken.subspace_basis - np.eye(36))
    assert gathered == pytest.approx(1e-9, rel=1e-5)
    assert gathered == pytest.approx(nodal, rel=1e-5)
