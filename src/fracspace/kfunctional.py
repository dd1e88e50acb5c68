"""Quadratic-form K-functionals and the real-interpolation norm.

For a pair of SPD Gram forms (M1, M2) defining norms (X, Y),

    K(u, t)^2 = inf over x + y = u of ( |x|_X^2 + t^2 |y|_Y^2 ),

attained at the y solving (M1 + t^2 M2) y = M1 u. For a spectral model
(X = ambient, Y = operator graph norm) the same infimum has the closed
form sum_j t^2 lam_j^2 c_j^2 / (1 + t^2 lam_j^2), evaluated at a batch of
t by the NumPy kernel `_kernels.k2_batch`. The interpolation norm
is |u|_theta = ( int_0^inf t^(-2 theta) K(u,t)^2 dt/t )^(1/2); `interp_norms_sq`
computes it for many vectors and thetas by Simpson in tau = ln t with panel
doubling, plus tails from the analytic envelopes K <= |u|_X and K <= t |u|_Y.
It bounds the kernel's (nodes x modes) buffer by passing the nodes in
blocks of at most _K2_PAIRS // modes.

Identity linking the two scales, exact for finite spectra up to
quadrature error:  |u|_theta^2 = i_theta(theta) * frac_norm(theta, u)^2.

A pencil in spectral form is a `SpectralForm`: its eigenvalues, and per
symmetry class the blocks V_c and transform_c in the lifted coordinates
of an orthogonal rotation (the parity rotation U (x) U of a square grid,
or none). `congruence` and `class_eigh` return it, one `eigh` per class
with nothing scattered into a whole matrix, and a `SpectralPair` is an
SPD pair with its form. The form is applied class by class
(`coefficients`, `modes`); the dense V and transform on the nodes are
formed only on access. A dense pencil is the one-block case with no
lift (`dense_form`).

Every K here has one route: `k2_batch` for a spectrum and
`k2_by_cholesky` for a pair. The independent oracles that avoid the
closed forms (brute-force minimization, the sum-form functional) live
with the tests, in tests/oracles.py.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._kernels import k2_batch
from .errors import (
    DimensionMismatch,
    InvalidConfig,
    QuadratureNotConverged,
    SolverFailure,
)
from .operators import _lift
from .spectral import SpectralModel, _coeffs

_TINY = 1e-300


@dataclass(frozen=True)
class QuadraticPair:
    """SPD Gram forms (m1, m2) for the norm pair (X, Y); restricted to a
    subspace span(Z), the pair (Z^T m1 Z, Z^T m2 Z) on coordinates."""

    m1: np.ndarray
    m2: np.ndarray


@dataclass(frozen=True)
class SpectralBlock:
    """One symmetry class of a spectral form: its label (None for the one
    block of a form without classes), its coordinates index among the
    lifted coordinates (the rows of V), the positions of its eigenpairs
    in lam (ascending), and its blocks V and transform = V^T m1_c."""

    label: int | None
    index: np.ndarray
    positions: np.ndarray
    V: np.ndarray
    transform: np.ndarray


@dataclass(frozen=True)
class SpectralForm:
    """A pencil of an SPD pair (m1, m2) in spectral form, kept per
    symmetry class.

    lam is ascending, and lift holds the orthogonal rotation U of each
    axis (the same on every axis; none for the identity): L = U (x) U
    takes lifted coordinates to the nodes, and L^T m1 L and L^T m2 L are
    block diagonal, one `SpectralBlock` per class. The whole form is
    V = L blockdiag(V_c) and transform = blockdiag(transform_c) L^T, with
    V^T m1 V = I, V^T m2 V = diag lam^2 and transform @ x the
    coefficients of x. It is applied class by class (`coefficients`,
    `modes`); the dense V and transform are formed only on access, for
    the tests and the callers that need them whole.
    """

    lam: np.ndarray
    blocks: tuple
    lift: tuple = ()

    @property
    def classes(self) -> np.ndarray | None:
        """The class of each eigenpair; None for one block without a label."""
        if self.blocks[0].label is None:
            return None
        classes = np.empty(self.lam.size, np.int64)
        for b in self.blocks:
            classes[b.positions] = b.label
        return classes

    def block(self, label) -> SpectralBlock:
        """The block of class label; InvalidConfig when the form has none."""
        for b in self.blocks:
            if b.label == label:
                return b
        raise InvalidConfig(f"the spectral form has no block of class {label}")

    def lifted_coefficients(self, Y) -> np.ndarray:
        """blockdiag(transform_c) Y: the coefficients of the columns Y of
        lifted coordinates, class by class."""
        out = np.empty((self.lam.size, Y.shape[1]))
        for b in self.blocks:
            out[b.positions] = b.transform @ Y[b.index]
        return out

    def coefficients(self, X) -> np.ndarray:
        """transform @ X for the columns X of nodal coordinates."""
        return self.lifted_coefficients(_lift(tuple(U.T for U in self.lift), X))

    def modes(self, A) -> np.ndarray:
        """V @ A: the nodal columns with the coefficients A."""
        Y = np.empty((self.lam.size, A.shape[1]))
        for b in self.blocks:
            Y[b.index] = b.V @ A[b.positions]
        return _lift(self.lift, Y)

    @property
    def V(self) -> np.ndarray:
        """The dense V on the nodes: its class blocks scattered and lifted."""
        V = np.zeros((self.lam.size, self.lam.size))
        for b in self.blocks:
            V[np.ix_(b.index, b.positions)] = b.V
        return _lift(self.lift, V)

    @property
    def transform(self) -> np.ndarray:
        """The dense transform on the nodes, as `V` forms V."""
        T = np.zeros((self.lam.size, self.lam.size))
        for b in self.blocks:
            T[np.ix_(b.positions, b.index)] = b.transform
        return _lift(self.lift, T.T).T


@dataclass(frozen=True)
class SpectralPair(SpectralForm, QuadraticPair):
    """An SPD pair (m1, m2) on the nodes with the `SpectralForm` of its
    pencil, from `congruence` or a closed form."""

    @classmethod
    def of(cls, m1, m2, form: SpectralForm) -> "SpectralPair":
        """The pair (m1, m2) with the spectral form form."""
        return cls(m1, m2, form.lam, form.blocks, form.lift)


def dense_form(lam, V, transform) -> SpectralForm:
    """The one-block form of a dense pencil (lam, V, transform): no
    classes and no lift."""
    index = np.arange(np.size(lam))
    return SpectralForm(lam, (SpectralBlock(None, index, index, V, transform),))


def build_quadratic_pair(m1, m2) -> QuadraticPair:
    """Validate symmetry and positive-definiteness (by factorization).

    Raises DimensionMismatch for forms that are not square or differ in
    shape, SolverFailure for a form that is not symmetric or fails its
    Cholesky factorization.
    """
    from scipy import linalg

    M1 = np.array(m1, dtype=np.float64)
    M2 = np.array(m2, dtype=np.float64)
    for name, M in (("m1", M1), ("m2", M2)):
        if M.ndim != 2 or M.shape[0] != M.shape[1] or M.shape != M1.shape:
            raise DimensionMismatch(f"{name} must be square and match m1: {M.shape}")
        scale = max(1.0, float(np.max(np.abs(M))))
        if not np.max(np.abs(M - M.T)) <= 1e-12 * scale:  # a NaN fails too
            raise SolverFailure(f"{name} is not symmetric to 1e-12")
        try:
            linalg.cholesky(M, lower=True)
        except linalg.LinAlgError as exc:
            raise SolverFailure(f"{name} is not positive definite") from exc
    M1.setflags(write=False)
    M2.setflags(write=False)
    return QuadraticPair(M1, M2)


def _check_t(t) -> float:
    t = float(t)
    if not (math.isfinite(t) and t > 0.0):
        raise InvalidConfig(f"t must be a positive real, got {t}")
    return t


def _check_theta(theta) -> float:
    theta = float(theta)
    if not (math.isfinite(theta) and 0.0 < theta < 1.0):
        raise InvalidConfig(f"theta must lie in (0, 1), got {theta}")
    return theta


def _forms(pair: QuadraticPair, u):
    """The forms of pair and u as a flat float vector of matching length."""
    vec = np.asarray(u, dtype=np.float64).ravel()
    if vec.shape != (pair.m1.shape[0],):
        raise DimensionMismatch(
            f"vector length {vec.shape} != forms of size {pair.m1.shape[0]}"
        )
    return pair.m1, pair.m2, vec


# ---- pointwise K


def k2_by_cholesky(m1, m2, X, t2) -> np.ndarray:
    """K(x, t)^2 for every column x of X, from one Cholesky factor of
    m1 + t2 m2 (t2 = t^2).

    The minimizing split x = f + g solves (m1 + t2 m2) g = m1 x and
    (m1 + t2 m2) f = t2 m2 x, both parts in one solve; f comes from its
    own equation, not as x - g, since at small t, t2 m2 lies below the
    rounding of m1 and the subtraction cancels. Raises SolverFailure
    when the factorization fails, also for a NaN.
    """
    from scipy import linalg

    H = t2 * m2
    H += m1
    try:
        # H is symmetric: its transpose is Fortran-ordered, so the factor
        # overwrites H in place instead of a copy
        factor = linalg.cho_factor(H.T, lower=True, overwrite_a=True)
    except (ValueError, linalg.LinAlgError) as exc:  # ValueError: a NaN or inf
        raise SolverFailure("minimizer system failed to factorize") from exc
    gf = linalg.cho_solve(factor, np.hstack([m1 @ X, t2 * (m2 @ X)]))
    g, f = np.hsplit(gf, 2)
    return np.sum(f * (m1 @ f), axis=0) + t2 * np.sum(g * (m2 @ g), axis=0)


def k_quadratic(pair: QuadraticPair, u, t) -> float:
    """K by the SPD minimizer of the pair: `k2_by_cholesky` of one column."""
    t = _check_t(t)
    M1, M2, vec = _forms(pair, u)
    k2 = float(k2_by_cholesky(M1, M2, vec[:, None], t * t)[0])
    return math.sqrt(max(k2, 0.0))


# ---- interpolation norm


@dataclass(frozen=True)
class QuadratureRule:
    """Simpson-in-log-t window and refinement policy."""

    log_t_min: float
    log_t_max: float
    refinement_tol: float = 1e-6
    max_panels: int = 2**20

    def __post_init__(self):
        if not self.log_t_min < self.log_t_max:
            raise InvalidConfig(
                f"need log_t_min < log_t_max, got {self.log_t_min}, {self.log_t_max}"
            )
        if not self.refinement_tol > 0:
            raise InvalidConfig("refinement_tol must be positive")
        if self.max_panels < 2:
            raise InvalidConfig("max_panels must be at least 2")

    @classmethod
    def for_spectrum(cls, eigenvalues, tol=1e-6, max_panels=2**20):
        """Default window: the integrand decays like e^((2-2 theta) tau)
        left of ln(1e-4/lam_max) and e^(-2 theta tau) right of
        ln(1e4/lam_min), keeping truncation below 1e-6 relative for
        theta in [0.05, 0.95]."""
        lam = np.asarray(eigenvalues, dtype=np.float64)
        lam = lam[lam > 0]
        if lam.size == 0:
            raise InvalidConfig("no positive eigenvalues for quadrature window")
        return cls(
            log_t_min=math.log(1e-4 / float(lam.max())),
            log_t_max=math.log(1e4 / float(lam.min())),
            refinement_tol=tol,
            max_panels=max_panels,
        )

    @classmethod
    def from_config(cls, doc: dict | None, eigenvalues) -> "QuadratureRule":
        """The `for_spectrum` rule of eigenvalues, overlaid by the CLI
        config keys (log_t_min, log_t_max, tol, max_panels)."""
        rule = cls.for_spectrum(eigenvalues)
        if not doc:
            return rule
        return cls(
            log_t_min=float(doc.get("log_t_min", rule.log_t_min)),
            log_t_max=float(doc.get("log_t_max", rule.log_t_max)),
            refinement_tol=float(doc.get("tol", rule.refinement_tol)),
            max_panels=int(doc.get("max_panels", rule.max_panels)),
        )


# (nodes x modes) per kernel call, about 64 MB of doubles: max_panels has
# no upper bound, and 2^20 + 1 nodes x 2048 modes at once would be 16 GiB
_K2_PAIRS = 2**23


def interp_norms_sq(lam, coeffs, thetas, rule: QuadratureRule) -> np.ndarray:
    """|u_k|_theta^2 for every theta and column u_k of coeffs (m, q), as a
    (len(thetas), q) array: Simpson in tau = ln t plus analytic tails.

    K^2 is theta-free and the grids nest, so a doubling evaluates the
    kernel at the new nodes only, and e^(-2 theta tau) weighs every theta
    at once: Simpson is (2 S + 4 N) h / 3 with S the trapezoid sum of the
    coarser grid and N the new nodes' sum. The new nodes go to the kernel
    in blocks of at most _K2_PAIRS // m, which caps its buffer at
    _K2_PAIRS doubles per column. Each cell keeps its first total within
    refinement_tol of the previous doubling's.
    """
    thetas = np.array([_check_theta(th) for th in thetas])[:, None]
    c2 = np.asarray(coeffs, dtype=np.float64) ** 2
    a, b = rule.log_t_min, rule.log_t_max
    # envelopes K^2 <= t^2 |u|_Y^2 (left) and K^2 <= |u|_X^2 (right) are
    # asymptotically exact at the default window edges
    tail = ((lam * lam) @ c2) * np.exp((2.0 - 2.0 * thetas) * a) / (2.0 - 2.0 * thetas)
    tail += c2.sum(axis=0) * np.exp(-2.0 * thetas * b) / (2.0 * thetas)
    prev, done = np.full(tail.shape, np.nan), np.zeros(tail.shape, dtype=bool)
    panels = min(64, rule.max_panels - rule.max_panels % 2)
    tau = np.linspace(a, b, panels + 1)
    weights = np.exp(-2.0 * thetas * tau)
    weights[:, [0, -1]] /= 2.0  # trapezoid ends
    k2 = k2_batch(lam, c2, np.exp(tau))
    coarse, new = weights[:, 0::2] @ k2[0::2], weights[:, 1::2] @ k2[1::2]
    block = max(1, _K2_PAIRS // len(lam))
    while True:
        simpson = (2.0 * coarse + 4.0 * new) * ((b - a) / panels) / 3.0 + tail
        total = np.where(done, prev, simpson)
        bad = total[~np.isfinite(total)]
        if bad.size:
            raise QuadratureNotConverged(
                f"non-finite integrand: total {float(bad[0])} at {panels} panels"
            )
        done |= np.abs(total - prev) <= rule.refinement_tol * np.maximum(total, _TINY)
        if done.all():
            return total
        prev, panels = total, 2 * panels
        if panels > rule.max_panels:
            raise QuadratureNotConverged(f"panel cap {rule.max_panels} hit")
        odd = np.linspace(a, b, panels + 1)[1::2]
        coarse = coarse + new
        new = sum(
            np.exp(-2.0 * thetas * nodes) @ k2_batch(lam, c2, np.exp(nodes))
            for nodes in np.array_split(odd, 1 + odd.size // block)
        )


def check_class_coupling(values, off_class, what: str) -> None:
    """Raise SolverFailure("<what> couples symmetry classes: ...") when
    an entry of values where off_class holds (an entry between two
    classes) exceeds 1e-12 times the largest entry, or either is NaN."""
    off = np.max(np.abs(values[off_class]), initial=0.0) / np.max(np.abs(values))
    if not off <= 1e-12:
        raise SolverFailure(f"{what} couples symmetry classes: {off:.3e} relative")


def class_eigh(a, b=None, classes=None):
    """Eigenpairs of the symmetric pencil (a, b), b = I when None, solved
    per symmetry class: (w, blocks), w ascending and blocks one
    `SpectralBlock` per class with V_c and V_c^T b_c.

    classes labels each row and column of the forms, and a form that
    commutes with a symmetry has no entry between two classes (Bossavit,
    Comput. Methods Appl. Mech. Engrg. 56, 1986). The class blocks are
    gathered and solved by `block_eigh`, one `eigh` per class in place of
    one of the whole pencil. Before any solve, an off-class entry of
    either form above 1e-12 times that form's largest entry (or a NaN)
    raises SolverFailure. With classes None there is one class: one
    `eigh` of the whole pencil and one block without a label. A failed
    eigensolve raises scipy's LinAlgError or ValueError.
    """
    from scipy import linalg

    if classes is None:
        w, V = linalg.eigh(a, b)
        return w, dense_form(w, V, V.T if b is None else V.T @ b).blocks
    classes = np.asarray(classes)
    off_class = classes[:, None] != classes
    for M in (a,) if b is None else (a, b):
        check_class_coupling(M, off_class, "a form")
    blocks = []
    for c in np.unique(classes):
        idx = np.flatnonzero(classes == c)
        ix = np.ix_(idx, idx)
        blocks.append((c, idx, a[ix], None if b is None else b[ix]))
    return block_eigh(blocks)


def block_eigh(blocks):
    """Eigenpairs of a symmetric pencil given by its class blocks, one
    `eigh` per class: (w, blocks) as `class_eigh` returns them.

    blocks holds (c, idx, a_c, b_c) per class: its label, its rows and
    columns idx of the whole pencil (which the blocks partition), and its
    blocks of a and b (b_c None for b = I). w is ascending (stable sort),
    and each class's `SpectralBlock` holds the positions of its
    eigenpairs in w, ascending as eigh returns them, with V_c and
    V_c^T b_c; nothing is scattered into a whole matrix. A failed
    eigensolve raises scipy's LinAlgError or ValueError.
    """
    from scipy import linalg

    solved = [(c, idx, bc, *linalg.eigh(ac, bc)) for c, idx, ac, bc in blocks]
    w = np.concatenate([block[3] for block in solved])
    order = np.argsort(w, kind="stable")
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    out, start = [], 0
    for c, idx, bc, _, vecs in solved:
        pos = rank[start : start + idx.size]
        start += idx.size
        transform = vecs.T if bc is None else vecs.T @ bc
        out.append(SpectralBlock(c, idx, pos, vecs, transform))
    return w[order], tuple(out)


def congruence(pair: QuadraticPair, classes=None) -> SpectralForm:
    """Reduce an SPD pair to spectral form.

    Returns the `SpectralForm` (no lift) of the pencil M2 v = mu M1 v:
    V with V^T M1 V = I, lam = sqrt(mu), and coordinates of a vector
    transform @ vector. In those coordinates the pair is
    (identity, diag lam^2). The pencil is solved per symmetry class by
    `class_eigh` (one class when classes is None).
    A pencil eigenvalue mu that is not finite and positive means the pair
    is not SPD; it raises SolverFailure, as does a failed eigensolve.
    """
    return _spectral_form(class_eigh, pair.m2, pair.m1, classes)


def block_congruence(blocks) -> SpectralForm:
    """`congruence` of an SPD pair given by its class blocks, blocks
    holding (c, idx, m1_c, m2_c) per class as `block_eigh` takes them;
    the same spectral form and the same failures."""
    return _spectral_form(block_eigh, [(c, i, m2, m1) for c, i, m1, m2 in blocks])


def _spectral_form(eigh, *args) -> SpectralForm:
    """The form of sqrt(mu) and the blocks from eigh(*args), the pencil
    M2 v = mu M1 v; SolverFailure for a failed eigensolve or a mu that is
    not finite and positive."""
    from scipy import linalg

    try:
        mu, blocks = eigh(*args)
    except (ValueError, linalg.LinAlgError) as exc:  # ValueError: a NaN or inf
        raise SolverFailure("congruence eigendecomposition failed") from exc
    bad = mu[~(np.isfinite(mu) & (mu > 0.0))]
    if bad.size:
        raise SolverFailure(f"pair is not SPD: pencil eigenvalue {float(bad[0])!r}")
    return SpectralForm(np.sqrt(mu), blocks)


def interp_norm(model_or_pair, theta, u, rule: QuadratureRule | None = None) -> float:
    """The interpolation norm |u|_theta for a model or an SPD pair."""
    theta = _check_theta(theta)
    if isinstance(model_or_pair, SpectralModel):
        model = model_or_pair
        lam = model.eigenvalues
        c = _coeffs(model, u)
    else:
        pair = model_or_pair
        _, _, vec = _forms(pair, u)
        form = congruence(pair)
        lam, c = form.lam, form.coefficients(vec[:, None])[:, 0]
    if rule is None:
        rule = QuadratureRule.for_spectrum(lam)
    return math.sqrt(interp_norms_sq(lam, c[:, None], (theta,), rule).item())


def i_theta(theta) -> float:
    """pi / (2 sin(pi theta)), the interpolation-to-fractional constant."""
    theta = _check_theta(theta)
    return math.pi / (2.0 * math.sin(math.pi * theta))
