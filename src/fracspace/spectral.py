"""Spectral models of positive self-adjoint operators with compact inverse.

A model is a finite truncation: ascending positive eigenvalues lam_j and a
basis whose columns are orthonormal in the discrete L^2 form mass * I
(mass = 1 when omitted). Fractional powers and norms are coefficient
calculus on that eigen-data, with coefficients held as plain arrays:

    norm_alpha(u)^2 = sum_j lam_j^(2 alpha) |c_j|^2,   u = sum_j c_j w_j.

Exponents may be negative (dual scale); nothing here restricts alpha.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, InvalidConfig, SolverFailure
from .reporting import at_most

# Gram deviation allowed at construction; exactly-orthonormal inputs are
# held to 1e-10 in the tests.
ORTHO_TOL = 1e-8


@dataclass(frozen=True)
class SpectralModel:
    """Eigen-data (lam_j, w_j) of a positive operator on L^2 = (R^m, mass * I)."""

    eigenvalues: np.ndarray  # (dim,), ascending, all > 0
    basis: np.ndarray  # (m, dim), columns orthonormal in mass * I
    mass: float = 1.0  # the L^2 inner product is mass * (u . v)

    @property
    def dim(self) -> int:
        return int(self.eigenvalues.shape[0])

    @property
    def ambient_dim(self) -> int:
        return int(self.basis.shape[0])


def _alpha(a) -> float:
    a = float(a)
    if not math.isfinite(a):
        raise InvalidConfig(f"exponent must be finite, got {a}")
    return a


def build_spectral_model(eigenvalues, basis, mass=1.0) -> SpectralModel:
    """Validate eigen-data and return an immutable model.

    Eigenvalues are re-sorted ascending (stable) with basis columns
    permuted to match. Raises SolverFailure for a non-finite or
    non-positive eigenvalue or a basis that is not orthonormal (the
    eigen-data of a failed eigensolve), InvalidConfig for a mass that is
    not finite and positive.
    """
    lam = np.asarray(eigenvalues, dtype=np.float64).ravel()
    B = np.asarray(basis, dtype=np.float64)
    if lam.size == 0 or B.ndim != 2 or B.shape[1] != lam.size:
        raise DimensionMismatch(
            f"basis shape {B.shape} incompatible with {lam.size} eigenvalues"
        )
    if not np.all(np.isfinite(lam)) or np.any(lam <= 0.0):
        raise SolverFailure(f"min eigenvalue {lam.min() if lam.size else None}")
    mass = float(mass)
    if not (math.isfinite(mass) and mass > 0.0):
        raise InvalidConfig(f"mass must be finite and positive, got {mass}")
    # fancy indexing copies, so the model never aliases the caller's arrays
    order = np.argsort(lam, kind="stable")
    lam = lam[order]
    B = B[:, order]
    gram = B.T @ B
    gram *= mass
    gram.flat[:: lam.size + 1] -= 1.0
    gram_dev = np.max(np.abs(gram))
    if not gram_dev <= ORTHO_TOL:
        raise SolverFailure(f"basis Gram deviation {gram_dev:.3e} > {ORTHO_TOL}")
    lam.setflags(write=False)
    B.setflags(write=False)
    return SpectralModel(lam, B, mass)


def decaying_probes(dim: int, count: int, seed: int) -> list:
    """Random coefficient probes with j^(-1.5) decay, components uniform
    on [-1, 1]; the decay keeps them (numerically) in every intermediate
    space of the sweeps."""
    rng = np.random.default_rng(seed)
    decay = np.arange(1, dim + 1, dtype=np.float64) ** -1.5
    return [decay * rng.uniform(-1.0, 1.0, size=dim) for _ in range(count)]


def _coeffs(model: SpectralModel, u) -> np.ndarray:
    c = np.asarray(u, dtype=np.float64).ravel()
    if c.shape != (model.dim,):
        raise DimensionMismatch(f"expected {model.dim} coefficients, got {c.shape}")
    return c


def to_coeffs(model: SpectralModel, ambient_vector) -> np.ndarray:
    """Project an ambient vector onto the eigenbasis: c_j = mass * (u . w_j)."""
    u = np.asarray(ambient_vector, dtype=np.float64).ravel()
    if u.shape != (model.ambient_dim,):
        raise DimensionMismatch(
            f"ambient vector length {u.shape} != {model.ambient_dim}"
        )
    return model.basis.T @ (model.mass * u)


def from_coeffs(model: SpectralModel, u) -> np.ndarray:
    """Synthesize the ambient vector sum_j c_j w_j."""
    return model.basis @ _coeffs(model, u)


def apply_fractional_power(model: SpectralModel, alpha, u) -> np.ndarray:
    """Coefficientwise map c_j -> lam_j^alpha c_j; alpha = 0 is the identity."""
    a = _alpha(alpha)
    c = _coeffs(model, u)
    if a == 0.0:
        return c.copy()
    return np.power(model.eigenvalues, a) * c


def frac_norm(model: SpectralModel, alpha, u) -> float:
    """(sum_j lam_j^(2 alpha) |c_j|^2)^(1/2)."""
    a = _alpha(alpha)
    c = _coeffs(model, u)
    return math.sqrt(float(np.power(model.eigenvalues, 2.0 * a) @ (c * c)))


def higher_power_decomposition_check(model: SpectralModel, alpha, beta, u) -> dict:
    """Check norm_beta(u) == norm_alpha(A^(beta-alpha) u) for beta >= alpha >= 0.

    Exact as a coefficient identity (lam^beta = lam^alpha lam^(beta-alpha));
    only rounding separates the two evaluations. Returns one report cell.
    """
    a, b = _alpha(alpha), _alpha(beta)
    if not (b >= a >= 0.0):
        raise InvalidConfig(f"need beta >= alpha >= 0, got alpha={a}, beta={b}")
    lhs = frac_norm(model, b, u)
    rhs = frac_norm(model, a, apply_fractional_power(model, b - a, u))
    residual = abs(lhs - rhs)
    return at_most(
        residual,
        1e-10 * max(lhs, 1e-300),
        check="higher-power",
        alpha=a,
        beta=b,
        ratio=rhs / lhs if lhs > 0 else 1.0,
        residual=residual,
    )
