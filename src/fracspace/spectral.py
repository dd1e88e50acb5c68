"""Spectral models of positive self-adjoint operators with compact inverse.

A model is a finite truncation: the ascending positive eigenvalues lam_j.
Fractional powers and norms are coefficient calculus on that spectrum,
with the coefficients c_j of u = sum_j c_j w_j in an orthonormal
eigenbasis held as plain arrays:

    norm_alpha(u)^2 = sum_j lam_j^(2 alpha) |c_j|^2.

Exponents may be negative (dual scale); nothing here restricts alpha.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, InvalidConfig, SolverFailure
from .reporting import at_most


@dataclass(frozen=True)
class SpectralModel:
    """The spectrum lam_j of a positive operator: read-only, ascending, all > 0."""

    eigenvalues: np.ndarray  # (dim,)

    @property
    def dim(self) -> int:
        return int(self.eigenvalues.shape[0])


def _alpha(a) -> float:
    a = float(a)
    if not math.isfinite(a):
        raise InvalidConfig(f"exponent must be finite, got {a}")
    return a


def build_spectral_model(eigenvalues) -> SpectralModel:
    """Validate a spectrum and return an immutable model.

    Eigenvalues are copied and sorted ascending (stable). Raises
    DimensionMismatch for an empty spectrum and SolverFailure for a
    non-finite or non-positive eigenvalue (the spectrum of a failed
    eigensolve).
    """
    lam = np.asarray(eigenvalues, dtype=np.float64).ravel()
    if lam.size == 0:
        raise DimensionMismatch("a spectral model needs at least one eigenvalue")
    if not np.all(np.isfinite(lam)) or np.any(lam <= 0.0):
        raise SolverFailure(f"min eigenvalue {lam.min()}")
    # fancy indexing copies, so the model never aliases the caller's array
    lam = lam[np.argsort(lam, kind="stable")]
    lam.setflags(write=False)
    return SpectralModel(lam)


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


def apply_fractional_power(model: SpectralModel, alpha, u) -> np.ndarray:
    """Coefficientwise map c_j -> lam_j^alpha c_j; alpha = 0 is the identity."""
    a = _alpha(alpha)
    c = _coeffs(model, u)
    if a == 0.0:
        return c.copy()
    return np.power(model.eigenvalues, a) * c


def _pow2_scale(c) -> float | np.ndarray:
    """Per column of c (all of a 1-D c): the power of two just above
    max |c_j|, at most 2^1023, or 1 (frexp's exponent 0) for 0, inf or
    NaN. A norm squares c / scale and multiplies its root by scale, so
    that no square underflows or overflows; a power of two divides
    exactly, so the result is unchanged wherever none would."""
    top = np.abs(c).max(axis=0, initial=0.0)
    if top.ndim == 0:  # one vector: scalar arithmetic, cheaper than ufuncs
        return math.ldexp(1.0, min(math.frexp(top)[1], 1023)) if top < math.inf else 1.0
    exponent = np.frexp(np.where(top < math.inf, top, 0.0))[1]
    return np.ldexp(1.0, np.minimum(exponent, 1023))


def frac_norm(model: SpectralModel, alpha, u):
    """(sum_j lam_j^(2 alpha) |c_j|^2)^(1/2), squared at `_pow2_scale`: a
    float for one vector u, the q column norms for a (dim, q) array u."""
    weights = np.power(model.eigenvalues, 2.0 * _alpha(alpha))
    if np.ndim(u) != 2:
        c = _coeffs(model, u)
        scale = _pow2_scale(c)
        return scale * math.sqrt(float(weights @ ((c / scale) ** 2)))
    c = np.asarray(u, dtype=np.float64)
    if c.shape[0] != model.dim:
        raise DimensionMismatch(f"expected {model.dim} rows, got {c.shape}")
    scale = _pow2_scale(c)
    return scale * np.sqrt(weights @ ((c / scale) ** 2))


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
