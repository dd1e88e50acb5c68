"""Spectral models of positive self-adjoint operators with compact inverse.

A model is a finite truncation: ascending positive eigenvalues lam_j and a
basis whose columns are orthonormal in a supplied ambient Gram form
(identity when omitted). Fractional powers, norms, and inner products are
coefficient calculus on that eigen-data:

    norm_alpha(u)^2 = sum_j lam_j^(2 alpha) |c_j|^2,   u = sum_j c_j w_j.

Exponents may be negative (dual scale); nothing here restricts alpha.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    InvalidExponentOrder,
    NonPositiveEigenvalue,
    NotOrthonormal,
    SingularSystem,
)
from .reporting import make_report

# Gram deviation allowed at construction; exactly-orthonormal inputs are
# held to 1e-10 in the tests.
ORTHO_TOL = 1e-8


@dataclass(frozen=True)
class SpectralModel:
    """Eigen-data (lam_j, w_j) of a positive operator, ambient Gram G."""

    eigenvalues: np.ndarray  # (dim,), ascending, all > 0
    basis: np.ndarray  # (m, dim), columns G-orthonormal
    ambient_gram: np.ndarray | None = None  # (m, m) SPD; identity when None

    @property
    def dim(self) -> int:
        return int(self.eigenvalues.shape[0])

    @property
    def ambient_dim(self) -> int:
        return int(self.basis.shape[0])


@dataclass(frozen=True)
class CoeffVector:
    """Coefficients of a vector in a model's eigenbasis."""

    coeffs: np.ndarray
    model: SpectralModel

    def __post_init__(self):
        if self.coeffs.shape != (self.model.dim,):
            raise DimensionMismatch(
                f"coeffs length {self.coeffs.shape} != model dim {self.model.dim}"
            )


def _alpha(a) -> float:
    a = float(a)
    if not math.isfinite(a):
        raise InvalidExponentOrder(f"exponent must be finite, got {a}")
    return a


def _gram_apply(gram: np.ndarray | None, vecs: np.ndarray) -> np.ndarray:
    return vecs if gram is None else gram @ vecs


def build_spectral_model(eigenvalues, basis, ambient_gram=None) -> SpectralModel:
    """Validate eigen-data and return an immutable model.

    Eigenvalues are re-sorted ascending (stable) with basis columns
    permuted to match. Raises NonPositiveEigenvalue or NotOrthonormal.
    """
    lam = np.array(eigenvalues, dtype=np.float64).ravel()
    B = np.array(basis, dtype=np.float64)
    if lam.size == 0 or B.ndim != 2 or B.shape[1] != lam.size:
        raise DimensionMismatch(
            f"basis shape {B.shape} incompatible with {lam.size} eigenvalues"
        )
    if not np.all(np.isfinite(lam)) or np.any(lam <= 0.0):
        raise NonPositiveEigenvalue(f"min eigenvalue {lam.min() if lam.size else None}")
    order = np.argsort(lam, kind="stable")
    lam = lam[order]
    B = B[:, order]
    G = None
    if ambient_gram is not None:
        G = np.array(ambient_gram, dtype=np.float64)
        if G.shape != (B.shape[0], B.shape[0]):
            raise DimensionMismatch(f"ambient gram shape {G.shape} != {B.shape[0]}")
        if np.max(np.abs(G - G.T)) > 1e-12 * max(1.0, np.max(np.abs(G))):
            raise SingularSystem("ambient gram is not symmetric")
    gram_dev = np.max(np.abs(B.T @ _gram_apply(G, B) - np.eye(lam.size)))
    if gram_dev > ORTHO_TOL:
        raise NotOrthonormal(f"basis Gram deviation {gram_dev:.3e} > {ORTHO_TOL}")
    lam.setflags(write=False)
    B.setflags(write=False)
    if G is not None:
        G.setflags(write=False)
    return SpectralModel(lam, B, G)


def _coeffs(model: SpectralModel, u) -> np.ndarray:
    if isinstance(u, CoeffVector):
        if u.model.dim != model.dim:
            raise DimensionMismatch("coefficient vector belongs to another model")
        return u.coeffs
    c = np.asarray(u, dtype=np.float64).ravel()
    if c.shape != (model.dim,):
        raise DimensionMismatch(f"expected {model.dim} coefficients, got {c.shape}")
    return c


def to_coeffs(model: SpectralModel, ambient_vector) -> CoeffVector:
    """Project an ambient vector onto the eigenbasis: c_j = <u, w_j>_G."""
    u = np.asarray(ambient_vector, dtype=np.float64).ravel()
    if u.shape != (model.ambient_dim,):
        raise DimensionMismatch(
            f"ambient vector length {u.shape} != {model.ambient_dim}"
        )
    c = model.basis.T @ _gram_apply(model.ambient_gram, u)
    return CoeffVector(c, model)


def from_coeffs(model: SpectralModel, u) -> np.ndarray:
    """Synthesize the ambient vector sum_j c_j w_j."""
    return model.basis @ _coeffs(model, u)


def apply_fractional_power(model: SpectralModel, alpha, u) -> CoeffVector:
    """Coefficientwise map c_j -> lam_j^alpha c_j; alpha = 0 is the identity."""
    a = _alpha(alpha)
    c = _coeffs(model, u)
    if a == 0.0:
        return CoeffVector(c.copy(), model)
    return CoeffVector(np.power(model.eigenvalues, a) * c, model)


def frac_norm(model: SpectralModel, alpha, u) -> float:
    """(sum_j lam_j^(2 alpha) |c_j|^2)^(1/2)."""
    a = _alpha(alpha)
    c = _coeffs(model, u)
    return math.sqrt(float(np.power(model.eigenvalues, 2.0 * a) @ (c * c)))


def frac_inner(model: SpectralModel, alpha, u, v) -> float:
    """sum_j lam_j^(2 alpha) c_j d_j; symmetric bilinear."""
    a = _alpha(alpha)
    c = _coeffs(model, u)
    d = _coeffs(model, v)
    return float(np.power(model.eigenvalues, 2.0 * a) @ (c * d))


def higher_power_decomposition_check(model: SpectralModel, alpha, beta, u):
    """Check norm_beta(u) == norm_alpha(A^(beta-alpha) u) for beta >= alpha >= 0.

    Exact as a coefficient identity (lam^beta = lam^alpha lam^(beta-alpha));
    only rounding separates the two evaluations.
    """
    a, b = _alpha(alpha), _alpha(beta)
    if not (b >= a >= 0.0):
        raise InvalidExponentOrder(f"need beta >= alpha >= 0, got alpha={a}, beta={b}")
    lhs = frac_norm(model, b, u)
    rhs = frac_norm(model, a, apply_fractional_power(model, b - a, u))
    residual = abs(lhs - rhs)
    bound = 1e-10 * max(lhs, 1e-300)
    cell = {
        "check": "higher-power",
        "alpha": a,
        "beta": b,
        "ratio": rhs / lhs if lhs > 0 else 1.0,
        "residual": residual,
        "bound": bound,
        "pass": bool(residual <= bound),
    }
    return make_report(
        "higher-power-check",
        {"alpha": a, "beta": b, "dim": model.dim},
        [cell],
    )


# ---- JSON round trips


def model_to_json(model: SpectralModel) -> str:
    doc = {
        "eigenvalues": model.eigenvalues.tolist(),
        "basis": model.basis.tolist(),
        "ambient_gram": None
        if model.ambient_gram is None
        else model.ambient_gram.tolist(),
    }
    return json.dumps(doc, sort_keys=True)


def model_from_json(text: str) -> SpectralModel:
    doc = json.loads(text)
    return build_spectral_model(
        doc["eigenvalues"], doc["basis"], doc.get("ambient_gram")
    )


def coeffs_to_json(cv: CoeffVector) -> str:
    return json.dumps({"coeffs": cv.coeffs.tolist()}, sort_keys=True)


def coeffs_from_json(model: SpectralModel, text: str) -> CoeffVector:
    doc = json.loads(text)
    return CoeffVector(np.asarray(doc["coeffs"], dtype=np.float64), model)
