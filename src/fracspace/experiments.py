"""Experiment runners behind the CLI registry.

Each runner takes a RunConfig and returns a VerificationReport whose
cells are deterministic functions of (sizes, thetas, seed, quadrature).
Statement labels in cell/doc text ("Lemma 4.1", "Corollary 5.2", ...)
refer to the Verified statements section of the README.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy import linalg

from .errors import AmbiguousClassification, InvalidConfig
from .kfunctional import (
    QuadratureRule,
    build_quadratic_pair,
    congruence,
    i_theta,
    interp_norms_sq,
)
from .operators import (
    build_stokes,
    grid_domain,
    laplacian_1d_analytic,
    sobolev_grams,
    stokes_ambient_model,
    stokes_spectral_model,
)
from .reporting import RunConfig, config_hash, make_report
from .retractions import (
    harmonic_retraction,
    stokes_retraction,
    verify_intersection_lemma,
)
from .spectral import (
    CoeffVector,
    apply_fractional_power,
    frac_norm,
    higher_power_decomposition_check,
    to_coeffs,
)

# ---- coefficient families on (0, 1) against lam_j = (j pi)^2
# sine-basis coefficients of the three reference profiles


def coeffs_constant_one(n: int) -> np.ndarray:
    """u(x) = 1: c_j = 2 sqrt(2) / (j pi) for odd j, else 0."""
    j = np.arange(1, n + 1, dtype=np.float64)
    c = 2.0 * math.sqrt(2.0) / (j * np.pi)
    c[1::2] = 0.0
    return c


def coeffs_sin_pi(n: int) -> np.ndarray:
    """u(x) = sin(pi x): the single mode j = 1 with weight 1/sqrt(2)."""
    c = np.zeros(n)
    c[0] = 1.0 / math.sqrt(2.0)
    return c


def coeffs_bubble(n: int) -> np.ndarray:
    """u(x) = x(1-x): c_j = 4 sqrt(2) / (j pi)^3 for odd j, else 0."""
    j = np.arange(1, n + 1, dtype=np.float64)
    c = 4.0 * math.sqrt(2.0) / (j * np.pi) ** 3
    c[1::2] = 0.0
    return c


def decaying_probes(dim: int, count: int, seed: int) -> list:
    """Random coefficient probes with j^(-1.5) decay, components uniform
    on [-1, 1]; the decay keeps them (numerically) in every intermediate
    space of the sweeps."""
    rng = np.random.default_rng(seed)
    decay = np.arange(1, dim + 1, dtype=np.float64) ** -1.5
    return [decay * rng.uniform(-1.0, 1.0, size=dim) for _ in range(count)]


# ---- config helpers


def _size(config: RunConfig, i: int, default: int) -> int:
    return config.sizes[i] if len(config.sizes) > i else default

def _sizes(config: RunConfig, default: tuple) -> tuple:
    return tuple(config.sizes) if config.sizes else default


def _thetas(config: RunConfig, default: tuple) -> tuple:
    return tuple(config.thetas) if config.thetas else default


def _rule(config: RunConfig, eigenvalues) -> QuadratureRule:
    return QuadratureRule.from_config(
        config.quadrature, QuadratureRule.for_spectrum(eigenvalues)
    )


# ---- interpolation identity sweep (Lemma 4.1)


def lemma_fps_sweep(model, thetas, probes, rule):
    """ratio = interp_norm^2 / (i_theta * frac_norm^2) per (theta, probe)."""
    C = np.column_stack([np.asarray(c, dtype=np.float64) for c in probes])
    num = interp_norms_sq(model.eigenvalues, C, thetas, rule)
    cells = []
    for theta, num_theta in zip(thetas, num.tolist()):
        const = i_theta(theta)
        for p in range(C.shape[1]):
            den = const * frac_norm(model, theta, CoeffVector(C[:, p], model)) ** 2
            ratio = num_theta[p] / den
            cells.append(
                {
                    "lemma": "Lemma 4.1",
                    "grid": model.dim,
                    "check": "identity-ratio",
                    "theta": float(theta),
                    "probe": p,
                    "ratio": ratio,
                    "bound": 1e-3,
                    "pass": bool(abs(ratio - 1.0) <= 1e-3),
                }
            )
    return cells


def run_lemma41(config: RunConfig):
    n = _size(config, 0, 256)
    thetas = _thetas(config, tuple(round(0.1 * k, 1) for k in range(1, 10)))
    model = laplacian_1d_analytic(n)
    probes = decaying_probes(model.dim, 20, config.seed)
    rule = _rule(config, model.eigenvalues)
    cells = lemma_fps_sweep(model, thetas, probes, rule)
    params = {
        "modes": n,
        "thetas": list(thetas),
        "n_probes": len(probes),
        "log_t_min": rule.log_t_min,
        "log_t_max": rule.log_t_max,
    }
    return make_report(
        "lemma41", params, cells, seed=config.seed, cfg_hash=config_hash(config)
    )


# ---- reiteration (Corollary 4.2)


def reiteration_check(model, theta, probes, rule_sqrt, pencil):
    """Cells for one theta: the coefficient identity
    frac_norm((1+theta)/2, u) = frac_norm(theta/2, A^(1/2) u), the
    derived-model identity (spectrum lam^(1/2) at theta against
    frac_norm(theta/2, u)), and the weighted-pair identity targeting the
    exponent (1+theta)/2.

    pencil is congruence(pair) of the weighted pair (diag lam, diag lam^2),
    solved once by the caller. The weighted-pair norm takes its eigenvalues
    from the pencil's eigensolve, not from model, so it stays an
    independent route to the exponent (1+theta)/2."""
    lam_eff, _, transform = pencil
    C = np.column_stack([np.asarray(c, dtype=np.float64) for c in probes])
    derived = interp_norms_sq(np.sqrt(model.eigenvalues), C, (theta,), rule_sqrt)[0]
    # in congruence coordinates the pair is (identity, diag lam_eff^2)
    weighted = interp_norms_sq(lam_eff, transform @ C, (theta,), rule_sqrt)[0]
    const = i_theta(theta)
    cells = []
    for p in range(C.shape[1]):
        u = CoeffVector(C[:, p], model)
        half_u = apply_fractional_power(model, 0.5, u)
        lhs = frac_norm(model, (1.0 + theta) / 2.0, u)
        rhs = frac_norm(model, theta / 2.0, half_u)
        resid = abs(lhs - rhs) / max(rhs, 1e-300)
        cells.append(
            {
                "lemma": "Corollary 4.2",
                "grid": model.dim,
                "check": "coefficient-identity",
                "theta": theta,
                "probe": p,
                "ratio": lhs / max(rhs, 1e-300),
                "bound": 1e-12,
                "pass": bool(resid <= 1e-12),
            }
        )
        ratio = float(derived[p]) / (const * frac_norm(model, theta / 2.0, u) ** 2)
        cells.append(
            {
                "lemma": "Corollary 4.2",
                "grid": model.dim,
                "check": "derived-model-ratio",
                "theta": theta,
                "probe": p,
                "ratio": ratio,
                "bound": 1e-3,
                "pass": bool(abs(ratio - 1.0) <= 1e-3),
            }
        )
        ratio = float(weighted[p]) / (const * lhs**2)
        cells.append(
            {
                "lemma": "Corollary 4.2",
                "grid": model.dim,
                "check": "weighted-pair-ratio",
                "theta": theta,
                "probe": p,
                "ratio": ratio,
                "bound": 1e-3,
                "pass": bool(abs(ratio - 1.0) <= 1e-3),
            }
        )
    return cells


def run_reiteration(config: RunConfig):
    n = _size(config, 0, 256)
    thetas = _thetas(config, (0.25, 0.5, 0.75))
    model = laplacian_1d_analytic(n)
    lam = model.eigenvalues
    probes = decaying_probes(model.dim, 20, config.seed)
    rule_sqrt = _rule(config, np.sqrt(lam))
    pencil = congruence(build_quadratic_pair(np.diag(lam), np.diag(lam * lam)))
    cells = []
    for theta in thetas:
        cells.extend(reiteration_check(model, float(theta), probes, rule_sqrt, pencil))
    # endpoint consistency: at theta = 1 the exponent chain lands on D(A)
    for p, coeffs in enumerate(probes):
        u = CoeffVector(np.asarray(coeffs, dtype=np.float64), model)
        lhs = frac_norm(model, 1.0, u)
        rhs = frac_norm(model, 0.5, apply_fractional_power(model, 0.5, u))
        resid = abs(lhs - rhs) / max(rhs, 1e-300)
        cells.append(
            {
                "lemma": "Corollary 4.2",
                "grid": model.dim,
                "check": "endpoint-theta1",
                "theta": 1.0,
                "probe": p,
                "ratio": lhs / max(rhs, 1e-300),
                "bound": 1e-12,
                "pass": bool(resid <= 1e-12),
            }
        )
    params = {"modes": n, "thetas": list(thetas), "n_probes": len(probes)}
    return make_report(
        "reiteration", params, cells, seed=config.seed, cfg_hash=config_hash(config)
    )


# ---- criticality at theta = 1/4 (Corollary 5.2)


@dataclass(frozen=True)
class CriticalityProfile:
    theta: float
    partial_sums: tuple
    classification: str  # convergent | log-divergent | power-divergent
    fitted_exponent: float
    r_squared: float | None
    ladder: tuple


def _linfit(x, y):
    slope, intercept = np.polyfit(x, y, 1)
    fitted = slope * x + intercept
    ss_res = float(np.sum((y - fitted) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return float(slope), r2


def classify_partial_sums(ladder, sums):
    """Classify growth of S_N over a dyadic ladder.

    Convergent when the upper-half increments are negligible against the
    total or carry a negative power of N (regression exponent < -0.05);
    power-divergent when the exponent exceeds +0.05 (the exponent is the
    fitted one); otherwise log-divergent, which must fit S_N against
    ln N with R^2 > 0.999 or the classification is ambiguous.
    """
    ladder = np.asarray(ladder, dtype=np.float64)
    sums = np.asarray(sums, dtype=np.float64)
    inc = np.diff(sums)
    win = inc[inc.shape[0] // 2 :]
    win_n = ladder[1:][inc.shape[0] // 2 :]
    total = sums[-1]
    if np.max(win) <= 1e-6 * total:
        return "convergent", 0.0, None
    if np.min(win) <= 0.0:  # a dyadic span added nothing: converged
        return "convergent", 0.0, None
    slope, _ = _linfit(np.log(win_n), np.log(win))
    if slope < -0.05:
        return "convergent", slope, None
    if slope > 0.05:
        return "power-divergent", slope, None
    sum_win = slice(sums.shape[0] // 2, None)
    _, r2 = _linfit(np.log(ladder[sum_win]), sums[sum_win])
    if r2 > 0.999:
        return "log-divergent", slope, r2
    raise AmbiguousClassification(
        f"increment exponent {slope:.4f} near zero but R^2 = {r2:.6f} <= 0.999"
    )


# largest criticality ladder: a scan keeps about 48 bytes per mode, so
# 2^22 modes take about 0.25 GB
MAX_CRITICALITY_MODES = 2**22


def criticality_scan(n_modes: int, thetas, coeffs=None) -> list:
    """Partial sums S_N = sum_(j<=N) lam_j^(2 theta) c_j^2 on the dyadic
    ladder N = 2^4 .. 2^floor(log2 n_modes), classified per theta.

    Defaults to the constant-one profile c_j = 2 sqrt(2)/(j pi), odd j.
    """
    if n_modes < 512:
        raise InvalidConfig(f"need n_modes >= 512 for a usable ladder, got {n_modes}")
    if n_modes > MAX_CRITICALITY_MODES:
        raise InvalidConfig(
            f"n_modes={n_modes} exceeds the criticality cap of {MAX_CRITICALITY_MODES}"
        )
    c = coeffs_constant_one(n_modes) if coeffs is None else np.asarray(coeffs, float)
    if c.shape[0] != n_modes:
        raise InvalidConfig(f"coefficient length {c.shape[0]} != n_modes {n_modes}")
    k_max = int(math.floor(math.log2(n_modes)))
    ladder = tuple(2**k for k in range(4, k_max + 1))
    j = np.arange(1, n_modes + 1, dtype=np.float64)
    lam = (j * np.pi) ** 2
    profiles = []
    for theta in thetas:
        theta = float(theta)
        terms = lam ** (2.0 * theta) * c * c
        cum = np.cumsum(terms)
        sums = tuple(float(cum[n - 1]) for n in ladder)
        if any(b < a for a, b in zip(sums, sums[1:])):
            raise AmbiguousClassification("partial sums are not nondecreasing")
        cls, exponent, r2 = classify_partial_sums(ladder, sums)
        profiles.append(
            CriticalityProfile(
                theta=theta,
                partial_sums=sums,
                classification=cls,
                fitted_exponent=exponent,
                r_squared=r2,
                ladder=ladder,
            )
        )
    return profiles


def _expected_class(theta: float):
    """Analytic expectation for the constant-one profile: terms behave
    like j^(4 theta - 2), so increments carry exponent 4 theta - 1."""
    growth = 4.0 * theta - 1.0
    if growth < -0.05:
        return "convergent"
    if growth > 0.05:
        return "power-divergent"
    return "log-divergent"


def run_criticality(config: RunConfig):
    n = _size(config, 0, 2**14)
    thetas = _thetas(config, (0.20, 0.25, 0.30))
    profiles = criticality_scan(n, thetas)
    cells = []
    for prof in profiles:
        expected = _expected_class(prof.theta)
        ok = prof.classification == expected
        growth = 4.0 * prof.theta - 1.0
        if ok and expected == "power-divergent":
            ok = abs(prof.fitted_exponent - growth) <= 0.1 * abs(growth)
        if ok and expected == "log-divergent":
            ok = prof.r_squared is not None and prof.r_squared > 0.999
        cells.append(
            {
                "lemma": "Corollary 5.2",
                "check": "classification",
                "theta": prof.theta,
                "classification": prof.classification,
                "expected": expected,
                "fitted_exponent": prof.fitted_exponent,
                "r_squared": prof.r_squared,
                "s_final": prof.partial_sums[-1],
                "ladder_top": prof.ladder[-1],
                "pass": bool(ok),
            }
        )
    params = {"modes": n, "thetas": [float(t) for t in thetas]}
    return make_report(
        "criticality", params, cells, seed=config.seed, cfg_hash=config_hash(config)
    )


# ---- boundary-weight functional (Corollary 5.2)


@dataclass(frozen=True)
class WeightFunctional:
    value: float
    divergence_flag: bool
    values: tuple
    levels: tuple


_GL_NODES, _GL_WEIGHTS = leggauss(16)


def _band_integral(f, a, b):
    x = 0.5 * (b - a) * _GL_NODES + 0.5 * (a + b)
    return 0.5 * (b - a) * float(_GL_WEIGHTS @ f(x))


# finest level: on the mirrored band near x = 1, 1 - x carries a relative
# rounding error of about 2^(k - 53) (1.2e-4 at k = 40, below the 1e-3
# bound of the log-increment cell); at k = 54 the band rounds to x = 1
_WEIGHT_K_MAX = 40


def weight_test(u, k_min=8, k_max=20) -> WeightFunctional:
    """Quadrature of integral rho(x)^-1 |u(x)|^2 dx, rho = x(1-x), on
    meshes geometrically graded toward both endpoints.

    Levels k = k_min..k_max cut off at eps_k = 2^-k; each refinement adds
    the two bands [2^-k, 2^-(k-1)] and its mirror. The flag is set when
    successive increments fail to decay (ratio > 0.9 sustained over the
    last three levels)."""

    def rho(x):
        return x * (1.0 - x)

    def integrand(x):
        return np.asarray(u(x), dtype=np.float64) ** 2 / rho(x)

    if not 2 <= k_min < k_max <= _WEIGHT_K_MAX:
        raise InvalidConfig(
            f"need 2 <= k_min < k_max <= {_WEIGHT_K_MAX}, got {k_min}, {k_max}"
        )
    total = 0.0
    for i in range(k_min, 1, -1):  # base mesh covers [2^-k_min, 1 - 2^-k_min]
        a, b = 2.0**-i, 2.0 ** -(i - 1)
        total += _band_integral(integrand, a, b)
        total += _band_integral(integrand, 1.0 - b, 1.0 - a)
    values = [total]
    for k in range(k_min + 1, k_max + 1):
        a, b = 2.0**-k, 2.0 ** -(k - 1)
        total += _band_integral(integrand, a, b)
        total += _band_integral(integrand, 1.0 - b, 1.0 - a)
        values.append(total)
    inc = np.diff(values)
    flag = False
    if inc.shape[0] >= 3:
        last = inc[-3:]
        prev = inc[-4:-1] if inc.shape[0] >= 4 else inc[:3]
        floor = 1e-15 * max(total, 1.0)
        if np.all(last > floor):
            ratios = last / np.maximum(prev, 1e-300)
            flag = bool(np.all(ratios > 0.9))
    return WeightFunctional(
        value=float(total),
        divergence_flag=flag,
        values=tuple(float(v) for v in values),
        levels=tuple(range(k_min, k_max + 1)),
    )


_WEIGHT_PROBES = (
    ("one", lambda x: np.ones_like(x), coeffs_constant_one),
    ("sin-pi", lambda x: np.sin(np.pi * x), coeffs_sin_pi),
    ("bubble", lambda x: x * (1.0 - x), coeffs_bubble),
)


def run_weight(config: RunConfig):
    k_max = _size(config, 0, 20)
    n_modes = 2**14
    cells = []
    for name, func, coeff_fn in _WEIGHT_PROBES:
        wf = weight_test(func, k_max=k_max)
        prof = criticality_scan(n_modes, [0.25], coeffs=coeff_fn(n_modes))[0]
        member = prof.classification == "convergent"
        agree = wf.divergence_flag == (not member)
        cells.append(
            {
                "lemma": "Corollary 5.2",
                "check": "agreement",
                "theta": 0.25,
                "probe": name,
                "weight_value": wf.value,
                "weight_divergent": wf.divergence_flag,
                "criticality_class": prof.classification,
                "pass": bool(agree),
            }
        )
        if name == "one":
            # each level adds about ln 2 per graded endpoint
            inc = wf.values[-1] - wf.values[-2]
            ratio = inc / (2.0 * math.log(2.0))
            cells.append(
                {
                    "lemma": "Corollary 5.2",
                    "check": "log-increment",
                    "theta": 0.25,
                    "probe": name,
                    "ratio": ratio,
                    "bound": 1e-3,
                    "pass": bool(abs(ratio - 1.0) <= 1e-3),
                }
            )
    params = {"k_max": k_max, "modes": n_modes}
    return make_report(
        "weight", params, cells, seed=config.seed, cfg_hash=config_hash(config)
    )


# ---- intersection lemma (Lemma 4.3) on both concrete retractions


def _harmonic_setup(n: int):
    dom = grid_domain(2, n)
    grams = sobolev_grams(dom)
    pair = build_quadratic_pair(grams.g1, grams.g2)
    return pair, harmonic_retraction(dom, grams)


def _stokes_setup(n: int):
    sys = build_stokes(grid_domain(2, n))
    A = sys.vector_laplacian
    pair = build_quadratic_pair(np.eye(A.shape[0]), A @ A)
    return pair, stokes_retraction(sys)


def run_intersection(config: RunConfig):
    n_harmonic = _size(config, 0, 16)
    n_stokes = _size(config, 1, 12)
    thetas = _thetas(config, (0.25, 0.5, 0.75))
    hash_ = config_hash(config)
    pair, T = _harmonic_setup(n_harmonic)
    rep_h = verify_intersection_lemma(
        pair,
        T,
        thetas,
        config.quadrature,
        lemma_label="Lemma 4.3",
        grid_label=f"harmonic-n{n_harmonic}",
        seed=config.seed,
        cfg_hash=hash_,
    )
    pair, T = _stokes_setup(n_stokes)
    rep_s = verify_intersection_lemma(
        pair,
        T,
        thetas,
        config.quadrature,
        lemma_label="Lemma 4.3",
        grid_label=f"stokes-n{n_stokes}",
        seed=config.seed,
        cfg_hash=hash_,
    )
    params = {"harmonic": rep_h.parameters, "stokes": rep_s.parameters}
    return make_report(
        "intersection",
        params,
        rep_h.cells + rep_s.cells,
        seed=config.seed,
        cfg_hash=hash_,
    )


# ---- zero-boundary pair above theta = 1/2 (Corollary 5.4)


def halft1_check(domain, thetas, seed=42, quadrature=None, cfg_hash=""):
    """Intersection-lemma run for the pair (g1, g2) with the zero-boundary
    subspace and the harmonic retraction, restricted to 1/2 < theta < 1."""
    for theta in thetas:
        if not 0.5 < float(theta) < 1.0:
            raise InvalidConfig(f"halft1 needs thetas in (1/2, 1), got {theta}")
    pair, T = _harmonic_setup(domain.n)
    return verify_intersection_lemma(
        pair,
        T,
        thetas,
        quadrature,
        lemma_label="Corollary 5.4",
        grid_label=f"n{domain.n}",
        experiment_name="halft1",
        seed=seed,
        cfg_hash=cfg_hash,
    )


def run_halft1(config: RunConfig):
    sizes = _sizes(config, (8, 12, 16))
    thetas = _thetas(config, (0.6, 0.75, 0.9))
    hash_ = config_hash(config)
    cells = []
    worst = {}
    lift_bounds = {}
    for n in sizes:
        rep = halft1_check(
            grid_domain(2, n),
            thetas,
            seed=config.seed,
            quadrature=config.quadrature,
            cfg_hash=hash_,
        )
        cells.extend(rep.cells)
        lift_bounds[n] = (rep.parameters["h_bound"], rep.parameters["d_bound"])
        cells.append(
            {
                "lemma": "Lemma 5.3",
                "grid": n,
                "check": "lift-bounds",
                "h_bound": lift_bounds[n][0],
                "d_bound": lift_bounds[n][1],
                "pass": True,  # recorded; drift is reported below
            }
        )
        for cell in rep.cells:
            if cell["check"] == "interp-ratio":
                key = cell["theta"]
                worst.setdefault(key, {})[n] = max(
                    worst.get(key, {}).get(n, 0.0), cell["ratio"]
                )
    if len(sizes) > 1:
        for which, pick in (("h_bound", 0), ("d_bound", 1)):
            vals = [lift_bounds[n][pick] for n in sizes]
            cells.append(
                {
                    "lemma": "Lemma 5.3",
                    "grid": "ladder",
                    "check": f"lift-{which}-drift",
                    "ratio": max(vals) / min(vals),
                    "bound": None,
                    "pass": True,
                }
            )
    for theta in sorted(worst):
        per_grid = worst[theta]
        drift = max(per_grid.values()) / min(per_grid.values())
        cells.append(
            {
                "lemma": "Corollary 5.4",
                "grid": "ladder",
                "check": "ratio-drift",
                "theta": theta,
                "ratio": drift,
                "bound": 2.0,
                "pass": bool(drift < 2.0),
            }
        )
    params = {"sizes": list(sizes), "thetas": [float(t) for t in thetas]}
    return make_report(
        "halft1", params, cells, seed=config.seed, cfg_hash=hash_
    )


# ---- divergence-free retraction stability (Lemma 5.5)


def run_stokes_retraction(config: RunConfig):
    sizes = _sizes(config, (8, 16, 24))
    rng = np.random.default_rng(config.seed)
    cells = []
    bounds = {}
    eig_low = {}
    for n in sizes:
        sys = build_stokes(grid_domain(2, n))
        T = stokes_retraction(sys)
        Z = sys.nullbasis
        r = Z.shape[1]
        worst_identity = 0.0
        for _ in range(100):
            z = Z @ rng.standard_normal(r)
            worst_identity = max(
                worst_identity,
                float(np.linalg.norm(T.map @ z - z) / np.linalg.norm(z)),
            )
        cells.append(
            {
                "lemma": "Lemma 5.5",
                "grid": n,
                "check": "identity-on-kernel",
                "ratio": worst_identity if worst_identity > 0 else 0.0,
                "bound": 1e-10,
                "pass": bool(worst_identity <= 1e-10),
            }
        )
        factor = linalg.cho_factor(sys.constrained_op, lower=True)
        A = sys.vector_laplacian
        worst_sym = 0.0
        for _ in range(10):
            psi = Z @ rng.standard_normal(r)
            psi /= np.linalg.norm(psi)
            phi = rng.standard_normal(A.shape[0])
            phi /= np.linalg.norm(phi)
            lhs = float(psi @ (T.map @ phi))
            rhs = float((A @ (Z @ linalg.cho_solve(factor, Z.T @ psi))) @ phi)
            worst_sym = max(worst_sym, abs(lhs - rhs))
        cells.append(
            {
                "lemma": "Lemma 5.5",
                "grid": n,
                "check": "adjoint-chain",
                "ratio": worst_sym,
                "bound": 1e-8,
                "pass": bool(worst_sym <= 1e-8),
            }
        )
        lam_c = np.linalg.eigvalsh(sys.constrained_op)
        bounds[n] = (T.h_bound, T.d_bound)
        eig_low[n] = float(lam_c[0])
        cells.append(
            {
                "lemma": "Lemma 5.5",
                "grid": n,
                "check": "bounds-recorded",
                "h_bound": T.h_bound,
                "d_bound": T.d_bound,
                "kernel_dim": r,
                "rank_deficiency": sys.divergence.shape[0]
                - (sys.divergence.shape[1] - r),
                "lambda_min_constrained": eig_low[n],
                "pass": True,
            }
        )
    for which, pick in (("h_bound", 0), ("d_bound", 1)):
        vals = [bounds[n][pick] for n in sizes]
        drift = max(vals) / min(vals)
        cells.append(
            {
                "lemma": "Lemma 5.5",
                "grid": "ladder",
                "check": f"{which}-drift",
                "ratio": drift,
                "bound": 2.0,
                "pass": bool(drift < 2.0),
            }
        )
    lows = [eig_low[n] for n in sizes]
    cells.append(
        {
            "lemma": "Lemma 5.5",
            "grid": "ladder",
            "check": "lowest-eigenvalue-drift",
            "ratio": max(lows) / min(lows),
            "bound": None,
            "pass": True,  # recorded, not asserted
        }
    )
    params = {"sizes": list(sizes)}
    return make_report(
        "stokes-retraction",
        params,
        cells,
        seed=config.seed,
        cfg_hash=config_hash(config),
    )


# ---- constrained vs ambient fractional norms (Lemma 5.5)


def stokes_equivalence_study(config: RunConfig):
    sizes = _sizes(config, (8, 12, 16))
    thetas = _thetas(config, (0.25, 0.5, 0.75))
    cells = []
    extremes = {}
    for n in sizes:
        sys = build_stokes(grid_domain(2, n))
        constrained = stokes_spectral_model(sys)
        ambient = stokes_ambient_model(sys)
        Z = sys.nullbasis
        V = constrained.basis
        probe_coords = [
            V @ c for c in decaying_probes(constrained.dim, 20, config.seed)
        ] + [V[:, i] for i in range(5)]

        def ratio_at(theta, c):
            num = frac_norm(constrained, theta, to_coeffs(constrained, c))
            den = frac_norm(ambient, theta, to_coeffs(ambient, Z @ c))
            return num / den

        for theta, kind, bound in (
            (0.0, "exact-at-0", 1e-10),
            (0.5, "exact-at-half", 1e-10),
        ):
            worst = max(abs(ratio_at(theta, c) - 1.0) for c in probe_coords)
            cells.append(
                {
                    "lemma": "Lemma 5.5",
                    "grid": n,
                    "check": kind,
                    "theta": theta,
                    "ratio": 1.0 + worst,
                    "bound": bound,
                    "pass": bool(worst <= bound),
                }
            )
        worst = max(ratio_at(1.0, c) for c in probe_coords)
        cells.append(
            {
                "lemma": "Lemma 5.5",
                "grid": n,
                "check": "contraction-at-1",
                "theta": 1.0,
                "ratio": worst,
                "bound": 1.0,
                "pass": bool(worst <= 1.0 + 1e-12),
            }
        )
        for theta in thetas:
            theta = float(theta)
            ratios = [ratio_at(theta, c) for c in probe_coords]
            lo, hi = min(ratios), max(ratios)
            extremes.setdefault(theta, {})[n] = (lo, hi)
            cells.append(
                {
                    "lemma": "Lemma 5.5",
                    "grid": n,
                    "check": "ratio-range",
                    "theta": theta,
                    "ratio_min": lo,
                    "ratio_max": hi,
                    "pass": bool(math.isfinite(lo) and math.isfinite(hi) and lo > 0),
                }
            )
    for theta in sorted(extremes):
        per_grid = extremes[theta]
        los = [per_grid[n][0] for n in sizes]
        his = [per_grid[n][1] for n in sizes]
        drift = max(max(his) / min(his), max(los) / min(los))
        cells.append(
            {
                "lemma": "Lemma 5.5",
                "grid": "ladder",
                "check": "equivalence-drift",
                "theta": theta,
                "ratio": drift,
                "bound": 2.0,
                "pass": bool(drift < 2.0),
            }
        )
    params = {"sizes": list(sizes), "thetas": [float(t) for t in thetas]}
    return make_report(
        "stokes-equivalence",
        params,
        cells,
        seed=config.seed,
        cfg_hash=config_hash(config),
    )


# ---- higher-power identity sweep


_HP_PAIRS = ((0.0, 0.5), (0.25, 0.75), (0.5, 1.0), (0.3, 0.9), (1.0, 1.5), (0.75, 0.75))


def run_higher_power(config: RunConfig):
    n = _size(config, 0, 128)
    model = laplacian_1d_analytic(n)
    probes = decaying_probes(model.dim, 10, config.seed)
    cells = []
    for alpha, beta in _HP_PAIRS:
        for p, coeffs in enumerate(probes):
            u = CoeffVector(np.asarray(coeffs, dtype=np.float64), model)
            rep = higher_power_decomposition_check(model, alpha, beta, u)
            cell = dict(rep.cells[0])
            cell.update({"lemma": "higher-power", "grid": n, "probe": p})
            cells.append(cell)
    params = {"modes": n, "pairs": [list(p) for p in _HP_PAIRS]}
    return make_report(
        "higher-power", params, cells, seed=config.seed, cfg_hash=config_hash(config)
    )


# ---- registry


EXPERIMENTS = {
    "lemma41": (
        run_lemma41,
        "Interpolation-identity sweep (Lemma 4.1): interp_norm^2 = I(theta) * frac_norm^2.",
    ),
    "reiteration": (
        run_reiteration,
        "Reiteration identities (Corollary 4.2): derived-model and weighted-pair forms.",
    ),
    "intersection": (
        run_intersection,
        "Intersection-lemma bounds (Lemma 4.3) for the harmonic and divergence-free retractions.",
    ),
    "halft1": (
        run_halft1,
        "Zero-boundary pair equivalence above theta = 1/2 (Corollary 5.4, via Lemma 5.3; subspace of Lemma 5.1).",
    ),
    "criticality": (
        run_criticality,
        "Borderline growth at theta = 1/4 (Corollary 5.2): convergent, log-divergent, power-divergent.",
    ),
    "weight": (
        run_weight,
        "Boundary-weight membership test against the theta = 1/4 classification (Corollary 5.2).",
    ),
    "stokes-retraction": (
        run_stokes_retraction,
        "Divergence-free retraction identity, adjoint chain, and bound stability (Lemma 5.5).",
    ),
    "stokes-equivalence": (
        stokes_equivalence_study,
        "Constrained vs ambient fractional norms on the divergence-free subspace (Lemma 5.5).",
    ),
    "higher-power": (
        run_higher_power,
        "Higher-power decomposition identity: norm_beta(u) = norm_alpha(A^(beta-alpha) u).",
    ),
}
