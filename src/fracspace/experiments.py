"""Experiment runners behind the CLI registry.

Each runner takes a RunConfig and returns a VerificationReport whose
cells are deterministic functions of (sizes, thetas, seed, quadrature).
Statement labels in cell/doc text ("Lemma 4.1", "Corollary 5.2", ...)
refer to the Verified statements section of the README.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import AmbiguousClassification, InvalidConfig
from .kfunctional import (
    QuadraticPair,
    QuadratureRule,
    SpectralPair,
    congruence,
    i_theta,
    interp_norms_sq,
)
from .operators import (
    grid_domain,
    interior_indices,
    laplacian_1d_analytic,
    sobolev_grams,
    sobolev_pencil,
    stokes_ambient_model,
    stokes_domain,
    stokes_pencil,
    stokes_spectral_model,
    zero_boundary_pencil,
)
from .reporting import (
    RunConfig,
    at_most,
    cell,
    config_hash,
    ladder_drift,
    make_report,
    near_one,
    recorded,
)
from .retractions import (
    check_probe_dimension,
    check_stokes_identity,
    harmonic_retraction,
    lanczos_eigenvalue,
    probe_coordinates,
    stokes_apply,
    stokes_bound,
    stokes_retraction,
    verify_intersection_lemma,
)
from .spectral import (
    SpectralModel,
    apply_fractional_power,
    decaying_probes,
    frac_norm,
    higher_power_decomposition_check,
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


# ---- config helpers

# documented default sizes per experiment: the CLI prefills them, and a
# runner falls back to them for every position its config leaves out
DEFAULT_SIZES = {
    "lemma41": (256,),
    "reiteration": (256,),
    "criticality": (2**14,),
    "weight": (20,),
    "intersection": (16, 12),
    "halft1": (8, 12, 16),
    "stokes-retraction": (8, 16, 24),
    "stokes-equivalence": (8, 12, 16),
    "higher-power": (128,),
}


def _size(config: RunConfig, i: int) -> int:
    """Size i of a runner that takes as many sizes as its DEFAULT_SIZES
    entry; more sizes than that raise InvalidConfig."""
    default = DEFAULT_SIZES[config.experiment]
    if len(config.sizes) > len(default):
        raise InvalidConfig(
            f"too many sizes for {config.experiment}: got {len(config.sizes)},"
            f" at most {len(default)}"
        )
    sizes = config.sizes if len(config.sizes) > i else default
    return sizes[i]


def _sizes(config: RunConfig) -> tuple:
    return tuple(config.sizes) if config.sizes else DEFAULT_SIZES[config.experiment]


def _thetas(config: RunConfig, default: tuple) -> tuple:
    return tuple(config.thetas) if config.thetas else default


# ---- interpolation identity sweep (Lemma 4.1)


def lemma_fps_sweep(model, thetas, probes, rule):
    """ratio = interp_norm^2 / (i_theta * frac_norm^2) per (theta, probe)."""
    C = np.column_stack([np.asarray(c, dtype=np.float64) for c in probes])
    num = interp_norms_sq(model.eigenvalues, C, thetas, rule)
    cells = []
    for theta, num_theta in zip(thetas, num.tolist()):
        const = i_theta(theta)
        for p in range(C.shape[1]):
            den = const * frac_norm(model, theta, C[:, p]) ** 2
            cells.append(
                near_one(
                    num_theta[p] / den,
                    1e-3,
                    lemma="Lemma 4.1",
                    grid=model.dim,
                    check="identity-ratio",
                    theta=float(theta),
                    probe=p,
                )
            )
    return cells


def run_lemma41(config: RunConfig):
    n = _size(config, 0)
    thetas = _thetas(config, tuple(round(0.1 * k, 1) for k in range(1, 10)))
    model = laplacian_1d_analytic(n)
    probes = decaying_probes(model.dim, 20, config.seed)
    rule = QuadratureRule.from_config(config.quadrature, model.eigenvalues)
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

    pencil = (lam_eff, scale) reduces the weighted pair (diag lam,
    diag lam^2) to spectral form: its pencil eigenvalues are
    lam_eff = sqrt(lam^2 / lam), and the coordinates of u, orthonormal
    under the first form, are scale * u with scale = sqrt(lam). The pair
    is diagonal, so the caller takes both elementwise, with no dense
    eigensolve. The weighted-pair norm stays an independent route to the
    exponent (1+theta)/2: it is the K-method quadrature of that pair,
    not the coefficient formula frac_norm that it is compared with."""
    lam_eff, scale = pencil
    C = np.column_stack([np.asarray(c, dtype=np.float64) for c in probes])
    derived = interp_norms_sq(np.sqrt(model.eigenvalues), C, (theta,), rule_sqrt)[0]
    # in pencil coordinates the pair is (identity, diag lam_eff^2)
    weighted = interp_norms_sq(lam_eff, scale[:, None] * C, (theta,), rule_sqrt)[0]
    const = i_theta(theta)
    cells = []
    for p in range(C.shape[1]):
        u = C[:, p]
        half_u = apply_fractional_power(model, 0.5, u)
        lhs = frac_norm(model, (1.0 + theta) / 2.0, u)
        rhs = frac_norm(model, theta / 2.0, half_u)
        fields = {"lemma": "Corollary 4.2", "grid": model.dim, "theta": theta, "probe": p}
        cells.append(
            _exponent_chain_cell(lhs, rhs, check="coefficient-identity", **fields)
        )
        cells.append(
            near_one(
                float(derived[p]) / (const * frac_norm(model, theta / 2.0, u) ** 2),
                1e-3,
                check="derived-model-ratio",
                **fields,
            )
        )
        cells.append(
            near_one(
                float(weighted[p]) / (const * lhs**2),
                1e-3,
                check="weighted-pair-ratio",
                **fields,
            )
        )
    return cells


def _exponent_chain_cell(lhs, rhs, **fields):
    """Corollary 4.2's coefficient identity lhs = rhs, exact up to rounding:
    the relative residual must stay within 1e-12."""
    den = max(rhs, 1e-300)
    return at_most(abs(lhs - rhs) / den, 1e-12, ratio=lhs / den, **fields)


def run_reiteration(config: RunConfig):
    n = _size(config, 0)
    thetas = _thetas(config, (0.25, 0.5, 0.75))
    model = laplacian_1d_analytic(n)
    lam = model.eigenvalues
    probes = decaying_probes(model.dim, 20, config.seed)
    rule_sqrt = QuadratureRule.from_config(config.quadrature, np.sqrt(lam))
    lam2 = lam * lam
    pencil = (np.sqrt(lam2 / lam), np.sqrt(lam))
    cells = []
    for theta in thetas:
        cells.extend(reiteration_check(model, float(theta), probes, rule_sqrt, pencil))
    # endpoint consistency: at theta = 1 the exponent chain lands on D(A)
    for p, u in enumerate(probes):
        lhs = frac_norm(model, 1.0, u)
        rhs = frac_norm(model, 0.5, apply_fractional_power(model, 0.5, u))
        cells.append(
            _exponent_chain_cell(
                lhs,
                rhs,
                lemma="Corollary 4.2",
                grid=model.dim,
                check="endpoint-theta1",
                theta=1.0,
                probe=p,
            )
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
    n = _size(config, 0)
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
            cell(
                ok,
                lemma="Corollary 5.2",
                check="classification",
                theta=prof.theta,
                classification=prof.classification,
                expected=expected,
                fitted_exponent=prof.fitted_exponent,
                r_squared=prof.r_squared,
                s_final=prof.partial_sums[-1],
                ladder_top=prof.ladder[-1],
            )
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


@functools.cache
def _gauss_legendre():
    """Nodes and weights of the 16-point Gauss-Legendre rule on [-1, 1],
    made on first use: numpy.polynomial stays off the package import."""
    from numpy.polynomial.legendre import leggauss

    return leggauss(16)


def _band_integral(f, a, b):
    nodes, weights = _gauss_legendre()
    x = 0.5 * (b - a) * nodes + 0.5 * (a + b)
    return 0.5 * (b - a) * float(weights @ f(x))


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
    last three levels), which needs k_max - k_min >= 4: four increments,
    so that the last three each have a predecessor."""

    def rho(x):
        return x * (1.0 - x)

    def integrand(x):
        return np.asarray(u(x), dtype=np.float64) ** 2 / rho(x)

    if not (2 <= k_min and k_min + 4 <= k_max <= _WEIGHT_K_MAX):
        raise InvalidConfig(
            f"need 2 <= k_min, k_min + 4 <= k_max <= {_WEIGHT_K_MAX},"
            f" got {k_min}, {k_max}"
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
    last, prev = inc[-3:], inc[-4:-1]
    flag = False
    if np.all(last > 1e-15 * max(total, 1.0)):
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
    k_max = _size(config, 0)
    n_modes = 2**14
    cells = []
    for name, func, coeff_fn in _WEIGHT_PROBES:
        wf = weight_test(func, k_max=k_max)
        prof = criticality_scan(n_modes, [0.25], coeffs=coeff_fn(n_modes))[0]
        member = prof.classification == "convergent"
        fields = {"lemma": "Corollary 5.2", "theta": 0.25, "probe": name}
        cells.append(
            cell(
                wf.divergence_flag == (not member),
                check="agreement",
                weight_value=wf.value,
                weight_divergent=wf.divergence_flag,
                criticality_class=prof.classification,
                **fields,
            )
        )
        if name == "one":
            # each level adds about ln 2 per graded endpoint
            inc = wf.values[-1] - wf.values[-2]
            ratio = inc / (2.0 * math.log(2.0))
            cells.append(near_one(ratio, 1e-3, check="log-increment", **fields))
    params = {"k_max": k_max, "modes": n_modes}
    return make_report(
        "weight", params, cells, seed=config.seed, cfg_hash=config_hash(config)
    )


# ---- intersection lemma (Lemma 4.3) on both concrete retractions


def _harmonic_setup(dom):
    """The pairs and retraction of `verify_intersection_lemma` for (g1, g2)
    and the zero-boundary subspace, all three per parity class in the
    rotated coordinates: the ambient pencil by `sobolev_pencil`, on the
    rotated forms that the retraction also reads, the reduced one in
    closed form. The nodal forms of each pair, for the cross-check, are
    g1 and g2 and their interior rows and columns (Z^T g Z bit for bit
    for the indicator columns Z)."""
    grams = sobolev_grams(dom)  # validated, factored per class and read-only
    T = harmonic_retraction(dom, grams)
    ix = np.ix_(*[interior_indices(dom)] * 2)
    return (
        SpectralPair.of(grams.g1, grams.g2, sobolev_pencil(grams)),
        SpectralPair.of(grams.g1[ix], grams.g2[ix], zero_boundary_pencil(dom)),
        T,
    )


def _probed_grid(dom):
    """dom, once its subspace holds the mode probes. Both retractions'
    subspaces (zero-boundary nodes, ker D_h) have dimension n^2, so this
    runs before any grid is assembled."""
    check_probe_dimension(dom.n * dom.n)
    return dom


def _stokes_setup(dom):
    """The pairs and retraction of `verify_intersection_lemma` for (I, A^2)
    and ker D: the ambient pencil in A's closed-form modes (one block,
    `stokes_ambient_model`), the reduced one on the null basis Z by
    `congruence`, per parity class of the stream modes
    (`StokesPencil.classes`), with Z^T A^2 Z formed as (A Z)^T (A Z) from
    the sparse A; the retraction is one block."""
    p = stokes_pencil(dom)
    Z, gram = p.null_basis_and_gram()
    T = stokes_retraction(p, Z)
    ambient = stokes_ambient_model(dom)
    # (I, A^2) is SPD by construction, as the pencil's A is SPD, so the
    # pair skips build_quadratic_pair's copies and Cholesky checks
    A = p.vector_laplacian
    m1, m2 = np.eye(ambient.lam.size), (A @ A).toarray()
    m1.setflags(write=False)
    m2.setflags(write=False)
    AZ = A @ Z
    reduced = QuadraticPair(gram, AZ.T @ AZ)  # Z^T Z from the orthonormality check
    return (
        SpectralPair.of(m1, m2, ambient),
        SpectralPair.of(reduced.m1, reduced.m2, congruence(reduced, p.classes)),
        T,
    )


def run_intersection(config: RunConfig):
    # both grids are checked before either is assembled
    grids = (
        ("harmonic", _harmonic_setup, _probed_grid(grid_domain(2, _size(config, 0)))),
        ("stokes", _stokes_setup, _probed_grid(stokes_domain(_size(config, 1)))),
    )
    thetas = _thetas(config, (0.25, 0.5, 0.75))
    cells, params = [], {}
    for kind, setup, dom in grids:
        grid_tables, params[kind] = verify_intersection_lemma(
            *setup(dom),
            thetas,
            config.quadrature,
            grid_label=f"{kind}-n{dom.n}",
            seed=config.seed,
        )
        cells += grid_tables
    return make_report(
        "intersection", params, cells, seed=config.seed, cfg_hash=config_hash(config)
    )


# ---- zero-boundary pair above theta = 1/2 (Corollary 5.4)


def run_halft1(config: RunConfig):
    """Intersection-lemma runs for the pair (g1, g2) with the zero-boundary
    subspace and the harmonic retraction, restricted to 1/2 < theta < 1,
    on a ladder of grids."""
    thetas = _thetas(config, (0.6, 0.75, 0.9))
    for theta in thetas:
        if not 0.5 < float(theta) < 1.0:
            raise InvalidConfig(f"halft1 needs thetas in (1/2, 1), got {theta}")
    sizes = _sizes(config)
    domains = [_probed_grid(grid_domain(2, n)) for n in sizes]
    cells, lifts, peaks = [], [], []
    for n, dom in zip(sizes, domains):
        grid_tables, grid_params = verify_intersection_lemma(
            *_harmonic_setup(dom),
            thetas,
            config.quadrature,
            lemma_label="Corollary 5.4",
            grid_label=f"n{n}",
            seed=config.seed,
        )
        cells.extend(grid_tables)
        lift = {key: grid_params[key] for key in ("h_bound", "d_bound")}
        lifts.append(lift)
        cells.append(recorded(lemma="Lemma 5.3", grid=n, check="lift-bounds", **lift))
        # the interp-ratio table has one row per theta, one column per probe
        peaks.append(np.max(grid_tables[1].ratio, axis=1))
    if len(sizes) > 1:  # one grid has no drift to measure
        for which in ("h_bound", "d_bound"):
            cells.append(
                ladder_drift(
                    [lift[which] for lift in lifts],
                    bound=None,
                    lemma="Lemma 5.3",
                    grid="ladder",
                    check=f"lift-{which}-drift",
                )
            )
        for theta in sorted(set(thetas)):
            cells.append(
                ladder_drift(
                    [peak[thetas.index(theta)] for peak in peaks],
                    bound=2.0,
                    lemma="Corollary 5.4",
                    grid="ladder",
                    check="ratio-drift",
                    theta=theta,
                )
            )
    params = {"sizes": list(sizes), "thetas": [float(t) for t in thetas]}
    return make_report(
        "halft1", params, cells, seed=config.seed, cfg_hash=config_hash(config)
    )


# ---- divergence-free retraction stability (Lemma 5.5)


def run_stokes_retraction(config: RunConfig):
    """Lemma 5.5's retraction on a ladder of grids, each on its sparse
    stream-function pencil alone: the whole-subspace identity check, the
    seeded identity and adjoint cells, the Lanczos bound and
    lambda_min_constrained, all through the pencil's one factor of K."""
    sizes = _sizes(config)
    domains = [stokes_domain(n) for n in sizes]
    rng = np.random.default_rng(config.seed)
    cells, bounds, lows = [], [], []
    for n, dom in zip(sizes, domains):
        p = stokes_pencil(dom)
        check_stokes_identity(p)
        bound = stokes_bound(p)
        m, r = p.curl.shape
        # row i of one (100, r) draw is the i-th of 100 draws of size r
        Zs = p.null_vectors(rng.standard_normal((100, r)).T)
        resid = np.linalg.norm(stokes_apply(p, Zs) - Zs, axis=0) / np.linalg.norm(Zs, axis=0)
        fields = {"lemma": "Lemma 5.5", "grid": n}
        cells.append(
            at_most(np.max(resid), 1e-10, check="identity-on-kernel", **fields)
        )
        # the psi and phi draws interleave, pair by pair
        draws = [(rng.standard_normal(r), rng.standard_normal(m)) for _ in range(10)]
        Psi = p.null_vectors(np.column_stack([w for w, _ in draws]))
        Psi /= np.linalg.norm(Psi, axis=0)
        Phi = np.column_stack([phi for _, phi in draws])
        Phi /= np.linalg.norm(Phi, axis=0)
        lhs = np.sum(Psi * stokes_apply(p, Phi), axis=0)
        rhs = np.sum(stokes_apply(p, Psi, transpose=True) * Phi, axis=0)
        cells.append(
            at_most(np.max(np.abs(lhs - rhs)), 1e-8, check="adjoint-chain", **fields)
        )
        bounds.append(bound)
        # lambda_min(Z^T A Z), the lowest eigenvalue of (K, C^T C) in class coordinates
        lows.append(
            lanczos_eigenvalue(
                p.class_stiffness, r, mass=p.class_curl_gram, inverse=p.solve
            )
        )
        cells.append(
            recorded(
                check="bounds-recorded",
                h_bound=bound,
                d_bound=bound,
                kernel_dim=r,
                rank_deficiency=p.divergence.shape[0] - (m - r),
                lambda_min_constrained=lows[-1],
                **fields,
            )
        )
    ladder = {"lemma": "Lemma 5.5", "grid": "ladder"}
    # one Lanczos bound serves as both h_bound and d_bound
    for which in ("h_bound", "d_bound"):
        cells.append(ladder_drift(bounds, bound=2.0, check=f"{which}-drift", **ladder))
    cells.append(
        ladder_drift(lows, bound=None, check="lowest-eigenvalue-drift", **ladder)
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
    sizes = _sizes(config)
    domains = [stokes_domain(n) for n in sizes]
    thetas = tuple(float(t) for t in _thetas(config, (0.25, 0.5, 0.75)))
    cells, los, his = [], [], []
    for n, dom in zip(sizes, domains):
        p = stokes_pencil(dom)
        con_form, amb_form = stokes_spectral_model(p), stokes_ambient_model(dom)
        constrained, ambient = SpectralModel(con_form.lam), SpectralModel(amb_form.lam)
        coords = probe_coordinates(con_form, config.seed)
        # constrained / ambient norm of every probe (a column each), per theta
        c_con = con_form.coefficients(coords)
        c_amb = amb_form.coefficients(p.null_vectors(coords))
        ratios = {
            theta: frac_norm(constrained, theta, c_con)
            / frac_norm(ambient, theta, c_amb)
            for theta in (0.0, 0.5, 1.0, *thetas)
        }
        fields = {"lemma": "Lemma 5.5", "grid": n}
        for theta, kind in ((0.0, "exact-at-0"), (0.5, "exact-at-half")):
            worst = np.max(np.abs(ratios[theta] - 1.0))
            cells.append(
                at_most(
                    worst, 1e-10, ratio=1.0 + worst, check=kind, theta=theta, **fields
                )
            )
        cells.append(
            at_most(
                np.max(ratios[1.0]),
                1.0,
                rel=1e-12,
                check="contraction-at-1",
                theta=1.0,
                **fields,
            )
        )
        per_theta = np.array([ratios[theta] for theta in thetas])
        los.append(np.min(per_theta, axis=1))
        his.append(np.max(per_theta, axis=1))
        for theta, lo, hi in zip(thetas, los[-1], his[-1]):
            cells.append(
                cell(
                    math.isfinite(lo) and math.isfinite(hi) and lo > 0,
                    check="ratio-range",
                    theta=theta,
                    ratio_min=lo,
                    ratio_max=hi,
                    **fields,
                )
            )
    for theta in sorted(set(thetas)):
        i = thetas.index(theta)
        cells.append(
            ladder_drift(
                [hi[i] for hi in his],
                [lo[i] for lo in los],
                bound=2.0,
                lemma="Lemma 5.5",
                grid="ladder",
                check="equivalence-drift",
                theta=theta,
            )
        )
    params = {"sizes": list(sizes), "thetas": list(thetas)}
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
    n = _size(config, 0)
    model = laplacian_1d_analytic(n)
    probes = decaying_probes(model.dim, 10, config.seed)
    cells = []
    for alpha, beta in _HP_PAIRS:
        for p, u in enumerate(probes):
            cell = higher_power_decomposition_check(model, alpha, beta, u)
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

# the runners that call SciPy, the only ones that cli.main runs with
# SciPy's BLAS pool pinned; the other five load no SciPy module
SCIPY_EXPERIMENTS = frozenset(
    {"intersection", "halft1", "stokes-retraction", "stokes-equivalence"}
)
