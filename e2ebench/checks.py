"""Checks of fracspace reports against computations made apart from it.

Each check reads the cells of one JSON report and recomputes what it can
from the cell values, from closed forms, or from matrices the benchmark
assembles itself. No check reads a cell's `pass` field or the report
summary's pass count. The probes of the 1D experiments are rebuilt from
the seeded recipe documented in README.md, not taken from fracspace.

`check_report` returns a list of problems; an empty list means the
report is correct.
"""
from __future__ import annotations

import csv
import io
import math

import numpy as np
from scipy import integrate, linalg

# the runners' default thetas (no workload passes --theta)
THETAS = {
    "lemma41": tuple(round(0.1 * k, 1) for k in range(1, 10)),
    "reiteration": (0.25, 0.5, 0.75),
    "criticality": (0.20, 0.25, 0.30),
    "intersection": (0.25, 0.5, 0.75),
    "halft1": (0.6, 0.75, 0.9),
    "stokes-equivalence": (0.25, 0.5, 0.75),
}
T_POINTS = 65  # log-spaced t of the pointwise K loop
N_SUBSPACE_PROBES = 25  # 20 decaying random + 5 lowest modes
HIGHER_POWER_PAIRS = (
    (0.0, 0.5),
    (0.25, 0.75),
    (0.5, 1.0),
    (0.3, 0.9),
    (1.0, 1.5),
    (0.75, 0.75),
)
# a program ratio may differ from the quad recomputation by this much:
# the program's Simpson doubling stops at 1e-6 relative change and its
# window truncation is below 1e-6 for theta in [0.05, 0.95]
QUAD_AGREEMENT = 1e-5


class Problems(list):
    def expect(self, ok: bool, message: str) -> None:
        if not ok:
            self.append(message)

    def expect_count(self, cells, n: int, what: str) -> None:
        self.expect(len(cells) == n, f"{len(cells)} {what} cells, expected {n}")


def decaying_probes(dim: int, count: int, seed: int) -> list:
    """The seeded probe recipe of the 1D experiments."""
    rng = np.random.default_rng(seed)
    decay = np.arange(1, dim + 1, dtype=np.float64) ** -1.5
    return [decay * rng.uniform(-1.0, 1.0, size=dim) for _ in range(count)]


def dirichlet_eigenvalues(n: int) -> np.ndarray:
    """lam_j = (j pi)^2, j = 1..n: the 1D Dirichlet Laplacian on (0, 1)."""
    return (np.arange(1, n + 1, dtype=np.float64) * np.pi) ** 2


def identity_ratio_by_quad(lam, c, theta: float) -> float:
    """|u|_theta^2 / (I(theta) |u|_(D(A^theta))^2) by adaptive quadrature.

    Integrates t^(-2 theta) K(u, t)^2 dt/t over (0, inf) in tau = ln t
    with the closed form K^2 = sum_j c_j^2 t^2 lam_j^2 / (1 + t^2 lam_j^2),
    written so that neither infinite tail overflows.
    """
    c2 = c * c
    lam2 = lam * lam

    def left(tau):  # e^((2-2 theta) tau) sum c^2 lam^2 / (1 + e^(2 tau) lam^2)
        return math.exp((2.0 - 2.0 * theta) * tau) * float(
            c2 @ (lam2 / (1.0 + math.exp(2.0 * tau) * lam2))
        )

    def right(tau):  # e^(-2 theta tau) sum c^2 / (1 + e^(-2 tau) / lam^2)
        return math.exp(-2.0 * theta * tau) * float(
            c2 @ (1.0 / (1.0 + math.exp(-2.0 * tau) / lam2))
        )

    a = -math.log(lam.max()) - 5.0
    b = -math.log(lam.min()) + 5.0
    knots = np.linspace(a, b, 9)
    opts = {"epsabs": 0.0, "epsrel": 1e-11, "limit": 400}
    total = integrate.quad(left, -np.inf, a, **opts)[0]
    for lo, hi in zip(knots[:-1], knots[1:]):
        total += integrate.quad(left, lo, hi, **opts)[0]
    total += integrate.quad(right, b, np.inf, **opts)[0]
    i_theta = math.pi / (2.0 * math.sin(math.pi * theta))
    return total / (i_theta * float(lam ** (2.0 * theta) @ c2))


def harmonic_h_bound(n: int) -> float:
    """H-norm bound of the harmonic lift on the n x n interior grid.

    Assembles g1 = trapezoid mass + unit-weight edge stiffness on the
    (n+2)^2 nodes by Kronecker products, the lift T (interior rows solve
    the interior stiffness block against the full stiffness rows, other
    rows zero), and returns sqrt of the top eigenvalue of the pencil
    (T^T g1 T, g1).
    """
    m = n + 2
    h = 1.0 / (n + 1)
    w = np.full(m, h)
    w[0] = w[-1] = h / 2.0
    path = np.diag(np.r_[1.0, np.full(m - 2, 2.0), 1.0])
    path -= np.eye(m, k=1) + np.eye(m, k=-1)
    eye = np.eye(m)
    S = np.kron(path, eye) + np.kron(eye, path)
    g1 = np.diag(np.outer(w, w).ravel()) + S
    inner = np.zeros((m, m), dtype=bool)
    inner[1:-1, 1:-1] = True
    inner = inner.ravel()
    T = np.zeros((m * m, m * m))
    T[inner] = linalg.solve(S[np.ix_(inner, inner)], S[inner], assume_a="pos")
    top_pencil = T.T @ g1 @ T
    top = linalg.eigh(
        0.5 * (top_pencil + top_pencil.T),
        g1,
        eigvals_only=True,
        subset_by_index=[m * m - 1, m * m - 1],
    )[0]
    return math.sqrt(top)


def _by_check(cells, check: str, **match) -> list:
    return [
        c
        for c in cells
        if c.get("check") == check and all(c.get(k) == v for k, v in match.items())
    ]


def _ratios_near_one(p: Problems, cells, tol: float, what: str) -> None:
    bad = [c["ratio"] for c in cells if not abs(c["ratio"] - 1.0) <= tol]
    p.expect(not bad, f"{len(bad)} {what} ratios off 1 by more than {tol:g}: {bad[:3]}")


# ---- 1D experiments


def check_lemma41(doc, sizes, seed):
    p = Problems()
    n, thetas, n_probes = sizes[0], THETAS["lemma41"], 20
    cells = doc["cells"]
    p.expect_count(_by_check(cells, "identity-ratio"), len(thetas) * n_probes, "identity-ratio")
    p.expect_count(cells, len(thetas) * n_probes, "total")
    _ratios_near_one(p, cells, 1e-3, "identity")
    # recompute every cell; quad takes about 2 ms per cell at 256 modes
    lam = dirichlet_eigenvalues(n)
    probes = decaying_probes(n, n_probes, seed)
    for c in cells:
        want = identity_ratio_by_quad(lam, probes[c["probe"]], c["theta"])
        p.expect(
            abs(want - 1.0) <= 1e-8 and abs(c["ratio"] - want) <= QUAD_AGREEMENT,
            f"theta={c['theta']} probe={c['probe']}: ratio {c['ratio']!r}, quad {want!r}",
        )
    return p


def check_reiteration(doc, sizes, seed):
    p = Problems()
    thetas, n_probes = THETAS["reiteration"], 20
    cells = doc["cells"]
    per_theta = len(thetas) * n_probes
    exact = _by_check(cells, "coefficient-identity") + _by_check(cells, "endpoint-theta1")
    quad = _by_check(cells, "derived-model-ratio") + _by_check(cells, "weighted-pair-ratio")
    p.expect_count(exact, per_theta + n_probes, "coefficient-identity and endpoint")
    p.expect_count(quad, 2 * per_theta, "derived-model and weighted-pair")
    p.expect_count(cells, 3 * per_theta + n_probes, "total")
    _ratios_near_one(p, exact, 1e-12, "coefficient-identity")
    _ratios_near_one(p, quad, 1e-3, "quadrature")
    return p


def check_higher_power(doc, sizes, seed):
    p = Problems()
    n, n_probes = sizes[0], 10
    cells = doc["cells"]
    p.expect_count(cells, len(HIGHER_POWER_PAIRS) * n_probes, "higher-power")
    lam = dirichlet_eigenvalues(n)
    probes = decaying_probes(n, n_probes, seed)
    for c in cells:
        beta, probe = c["beta"], c["probe"]
        norm_beta = math.sqrt(float(lam ** (2.0 * beta) @ (probes[probe] ** 2)))
        p.expect(
            c["residual"] <= 1e-10 * norm_beta and abs(c["ratio"] - 1.0) <= 1e-10,
            f"alpha={c['alpha']} beta={beta} probe={probe}: residual "
            f"{c['residual']!r} against norm {norm_beta!r}",
        )
    return p


def check_criticality(doc, sizes, seed):
    p = Problems()
    cells = _by_check(doc["cells"], "classification")
    p.expect_count(cells, len(THETAS["criticality"]), "classification")
    p.expect(
        sorted(c["theta"] for c in cells) == list(THETAS["criticality"]),
        "thetas differ from the default",
    )
    for c in cells:
        growth = 4.0 * c["theta"] - 1.0  # increments of S_N carry N^(4 theta - 1)
        want = (
            "convergent" if growth < 0 else "log-divergent" if growth == 0 else "power-divergent"
        )
        p.expect(c["classification"] == want, f"theta={c['theta']}: {c['classification']}")
        if want == "power-divergent":
            p.expect(
                abs(c["fitted_exponent"] - growth) <= 0.1 * abs(growth),
                f"theta={c['theta']}: exponent {c['fitted_exponent']!r} vs {growth!r}",
            )
    return p


def check_weight(doc, sizes, seed):
    p = Problems()
    k_max = sizes[0]
    cells = doc["cells"]
    agree = {c["probe"]: c for c in _by_check(cells, "agreement")}
    p.expect(sorted(agree) == ["bubble", "one", "sin-pi"], f"probes {sorted(agree)}")
    p.expect_count(cells, 4, "total")
    eps = 2.0**-k_max
    # integral of 1 / (x (1 - x)) over [eps, 1 - eps]
    exact = 2.0 * math.log((1.0 - eps) / eps)
    one = agree.get("one", {})
    value = one.get("weight_value", math.nan)
    p.expect(
        abs(value - exact) <= 1e-12 * exact,
        f"weight of u = 1 is {value!r}, closed form {exact!r}",
    )
    # u = 1 misses the boundary weight; sin(pi x) and x(1 - x) vanish at 0, 1
    for probe, divergent, cls in (
        ("one", True, "log-divergent"),
        ("sin-pi", False, "convergent"),
        ("bubble", False, "convergent"),
    ):
        c = agree.get(probe, {})
        p.expect(
            c.get("weight_divergent") is divergent and c.get("criticality_class") == cls,
            f"{probe}: divergent={c.get('weight_divergent')} class={c.get('criticality_class')}",
        )
    _ratios_near_one(p, _by_check(cells, "log-increment", probe="one"), 1e-3, "log-increment")
    return p


# ---- 2D intersection-lemma experiments


def _intersection_grid(p, cells, label, thetas, h_bound, d_bound, harmonic_n=None):
    """Checks of one verify_intersection_lemma block (one grid)."""
    pointwise = _by_check(cells, "pointwise", grid=label)
    interp = _by_check(cells, "interp-ratio", grid=label)
    p.expect_count(pointwise, T_POINTS * N_SUBSPACE_PROBES, f"{label} pointwise")
    p.expect_count(interp, len(thetas) * N_SUBSPACE_PROBES, f"{label} interp-ratio")
    high = [c["ratio"] for c in pointwise if not c["ratio"] <= 1.0 + 1e-9]
    p.expect(not high, f"{label}: {len(high)} pointwise ratios above 1 + 1e-9: {high[:3]}")
    # a retraction is the identity on its subspace, so both norms are >= 1
    p.expect(h_bound >= 1.0 - 1e-12 and d_bound >= 1.0 - 1e-12, f"{label}: bounds {h_bound}, {d_bound}")
    c_prime = math.sqrt(2.0) * max(h_bound, d_bound)
    out = [
        c["ratio"]
        for c in interp
        if not (1.0 - 1e-5 <= c["ratio"] <= c_prime * (1.0 + 1e-5))
    ]
    p.expect(not out, f"{label}: {len(out)} interp-ratios outside [1, {c_prime}]: {out[:3]}")
    if harmonic_n is not None:
        want = harmonic_h_bound(harmonic_n)
        p.expect(
            abs(h_bound - want) <= 1e-9 * want,
            f"{label}: h_bound {h_bound!r}, pencil eigenvalue gives {want!r}",
        )
    return interp


def check_intersection(doc, sizes, seed):
    p = Problems()
    n_h, n_s = sizes
    thetas = THETAS["intersection"]
    cells, params = doc["cells"], doc["parameters"]
    for label, key, harmonic_n in (
        (f"harmonic-n{n_h}", "harmonic", n_h),
        (f"stokes-n{n_s}", "stokes", None),
    ):
        block = params[key]
        _intersection_grid(
            p, cells, label, thetas, block["h_bound"], block["d_bound"], harmonic_n
        )
    p.expect_count(cells, 2 * (T_POINTS + len(thetas)) * N_SUBSPACE_PROBES, "total")
    return p


def check_halft1(doc, sizes, seed):
    p = Problems()
    thetas = THETAS["halft1"]
    cells = doc["cells"]
    worst = {theta: [] for theta in thetas}  # per theta, worst ratio per grid
    for n in sizes:
        lift = _by_check(cells, "lift-bounds", grid=n)
        p.expect_count(lift, 1, f"n={n} lift-bounds")
        if not lift:
            continue
        interp = _intersection_grid(
            p, cells, f"n{n}", thetas, lift[0]["h_bound"], lift[0]["d_bound"], n
        )
        for theta in thetas:
            ratios = [c["ratio"] for c in interp if c["theta"] == theta]
            worst[theta].append(max(ratios, default=math.nan))
    for theta, per_grid in worst.items():
        drift = max(per_grid) / min(per_grid)
        p.expect(drift < 2.0, f"theta={theta}: interp-ratio drift {drift!r} over the ladder")
    per_grid = (T_POINTS + len(thetas)) * N_SUBSPACE_PROBES + 1
    ladder = 2 + len(thetas) if len(sizes) > 1 else 0
    p.expect_count(cells, len(sizes) * per_grid + ladder, "total")
    return p


# ---- Stokes experiments


def check_stokes_retraction(doc, sizes, seed):
    p = Problems()
    cells = doc["cells"]
    bounds = []
    for n in sizes:
        rec = _by_check(cells, "bounds-recorded", grid=n)
        p.expect_count(rec, 1, f"n={n} bounds-recorded")
        for c in rec:
            # 2n(n+1) face velocities, (n+1)^2 - 1 independent divergences
            p.expect(c["kernel_dim"] == n * n, f"n={n}: kernel_dim {c['kernel_dim']}")
            p.expect(c["rank_deficiency"] == 1, f"n={n}: rank deficiency {c['rank_deficiency']}")
            p.expect(
                c["h_bound"] >= 1.0 - 1e-12 and c["d_bound"] >= 1.0 - 1e-12,
                f"n={n}: bounds {c['h_bound']}, {c['d_bound']}",
            )
            bounds.append((c["h_bound"], c["d_bound"]))
        for check, tol in (("identity-on-kernel", 1e-10), ("adjoint-chain", 1e-8)):
            for c in _by_check(cells, check, grid=n):
                p.expect(c["ratio"] <= tol, f"n={n}: {check} {c['ratio']!r} > {tol:g}")
    for which, values in zip(("h_bound", "d_bound"), zip(*bounds)):
        drift = max(values) / min(values)
        p.expect(drift < 2.0, f"{which} drift {drift!r} over the ladder")
    p.expect_count(cells, 3 * len(sizes) + 3, "total")
    return p


def check_stokes_equivalence(doc, sizes, seed):
    p = Problems()
    thetas = THETAS["stokes-equivalence"]
    cells = doc["cells"]
    ranges = {theta: [] for theta in thetas}
    for n in sizes:
        for check in ("exact-at-0", "exact-at-half"):
            exact = _by_check(cells, check, grid=n)
            p.expect_count(exact, 1, f"n={n} {check}")
            _ratios_near_one(p, exact, 1e-10, f"n={n} {check}")
        top = _by_check(cells, "contraction-at-1", grid=n)
        p.expect_count(top, 1, f"n={n} contraction-at-1")
        p.expect(all(c["ratio"] <= 1.0 + 1e-12 for c in top), f"n={n}: ratio at theta=1 above 1")
        for c in _by_check(cells, "ratio-range", grid=n):
            lo, hi = c["ratio_min"], c["ratio_max"]
            p.expect(0.0 < lo <= hi < math.inf, f"n={n} theta={c['theta']}: range {lo}, {hi}")
            ranges.setdefault(c["theta"], []).append((lo, hi))
    for theta, per_grid in ranges.items():
        p.expect_count(per_grid, len(sizes), f"theta={theta} ratio-range")
        if per_grid:
            los, his = zip(*per_grid)
            drift = max(max(his) / min(his), max(los) / min(los))
            p.expect(drift < 2.0, f"theta={theta}: equivalence drift {drift!r}")
    p.expect_count(cells, (3 + len(thetas)) * len(sizes) + len(thetas), "total")
    return p


CHECKS = {
    "lemma41": check_lemma41,
    "reiteration": check_reiteration,
    "higher-power": check_higher_power,
    "criticality": check_criticality,
    "weight": check_weight,
    "intersection": check_intersection,
    "halft1": check_halft1,
    "stokes-retraction": check_stokes_retraction,
    "stokes-equivalence": check_stokes_equivalence,
}


def check_report(run, seed: int, doc: dict, csv_text: str) -> list:
    """Problems found in one experiment's JSON report and its CSV twin."""
    p = Problems()
    cells = doc["cells"]
    p.expect(doc["experiment"] == run.experiment, f"experiment {doc['experiment']!r}")
    p.expect(doc["provenance"]["seed"] == seed, f"seed {doc['provenance']['seed']!r}")
    p.expect(doc["summary"]["n_cells"] == len(cells), "summary n_cells != cell count")
    rows = list(csv.reader(io.StringIO(csv_text, newline="")))
    keys = sorted({k for c in cells for k in c})
    p.expect(rows[:1] == [keys], "CSV header is not the sorted union of cell keys")
    p.expect(len(rows) == len(cells) + 1, f"CSV has {len(rows) - 1} rows for {len(cells)} cells")
    p.extend(CHECKS[run.experiment](doc, run.sizes, seed))
    return list(p)
