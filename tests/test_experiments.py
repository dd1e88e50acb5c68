import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from fracspace import (
    EXPERIMENTS,
    AmbiguousClassification,
    InvalidConfig,
    QuadratureRule,
    RunConfig,
    SolverFailure,
    build_quadratic_pair,
    congruence,
    criticality_scan,
    decaying_probes,
    frac_norm,
    grid_domain,
    i_theta,
    report_to_json,
    stokes_pencil,
    weight_test,
)
from fracspace import experiments
from fracspace.experiments import (
    classify_partial_sums,
    coeffs_bubble,
    coeffs_constant_one,
    coeffs_sin_pi,
    reiteration_check,
    run_halft1,
    run_intersection,
    run_lemma41,
    run_stokes_retraction,
    stokes_equivalence_study,
)
from fracspace.cli import main
from fracspace.kfunctional import interp_norms_sq


def test_registry_names():
    assert list(EXPERIMENTS) == [
        "lemma41",
        "reiteration",
        "intersection",
        "halft1",
        "criticality",
        "weight",
        "stokes-retraction",
        "stokes-equivalence",
        "higher-power",
    ]
    for runner, doc in EXPERIMENTS.values():
        assert callable(runner)
        assert doc.strip()


def test_coefficient_families():
    c = coeffs_constant_one(4)
    np.testing.assert_allclose(
        c, [2 * math.sqrt(2) / math.pi, 0.0, 2 * math.sqrt(2) / (3 * math.pi), 0.0]
    )
    s = coeffs_sin_pi(3)
    np.testing.assert_allclose(s, [1 / math.sqrt(2), 0.0, 0.0])
    b = coeffs_bubble(3)
    assert b[1] == 0.0
    assert b[0] == pytest.approx(4 * math.sqrt(2) / math.pi**3, rel=1e-15)


def test_decaying_probes_deterministic():
    a = decaying_probes(16, 3, seed=9)
    b = decaying_probes(16, 3, seed=9)
    assert len(a) == 3
    for u, v in zip(a, b):
        np.testing.assert_array_equal(u, v)
    # decay envelope
    assert abs(a[0][15]) <= 16.0**-1.5


def test_classifier_convergent_fast_path():
    ladder = tuple(2**k for k in range(4, 12))
    sums = tuple(1.0 for _ in ladder)
    cls, exponent, r2 = classify_partial_sums(ladder, sums)
    assert cls == "convergent" and exponent == 0.0 and r2 is None


def test_classifier_power_divergent():
    ladder = tuple(2**k for k in range(4, 15))
    sums = tuple(float(n) ** 0.5 for n in ladder)
    cls, exponent, _ = classify_partial_sums(ladder, sums)
    assert cls == "power-divergent"
    assert exponent == pytest.approx(0.5, abs=0.02)


def test_classifier_log_divergent():
    ladder = tuple(2**k for k in range(4, 15))
    sums = tuple(math.log(n) for n in ladder)
    cls, exponent, r2 = classify_partial_sums(ladder, sums)
    assert cls == "log-divergent"
    assert abs(exponent) <= 0.05
    assert r2 > 0.999


def test_classifier_negative_power_convergent():
    ladder = tuple(2**k for k in range(4, 15))
    sums = tuple(10.0 - float(n) ** -0.3 for n in ladder)
    cls, exponent, _ = classify_partial_sums(ladder, sums)
    assert cls == "convergent"
    assert exponent == pytest.approx(-0.3, abs=0.02)


def test_classifier_ambiguous():
    ladder = tuple(2**k for k in range(4, 15))  # 11 points, 10 increments
    inc = [1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 10.0, 1.0, 10.0, 1.0]
    sums = tuple(np.concatenate([[1.0], 1.0 + np.cumsum(inc)]))
    with pytest.raises(AmbiguousClassification):
        classify_partial_sums(ladder, sums)


def test_classifier_zero_increment_is_convergent():
    # the upper half adds 0 then 1: not negligible against the total, but
    # a dyadic span that added nothing means the sums have converged
    ladder = tuple(2**k for k in range(4, 9))
    cls, exponent, r2 = classify_partial_sums(ladder, (1.0, 2.0, 3.0, 3.0, 4.0))
    assert cls == "convergent" and exponent == 0.0 and r2 is None


def test_criticality_scan_three_classes():
    profiles = criticality_scan(2**13, (0.20, 0.25, 0.30))
    by_theta = {p.theta: p for p in profiles}
    assert by_theta[0.20].classification == "convergent"
    assert by_theta[0.25].classification == "log-divergent"
    assert by_theta[0.30].classification == "power-divergent"
    assert by_theta[0.30].fitted_exponent == pytest.approx(0.2, abs=0.02)
    assert by_theta[0.25].r_squared > 0.999


def test_criticality_scan_validation():
    with pytest.raises(InvalidConfig):
        criticality_scan(256, (0.25,))
    with pytest.raises(InvalidConfig):
        criticality_scan(1024, (0.25,), coeffs=np.ones(100))


def test_weight_divergence_flags():
    one = weight_test(lambda x: np.ones_like(x))
    assert one.divergence_flag
    sin = weight_test(lambda x: np.sin(np.pi * x))
    assert not sin.divergence_flag
    bubble = weight_test(lambda x: x * (1.0 - x))
    assert not bubble.divergence_flag
    # integral of x(1-x) over (0,1) is 1/6 up to dyadic cutoff mass
    assert bubble.value == pytest.approx(1.0 / 6.0, rel=1e-9)
    assert one.values == tuple(sorted(one.values))


def test_weight_validation():
    with pytest.raises(InvalidConfig):
        weight_test(lambda x: x, k_min=10, k_max=10)


def test_halft1_rejects_low_theta():
    cfg = RunConfig(experiment="halft1", sizes=(4,), thetas=(0.4,))
    with pytest.raises(InvalidConfig, match="halft1 needs thetas"):
        run_halft1(cfg)


def test_run_lemma41_small_and_deterministic():
    cfg = RunConfig(experiment="lemma41", sizes=(24,), thetas=(0.3, 0.7), seed=11)
    rep1 = run_lemma41(cfg)
    rep2 = run_lemma41(cfg)
    assert rep1.passed
    assert report_to_json(rep1) == report_to_json(rep2)
    assert rep1.summary["n_cells"] == 2 * 20


def test_reiteration_weighted_pair_matches_pair_route(sine_model):
    # the cells are the quadrature of the elementwise pencil passed in,
    # and that pencil agrees with the dense congruence of the same pair
    lam = sine_model.eigenvalues
    lam2 = lam * lam
    lam_eff, scale = pencil = (np.sqrt(lam2 / lam), np.sqrt(lam))
    form = congruence(build_quadratic_pair(np.diag(lam), np.diag(lam2)))
    lam_dense, transform = form.lam, form.transform
    np.testing.assert_allclose(lam_eff, lam_dense, rtol=1e-14, atol=0)
    rule = QuadratureRule.for_spectrum(np.sqrt(lam))
    probes = decaying_probes(sine_model.dim, 3, 7)
    C = np.column_stack(probes)
    for theta in (0.25, 0.75):
        cells = reiteration_check(sine_model, theta, probes, rule, pencil)
        ratios = [c["ratio"] for c in cells if c["check"] == "weighted-pair-ratio"]
        assert len(ratios) == len(probes)
        num = interp_norms_sq(lam_eff, scale[:, None] * C, (theta,), rule)[0]
        dense = interp_norms_sq(lam_dense, transform @ C, (theta,), rule)[0]
        for p, u in enumerate(probes):
            den = i_theta(theta) * frac_norm(sine_model, (1.0 + theta) / 2.0, u) ** 2
            assert ratios[p] == num[p] / den
            assert ratios[p] == pytest.approx(dense[p] / den, rel=1e-14, abs=0)


def test_run_intersection_small():
    cfg = RunConfig(experiment="intersection", sizes=(5, 4), thetas=(0.5,), seed=1)
    rep = run_intersection(cfg)
    assert rep.passed
    grids = {c["grid"] for c in rep.cells}
    assert grids == {"harmonic-n5", "stokes-n4"}


@pytest.mark.parametrize(
    "experiment, sizes",
    [
        ("stokes-retraction", ["32", "33"]),
        ("intersection", ["32", "2"]),
        ("halft1", ["24", "40"]),
        ("stokes-retraction", ["24", "2"]),
        ("stokes-equivalence", ["8", "2"]),
        # n = 2 is a valid grid, but its n^2 = 4 dimensions hold too few probes
        ("halft1", ["24", "2"]),
        ("intersection", ["2", "12"]),
    ],
)
def test_cli_checks_every_grid_size_before_assembly(
    tmp_path, monkeypatch, capsys, experiment, sizes
):
    def must_not_run(*args, **kwargs):
        raise AssertionError("a grid was assembled before every size was checked")

    monkeypatch.setattr(experiments, "sobolev_grams", must_not_run)
    monkeypatch.setattr(experiments, "stokes_pencil", must_not_run)
    assert main([experiment, "--size", *sizes, "--out", str(tmp_path)]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == "InvalidConfig"
    assert os.listdir(tmp_path) == []


def test_lambda_min_constrained_is_the_lowest_eigenvalue():
    # the one-eigenvalue solve against the full spectrum of Ac
    sizes = tuple(range(3, 9))
    rep = run_stokes_retraction(RunConfig(experiment="stokes-retraction", sizes=sizes))
    recorded = [c for c in rep.cells if c["check"] == "bounds-recorded"]
    low = {c["grid"]: c["lambda_min_constrained"] for c in recorded}
    for n in sizes:
        p = stokes_pencil(grid_domain(2, n))
        full = np.linalg.eigvalsh(p.constrained_op(p.null_basis()))
        assert low[n] == pytest.approx(full[0], rel=1e-12, abs=0), n


def test_nan_identity_residual_is_reported_as_nan(monkeypatch, tmp_path, capsys):
    # a NaN residual is written as it is, not as 0.0, so the cell fails
    # and the report cannot be written: exit 1, one JSON line, no file
    def nan_apply(p, X, *, transpose=False):
        return np.full(X.shape, np.nan)

    monkeypatch.setattr(experiments, "stokes_apply", nan_apply)
    rep = run_stokes_retraction(RunConfig(experiment="stokes-retraction", sizes=(4,)))
    identity = [c for c in rep.cells if c["check"] == "identity-on-kernel"]
    assert len(identity) == 1 and math.isnan(identity[0]["ratio"])
    assert not identity[0]["pass"]
    out = tmp_path / "out"
    assert main(["stokes-retraction", "--size", "4", "--out", str(out)]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == "SolverFailure"
    assert not out.exists() or os.listdir(out) == []


def test_default_sizes_fill_the_cli_and_missing_positions(monkeypatch, tmp_path):
    assert set(experiments.DEFAULT_SIZES) == set(EXPERIMENTS)
    # a missing position falls back to the table: intersection --size 20
    cfg = RunConfig(experiment="intersection", sizes=(20,))
    assert (experiments._size(cfg, 0), experiments._size(cfg, 1)) == (20, 12)
    seen = []

    def stub(config):
        seen.append(config.sizes)
        return experiments.make_report(config.experiment, {}, [{"pass": True}])

    for name in EXPERIMENTS:
        monkeypatch.setitem(EXPERIMENTS, name, (stub, "stub"))
        assert main([name, "--out", str(tmp_path)]) == 0
    assert seen == [experiments.DEFAULT_SIZES[name] for name in EXPERIMENTS]


def test_run_halft1_small():
    cfg = RunConfig(experiment="halft1", sizes=(4, 6), thetas=(0.6, 0.8), seed=1)
    rep = run_halft1(cfg)
    assert rep.passed
    drift = [c for c in rep.cells if c["check"] == "ratio-drift"]
    assert len(drift) == 2
    assert all(c["ratio"] < 2.0 for c in drift)


def test_run_halft1_one_grid_has_no_drift_cells():
    # one grid has no ladder: its ratio with itself is exactly 1 and
    # could not fail
    rep = run_halft1(RunConfig(experiment="halft1", sizes=(4,), seed=1))
    assert rep.passed
    checks = {c["check"] for c in rep.cells}
    assert checks == {"pointwise", "interp-ratio", "lift-bounds"}


def test_run_stokes_retraction_small():
    cfg = RunConfig(experiment="stokes-retraction", sizes=(4, 6), seed=2)
    rep = run_stokes_retraction(cfg)
    assert rep.passed
    checks = {c["check"] for c in rep.cells}
    assert "identity-on-kernel" in checks
    assert "h_bound-drift" in checks and "d_bound-drift" in checks


@pytest.mark.parametrize(
    "experiment, sizes",
    [
        ("intersection", ["4", "4"]),
        ("halft1", ["4", "5"]),
        ("stokes-retraction", ["4", "6"]),
        ("stokes-equivalence", ["4", "5"]),
    ],
    ids=lambda v: v if isinstance(v, str) else "-".join(v),
)
def test_2d_runner_reruns_byte_identical(tmp_path, experiment, sizes):
    out1 = tmp_path / "r1"
    out2 = tmp_path / "r2"
    for out in (out1, out2):
        argv = [experiment, "--size", *sizes, "--seed", "3"]
        assert main([*argv, "--out", str(out), "--format", "both"]) == 0
    names = sorted(os.listdir(out1))
    assert [n.rsplit(".", 1)[1] for n in names] == ["csv", "json"]
    assert names == sorted(os.listdir(out2))
    for name in names:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def _float_moves(a, b, where=""):
    """Relative moves of the floats of two JSON documents whose keys,
    lengths and non-float values agree."""
    if isinstance(a, dict):
        assert a.keys() == b.keys(), where
        return [m for k in a for m in _float_moves(a[k], b[k], f"{where}/{k}")]
    if isinstance(a, list):
        assert len(a) == len(b), where
        return [
            m for i, (x, y) in enumerate(zip(a, b)) for m in _float_moves(x, y, f"{where}[{i}]")
        ]
    if isinstance(a, float) and isinstance(b, float):
        return [(abs(a - b) / max(abs(a), abs(b)), where)] if a != b else []
    assert a == b, (where, a, b)
    return []


def test_2d_reports_agree_across_blas_thread_counts(tmp_path):
    # SciPy's LAPACK runs on one thread inside cli.main, so the eigenbasis
    # inside degenerate eigenspaces, and the probes built from it, no
    # longer depend on OPENBLAS_NUM_THREADS; NumPy's products still do,
    # by rounding only
    code = (
        "import sys; from fracspace.cli import main; out = sys.argv[1]; "
        "fmt = ['--seed', '42', '--out', out, '--format', 'json']; "
        "assert main(['halft1', '--size', '8', '12', *fmt]) == 0; "
        "assert main(['intersection', '--size', '8', '8', *fmt]) == 0"
    )
    src = os.path.dirname(os.path.dirname(experiments.__file__))
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads)
        out = subprocess.run(
            [sys.executable, "-c", code, str(tmp_path / threads)],
            env=env,
            capture_output=True,
            text=True,
        )
        assert out.returncode == 0, out.stderr
    names = sorted(os.listdir(tmp_path / "1"))
    assert len(names) == 2 and names == sorted(os.listdir(tmp_path / "2"))
    for name in names:
        one, two = (json.loads((tmp_path / t / name).read_text()) for t in ("1", "2"))
        moves = _float_moves(one, two)  # pass counts and keys agree exactly
        assert max(moves, default=(0.0, ""))[0] <= 1e-12, (name, max(moves))


def test_lemma41_passes_at_the_theta_window_edges(tmp_path, capsys):
    argv = ["lemma41", "--size", "64", "--theta", "0.01", "0.99"]
    assert main([*argv, "--out", str(tmp_path)]) == 0
    assert "PASS 40/40 checks" in capsys.readouterr().out


@pytest.mark.parametrize("k_max", ["41", "54"])
def test_weight_rejects_k_max_past_float_resolution(
    tmp_path, capsys, monkeypatch, k_max
):
    def no_quadrature(*args):
        raise AssertionError("quadrature ran before validation")

    monkeypatch.setattr(experiments, "_band_integral", no_quadrature)
    assert main(["weight", "--size", k_max, "--out", str(tmp_path)]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == "InvalidConfig"


def test_stokes_equivalence_small():
    cfg = RunConfig(experiment="stokes-equivalence", sizes=(4, 5), thetas=(0.5,), seed=2)
    rep = stokes_equivalence_study(cfg)
    assert rep.passed
    kinds = {c["check"] for c in rep.cells}
    assert {"exact-at-0", "exact-at-half", "contraction-at-1"} <= kinds


def test_stokes_equivalence_projects_each_probe_once_per_grid(monkeypatch):
    # 25 probes per grid, all projected onto the constrained and the
    # ambient eigenvectors once, one column each: the norms of every theta
    # read the same two coefficient arrays, however many thetas are checked
    seen = []

    def counting(model, alpha, c):
        seen.append(c)  # holds every array, so no id is reused
        return frac_norm(model, alpha, c)

    monkeypatch.setattr(experiments, "frac_norm", counting)
    cfg = RunConfig(experiment="stokes-equivalence", sizes=(4, 5), seed=2)
    assert stokes_equivalence_study(cfg).passed
    assert len({id(c) for c in seen}) == 2 * 2
    assert all(c.shape[1] == 25 for c in seen)
    # theta = 0, 1/2 and 1, then the three default thetas
    assert len(seen) == 6 * 2 * 2


def test_stokes_equivalence_fails_on_a_nan_probe(monkeypatch):
    # NaN ambient coefficients for the second probe of the first grid:
    # a reduction that kept the finite first probe would pass the grid
    ambient = []  # the first grid's ambient coefficient arrays, in order

    def poisoned(model, alpha, c):
        if model.dim == 2 * 4 * 5:  # the ambient model of the 4 x 4 grid
            if not any(c is a for a in ambient):
                ambient.append(c)
            c = c.copy()
            c[:, 1] = np.nan
        return frac_norm(model, alpha, c)

    monkeypatch.setattr(experiments, "frac_norm", poisoned)
    cfg = RunConfig(experiment="stokes-equivalence", sizes=(4, 5), seed=2)
    try:
        rep = stokes_equivalence_study(cfg)
    except SolverFailure:
        return
    assert len(ambient) == 1 and ambient[0].shape[1] == 25
    assert not rep.passed
    first = [c for c in rep.cells if c["grid"] == 4]
    assert first and not any(c["pass"] for c in first)
    drift = [c for c in rep.cells if c["check"] == "equivalence-drift"]
    assert drift and not any(c["pass"] for c in drift)


@pytest.mark.parametrize("k_max", ["9", "10", "11"])
def test_weight_needs_four_level_increments(tmp_path, capsys, monkeypatch, k_max):
    # the divergence flag compares the last three increments with their
    # predecessors, so k_max - k_min >= 4 (k_min = 8) before any quadrature
    def no_quadrature(*args):
        raise AssertionError("quadrature ran before validation")

    monkeypatch.setattr(experiments, "_band_integral", no_quadrature)
    assert main(["weight", "--size", k_max, "--out", str(tmp_path)]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == "InvalidConfig"


def test_weight_passes_with_four_level_increments(tmp_path, capsys):
    assert main(["weight", "--size", "12", "--out", str(tmp_path)]) == 0
    assert "PASS 4/4 checks" in capsys.readouterr().out
    assert not weight_test(lambda x: np.sin(np.pi * x), k_max=12).divergence_flag
    with pytest.raises(InvalidConfig):
        weight_test(lambda x: np.sin(np.pi * x), k_max=11)


@pytest.mark.parametrize(
    "name",
    ["lemma41", "reiteration", "criticality", "weight", "higher-power", "intersection"],
)
def test_fixed_arity_runner_rejects_a_surplus_size(tmp_path, capsys, monkeypatch, name):
    # one size more than the runner reads exits 2 before any assembly: a
    # size the runner drops would still enter the config hash
    def no_assembly(*args, **kwargs):
        raise AssertionError("assembly ran before validation")

    for fn in (
        "laplacian_1d_analytic",
        "criticality_scan",
        "weight_test",
        "sobolev_grams",
        "stokes_pencil",
    ):
        monkeypatch.setattr(experiments, fn, no_assembly)
    sizes = [str(n) for n in experiments.DEFAULT_SIZES[name]] + ["4"]
    assert main([name, "--size", *sizes, "--out", str(tmp_path)]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == "InvalidConfig"


# the key set of every (experiment, check) pair: the CSV header of a report
# is their union, so a changed set changes the file format
_CELL_KEYS = {
    "lemma41": {
        "identity-ratio": "bound check grid lemma pass probe ratio theta",
    },
    "reiteration": {
        "coefficient-identity": "bound check grid lemma pass probe ratio theta",
        "derived-model-ratio": "bound check grid lemma pass probe ratio theta",
        "weighted-pair-ratio": "bound check grid lemma pass probe ratio theta",
        "endpoint-theta1": "bound check grid lemma pass probe ratio theta",
    },
    "criticality": {
        "classification": "check classification expected fitted_exponent ladder_top"
        " lemma pass r_squared s_final theta",
    },
    "weight": {
        "agreement": "check criticality_class lemma pass probe theta"
        " weight_divergent weight_value",
        "log-increment": "bound check lemma pass probe ratio theta",
    },
    "intersection": {
        "pointwise": "bound check grid lemma pass probe ratio t theta",
        "interp-ratio": "bound check grid lemma pass probe ratio t theta",
    },
    "halft1": {
        "pointwise": "bound check grid lemma pass probe ratio t theta",
        "interp-ratio": "bound check grid lemma pass probe ratio t theta",
        "lift-bounds": "check d_bound grid h_bound lemma pass",
        "lift-h_bound-drift": "bound check grid lemma pass ratio",
        "lift-d_bound-drift": "bound check grid lemma pass ratio",
        "ratio-drift": "bound check grid lemma pass ratio theta",
    },
    "stokes-retraction": {
        "identity-on-kernel": "bound check grid lemma pass ratio",
        "adjoint-chain": "bound check grid lemma pass ratio",
        "bounds-recorded": "check d_bound grid h_bound kernel_dim"
        " lambda_min_constrained lemma pass rank_deficiency",
        "h_bound-drift": "bound check grid lemma pass ratio",
        "d_bound-drift": "bound check grid lemma pass ratio",
        "lowest-eigenvalue-drift": "bound check grid lemma pass ratio",
    },
    "stokes-equivalence": {
        "exact-at-0": "bound check grid lemma pass ratio theta",
        "exact-at-half": "bound check grid lemma pass ratio theta",
        "contraction-at-1": "bound check grid lemma pass ratio theta",
        "ratio-range": "check grid lemma pass ratio_max ratio_min theta",
        "equivalence-drift": "bound check grid lemma pass ratio theta",
    },
    "higher-power": {
        "higher-power": "alpha beta bound check grid lemma pass probe ratio residual",
    },
}

_SCHEMA_SIZES = {
    "lemma41": (32,),
    "reiteration": (32,),
    "criticality": (1024,),
    "weight": (16,),
    "intersection": (4, 4),
    "halft1": (4, 5),
    "stokes-retraction": (4, 5),
    "stokes-equivalence": (4, 5),
    "higher-power": (16,),
}


def test_cell_schema_of_every_runner():
    assert set(_CELL_KEYS) == set(EXPERIMENTS) == set(_SCHEMA_SIZES)
    for name, (runner, _) in EXPERIMENTS.items():
        rep = runner(RunConfig(experiment=name, sizes=_SCHEMA_SIZES[name]))
        assert rep.passed, name
        seen = {}
        for c in rep.cells:
            seen.setdefault(c["check"], set()).add(frozenset(c))
            # plain Python values only: an np.float64 would reach the CSV
            # as 'np.float64(x)' and an np.bool_ is no JSON value
            assert all(
                v is None or type(v) in (bool, int, float, str) for v in c.values()
            ), (name, c)
        want = {check: {frozenset(k.split())} for check, k in _CELL_KEYS[name].items()}
        assert seen == want, name
