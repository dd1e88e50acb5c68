import json
import math
import os

import numpy as np
import pytest

from fracspace import (
    EXPERIMENTS,
    AmbiguousClassification,
    InvalidConfig,
    QuadratureRule,
    RunConfig,
    build_quadratic_pair,
    congruence,
    criticality_scan,
    decaying_probes,
    frac_norm,
    i_theta,
    report_to_json,
    weight_test,
)
from fracspace import experiments
from fracspace.experiments import (
    classify_partial_sums,
    coeffs_bubble,
    coeffs_constant_one,
    coeffs_sin_pi,
    halft1_check,
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
    from fracspace import grid_domain

    with pytest.raises(InvalidConfig):
        halft1_check(grid_domain(2, 4), (0.4,))


def test_run_lemma41_small_and_deterministic():
    cfg = RunConfig(experiment="lemma41", sizes=(24,), thetas=(0.3, 0.7), seed=11)
    rep1 = run_lemma41(cfg)
    rep2 = run_lemma41(cfg)
    assert rep1.passed
    assert report_to_json(rep1) == report_to_json(rep2)
    assert rep1.summary["n_cells"] == 2 * 20


def test_reiteration_weighted_pair_matches_pair_route(sine_model):
    # the hoisted pencil solve gives exactly what solving the pair again
    # and integrating the same probe columns gives
    lam = sine_model.eigenvalues
    pair = build_quadratic_pair(np.diag(lam), np.diag(lam * lam))
    rule = QuadratureRule.for_spectrum(np.sqrt(lam))
    probes = decaying_probes(sine_model.dim, 3, 7)
    lam_eff, _, transform = congruence(pair)
    C = np.column_stack(probes)
    for theta in (0.25, 0.75):
        cells = reiteration_check(sine_model, theta, probes, rule, congruence(pair))
        ratios = [c["ratio"] for c in cells if c["check"] == "weighted-pair-ratio"]
        assert len(ratios) == len(probes)
        num = interp_norms_sq(lam_eff, transform @ C, (theta,), rule)[0]
        for p, u in enumerate(probes):
            den = i_theta(theta) * frac_norm(sine_model, (1.0 + theta) / 2.0, u) ** 2
            assert ratios[p] == num[p] / den


def test_run_intersection_small():
    cfg = RunConfig(experiment="intersection", sizes=(5, 4), thetas=(0.5,), seed=1)
    rep = run_intersection(cfg)
    assert rep.passed
    grids = {c["grid"] for c in rep.cells}
    assert grids == {"harmonic-n5", "stokes-n4"}


def test_run_halft1_small():
    cfg = RunConfig(experiment="halft1", sizes=(4, 6), thetas=(0.6, 0.8), seed=1)
    rep = run_halft1(cfg)
    assert rep.passed
    drift = [c for c in rep.cells if c["check"] == "ratio-drift"]
    assert len(drift) == 2
    assert all(c["ratio"] < 2.0 for c in drift)


def test_run_stokes_retraction_small():
    cfg = RunConfig(experiment="stokes-retraction", sizes=(4, 6), seed=2)
    rep = run_stokes_retraction(cfg)
    assert rep.passed
    checks = {c["check"] for c in rep.cells}
    assert "identity-on-kernel" in checks
    assert "h_bound-drift" in checks and "d_bound-drift" in checks


def test_stokes_retraction_reruns_byte_identical(tmp_path):
    out1 = tmp_path / "r1"
    out2 = tmp_path / "r2"
    for out in (out1, out2):
        argv = ["stokes-retraction", "--size", "4", "6", "--seed", "3"]
        assert main([*argv, "--out", str(out), "--format", "both"]) == 0
    names = sorted(os.listdir(out1))
    assert [n.rsplit(".", 1)[1] for n in names] == ["csv", "json"]
    assert names == sorted(os.listdir(out2))
    for name in names:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


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
