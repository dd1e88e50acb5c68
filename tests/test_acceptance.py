"""Acceptance criteria, one test per criterion.

Each test prints a single `[criterion-NN] PASS|FAIL <label>` line; the
assertion carries the same condition so pytest status matches the line.
Tolerances and budgets are pinned here and nowhere else.
"""
import math
import os
import time

import numpy as np
import pytest
from scipy.integrate import quad

from fracspace import (
    RunConfig,
    grid_domain,
    harmonic_retraction,
    i_theta,
    k_quadratic,
    sobolev_grams,
    build_spectral_model,
    zero_boundary_basis,
)
from fracspace.cli import main
from fracspace.experiments import (
    run_criticality,
    run_intersection,
    run_lemma41,
    run_reiteration,
    run_stokes_retraction,
    run_weight,
    stokes_equivalence_study,
)
from oracles import k_brute, k_spectral, k_sum_brute, pair_from_model


def _verdict(num: int, ok: bool, label: str) -> bool:
    print(f"[criterion-{num:02d}] {'PASS' if ok else 'FAIL'} {label}")
    return ok


def test_criterion_01_interpolation_identity_sweep():
    t0 = time.monotonic()
    rep = run_lemma41(RunConfig(experiment="lemma41", sizes=(256,), seed=42))
    elapsed = time.monotonic() - t0
    cells = [c for c in rep.cells if c["check"] == "identity-ratio"]
    worst = max(abs(c["ratio"] - 1.0) for c in cells)
    ok = (
        len(cells) == 9 * 20
        and worst <= 1e-3
        and all(c["pass"] for c in cells)
        and elapsed < 30.0
    )
    assert _verdict(
        1, ok, f"256-mode sweep worst |ratio-1| = {worst:.2e} in {elapsed:.1f}s"
    )


def test_criterion_02_interpolation_constant():
    # oracle: I(theta) = integral_0^inf s^(1-2 theta)/(1+s^2) ds, split at
    # s = 1 with s -> 1/s on the upper half
    worst = 0.0
    for theta in (0.1, 0.25, 0.5, 0.75, 0.9):
        low, _ = quad(lambda s: s ** (1 - 2 * theta) / (1 + s * s), 0.0, 1.0)
        high, _ = quad(lambda v: v ** (2 * theta - 1) / (1 + v * v), 0.0, 1.0)
        worst = max(worst, abs(i_theta(theta) - (low + high)))
    exact_half = i_theta(0.5) == math.pi / 2.0
    ok = worst <= 1e-8 and exact_half
    assert _verdict(
        2, ok, f"I(theta) vs quadrature oracle {worst:.2e}; I(1/2) == pi/2: {exact_half}"
    )


def test_criterion_03_k_routes_agree():
    rng = np.random.default_rng(42)
    lam = np.sort(rng.uniform(0.5, 20.0, 6))
    model = build_spectral_model(lam)
    pair = pair_from_model(model)
    worst_eq = 0.0
    sandwich = True
    for _ in range(50):
        c = rng.standard_normal(6)
        t = float(np.exp(rng.uniform(math.log(0.05), math.log(20.0))))
        ks = k_spectral(model, c, t)
        kq = k_quadratic(pair, c, t)
        kb = k_brute(model, c, t)
        worst_eq = max(worst_eq, abs(kq - ks) / ks, abs(kb - ks) / ks)
        s = k_sum_brute(model, c, t)
        sandwich = sandwich and ks <= s * (1 + 1e-9) and s <= math.sqrt(2) * ks * (
            1 + 1e-9
        )
    ok = worst_eq <= 1e-6 and sandwich
    assert _verdict(
        3, ok, f"50 cells, route spread {worst_eq:.2e}, sum-K sandwich: {sandwich}"
    )


def test_criterion_04_criticality_classes():
    t0 = time.monotonic()
    rep = run_criticality(RunConfig(experiment="criticality", sizes=(2**14,)))
    elapsed = time.monotonic() - t0
    by_theta = {c["theta"]: c for c in rep.cells}
    classes_ok = (
        by_theta[0.20]["classification"] == "convergent"
        and by_theta[0.25]["classification"] == "log-divergent"
        and by_theta[0.30]["classification"] == "power-divergent"
    )
    exponent = by_theta[0.30]["fitted_exponent"]
    exponent_ok = abs(exponent - 0.2) <= 0.1 * 0.2
    ok = classes_ok and exponent_ok and elapsed < 5.0
    assert _verdict(
        4,
        ok,
        f"three classes correct: {classes_ok}, exponent {exponent:.4f} "
        f"within 10% of 0.2, in {elapsed:.2f}s",
    )


def test_criterion_05_weight_agreement():
    rep = run_weight(RunConfig(experiment="weight"))
    agree = [c for c in rep.cells if c["check"] == "agreement"]
    ok = len(agree) == 3 and all(c["pass"] for c in agree)
    labels = {c["probe"]: c["criticality_class"] for c in agree}
    assert _verdict(5, ok, f"weight vs membership agreement 3/3: {labels}")


def test_criterion_06_intersection_zero_violations():
    rep = run_intersection(
        RunConfig(experiment="intersection", sizes=(16, 12), seed=42)
    )
    pointwise = [c for c in rep.cells if c["check"] == "pointwise"]
    n_probe_grid = {(c["grid"], c["probe"]) for c in pointwise}
    violations = sum(1 for c in pointwise if not c["pass"])
    ok = (
        len(n_probe_grid) == 2 * 25  # 25 probes on each of the two operators
        and violations == 0
        and all(c["pass"] for c in rep.cells)
    )
    assert _verdict(
        6,
        ok,
        f"{len(pointwise)} pointwise checks across {len(n_probe_grid)} probe/grid "
        f"pairs, violations = {violations}",
    )


def test_criterion_07_harmonic_lift():
    d = grid_domain(2, 16)
    grams = sobolev_grams(d)
    Z = zero_boundary_basis(d)
    stiff = grams.g1 - grams.g0
    T = harmonic_retraction(d, grams)
    rng = np.random.default_rng(42)
    worst_fix = 0.0
    energy_ok = True
    for _ in range(100):
        z = Z @ rng.standard_normal(Z.shape[1])
        w = T.subspace_basis @ (T.inner @ z)
        worst_fix = max(
            worst_fix, float(np.max(np.abs(w - z)) / max(np.max(np.abs(z)), 1e-300))
        )
        u = rng.standard_normal(grams.g0.shape[0])
        wu = T.subspace_basis @ (T.inner @ u)
        energy_ok = energy_ok and wu @ stiff @ wu <= u @ stiff @ u * (1 + 1e-12)
    ok = worst_fix <= 1e-10 and energy_ok
    assert _verdict(
        7,
        ok,
        f"lift fixes zero-boundary vectors to {worst_fix:.2e}; "
        f"energy inequality on 100 probes: {energy_ok}",
    )


def test_criterion_08_stokes_retraction_stability():
    rep = run_stokes_retraction(
        RunConfig(experiment="stokes-retraction", sizes=(8, 16, 24), seed=42)
    )
    ident = [c for c in rep.cells if c["check"] == "identity-on-kernel"]
    drift = [c for c in rep.cells if c["check"].endswith("bound-drift")]
    ident_ok = len(ident) == 3 and all(c["ratio"] <= 1e-10 for c in ident)
    drift_ok = len(drift) == 2 and all(c["ratio"] < 2.0 for c in drift)
    ok = ident_ok and drift_ok and rep.passed
    worst_drift = max(c["ratio"] for c in drift)
    assert _verdict(
        8, ok, f"identity on kernel <= 1e-10; bound drift {worst_drift:.3f} < 2"
    )


def test_criterion_09_stokes_norm_exactness():
    rep = stokes_equivalence_study(
        RunConfig(experiment="stokes-equivalence", sizes=(8, 12, 16), seed=42)
    )
    at0 = [c for c in rep.cells if c["check"] == "exact-at-0"]
    at_half = [c for c in rep.cells if c["check"] == "exact-at-half"]
    at1 = [c for c in rep.cells if c["check"] == "contraction-at-1"]
    exact_ok = all(
        abs(c["ratio"] - 1.0) <= 1e-10 for c in at0 + at_half
    ) and len(at0) == len(at_half) == 3
    contract_ok = all(c["ratio"] <= 1.0 + 1e-12 for c in at1) and len(at1) == 3
    ok = exact_ok and contract_ok
    assert _verdict(
        9, ok, f"ratio exact at theta 0 and 1/2; ratio <= 1 at theta 1: {contract_ok}"
    )


def test_criterion_10_reiteration():
    rep = run_reiteration(RunConfig(experiment="reiteration", sizes=(256,), seed=42))
    coeff = [
        c
        for c in rep.cells
        if c["check"] in ("coefficient-identity", "endpoint-theta1")
    ]
    interp = [
        c
        for c in rep.cells
        if c["check"] in ("derived-model-ratio", "weighted-pair-ratio")
    ]
    coeff_ok = all(abs(c["ratio"] - 1.0) <= 1e-12 for c in coeff) and coeff
    interp_ok = all(abs(c["ratio"] - 1.0) <= 1e-3 for c in interp) and interp
    ok = bool(coeff_ok and interp_ok)
    assert _verdict(
        10,
        ok,
        f"{len(coeff)} exact identities at 1e-12, {len(interp)} "
        f"interpolation ratios at 1e-3",
    )


def test_criterion_11_byte_identical_output(tmp_path):
    out1 = tmp_path / "r1"
    out2 = tmp_path / "r2"
    for out in (out1, out2):
        code = main(
            ["higher-power", "--seed", "42", "--out", str(out), "--format", "both"]
        )
        assert code == 0
    names = sorted(os.listdir(out1))
    same = names == sorted(os.listdir(out2)) and all(
        (out1 / n).read_bytes() == (out2 / n).read_bytes() for n in names
    )
    ok = bool(names) and same
    assert _verdict(
        11, ok, f"two seeded runs produced byte-identical {names}"
    )
