import json
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracspace import (
    EXPERIMENTS,
    InvalidConfig,
    RunConfig,
    UnknownExperiment,
    config_hash,
    make_report,
    make_run_config,
    report_to_csv,
    report_to_json,
    write_report,
)
from fracspace.cli import main
from fracspace.reporting import summarize

_CELLS = [
    {"check": "a", "ratio": 1.0005, "bound": 1e-3, "pass": True, "theta": 0.5},
    {"check": "b", "ratio": None, "flag": False, "pass": True, "extra": "x"},
]


def test_make_run_config_validates():
    ok = make_run_config(
        {"experiment": "lemma41", "sizes": [16], "thetas": [0.5], "seed": 1},
        EXPERIMENTS,
    )
    assert ok.sizes == (16,) and ok.thetas == (0.5,) and ok.seed == 1
    edge = {"log_t_min": -300, "log_t_max": 300.0, "tol": 1e-14}
    cfg = make_run_config({"experiment": "lemma41", "quadrature": edge}, EXPERIMENTS)
    assert cfg.quadrature == edge
    with pytest.raises(UnknownExperiment):
        make_run_config({"experiment": "nope"}, EXPERIMENTS)
    with pytest.raises(InvalidConfig):
        make_run_config({"experiment": "lemma41", "bogus": 1}, EXPERIMENTS)
    with pytest.raises(InvalidConfig):
        make_run_config({"experiment": "lemma41", "sizes": [0]}, EXPERIMENTS)
    with pytest.raises(InvalidConfig):
        make_run_config({"experiment": "lemma41", "thetas": [1.0]}, EXPERIMENTS)
    with pytest.raises(InvalidConfig):
        make_run_config({"experiment": "lemma41", "format": "xml"}, EXPERIMENTS)
    for shape in ({"sizes": 5}, {"sizes": None}, {"thetas": 0.5}):
        with pytest.raises(InvalidConfig):
            make_run_config({"experiment": "lemma41", **shape}, EXPERIMENTS)
    for quad in (
        {"panels": 3},
        {"log_t_min": "abc"},
        {"tol": "x"},
        {"tol": True},
        {"log_t_max": float("nan")},
        {"log_t_min": -(10**400)},
        {"max_panels": 1},
        {"log_t_max": 1e308},
        {"log_t_min": 800, "log_t_max": 900},
        {"log_t_min": -300.5},
        # below rounding, successive doublings tie only by luck
        {"tol": 1e-15},
        {"tol": 1e-30},
    ):
        with pytest.raises(InvalidConfig):
            make_run_config({"experiment": "lemma41", "quadrature": quad}, EXPERIMENTS)
    for out in (5, "", None, ["x"]):
        with pytest.raises(InvalidConfig):
            make_run_config({"experiment": "lemma41", "output_dir": out}, EXPERIMENTS)
    # numpy.random.default_rng takes no negative seed
    for seed in (-1, -(10**30)):
        with pytest.raises(InvalidConfig):
            make_run_config({"experiment": "lemma41", "seed": seed}, EXPERIMENTS)
    assert make_run_config({"experiment": "lemma41", "seed": 0}, EXPERIMENTS).seed == 0


_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(10**20), max_value=10**20),
    st.sampled_from([-1, 0, 1, 2**63, 10**400, -(10**400)]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=6),
)
_junk = st.recursive(
    _scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4), st.dictionaries(st.text(max_size=4), inner, max_size=3)
    ),
    max_leaves=8,
)
_ints = st.one_of(
    st.integers(min_value=-3, max_value=10**6), st.sampled_from([2**63, 10**400])
)
_reals = st.one_of(
    st.floats(min_value=-400.0, max_value=400.0), st.sampled_from([math.nan, math.inf, 0])
)
_CONFIG_KEYS = ("experiment", "sizes", "thetas", "seed", "quadrature", "output_dir", "format")


@st.composite
def _config_docs(draw):
    """Mostly plausible configs, with up to two of the seven keys junk."""
    doc = draw(
        st.fixed_dictionaries(
            {"experiment": st.sampled_from(sorted(EXPERIMENTS))},
            optional={
                "sizes": st.lists(_ints, max_size=3),
                "thetas": st.lists(_reals, max_size=3),
                "seed": st.integers(min_value=-(10**6), max_value=10**6),
                "quadrature": st.dictionaries(
                    st.sampled_from(["log_t_min", "log_t_max", "tol", "max_panels"]),
                    st.one_of(_ints, _reals),
                    max_size=2,
                ),
                "output_dir": st.just("runs"),
                "format": st.sampled_from(["csv", "json", "both"]),
            },
        )
    )
    doc.update(draw(st.dictionaries(st.sampled_from(_CONFIG_KEYS), _junk, max_size=2)))
    return doc


@settings(max_examples=200, deadline=None)
@given(_config_docs())
def test_make_run_config_fuzz(doc):
    # a config is either valid or refused as such, never a crash
    try:
        cfg = make_run_config(doc, EXPERIMENTS)
    except (InvalidConfig, UnknownExperiment):
        return
    assert isinstance(cfg, RunConfig)
    np.random.default_rng(cfg.seed)
    assert all(isinstance(th, float) and 0.0 < th < 1.0 for th in cfg.thetas)
    assert all(math.isfinite(v) for v in (cfg.quadrature or {}).values())


def test_config_hash_scope():
    a = RunConfig(experiment="lemma41", sizes=(16,), seed=1)
    b = RunConfig(experiment="lemma41", sizes=(16,), seed=1, output_dir="/tmp/x")
    c = RunConfig(experiment="lemma41", sizes=(16,), seed=1, format="csv")
    d = RunConfig(experiment="lemma41", sizes=(16,), seed=2)
    assert config_hash(a) == config_hash(b) == config_hash(c)
    assert config_hash(a) != config_hash(d)
    assert len(config_hash(a)) == 12


def test_summary_matches_cells():
    rep = make_report("demo", {}, _CELLS, seed=0, cfg_hash="abc")
    assert rep.summary == summarize(_CELLS)
    assert rep.summary["n_cells"] == 2
    assert rep.summary["n_pass"] == 2
    assert rep.summary["worst_ratio"] == 1.0005
    assert rep.passed


def test_csv_shape():
    rep = make_report("demo", {}, _CELLS)
    text = report_to_csv(rep)
    lines = text.split("\r\n")
    assert lines[-1] == ""  # trailing CRLF
    header = lines[0].split(",")
    assert header == sorted({"check", "ratio", "bound", "pass", "theta", "flag", "extra"})
    row0 = dict(zip(header, lines[1].split(",")))
    assert row0["pass"] == "true"
    assert row0["ratio"] == "1.0005"
    assert row0["flag"] == ""  # missing key -> empty field
    row1 = dict(zip(header, lines[2].split(",")))
    assert row1["flag"] == "false"
    assert row1["ratio"] == ""  # None -> empty field


def test_json_shape():
    rep = make_report("demo", {"p": 1}, _CELLS, seed=3, cfg_hash="h")
    text = report_to_json(rep)
    assert text.endswith("\n")
    doc = json.loads(text)
    assert set(doc) == {"experiment", "parameters", "cells", "summary", "provenance"}
    assert doc["provenance"]["seed"] == 3
    # keys are serialized sorted
    assert text.index('"cells"') < text.index('"experiment"')


def test_json_rejects_nonfinite():
    rep = make_report("demo", {}, [{"ratio": float("nan"), "pass": True}])
    with pytest.raises(ValueError):
        report_to_json(rep)
    with pytest.raises(InvalidConfig):
        report_to_csv(rep)


def test_write_report_formats(tmp_path):
    cfg = RunConfig(experiment="demo", output_dir=str(tmp_path), format="both")
    rep = make_report("demo", {}, _CELLS, cfg_hash=config_hash(cfg))
    paths = write_report(rep, cfg)
    stems = [os.path.basename(p) for p in paths]
    h = config_hash(cfg)
    assert stems == [f"demo-{h}.csv", f"demo-{h}.json"]
    only_csv = RunConfig(experiment="demo", output_dir=str(tmp_path), format="csv")
    assert len(write_report(rep, only_csv)) == 1


# ---- CLI


def test_cli_list(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for name in EXPERIMENTS:
        assert name in out


def test_cli_unknown_experiment(capsys):
    assert main(["definitely-not-real"]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "UnknownExperiment"


def test_cli_bad_config_file(tmp_path, capsys):
    bad = tmp_path / "cfg.json"
    bad.write_text("{not json")
    assert main(["lemma41", "--config", str(bad)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "InvalidConfig"


@pytest.mark.parametrize(
    "quad",
    [
        {"log_t_min": "abc"},
        {"tol": "x"},
        # windows past |log t| <= 300: math.exp overflows or the integrand is not finite
        {"log_t_max": 1e308},
        {"log_t_min": 800, "log_t_max": 900},
        # tolerances below rounding
        {"tol": 1e-15},
        {"tol": 1e-30},
    ],
)
def test_cli_malformed_quadrature_exits_2(tmp_path, capsys, quad):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"sizes": [24], "quadrature": quad}))
    assert main(["lemma41", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == "InvalidConfig"


@pytest.mark.parametrize("doc", [{"sizes": 5}, {"sizes": None}, {"thetas": 0.5}])
def test_cli_non_array_sizes_or_thetas_exit_2(tmp_path, capsys, doc):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    assert main(["lemma41", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == "InvalidConfig"


def test_cli_non_string_output_dir_exits_2(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"output_dir": 5}))
    assert main(["higher-power", "--size", "8", "--config", str(cfg)]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == "InvalidConfig"
    assert os.listdir(tmp_path) == ["cfg.json"]


def test_cli_runs_and_writes(tmp_path, capsys):
    code = main(
        [
            "higher-power",
            "--size",
            "24",
            "--out",
            str(tmp_path),
            "--format",
            "json",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "PASS" in out
    files = os.listdir(tmp_path)
    assert len(files) == 1 and files[0].startswith("higher-power-")
    doc = json.loads((tmp_path / files[0]).read_text())
    assert doc["summary"]["n_pass"] == doc["summary"]["n_cells"]


def test_cli_documented_config_example(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"thetas": [0.5], "sizes": [64]}))
    code = main(["lemma41", "--config", str(cfg), "--out", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "PASS" in out


def test_cli_seed_precedence(tmp_path, monkeypatch):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 5, "sizes": [24]}))
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    out3 = tmp_path / "c"
    monkeypatch.setenv("FRACSPACE_SEED", "6")
    # env var beats the config file
    main(["higher-power", "--config", str(cfg), "--out", str(out1), "--format", "json"])
    # flag beats the env var
    main(
        [
            "higher-power",
            "--config",
            str(cfg),
            "--out",
            str(out2),
            "--format",
            "json",
            "--seed",
            "7",
        ]
    )
    monkeypatch.delenv("FRACSPACE_SEED")
    main(["higher-power", "--config", str(cfg), "--out", str(out3), "--format", "json"])
    seeds = []
    for d in (out1, out2, out3):
        doc = json.loads((d / os.listdir(d)[0]).read_text())
        seeds.append(doc["provenance"]["seed"])
    assert seeds == [6, 7, 5]


def test_cli_bad_env_seed(monkeypatch, capsys):
    monkeypatch.setenv("FRACSPACE_SEED", "not-an-int")
    assert main(["higher-power", "--size", "24", "--format", "json"]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "InvalidConfig"


@pytest.mark.parametrize("flag, env", [(["--seed", "-1"], None), ([], "-5")])
def test_cli_negative_seed_exits_2(tmp_path, monkeypatch, capsys, flag, env):
    if env is not None:
        monkeypatch.setenv("FRACSPACE_SEED", env)
    argv = ["higher-power", "--size", "24", *flag, "--out", str(tmp_path)]
    assert main(argv) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == "InvalidConfig"
    assert os.listdir(tmp_path) == []


def test_cli_criticality_size_cap_exits_2(tmp_path, capsys):
    # one mode past the cap of 2^22; refused before anything is allocated
    argv = ["criticality", "--size", str(2**22 + 1), "--out", str(tmp_path)]
    assert main(argv) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    doc = json.loads(lines[0])
    assert doc["error"] == "InvalidConfig" and "cap" in doc["message"]
    assert os.listdir(tmp_path) == []


def _runner_must_not_run(config):
    raise AssertionError("the experiment ran before the output directory was checked")


@pytest.mark.parametrize("out", ["taken", "taken/sub/dir"])
def test_cli_unusable_out_exits_2_before_running(tmp_path, monkeypatch, capsys, out):
    # --out at an existing file, or at a path under one
    (tmp_path / "taken").write_text("x")
    monkeypatch.setitem(EXPERIMENTS, "lemma41", (_runner_must_not_run, "stub"))
    assert main(["lemma41", "--size", "8", "--out", str(tmp_path / out)]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == "InvalidConfig"
    assert os.listdir(tmp_path) == ["taken"]


def test_cli_write_oserror_exits_2(tmp_path, monkeypatch, capsys):
    def failing_write(report, config):
        raise PermissionError(13, "Permission denied", config.output_dir)

    monkeypatch.setattr("fracspace.cli.write_report", failing_write)
    assert main(["higher-power", "--size", "8", "--out", str(tmp_path)]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    doc = json.loads(lines[0])
    assert doc["error"] == "InvalidConfig" and "Permission denied" in doc["message"]


def test_cli_verification_error_exits_1(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps({"sizes": [24], "quadrature": {"tol": 1e-14, "max_panels": 8}})
    )
    assert main(["lemma41", "--config", str(cfg), "--out", str(tmp_path)]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "QuadratureNotConverged"


def test_cli_byte_identical_reruns(tmp_path):
    out1 = tmp_path / "r1"
    out2 = tmp_path / "r2"
    for out in (out1, out2):
        assert main(["criticality", "--out", str(out)]) == 0
    f1 = sorted(os.listdir(out1))
    f2 = sorted(os.listdir(out2))
    assert f1 == f2
    for name in f1:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
