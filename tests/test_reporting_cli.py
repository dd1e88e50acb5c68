import ast
import contextlib
import ctypes
import glob
import io
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
import scipy
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import linalg

from fracspace import (
    EXPERIMENTS,
    InvalidConfig,
    RunConfig,
    SolverFailure,
    UnknownExperiment,
    config_hash,
    make_report,
    make_run_config,
    report_to_csv,
    report_to_json,
    write_report,
)
from fracspace import cli, reporting
from fracspace.cli import main
from fracspace.experiments import SCIPY_EXPERIMENTS
from fracspace.reporting import (
    at_most,
    cell,
    ladder_drift,
    near_one,
    recorded,
    summarize,
)

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


def test_json_rejects_nonfinite(tmp_path):
    # one error class in every format, raised before any file is opened
    rep = make_report("demo", {}, [{"ratio": float("nan"), "pass": True}])
    with pytest.raises(SolverFailure):
        report_to_json(rep)
    with pytest.raises(SolverFailure):
        report_to_csv(rep)
    for fmt in ("csv", "json", "both"):
        cfg = RunConfig(experiment="demo", output_dir=str(tmp_path), format=fmt)
        with pytest.raises(SolverFailure, match="non-finite"):
            write_report(rep, cfg)
        assert os.listdir(tmp_path) == [], fmt


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


def test_all_is_the_public_surface():
    # every public non-module name of the package is exported, and nothing else
    import types

    import fracspace

    public = {
        name
        for name, obj in vars(fracspace).items()
        if not name.startswith("_") and not isinstance(obj, types.ModuleType)
    }
    assert set(fracspace.__all__) == public | {"__version__"}
    assert fracspace.__all__ == sorted(fracspace.__all__)


def test_cli_list(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for name in EXPERIMENTS:
        assert name in out


def test_cli_unknown_experiment(capsys):
    assert main(["definitely-not-real"]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "UnknownExperiment"


def test_cli_eigensolve_failure_exits_1(monkeypatch, tmp_path, capsys):
    # a dense eigensolve of an operator that does not converge: exit 1 and
    # one JSON line naming SolverFailure
    def failing(*args, **kwargs):
        raise linalg.LinAlgError("no convergence")

    monkeypatch.setattr(linalg, "eigh", failing)
    assert main(["stokes-equivalence", "--size", "4", "--out", str(tmp_path)]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "SolverFailure"


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


def test_cli_unexpected_exception_exits_1_with_one_json_line(
    tmp_path, monkeypatch, capsys
):
    def broken(config):
        raise RuntimeError("not a package error")

    monkeypatch.setitem(EXPERIMENTS, "lemma41", (broken, "broken"))
    assert main(["lemma41", "--out", str(tmp_path)]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0]) == {
        "error": "RuntimeError",
        "message": "not a package error",
    }


_SIZE_TOKENS = st.one_of(
    st.integers(min_value=2, max_value=6).map(str),
    st.sampled_from(["0", "-1", "x", "", "7.5", "1e3"]),
)
_EXTRA_ARGS = st.sampled_from(
    [
        ["--theta", "0.5"],
        ["--theta", "0.7", "0.8"],
        ["--theta", "nan"],
        ["--theta", "-inf"],
        ["--theta", "1"],
        ["--theta", "x"],
        ["--theta"],
        ["--seed", "7"],
        ["--seed", "-1"],
        ["--seed", "1e9"],
        ["--seed", str(2**70)],
        ["--format", "json"],
        ["--format", "xml"],
        ["--config", "/nonexistent/cfg.json"],
        ["--bogus"],
        ["extra"],
    ]
)


@st.composite
def _malformed_argv(draw):
    """An experiment token, --size with 2..3 tokens (valid ones in 2..6,
    so that no grid is large) and up to two further flags, some junk."""
    argv = [draw(st.sampled_from([*sorted(EXPERIMENTS), "list", "nope", "", "-x"]))]
    argv += ["--size", *draw(st.lists(_SIZE_TOKENS, min_size=2, max_size=3))]
    for extra in draw(st.lists(_EXTRA_ARGS, max_size=2)):
        argv += extra
    return argv


@settings(max_examples=40, deadline=None)
@given(_malformed_argv())
def test_cli_fuzz_exits_cleanly(tmp_path_factory, argv):
    out = tmp_path_factory.mktemp("fuzz")
    err = io.StringIO()
    parsed = True
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        try:
            code = main([*argv, "--out", str(out)])
        except SystemExit as exc:  # argparse refuses the argv: usage on stderr
            code, parsed = exc.code, False
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err.getvalue(), argv
    if parsed and err.getvalue():
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and "error" in json.loads(lines[0]), argv


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


def _scipy_openblas():
    """(get, set) of the thread count of SciPy's vendored OpenBLAS, opened
    by its file name in the wheel, apart from the cli's own lookup."""
    paths = glob.glob(os.path.dirname(scipy.__file__) + ".libs/libscipy_openblas*.so")
    if len(paths) != 1:
        pytest.skip("this SciPy does not vendor one OpenBLAS")
    lib = ctypes.CDLL(paths[0])
    get, set_ = lib.scipy_openblas_get_num_threads, lib.scipy_openblas_set_num_threads
    get.argtypes, get.restype = [], ctypes.c_int
    set_.argtypes, set_.restype = [ctypes.c_int], None
    return get, set_


# the cheapest run of an experiment that calls SciPy, the experiments
# that cli.main runs inside the one-pool pin
_SCIPY_RUN = ["stokes-retraction", "--size", "4"]


def test_cli_runs_experiments_on_one_scipy_blas_thread(tmp_path, monkeypatch, capsys):
    # the runner sees SciPy's pool at one thread; the previous count is
    # back afterwards, also when the runner raises
    get, set_ = _scipy_openblas()
    real = EXPERIMENTS["stokes-retraction"][0]
    seen = []

    def spying(config):
        seen.append(get())
        return real(config)

    def raising(config):
        seen.append(get())
        raise RuntimeError("runner failed")

    before = get()
    set_(2)
    try:
        monkeypatch.setitem(EXPERIMENTS, "stokes-retraction", (spying, "spy"))
        assert main([*_SCIPY_RUN, "--out", str(tmp_path)]) == 0
        assert get() == 2
        monkeypatch.setitem(EXPERIMENTS, "stokes-retraction", (raising, "raise"))
        assert main([*_SCIPY_RUN, "--out", str(tmp_path)]) == 1
        assert get() == 2
    finally:
        set_(before)
    assert seen == [1, 1]
    assert json.loads(capsys.readouterr().err)["error"] == "RuntimeError"


def test_cli_scans_the_process_mappings_once(tmp_path, monkeypatch):
    scans = []

    def counting_open(path, *args, **kwargs):
        if path == "/proc/self/maps":
            scans.append(path)
        return open(path, *args, **kwargs)

    cli._scipy_blas.cache_clear()
    monkeypatch.setattr(cli, "open", counting_open, raising=False)
    for _ in range(2):
        assert main([*_SCIPY_RUN, "--out", str(tmp_path)]) == 0
    assert len(scans) == 1


def test_cli_runs_where_no_scipy_openblas_is_found(tmp_path, monkeypatch, capsys):
    # another BLAS or another OS: the pool is left alone and the run reports
    monkeypatch.setattr(cli, "_scipy_blas", lambda: None)
    assert main([*_SCIPY_RUN, "--out", str(tmp_path)]) == 0
    assert "stokes-retraction: PASS 6/6 checks" in capsys.readouterr().out


def _run_python(code, *args, **env):
    """Run code in a fresh interpreter that imports this checkout's
    package; fail the test on a non-zero exit."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    out = subprocess.run(
        [sys.executable, "-c", code, *args],
        env=dict(os.environ, PYTHONPATH=src, **env),
        capture_output=True,
        text=True,
    )
    assert out.returncode == 0, out.stderr
    return out.stdout


def test_1d_runs_load_no_scipy(tmp_path):
    # every experiment outside SCIPY_EXPERIMENTS runs through cli.main,
    # pin included, without loading any scipy module
    code = (
        "import sys; from fracspace.cli import main\n"
        "for name in sys.argv[2:]:\n"
        "    assert main([name, '--out', sys.argv[1]]) == 0\n"
        "    print(name, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    names = sorted(set(EXPERIMENTS) - SCIPY_EXPERIMENTS)
    assert len(names) == 5
    lines = _run_python(code, str(tmp_path), *names).splitlines()
    assert [line for line in lines if "PASS" not in line] == [f"{n} []" for n in names]


@pytest.mark.parametrize("experiment, sizes", [
    ("intersection", (4, 4)),
    ("halft1", (4,)),
    ("stokes-retraction", (4,)),
    ("stokes-equivalence", (4,)),
])
def test_scipy_experiments_load_scipy_linalg(experiment, sizes):
    # the runner itself, called apart from the pin (which imports
    # scipy.linalg on its own), loads scipy.linalg in a fresh interpreter
    assert experiment in SCIPY_EXPERIMENTS and len(SCIPY_EXPERIMENTS) == 4
    code = (
        "import sys; from fracspace import EXPERIMENTS, RunConfig\n"
        "name, sizes = sys.argv[1], tuple(map(int, sys.argv[2:]))\n"
        "assert EXPERIMENTS[name][0](RunConfig(experiment=name, sizes=sizes)).passed\n"
        "print('scipy.linalg' in sys.modules)\n"
    )
    assert _run_python(code, experiment, *map(str, sizes)).strip() == "True"


@pytest.mark.parametrize("first", [[], ["criticality"]])
def test_first_scipy_run_of_a_process_is_pinned(tmp_path, first):
    # the pin loads SciPy before its one scan of the process's mappings:
    # a fresh process whose first run is a SciPy experiment, or whose
    # first run loads no SciPy, still runs that experiment on one SciPy
    # thread. The spy opens SciPy's OpenBLAS only once the pin has run.
    _scipy_openblas()  # skips where SciPy vendors no OpenBLAS
    code = (
        "import ctypes, glob, os, sys, scipy\n"
        "from fracspace.cli import main; from fracspace.experiments import EXPERIMENTS\n"
        "out, first = sys.argv[1], sys.argv[2:]\n"
        "real = EXPERIMENTS['stokes-retraction'][0]\n"
        "def spying(config):\n"
        "    lib_dir = os.path.dirname(scipy.__file__) + '.libs'\n"
        "    lib = ctypes.CDLL(glob.glob(lib_dir + '/libscipy_openblas*.so')[0])\n"
        "    get = lib.scipy_openblas_get_num_threads\n"
        "    get.argtypes, get.restype = [], ctypes.c_int\n"
        "    print('threads', get())\n"
        "    return real(config)\n"
        "EXPERIMENTS['stokes-retraction'] = (spying, 'spy')\n"
        "for name in first:\n"
        "    assert main([name, '--out', out]) == 0\n"
        "assert main(['stokes-retraction', '--size', '4', '--out', out]) == 0\n"
    )
    stdout = _run_python(code, str(tmp_path), *first, OPENBLAS_NUM_THREADS="2")
    assert [line for line in stdout.splitlines() if line.startswith("threads")] == [
        "threads 1"
    ]


NAN = float("nan")


def test_cell_casts_numpy_scalars():
    # repr(np.float64(x)) is 'np.float64(x)' and an np.bool_ is no JSON value
    c = cell(np.bool_(True), ratio=np.float64(0.5), grid=3, theta=None)
    assert c == {"ratio": 0.5, "grid": 3, "theta": None, "pass": True}
    assert type(c["ratio"]) is float and type(c["pass"]) is bool
    rep = make_report("demo", {}, [c])
    assert "np." not in report_to_csv(rep)
    assert json.loads(report_to_json(rep))["cells"] == [c]


def test_summary_reports_a_nan_ratio_as_the_worst():
    cells = [near_one(1.5, 1e-3), near_one(NAN, 1e-3), near_one(0.9, 1e-3)]
    assert math.isnan(summarize(cells)["worst_ratio"])
    assert summarize(cells[::2])["worst_ratio"] == 1.5


def test_near_one_rule():
    assert near_one(1.0 + 1e-3, 1e-3)["pass"]
    assert not near_one(1.0 + 2e-3, 1e-3)["pass"]
    c = near_one(np.float64(0.9995), 1e-3, check="x")
    assert c == {"ratio": 0.9995, "bound": 1e-3, "check": "x", "pass": True}
    assert type(c["ratio"]) is float
    assert not near_one(NAN, 1e-3)["pass"]
    assert not near_one(1.0, NAN)["pass"]


def test_at_most_rule():
    assert at_most(1.0, 1.0)["pass"]
    assert not at_most(1.0 + 1e-9, 1.0)["pass"]
    assert at_most(1.0 + 1e-9, 1.0, rel=1e-9)["pass"]
    # the value is the ratio unless the cell records another
    assert at_most(0.25, 1.0)["ratio"] == 0.25
    c = at_most(1e-13, 1e-12, ratio=1.0000000000001, residual=1e-13)
    assert (c["ratio"], c["residual"], c["bound"], c["pass"]) == (
        1.0000000000001,
        1e-13,
        1e-12,
        True,
    )
    # a floor makes the rule two-sided, with the same relative slack
    assert at_most(1.0 - 1e-6, 2.0, rel=1e-5, floor=1.0)["pass"]
    assert not at_most(0.99, 2.0, rel=1e-5, floor=1.0)["pass"]
    assert not at_most(2.1, 2.0, rel=1e-5, floor=1.0)["pass"]
    for kwargs in ({}, {"rel": 1e-9}, {"floor": 0.0}):
        assert not at_most(NAN, 1.0, **kwargs)["pass"]
        assert not at_most(0.5, NAN, **kwargs)["pass"]


def test_ladder_drift_rule():
    c = ladder_drift([1.0, 1.5, 1.2], bound=2.0, check="d")
    assert c == {"ratio": 1.5, "bound": 2.0, "check": "d", "pass": True}
    assert type(c["ratio"]) is float
    assert not ladder_drift([1.0, 2.0], bound=2.0)["pass"]  # strict
    # the largest drift over several series
    assert ladder_drift([1.0, 1.1], [1.0, 1.8], bound=2.0)["ratio"] == 1.8
    # bound None records the drift; it passes while finite
    c = ladder_drift([2.0, 6.0], bound=None)
    assert (c["ratio"], c["bound"], c["pass"]) == (3.0, None, True)
    # a NaN anywhere, first or not, in either series, fails the cell;
    # Python's max([1.0, nan]) would have dropped it
    for series in ([NAN, 1.0], [1.0, NAN], [1.0, NAN, 1.5]):
        for bound in (2.0, None):
            c = ladder_drift(series, bound=bound)
            assert math.isnan(c["ratio"]) and not c["pass"]
            c = ladder_drift([1.0, 1.5], series, bound=bound)
            assert math.isnan(c["ratio"]) and not c["pass"]


def test_recorded_rule():
    c = recorded(check="r", h_bound=1.5, kernel_dim=4, note="x", r_squared=None)
    assert c["pass"] and c["h_bound"] == 1.5
    assert not recorded(h_bound=1.5, d_bound=NAN)["pass"]
    assert not recorded(h_bound=np.float64(math.inf))["pass"]


def test_report_cells_are_made_in_reporting_alone():
    # the cell format and its pass rules have one home: no other module
    # of the package spells out a "pass" key
    package = os.path.dirname(reporting.__file__)
    paths = glob.glob(os.path.join(package, "*.py"))
    names = {os.path.basename(path) for path in paths}
    assert {"experiments.py", "retractions.py", "spectral.py"} <= names
    offenders = []
    for path in sorted(paths):
        if os.path.basename(path) == "reporting.py":
            continue
        with open(path) as fh:
            tree = ast.parse(fh.read(), filename=path)
        for node in ast.walk(tree):
            if isinstance(node, ast.Dict) and any(
                isinstance(k, ast.Constant) and k.value == "pass" for k in node.keys
            ):
                offenders.append(f"{os.path.basename(path)}:{node.lineno}")
    assert offenders == []
