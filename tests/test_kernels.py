import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fracspace import _kernels
from fracspace._kernels import k2_batch

ROOT = Path(__file__).resolve().parents[1]


def _k2_loop(lam, c2, ts):
    """The docstring formula, one (t, mode) term at a time, per column."""
    if c2.ndim == 2:
        return np.column_stack([_k2_loop(lam, col, ts) for col in c2.T])
    return np.array(
        [
            math.fsum(t * t * lj * lj * cj / (1.0 + t * t * lj * lj) for lj, cj in zip(lam, c2))
            for t in ts
        ]
    )


def _cases():
    rng = np.random.default_rng(0)
    yield np.array([1.0]), np.array([1.0]), np.array([1.0])
    yield (
        np.array([1e-6, 1.0, 1e6]),
        np.array([0.5, 0.25, 2.0]),
        np.geomspace(1e-8, 1e8, 33),
    )
    lam = np.sort(rng.uniform(0.1, 100.0, 257))
    c2 = rng.uniform(0.0, 1.0, 257)
    ts = np.geomspace(1e-3, 1e3, 101)
    yield lam, c2, ts
    # one column per vector, as the batched quadrature calls it
    decay = np.geomspace(1.0, 1e-6, 257)[:, None]
    yield lam, rng.uniform(0.0, 1.0, (257, 5)) * decay, ts


@pytest.mark.parametrize(
    "case", list(_cases()), ids=("single", "spread", "random", "columns")
)
def test_backends_agree(case):
    # the kernel agrees with the formula evaluated term by term
    lam, c2, ts = case
    np.testing.assert_allclose(k2_batch(lam, c2, ts), _k2_loop(lam, c2, ts), rtol=1e-13, atol=0.0)


def test_accepts_read_only_inputs():
    lam = np.array([1.0, 2.0])
    c2 = np.array([1.0, 1.0])
    ts = np.array([0.5, 2.0])
    for arr in (lam, c2, ts):
        arr.setflags(write=False)
    np.testing.assert_allclose(k2_batch(lam, c2, ts), _k2_loop(lam, c2, ts), rtol=1e-13)


def test_limits():
    lam = np.array([2.0, 5.0])
    c2 = np.array([1.0, 4.0])
    # small t: K^2 ~ t^2 * |u|_Y^2; large t: K^2 -> |u|_X^2
    tiny = k2_batch(lam, c2, np.array([1e-9]))[0]
    assert tiny == pytest.approx(1e-18 * (4.0 * 1.0 + 25.0 * 4.0), rel=1e-6)
    huge = k2_batch(lam, c2, np.array([1e9]))[0]
    assert huge == pytest.approx(5.0, rel=1e-6)


def test_reference_chunking_matches(monkeypatch):
    monkeypatch.setattr(_kernels, "_CHUNK", 64)
    rng = np.random.default_rng(1)
    lam = rng.uniform(0.5, 50.0, 37)
    c2 = rng.uniform(0.0, 1.0, 37)
    ts = np.geomspace(0.01, 100.0, 29)
    C2 = rng.uniform(0.0, 1.0, (37, 4))
    chunked = k2_batch(lam, c2, ts)
    chunked_cols = k2_batch(lam, C2, ts)
    monkeypatch.setattr(_kernels, "_CHUNK", 8_000_000)
    whole = k2_batch(lam, c2, ts)
    np.testing.assert_allclose(chunked, whole, rtol=1e-14)
    assert chunked_cols.shape == (29, 4)
    np.testing.assert_allclose(chunked_cols, k2_batch(lam, C2, ts), rtol=1e-14)


def test_monotone_in_t():
    lam = np.array([1.0, 3.0, 9.0])
    c2 = np.array([1.0, 0.5, 0.25])
    ts = np.geomspace(1e-4, 1e4, 65)
    out = k2_batch(lam, c2, ts)
    assert np.all(np.diff(out) >= -1e-15)


def test_benchmark_contract():
    # e2ebench records fracspace.BACKEND in every run and traces the kernel
    # through the bindings that modules outside _kernels hold
    import fracspace

    assert isinstance(fracspace.BACKEND, str)
    assert fracspace.kfunctional.k2_batch is fracspace._kernels.k2_batch
    assert fracspace.retractions.k2_batch is fracspace._kernels.k2_batch


def test_pyproject_build_is_pure_python(tmp_path):
    # pyproject.toml alone drives the build; egg-info goes to tmp_path
    # so nothing is written under src/
    lib = tmp_path / "lib"
    build = subprocess.run(
        [sys.executable, "-c", "import setuptools; setuptools.setup()",
         "egg_info", "--egg-base", str(tmp_path), "build_py", "--build-lib", str(lib)],
        cwd=ROOT, capture_output=True, text=True,
    )
    assert build.returncode == 0, build.stderr
    built = [p for p in lib.rglob("*") if p.is_file()]
    assert built and all(p.suffix == ".py" for p in built), built

    env = dict(os.environ, PYTHONPATH=str(lib))

    def run(*code):
        return subprocess.run(
            [sys.executable, "-c", *code], cwd=tmp_path, env=env,
            capture_output=True, text=True,
        )

    proc = run("import fracspace; print(fracspace.__file__); print(fracspace.BACKEND)")
    assert proc.returncode == 0, proc.stderr
    path, backend = proc.stdout.splitlines()
    assert Path(path).parent == lib / "fracspace"
    assert backend == "reference"
    proc = run("import sys; from fracspace.cli import main; sys.exit(main())", "list")
    assert proc.returncode == 0, proc.stderr
    assert "lemma41" in proc.stdout
