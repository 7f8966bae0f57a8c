"""Building and loading the compiled step kernel."""

import ctypes
import os
import tempfile

import numpy as np
import pytest

from packing import mixed_family
from subspace_descent import _kernel
from subspace_descent.cli import main
from subspace_descent.decomposition import Decomposition, coordinate_decomposition
from subspace_descent.linalg import dirichlet_laplacian


@pytest.fixture
def fresh_build(tmp_path, monkeypatch):
    """Build into an empty cache, with a temporary directory of its own;
    the process reloads the real kernel after."""
    (tmp_path / "cache").mkdir(mode=0o755)
    (tmp_path / "tmp").mkdir()
    monkeypatch.setattr(_kernel, "CACHE_DIR", tmp_path / "cache")
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path / "tmp"))
    _kernel.load.cache_clear()
    yield tmp_path
    _kernel.load.cache_clear()


def test_missing_compiler_exits_two(fresh_build, monkeypatch, capsys):
    monkeypatch.setattr(_kernel, "CC", ["no-such-c-compiler"])
    with pytest.raises(_kernel.KernelBuildError, match="no-such-c-compiler"):
        _kernel.load()
    assert main(["run", "--n", "7", "--trials", "1"]) == 2
    assert "no-such-c-compiler" in capsys.readouterr().err
    assert list((fresh_build / "cache").iterdir()) == []  # no partial library


def test_compiler_errors_carry_its_stderr(fresh_build, monkeypatch):
    monkeypatch.setattr(_kernel, "CC", ["sh", "-c", "echo no luck >&2; exit 3", "cc"])
    with pytest.raises(_kernel.KernelBuildError) as caught:
        _kernel.library()
    assert isinstance(caught.value, OSError)
    assert caught.value.stderr == "no luck\n" and "exit 3" in str(caught.value)


def test_changed_source_builds_a_new_library(fresh_build, monkeypatch):
    base = _kernel.SOURCE.read_text()
    source = fresh_build / "_step.c"
    monkeypatch.setattr(_kernel, "SOURCE", source)
    paths = []
    for mark in (1, 2):
        source.write_text(base + f"int64_t build_mark(void) {{ return {mark}; }}\n")
        paths.append(_kernel.library())
        assert ctypes.CDLL(str(paths[-1])).build_mark() == mark
        assert _kernel.library() == paths[-1]  # cached, not rebuilt
    assert paths[0] != paths[1] and paths[0].exists()
    assert sorted(p.name for p in (fresh_build / "cache").iterdir()) == sorted(
        p.name for p in paths
    )


def test_a_library_others_could_plant_is_never_loaded(fresh_build, monkeypatch):
    name = _kernel.library().name
    shared = fresh_build / "shared"
    shared.mkdir()
    shared.chmod(0o777)
    (shared / name).write_bytes(b"planted by another user")
    monkeypatch.setattr(_kernel, "CACHE_DIR", shared)
    path = _kernel.library()  # built again, in this user's own directory
    own = fresh_build / "tmp" / f"subspace_descent-{os.getuid()}"
    assert path == own / name and (own.stat().st_mode & 0o777) == 0o700
    assert ctypes.CDLL(str(path)).scalar_steps
    own.chmod(0o777)  # that one too is refused once others may write to it
    with pytest.raises(_kernel.KernelBuildError, match="closed to others"):
        _kernel.library()


def test_a_directory_of_another_user_is_never_used(fresh_build, monkeypatch):
    uid = os.getuid() + 1
    monkeypatch.setattr(os, "getuid", lambda: uid)
    # neither the cache nor subspace_descent-<uid>, both made by this user
    with pytest.raises(_kernel.KernelBuildError, match=f"subspace_descent-{uid} is not"):
        _kernel.load()
    assert list((fresh_build / "cache").iterdir()) == []


def test_address_checks_dtype_and_layout_and_never_copies():
    a = np.arange(6.0)
    frozen = a[2:]
    frozen.flags.writeable = False
    assert _kernel.address(a, np.float64) == a.ctypes.data
    assert _kernel.address(frozen, np.float64) == a.ctypes.data + 2 * a.itemsize
    for wrong, dtype in ((a, np.int64), (a[::2], np.float64), (a.astype(np.float32), np.float64)):
        with pytest.raises(TypeError, match="C-contiguous"):
            _kernel.address(wrong, dtype)


def test_the_kernel_takes_one_column_contiguous_supports_only():
    h = dirichlet_laplacian(7)
    d = mixed_family()  # 11 hats, a k = 2 block and basis, then the gap {0, 3, 5}
    assert _kernel.bind(d, h).scalar.tolist() == [1] * 11 + [0, 0, 0]
    coordinates = coordinate_decomposition(7)
    assert _kernel.bind(coordinates, h).scalar.tolist() == [1] * 7
    scattered = Decomposition(h, [0, 1, 2, 3], [0, 2, 6], [1.0, 2.0, -1.0])
    assert _kernel.bind(scattered, h).scalar.tolist() == [1] * 3
