"""Build, cache and load the compiled step kernel ``_step.c``.

The library is compiled on first use with the C compiler Python was
built with (``sysconfig``'s ``CC``), from the source bytes on standard
input, and stored under a name that hashes the source, the compiler
command and the flags.  It is stored in the package's ``__pycache__``
when this user owns that and no one else may write to it, else in
``subspace_descent-<uid>`` under the system temporary directory, made
with mode 0o700 and refused if it is not owned by this user or is
writable by others: nothing is built or loaded where another user
could have put a library first.  A changed source builds a new library
and never loads a stale one.  The build writes a temporary file and
renames it into place, so concurrent first runs never see half a
library.  Each process loads it once; the build tools are imported
only then.
"""

from __future__ import annotations

import ctypes
import functools
import os
import stat
from pathlib import Path

import numpy as np

SOURCE = Path(__file__).with_name("_step.c")
CACHE_DIR = Path(__file__).with_name("__pycache__")
#: The compiler command; None for the one Python was built with.
CC = None
# No -ffast-math or -march=native, and no contraction into fused
# multiply-adds: the kernel must round as the Python loop did.
FLAGS = ("-O2", "-ffp-contract=off", "-fPIC", "-shared")

_P = ctypes.c_void_p


class KernelBuildError(OSError):
    """The step kernel cannot be built or stored; ``stderr`` is the compiler's."""

    def __init__(self, message, stderr=""):
        super().__init__(f"{message}\n{stderr}".rstrip())
        self.stderr = stderr


class Layout(ctypes.Structure):
    """Per-decomposition arguments; see ``_step.c``."""

    _fields_ = [(name, _P) for name in (
        "start", "offsets", "vals", "scalars", "energies", "aoffsets", "arows", "avals"
    )]


class Run(ctypes.Structure):
    """Per-run arguments and the state the kernel carries; see ``_step.c``."""

    _fields_ = [(name, _P) for name in ("x", "g", "alpha", "scalar", "fs", "gns", "chosen")]
    _fields_ += [(name, ctypes.c_double) for name in ("f", "gn2", "slack", "thr2", "tau")]
    _fields_ += [(name, ctypes.c_int64) for name in ("k", "kmax", "j")]


def address(a, dtype):
    """Address of the first entry of ``a``, which must be a nonempty
    C-contiguous array of ``dtype``: the kernel reads it as such."""
    flags = a.flags
    if a.dtype != dtype or not flags.c_contiguous:
        raise TypeError(f"the step kernel needs a C-contiguous {np.dtype(dtype)} array")
    # The loop takes the address of each sampler batch it hands to the
    # kernel: from_buffer takes 0.4 us where a.ctypes takes 1.2 us, about
    # 10 % of an rcd run at N = 63.  Read-only arrays have only a.ctypes.
    if flags.writeable:
        return ctypes.addressof(ctypes.c_char.from_buffer(a))
    return a.ctypes.data


class Binding:
    """The kernel's view of a decomposition under a banded Hessian.

    ``layout`` points into arrays that this object keeps alive;
    ``applied`` is ``d.applied(hessian)`` and ``scalar`` marks the
    subspaces with one basis column on a contiguous support.  Built once
    per decomposition and Hessian (see :func:`bind`), so that trials
    share it.
    """

    def __init__(self, d, hessian, applied):
        offsets, rows = d.offsets, d.rows
        if rows.size == len(d):  # one row per support: all scalar
            start, self.scalar = rows, np.ones(len(d), dtype=np.uint8)
        else:
            start = rows[offsets[:-1]]
            contiguous = rows[offsets[1:] - 1] + 1 - start == offsets[1:] - offsets[:-1]
            self.scalar = ((d.k == 1) & contiguous).view(np.uint8)
        self.applied = applied
        self._arrays = (start, offsets, d.vals, d.scalars, d.local_energies(hessian)[0])
        self._arrays += applied
        types = (np.int64,) * 2 + (np.float64,) * 3 + (np.int64,) * 2 + (np.float64,)
        self.layout = Layout(*map(address, self._arrays, types))


def bind(d, hessian):
    """:class:`Binding` of ``d`` under ``hessian``, cached next to ``applied``."""
    applied = d.applied(hessian)  # also makes the cache the one of hessian
    cached = d._energies
    if cached[4] is None:
        cached[4] = Binding(d, hessian, applied)
    return cached[4]


def _private(directory, uid):
    """Whether ``directory`` is a directory (not a link) that ``uid`` owns
    and that neither its group nor others may write to."""
    try:
        st = os.lstat(directory)
    except OSError:
        return False
    return stat.S_ISDIR(st.st_mode) and st.st_uid == uid and not st.st_mode & 0o022


def _cache_dir():
    """The directory the library is kept in; see the module docstring."""
    import tempfile

    uid = os.getuid()
    try:
        CACHE_DIR.mkdir(exist_ok=True)
    except OSError:
        pass
    if _private(CACHE_DIR, uid) and os.access(CACHE_DIR, os.W_OK):
        return CACHE_DIR
    directory = Path(tempfile.gettempdir()) / f"subspace_descent-{uid}"
    try:
        directory.mkdir(mode=0o700, exist_ok=True)
    except OSError as exc:
        raise KernelBuildError(f"cannot make {directory} for the step kernel: {exc}") from exc
    if not _private(directory, uid):
        raise KernelBuildError(
            f"{directory} is not a directory owned by this user and closed to others; "
            "the step kernel is neither built nor loaded there"
        )
    return directory


def library():
    """Path of the compiled kernel, built first if it is not cached."""
    import hashlib
    import shlex
    import subprocess
    import sysconfig
    import tempfile

    cc = CC or shlex.split(sysconfig.get_config_var("CC") or "cc")
    source = SOURCE.read_bytes()
    key = hashlib.sha256(repr((cc, FLAGS)).encode() + source).hexdigest()[:16]
    directory = _cache_dir()
    path = directory / f"_step.{key}.so"
    if path.exists():
        return path
    fd, partial = tempfile.mkstemp(prefix="_step.", suffix=".so.partial", dir=directory)
    os.close(fd)
    command = [*cc, *FLAGS, "-o", partial, "-x", "c", "-", "-lm"]
    try:
        done = subprocess.run(command, input=source, capture_output=True, check=False)
    except OSError as exc:
        os.unlink(partial)
        raise KernelBuildError(f"cannot run the C compiler {cc[0]!r}: {exc}") from exc
    if done.returncode != 0:
        os.unlink(partial)
        raise KernelBuildError(
            f"the C compiler failed to build {SOURCE.name} (exit {done.returncode})",
            done.stderr.decode(errors="replace"),
        )
    os.replace(partial, path)
    return path


@functools.cache
def load():
    """``scalar_steps(layout, run, batch, m)`` from the compiled kernel."""
    steps = ctypes.CDLL(str(library())).scalar_steps
    steps.argtypes = (ctypes.POINTER(Layout), ctypes.POINTER(Run), _P, ctypes.c_int64)
    steps.restype = ctypes.c_int64
    return steps
