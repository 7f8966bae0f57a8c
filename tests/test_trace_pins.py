"""Bitwise pins of solver traces.

Each run below stores sha256 digests (first 16 hex digits) of the raw
bytes of ``chosen``, ``final_x``, ``objective_values`` and
``gradient_norms``.  A change that keeps the order of arithmetic must
keep every digest; a change that moves bits on purpose must list what
moved and re-record the digests.

Scalar steps (one basis column on a contiguous support) run in the
compiled kernel ``_step.c``, which sums left to right and is built
without floating-point contraction, so they round the same way on every
platform, wide hats included.  Every exact ||g||^2 of a run with scalar
steps (at the start, at each epoch boundary, in the threshold band) is
the kernel's left-to-right sum too.  The digests are still
platform-specific: the block solves and the general steps'
restrictions and updates of g (``basis.T @ g[at]``, ``(H P_i) @ delta``)
go through numpy's BLAS, whose summation order depends on its build and
on the CPU kernel it picks.  They were recorded with numpy 2.4.6 on
scipy-openblas 0.3.31 (x86-64).
"""

import hashlib

import numpy as np
import pytest

from subspace_descent.decomposition import (
    multilevel_nodal_decomposition,
    with_quadratic_lipschitz,
)
from subspace_descent.experiments import ExperimentSpec, build_problem
from subspace_descent.linalg import SpdOperator
from subspace_descent.objectives import QuadraticObjective
from subspace_descent.sampling import SAMPLER_KINDS
from subspace_descent.solvers import QuadraticEnergyLocal, SolverConfig, run_solver

SEEDS = (0, 42)
MAX_ITERATIONS = 4000
# The subspace of the rfas run whose local problem is not canonical.
QUARTIC_INDEX = 5


class QuarticLocal:
    """f(w) = w^4/4 + a w^2/2 on one local coordinate."""

    def __init__(self, curvature):
        self.a = curvature

    def gradient(self, w):
        return np.array([w[0] ** 3 + self.a * w[0]])

    def hessian(self, w):
        return np.array([[3.0 * w[0] ** 2 + self.a]])


def tridiagonal_problem():
    """A random tridiagonal H at level 6: wide hats get long stencils."""
    rng = np.random.default_rng(11)
    h = SpdOperator.tridiagonal(2.0 + rng.random(63), -0.5 - 0.5 * rng.random(62))
    obj = QuadraticObjective(h, rng.standard_normal(63))
    return obj, with_quadratic_lipschitz(multilevel_nodal_decomposition(6), h)


def quartic_locals(d):
    locals_ = [QuadraticEnergyLocal(d, i) for i in range(len(d))]
    locals_[QUARTIC_INDEX] = QuarticLocal(d.scalars[QUARTIC_INDEX])
    return locals_


# name -> (method, problem builder, keyword arguments of run_solver)
CASES = {
    "rcd-n63": ("rcd", lambda: build_problem(ExperimentSpec(n=63, method="rcd")), None),
    "rfasd-l6": ("rfasd", lambda: build_problem(ExperimentSpec(level=6)), None),
    "rfasd-l6-tridiagonal": ("rfasd", tridiagonal_problem, None),
    "rbcd2-n63": (
        "rbcd",
        lambda: build_problem(ExperimentSpec(n=63, method="rbcd", block_size=2)),
        None,
    ),
    "rfas-l6-quartic": (
        "rfas",
        lambda: build_problem(ExperimentSpec(level=6, method="rfas")),
        lambda d: dict(local_objectives=quartic_locals(d)),
    ),
}

FIELDS = ("chosen", "final_x", "objective_values", "gradient_norms")


def digests(case, sampler, seed):
    method, problem, extra = CASES[case]
    obj, d = problem()
    cfg = SolverConfig(
        method=method, sampler=sampler, seed=seed, max_iterations=MAX_ITERATIONS
    )
    tr = run_solver(cfg, obj, d, **(extra(d) if extra else {}))
    return tr.iteration_count, " ".join(
        hashlib.sha256(np.ascontiguousarray(getattr(tr, f)).tobytes()).hexdigest()[:16]
        for f in FIELDS
    )


# (case, sampler, seed) -> (iterations, digests in the order of FIELDS)
PINS = {
    ("rcd-n63", "uniform", 0): (
        4000, "14178b942d3f70bd fc9ea082016d7ae6 3d54216a5ec1e240 fd4870caeb3a7f4f"
    ),
    ("rcd-n63", "uniform", 42): (
        4000, "033540949bf4ca09 2fe236bb1014a140 c854432cd59d879b 543015611cd91dbc"
    ),
    ("rcd-n63", "proportional", 0): (
        4000, "e86dc5dfbb285a9e 52e4fbf5504c0c45 738d2c3f9c54db9d 14a6b1a225d7fef2"
    ),
    ("rcd-n63", "proportional", 42): (
        4000, "9fa885b16454f155 e36cd82e4fd75877 b034d688ab4f3ac4 8b42480d37d27b63"
    ),
    ("rcd-n63", "permutation", 0): (
        4000, "44aaeab869b87107 b356471b620ca663 575121d77d896b39 a34ff276709be4f5"
    ),
    ("rcd-n63", "permutation", 42): (
        4000, "ebf19717fe56abf9 55396fc42bd4aa43 5aba329bd8dcd549 d117752a74657eb1"
    ),
    ("rcd-n63", "cyclic", 0): (
        4000, "ff396c4f114526a8 b5e3d0f2e89c9327 05f703d93edee75b 5cc7790519336deb"
    ),
    ("rcd-n63", "cyclic", 42): (
        4000, "ff396c4f114526a8 b5e3d0f2e89c9327 05f703d93edee75b 5cc7790519336deb"
    ),
    ("rfasd-l6", "uniform", 0): (
        2200, "b850c1a918308012 041768d0ecdc8d75 1c14345a60566184 321ff1e62cb087f0"
    ),
    ("rfasd-l6", "uniform", 42): (
        1924, "f39da1924ca389b9 99d9622a50eba9e6 58623f5fc9080ba1 47b4ab6ae939b3ec"
    ),
    ("rfasd-l6", "proportional", 0): (
        1639, "f1ffccbda36a6fb9 381a64a94897b365 a27c792522ffb5b3 f1bb4c798cd8d828"
    ),
    ("rfasd-l6", "proportional", 42): (
        2026, "8f3d28c0ff5f9ccc 506e0b9a62f47e8b 27f2d4b21d94385f fc9b38f8f4704d17"
    ),
    ("rfasd-l6", "permutation", 0): (
        970, "04edecca5abc031c 0f6123846e2b46bb bc220515ed3cd41d 5d444eecccd8cf4b"
    ),
    ("rfasd-l6", "permutation", 42): (
        937, "9a599f5fc743ccd9 fece2ced45af4c96 4cd7b31ac2d9de78 cc82c9a11e1809c6"
    ),
    ("rfasd-l6", "cyclic", 0): (
        1101, "3775eac36ed60e07 34d9a960b27f41f8 ef306fa89e8ebd3e 4213f13403430068"
    ),
    ("rfasd-l6", "cyclic", 42): (
        1101, "3775eac36ed60e07 34d9a960b27f41f8 ef306fa89e8ebd3e 4213f13403430068"
    ),
    ("rfasd-l6-tridiagonal", "uniform", 0): (
        1919, "3738fe78477f9084 397cc26a1f626b85 d8938957b164828f 26ca43cb32cea496"
    ),
    ("rfasd-l6-tridiagonal", "uniform", 42): (
        1857, "64b76d83e599cafd bbc623cac88626f2 36e6982a51a992b9 dabbb66e14e28b3e"
    ),
    ("rfasd-l6-tridiagonal", "proportional", 0): (
        4000, "d6fec003701aec71 ecb2613395c48ef5 5a0b12f15aa72f5b c9687fc23409abe2"
    ),
    ("rfasd-l6-tridiagonal", "proportional", 42): (
        4000, "7a9d614471740d86 abcd66a596b228d1 002f8679bcf8024c b2fc50c027810c20"
    ),
    ("rfasd-l6-tridiagonal", "permutation", 0): (
        959, "d81c1e36130012ea c741e7e96a648307 9d51e241f63f20ab d17dd2baeca09fb2"
    ),
    ("rfasd-l6-tridiagonal", "permutation", 42): (
        907, "78833820d573fc58 44a59de082e2962d cf2171364148d61e af799905c3bc2c49"
    ),
    ("rfasd-l6-tridiagonal", "cyclic", 0): (
        1006, "23e5b37d0e2fbaf6 433682f0ebade7a3 ab2df969be8b9600 c8c67027270d7386"
    ),
    ("rfasd-l6-tridiagonal", "cyclic", 42): (
        1006, "23e5b37d0e2fbaf6 433682f0ebade7a3 ab2df969be8b9600 c8c67027270d7386"
    ),
    ("rbcd2-n63", "uniform", 0): (
        4000, "7eab4ce8daa86cd7 312730dceb39cf42 0b8f8f1de754b085 af73b5c20acdee73"
    ),
    ("rbcd2-n63", "uniform", 42): (
        4000, "498940fb8586dda1 1c861345b8dd9081 2dc1bf77bd79f42a 1f3fb64491085714"
    ),
    ("rbcd2-n63", "proportional", 0): (
        4000, "1313cafa863439ec 80735e29bf284c80 7c525792e9460972 2a15ad930e06e441"
    ),
    ("rbcd2-n63", "proportional", 42): (
        4000, "5ef986b0312c9945 8f99d0b11bf70e2e 36c4fb0bda281487 1f2d2585b7c60016"
    ),
    ("rbcd2-n63", "permutation", 0): (
        4000, "7db0c06e522029d6 1b8935b8d4fc57bf ff5509283bdacb23 c714aee8c9ae812d"
    ),
    ("rbcd2-n63", "permutation", 42): (
        4000, "ce35d6f862b1af71 38a2e0870a21c64b cab6a6a39635a7f6 289245f389f3bd71"
    ),
    ("rbcd2-n63", "cyclic", 0): (
        4000, "5fa810d77e265d2b ece94058064d7bf5 bcc5eac2e876c443 b8f54c769b3b6fd7"
    ),
    ("rbcd2-n63", "cyclic", 42): (
        4000, "5fa810d77e265d2b ece94058064d7bf5 bcc5eac2e876c443 b8f54c769b3b6fd7"
    ),
    ("rfas-l6-quartic", "uniform", 0): (
        2200, "b850c1a918308012 de7895e0be4da93c 9a1285981962b677 d293f4b557c5fdfa"
    ),
    ("rfas-l6-quartic", "uniform", 42): (
        1924, "f39da1924ca389b9 4dc8f3ac7e688314 33a1e6ca49445aee d43b075b3582e564"
    ),
    ("rfas-l6-quartic", "proportional", 0): (
        1639, "f1ffccbda36a6fb9 bb1210ae0a638935 396b1ce905b6f997 126549a4d96c7f5d"
    ),
    ("rfas-l6-quartic", "proportional", 42): (
        2026, "8f3d28c0ff5f9ccc dd32e552ef74b40c 4587dc44ae8592c8 41da25fbda822337"
    ),
    ("rfas-l6-quartic", "permutation", 0): (
        970, "04edecca5abc031c 0f6123846e2b46bb bc220515ed3cd41d 5d444eecccd8cf4b"
    ),
    ("rfas-l6-quartic", "permutation", 42): (
        937, "9a599f5fc743ccd9 fece2ced45af4c96 4cd7b31ac2d9de78 cc82c9a11e1809c6"
    ),
    ("rfas-l6-quartic", "cyclic", 0): (
        1101, "3775eac36ed60e07 b376aae1fcaf6526 c96d8869ed191563 39f3e080d64940cf"
    ),
    ("rfas-l6-quartic", "cyclic", 42): (
        1101, "3775eac36ed60e07 b376aae1fcaf6526 c96d8869ed191563 39f3e080d64940cf"
    ),
}


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("sampler", SAMPLER_KINDS)
@pytest.mark.parametrize("seed", SEEDS)
def test_trace_is_bitwise_pinned(case, sampler, seed):
    assert digests(case, sampler, seed) == PINS[case, sampler, seed]
