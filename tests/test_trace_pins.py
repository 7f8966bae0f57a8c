"""Bitwise pins of solver traces.

Each run below stores sha256 digests (first 16 hex digits) of the raw
bytes of ``chosen``, ``final_x``, ``objective_values`` and
``gradient_norms``.  A change that keeps the order of arithmetic must
keep every digest; a change that moves bits on purpose must list what
moved and re-record the digests.

Scalar steps (one basis column on a contiguous support) run in the
compiled kernel ``_step.c``, which sums left to right and is built
without floating-point contraction, so they round the same way on every
platform, wide hats included.  The digests are still platform-specific:
the exact ``g @ g`` at each epoch boundary, the block solves and the
general steps' restrictions and updates of g (``basis.T @ g[at]``,
``(H P_i) @ delta``) go through numpy's BLAS, whose summation order
depends on its build and on the CPU kernel it picks.  They were
recorded with numpy 2.4.6 on scipy-openblas 0.3.31 (x86-64).
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
        4000, "14178b942d3f70bd fc9ea082016d7ae6 3d54216a5ec1e240 c082ad223c195b38"
    ),
    ("rcd-n63", "uniform", 42): (
        4000, "033540949bf4ca09 2fe236bb1014a140 c854432cd59d879b dfc311a88b0a5415"
    ),
    ("rcd-n63", "proportional", 0): (
        4000, "e86dc5dfbb285a9e 52e4fbf5504c0c45 738d2c3f9c54db9d 0dd1e7002d30f9f2"
    ),
    ("rcd-n63", "proportional", 42): (
        4000, "9fa885b16454f155 e36cd82e4fd75877 b034d688ab4f3ac4 d7a743a2092a0a48"
    ),
    ("rcd-n63", "permutation", 0): (
        4000, "44aaeab869b87107 b356471b620ca663 575121d77d896b39 5d1e7de61de18828"
    ),
    ("rcd-n63", "permutation", 42): (
        4000, "ebf19717fe56abf9 55396fc42bd4aa43 5aba329bd8dcd549 e0030b6fefa4363f"
    ),
    ("rcd-n63", "cyclic", 0): (
        4000, "ff396c4f114526a8 b5e3d0f2e89c9327 05f703d93edee75b c1050e3ddb8c8e57"
    ),
    ("rcd-n63", "cyclic", 42): (
        4000, "ff396c4f114526a8 b5e3d0f2e89c9327 05f703d93edee75b c1050e3ddb8c8e57"
    ),
    ("rfasd-l6", "uniform", 0): (
        2200, "b850c1a918308012 041768d0ecdc8d75 1c14345a60566184 8bd3d1bbd2fc7e5f"
    ),
    ("rfasd-l6", "uniform", 42): (
        1924, "f39da1924ca389b9 99d9622a50eba9e6 58623f5fc9080ba1 1451658ee719cdd0"
    ),
    ("rfasd-l6", "proportional", 0): (
        1639, "f1ffccbda36a6fb9 381a64a94897b365 a27c792522ffb5b3 433e15277443aee9"
    ),
    ("rfasd-l6", "proportional", 42): (
        2026, "8f3d28c0ff5f9ccc 506e0b9a62f47e8b 27f2d4b21d94385f 68eb9f55a6d60be9"
    ),
    ("rfasd-l6", "permutation", 0): (
        970, "04edecca5abc031c 0f6123846e2b46bb bc220515ed3cd41d 7022ea3f9962a8ee"
    ),
    ("rfasd-l6", "permutation", 42): (
        937, "9a599f5fc743ccd9 fece2ced45af4c96 4cd7b31ac2d9de78 cc82c9a11e1809c6"
    ),
    ("rfasd-l6", "cyclic", 0): (
        1101, "3775eac36ed60e07 34d9a960b27f41f8 ef306fa89e8ebd3e 3a6927ae8fe64953"
    ),
    ("rfasd-l6", "cyclic", 42): (
        1101, "3775eac36ed60e07 34d9a960b27f41f8 ef306fa89e8ebd3e 3a6927ae8fe64953"
    ),
    ("rfasd-l6-tridiagonal", "uniform", 0): (
        1919, "3738fe78477f9084 397cc26a1f626b85 d8938957b164828f 1593442ee990f7a3"
    ),
    ("rfasd-l6-tridiagonal", "uniform", 42): (
        1857, "64b76d83e599cafd bbc623cac88626f2 36e6982a51a992b9 c75a13bb3abe21d5"
    ),
    ("rfasd-l6-tridiagonal", "proportional", 0): (
        4000, "d6fec003701aec71 ecb2613395c48ef5 5a0b12f15aa72f5b d242daa2744672aa"
    ),
    ("rfasd-l6-tridiagonal", "proportional", 42): (
        4000, "7a9d614471740d86 abcd66a596b228d1 002f8679bcf8024c b5a2a6b2dae73d6f"
    ),
    ("rfasd-l6-tridiagonal", "permutation", 0): (
        959, "d81c1e36130012ea c741e7e96a648307 9d51e241f63f20ab 6cff9c57a1ec0d2c"
    ),
    ("rfasd-l6-tridiagonal", "permutation", 42): (
        907, "78833820d573fc58 44a59de082e2962d cf2171364148d61e 14d4101056aaa5eb"
    ),
    ("rfasd-l6-tridiagonal", "cyclic", 0): (
        1006, "23e5b37d0e2fbaf6 433682f0ebade7a3 ab2df969be8b9600 ee9633153cac3ab5"
    ),
    ("rfasd-l6-tridiagonal", "cyclic", 42): (
        1006, "23e5b37d0e2fbaf6 433682f0ebade7a3 ab2df969be8b9600 ee9633153cac3ab5"
    ),
    ("rbcd2-n63", "uniform", 0): (
        4000, "7eab4ce8daa86cd7 312730dceb39cf42 0b8f8f1de754b085 0dc1ec9ab521e005"
    ),
    ("rbcd2-n63", "uniform", 42): (
        4000, "498940fb8586dda1 1c861345b8dd9081 2dc1bf77bd79f42a f7b84bbc0b7d6cc8"
    ),
    ("rbcd2-n63", "proportional", 0): (
        4000, "1313cafa863439ec 80735e29bf284c80 7c525792e9460972 0072daeeb036dfa4"
    ),
    ("rbcd2-n63", "proportional", 42): (
        4000, "5ef986b0312c9945 8f99d0b11bf70e2e 36c4fb0bda281487 3ade75730ded213a"
    ),
    ("rbcd2-n63", "permutation", 0): (
        4000, "7db0c06e522029d6 1b8935b8d4fc57bf ff5509283bdacb23 57df20f7681b8838"
    ),
    ("rbcd2-n63", "permutation", 42): (
        4000, "ce35d6f862b1af71 38a2e0870a21c64b cab6a6a39635a7f6 9f9a4108d1ed6be1"
    ),
    ("rbcd2-n63", "cyclic", 0): (
        4000, "5fa810d77e265d2b ece94058064d7bf5 bcc5eac2e876c443 2ee2b62482d2620f"
    ),
    ("rbcd2-n63", "cyclic", 42): (
        4000, "5fa810d77e265d2b ece94058064d7bf5 bcc5eac2e876c443 2ee2b62482d2620f"
    ),
    ("rfas-l6-quartic", "uniform", 0): (
        2200, "b850c1a918308012 de7895e0be4da93c 9a1285981962b677 20ebd532b5dd1d74"
    ),
    ("rfas-l6-quartic", "uniform", 42): (
        1924, "f39da1924ca389b9 4dc8f3ac7e688314 33a1e6ca49445aee f1a923e3e1ad0b46"
    ),
    ("rfas-l6-quartic", "proportional", 0): (
        1639, "f1ffccbda36a6fb9 bb1210ae0a638935 396b1ce905b6f997 0b0c678c8e6aeb7b"
    ),
    ("rfas-l6-quartic", "proportional", 42): (
        2026, "8f3d28c0ff5f9ccc dd32e552ef74b40c 4587dc44ae8592c8 6ac89b68967bada4"
    ),
    ("rfas-l6-quartic", "permutation", 0): (
        970, "04edecca5abc031c 0f6123846e2b46bb bc220515ed3cd41d 7022ea3f9962a8ee"
    ),
    ("rfas-l6-quartic", "permutation", 42): (
        937, "9a599f5fc743ccd9 fece2ced45af4c96 4cd7b31ac2d9de78 cc82c9a11e1809c6"
    ),
    ("rfas-l6-quartic", "cyclic", 0): (
        1101, "3775eac36ed60e07 b376aae1fcaf6526 c96d8869ed191563 7514b75508320c00"
    ),
    ("rfas-l6-quartic", "cyclic", 42): (
        1101, "3775eac36ed60e07 b376aae1fcaf6526 c96d8869ed191563 7514b75508320c00"
    ),
}


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("sampler", SAMPLER_KINDS)
@pytest.mark.parametrize("seed", SEEDS)
def test_trace_is_bitwise_pinned(case, sampler, seed):
    assert digests(case, sampler, seed) == PINS[case, sampler, seed]
