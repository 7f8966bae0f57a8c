"""Bitwise pins of solver traces.

Each run below stores sha256 digests (first 16 hex digits) of the raw
bytes of ``chosen``, ``final_x``, ``objective_values`` and
``gradient_norms``.  A change that keeps the order of arithmetic must
keep every digest; a change that moves bits on purpose must list what
moved and re-record the digests.

The digests are platform-specific: the dots over wide multilevel hats
(``col @ g[b:b1]``), the block solves and the block updates of g
(``(H P_i) @ delta``) go through numpy's BLAS, whose
summation order depends on its build and on the CPU kernel it picks.
They were recorded with numpy 2.4.6 on scipy-openblas 0.3.31 (x86-64).
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
        2200, "b850c1a918308012 bb39ea1ea17c5998 1c14345a60566184 79665baf63f0641a"
    ),
    ("rfasd-l6", "uniform", 42): (
        1924, "f39da1924ca389b9 fbde376068aa5037 58623f5fc9080ba1 fa5987d231730e51"
    ),
    ("rfasd-l6", "proportional", 0): (
        1639, "f1ffccbda36a6fb9 52054615f1781c86 a27c792522ffb5b3 8d7c0f30089dea6f"
    ),
    ("rfasd-l6", "proportional", 42): (
        2026, "8f3d28c0ff5f9ccc bd171d179c6569fc 27f2d4b21d94385f 49056d0193964086"
    ),
    ("rfasd-l6", "permutation", 0): (
        970, "04edecca5abc031c 0f6123846e2b46bb bc220515ed3cd41d a12ea12634e9e0c0"
    ),
    ("rfasd-l6", "permutation", 42): (
        937, "9a599f5fc743ccd9 61fabbed87be6a4a 4cd7b31ac2d9de78 3f2afda3ff233118"
    ),
    ("rfasd-l6", "cyclic", 0): (
        1101, "3775eac36ed60e07 fb7e7939a53feaea ef306fa89e8ebd3e 60e5447da4f384a0"
    ),
    ("rfasd-l6", "cyclic", 42): (
        1101, "3775eac36ed60e07 fb7e7939a53feaea ef306fa89e8ebd3e 60e5447da4f384a0"
    ),
    ("rfasd-l6-tridiagonal", "uniform", 0): (
        1919, "3738fe78477f9084 eb1dbb836fb4a685 130cca06ab1afadf c84b1aadaf2c4a76"
    ),
    ("rfasd-l6-tridiagonal", "uniform", 42): (
        1857, "64b76d83e599cafd 9b5d9676e853a3f0 8c79813840e568c9 e2fedb6bf4127655"
    ),
    ("rfasd-l6-tridiagonal", "proportional", 0): (
        4000, "d6fec003701aec71 dce55a27c5bd006a 580986b7524d46a0 acd617e19b8f521f"
    ),
    ("rfasd-l6-tridiagonal", "proportional", 42): (
        4000, "7a9d614471740d86 cb07a5b583f9e6fb af27ac7edd0e78d5 ecee11b6dfda6369"
    ),
    ("rfasd-l6-tridiagonal", "permutation", 0): (
        959, "d81c1e36130012ea 77703ad29055617c 15b74b43623ea6d1 fc8023849a77271a"
    ),
    ("rfasd-l6-tridiagonal", "permutation", 42): (
        907, "78833820d573fc58 19c30a676852059b f2e86ee5373cc6db bc8c0a6d566c5b9b"
    ),
    ("rfasd-l6-tridiagonal", "cyclic", 0): (
        1006, "23e5b37d0e2fbaf6 c0b31085b54e6d54 ab2df969be8b9600 fccb3d214fb8182e"
    ),
    ("rfasd-l6-tridiagonal", "cyclic", 42): (
        1006, "23e5b37d0e2fbaf6 c0b31085b54e6d54 ab2df969be8b9600 fccb3d214fb8182e"
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
        2200, "b850c1a918308012 70c5b2107773ca56 9a1285981962b677 15eb10d0d09b46bd"
    ),
    ("rfas-l6-quartic", "uniform", 42): (
        1924, "f39da1924ca389b9 3ad90eaea627c6f2 33a1e6ca49445aee 6338cff2adf0845d"
    ),
    ("rfas-l6-quartic", "proportional", 0): (
        1639, "f1ffccbda36a6fb9 66c58b951b04d3ee 396b1ce905b6f997 72f635024ebbe001"
    ),
    ("rfas-l6-quartic", "proportional", 42): (
        2026, "8f3d28c0ff5f9ccc d49fff8cb8745f9b 4587dc44ae8592c8 7ee6bf7e05f77324"
    ),
    ("rfas-l6-quartic", "permutation", 0): (
        970, "04edecca5abc031c 0f6123846e2b46bb bc220515ed3cd41d a12ea12634e9e0c0"
    ),
    ("rfas-l6-quartic", "permutation", 42): (
        937, "9a599f5fc743ccd9 61fabbed87be6a4a 4cd7b31ac2d9de78 3f2afda3ff233118"
    ),
    ("rfas-l6-quartic", "cyclic", 0): (
        1101, "3775eac36ed60e07 1aea403f686b93f3 36e1f6df43193efd 72643073b4e4bcdc"
    ),
    ("rfas-l6-quartic", "cyclic", 42): (
        1101, "3775eac36ed60e07 1aea403f686b93f3 36e1f6df43193efd 72643073b4e4bcdc"
    ),
}


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("sampler", SAMPLER_KINDS)
@pytest.mark.parametrize("seed", SEEDS)
def test_trace_is_bitwise_pinned(case, sampler, seed):
    assert digests(case, sampler, seed) == PINS[case, sampler, seed]
