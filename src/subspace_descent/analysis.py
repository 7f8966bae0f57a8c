"""Convergence-theory checks for subspace descent on quadratics.

The theory lives in the metric A of the decomposition: with
``mu_A`` and ``L_A`` the extreme generalized eigenvalues of the Hessian
against A, ``C_A`` the stability constant of the splitting, J the
number of subspaces and ``mean_L_A`` the average local Lipschitz
constant, one step of randomized subspace descent contracts the
expected optimality gap by at least ``mu_A / (J * C_A * mean_L_A)``
(under Lipschitz-proportional sampling), and without strong convexity
the gap decays like 1/k.  The functions here compute those constants,
verify the underlying splitting identities on concrete vectors, and fit
empirical rates from run traces so the two sides can be compared.

Slack convention: every check reports ``slack`` as its margin — positive
means the inequality held with room to spare, negative means violation.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .linalg import DENSE_EIG_LIMIT, as_vector, extreme_eigenvalues

__all__ = [
    "TheoryCheck",
    "TheoryReport",
    "IdentityCheck",
    "DecayCheck",
    "RateFit",
    "quadratic_metric_constants",
    "linear_rate_bound",
    "sublinear_bound",
    "r0_strongly_convex",
    "decomposition_identity_check",
    "expected_decay_check",
    "empirical_rate_fit",
    "theory_report",
]


@dataclass
class TheoryCheck:
    name: str
    passed: bool
    slack: float

    def to_json(self):
        return {"name": self.name, "pass": bool(self.passed), "slack": float(self.slack)}


@dataclass
class TheoryReport:
    """Problem constants plus a list of verified inequalities."""

    mu_A: float
    L_A: float
    mean_L_A: float
    C_A: float
    rate_bound: float
    checks: list

    @property
    def all_passed(self):
        return all(c.passed for c in self.checks)

    def to_json(self):
        return {
            "mu_A": self.mu_A,
            "L_A": self.L_A,
            "mean_L_A": self.mean_L_A,
            "C_A": self.C_A,
            "rate_bound": self.rate_bound,
            "checks": [c.to_json() for c in self.checks],
        }

    def json_str(self):
        return json.dumps(self.to_json(), indent=2)


def quadratic_metric_constants(hessian, metric, dense_limit=DENSE_EIG_LIMIT):
    """Extreme generalized eigenvalues ``(mu_A, L_A)`` of H against A.

    These are the strong-convexity and smoothness constants of the
    quadratic ``1/2 (Hx, x) - (b, x)`` measured in the A-norm, from
    :func:`extreme_eigenvalues` (Lanczos for banded operators).
    """
    return extreme_eigenvalues(hessian, metric, dense_limit)


def linear_rate_bound(mu, mean_lipschitz, stability, size):
    """Per-iteration contraction bound ``1 - mu / (J * C * mean_L)``.

    Valid for Lipschitz-proportional sampling; with equal local
    constants it covers uniform sampling too.  A nonpositive value
    (super-linear regime) is clamped to 0.
    """
    if min(mu, mean_lipschitz, stability) <= 0 or size < 1:
        raise ValueError("constants must be positive and size at least 1")
    return max(0.0, 1.0 - mu / (size * stability * mean_lipschitz))


@dataclass
class SublinearBound:
    refined: float
    loose: float


def sublinear_bound(k, initial_gap, radius, size, mean_lipschitz, stability):
    """Gap bounds after k steps without strong convexity.

    ``radius`` is a bound on the A-distance from the sublevel set of
    the start to the minimizer.  Returns the refined bound
    ``d0 / (1 + d0 c k)`` with ``c = 1 / (2 R^2 J mean_L C)`` and the
    loose form ``2 R^2 J mean_L C / k`` (infinite at k = 0); the
    refined bound is never larger for k >= 1.
    """
    if min(initial_gap, radius, mean_lipschitz, stability) <= 0 or size < 1:
        raise ValueError("constants must be positive and size at least 1")
    if k < 0:
        raise ValueError("k must be nonnegative")
    denom = 2.0 * radius**2 * size * mean_lipschitz * stability
    c = 1.0 / denom
    refined = initial_gap / (1.0 + initial_gap * c * k)
    loose = np.inf if k == 0 else denom / k
    return SublinearBound(refined=refined, loose=loose)


def r0_strongly_convex(initial_gap, mu):
    """Radius bound ``sqrt(2 d0 / mu)`` available under strong convexity."""
    if initial_gap < 0 or mu <= 0:
        raise ValueError("need initial_gap >= 0 and mu > 0")
    return float(np.sqrt(2.0 * initial_gap / mu))


@dataclass
class IdentityCheck:
    """Splitting identities at one gradient vector.

    ``pairing`` is ``-(g, sum_i s_i)``; both ``local_dual_energy``
    (``sum_i ||g_i||^2`` in the inverse local matrices) and
    ``local_direction_energy`` (``sum_i ||s_i||^2`` in the local
    matrices) must coincide with it.  ``stability_ratio`` is
    ``||g||_{A^{-1}}^2`` over the local energy and may not exceed the
    stability constant.
    """

    pairing: float
    local_dual_energy: float
    local_direction_energy: float
    dual_norm_squared: float
    stability_ratio: float
    stability_constant: float
    identity_slack: float
    ratio_slack: float
    passed: bool


def decomposition_identity_check(gradient, decomposition, tol=1e-10):
    """Verify the splitting identities for one gradient vector.

    Checks, at relative tolerance ``tol``:

    * ``-(g, sum_i s_i) == sum_i (g_i, A_i^{-1} g_i)``
    * ``sum_i (s_i, A_i s_i) ==`` the same value
    * ``||g||_{A^{-1}}^2 <= C_A * sum_i (s_i, A_i s_i)``
    """
    d = decomposition
    g = as_vector(gradient, d.ambient_dimension)
    # g_i = P_i^T g and s_i = -A_i^{-1} g_i for every subspace at once.
    g_loc = d.restrict(g)
    s_loc = d.solve_local(-g_loc)
    pairing = -float(g @ d.prolong(s_loc))
    dual_local = -float(g_loc @ s_loc)
    energy_local = float(s_loc @ d.apply_local(s_loc))
    dual_sq = float(g @ decomposition.preconditioner.solve(g))
    scale = max(1.0, abs(dual_local))
    identity_slack = tol - max(
        abs(pairing - dual_local), abs(energy_local - dual_local)
    ) / scale
    c_a = decomposition.stability_constant
    if energy_local > 0:
        ratio = dual_sq / energy_local
    elif dual_sq == 0.0:
        ratio = 0.0  # zero gradient: every identity holds trivially
    else:
        ratio = np.inf
    ratio_slack = c_a * (1.0 + tol) - ratio
    return IdentityCheck(
        pairing=pairing,
        local_dual_energy=dual_local,
        local_direction_energy=energy_local,
        dual_norm_squared=dual_sq,
        stability_ratio=ratio,
        stability_constant=c_a,
        identity_slack=identity_slack,
        ratio_slack=ratio_slack,
        passed=bool(identity_slack >= 0 and ratio_slack >= 0),
    )


@dataclass
class DecayCheck:
    """One-step expected decrease against its theoretical bound."""

    start_value: float
    expected_value: float
    decrease: float
    bound: float
    conservative: bool
    slack: float
    passed: bool


def expected_decay_check(
    x, objective, decomposition, probabilities="proportional", tol=1e-10
):
    """Compare the exact one-step expected decrease with its bound.

    The objective must be quadratic.  The expectation is exact over all
    J outcomes with their selection probabilities (``'uniform'``,
    ``'proportional'``, or an explicit vector): step i changes f by
    ``(g_i, s_i) / L_i + (H_i s_i, s_i) / (2 L_i^2)`` with
    ``s_i = -A_i^{-1} g_i`` and ``H_i = P_i^T H P_i``, taken for every
    subspace at once through the decomposition's flat kernel.  The
    bound is

        min_i(p_i / L_i) / 2 * ||grad f(x)||_{A^{-1}}^2 / C_A,

    which specializes to ``1/(2 J mean_L C_A)`` of the squared dual
    norm under proportional sampling; for other samplings it is
    conservative (flagged) because the worst ``p_i / L_i`` is used.
    The check passes when ``decrease >= bound - tol`` (absolute).
    """
    if not objective.is_quadratic:
        raise ValueError("expected_decay_check needs a quadratic objective")
    d = decomposition
    x = as_vector(x, d.ambient_dimension)
    lip = d.lipschitz
    j = len(decomposition)
    if isinstance(probabilities, str):
        if probabilities == "uniform":
            p = np.full(j, 1.0 / j)
        elif probabilities == "proportional":
            p = lip / lip.sum()
        else:
            raise ValueError(
                "probabilities must be 'uniform', 'proportional', or a vector"
            )
    else:
        p = as_vector(probabilities, j)
        if np.any(p <= 0) or abs(p.sum() - 1.0) > 1e-12:
            raise ValueError("probabilities must be positive and sum to 1")
    g = objective.gradient(x)
    f0 = objective.value(x)
    g_loc = d.restrict(g)
    t = d.solve_local(-g_loc) / np.repeat(lip, d.k)  # the step s_i / L_i
    dt = g_loc * t + 0.5 * t * d.apply_local(t, objective.hessian_matrix)
    change = float(np.repeat(p, d.k) @ dt)
    expected = f0 + change
    decrease = -change
    dual_sq = float(g @ decomposition.preconditioner.solve(g))
    c_a = decomposition.stability_constant
    worst = float(np.min(p / lip))
    bound = 0.5 * worst * dual_sq / c_a
    proportional = np.allclose(p, lip / lip.sum(), rtol=1e-12, atol=0.0)
    slack = decrease - bound + tol
    return DecayCheck(
        start_value=f0,
        expected_value=expected,
        decrease=decrease,
        bound=bound,
        conservative=not proportional,
        slack=slack,
        passed=bool(slack >= 0),
    )


@dataclass
class RateFit:
    """Geometric rate fitted to ensemble-averaged optimality gaps."""

    rate: float
    iterations: int
    trimmed: bool


def empirical_rate_fit(traces, f_star=None):
    """Fit the per-iteration contraction of the mean optimality gap.

    Averages ``f(x_k) - f*`` across the given traces (up to the
    shortest length), trims any tail where the mean gap is no longer
    positive, and returns ``(gap_K / gap_0)^(1/K)``.
    """
    if not traces:
        raise ValueError("need at least one trace")
    gap_arrays = []
    for t in traces:
        if t.gaps is not None:
            gap_arrays.append(t.gaps)
        elif f_star is not None:
            gap_arrays.append(t.objective_values - f_star)
        else:
            raise ValueError("traces lack gaps and no f_star was given")
    length = min(a.size for a in gap_arrays)
    if length < 2:
        raise ValueError("traces too short to fit a rate")
    mean_gap = np.mean([a[:length] for a in gap_arrays], axis=0)
    positive = mean_gap > 0
    if not positive[0]:
        raise ValueError("initial mean gap is not positive")
    cut = int(np.argmin(positive)) if not positive.all() else length
    trimmed = cut < length
    if cut < 2:
        # The gap hit the floor after a single step (e.g. a one-step
        # convergent method); the contraction is indistinguishable from 0.
        return RateFit(rate=0.0, iterations=1, trimmed=True)
    k_last = cut - 1
    rate = float((mean_gap[k_last] / mean_gap[0]) ** (1.0 / k_last))
    return RateFit(rate=rate, iterations=k_last, trimmed=trimmed)


def theory_report(
    objective,
    decomposition,
    probe_count=100,
    decay_count=50,
    seed=0,
    tol=1e-10,
    traces=None,
    rate_margin=0.02,
):
    """Assemble constants and randomized checks into a TheoryReport.

    Probes the splitting identities at ``probe_count`` random gradient
    vectors and the expected-decay inequality at ``decay_count`` random
    points (standard normal, seeded); both counts must be at least 1.
    When ``traces`` are given, also compares their fitted empirical rate
    against the linear rate bound plus ``rate_margin``.
    """
    if not objective.is_quadratic or objective.hessian is None:
        raise ValueError("theory_report needs a strongly convex quadratic objective")
    if probe_count < 1 or decay_count < 1:  # else the checks pass with slack inf
        raise ValueError("theory checks need at least one probe and one decay probe")
    a = decomposition.preconditioner
    mu, big_l = quadratic_metric_constants(objective.hessian, a)
    c_a = decomposition.stability_constant
    mean_l = decomposition.mean_lipschitz
    j = len(decomposition)
    bound = linear_rate_bound(mu, mean_l, c_a, j)
    rng = np.random.default_rng(seed)
    n = decomposition.ambient_dimension

    identity_slack = np.inf
    ratio_slack = np.inf
    for _ in range(probe_count):
        chk = decomposition_identity_check(rng.standard_normal(n), decomposition, tol)
        identity_slack = min(identity_slack, chk.identity_slack)
        ratio_slack = min(ratio_slack, chk.ratio_slack)
    checks = [
        TheoryCheck("gradient_splitting_identity", bool(identity_slack >= 0), identity_slack),
        TheoryCheck("stability_ratio", bool(ratio_slack >= 0), ratio_slack),
    ]

    decay_slack = np.inf
    for _ in range(decay_count):
        chk = expected_decay_check(
            rng.standard_normal(n), objective, decomposition, "proportional"
        )
        decay_slack = min(decay_slack, chk.slack)
    checks.append(TheoryCheck("expected_decay", bool(decay_slack >= 0), decay_slack))

    if traces:
        fit = empirical_rate_fit(traces)
        slack = bound + rate_margin - fit.rate
        checks.append(TheoryCheck("empirical_rate_vs_bound", bool(slack >= 0), slack))

    return TheoryReport(
        mu_A=mu,
        L_A=big_l,
        mean_L_A=mean_l,
        C_A=c_a,
        rate_bound=bound,
        checks=checks,
    )
