"""Iteration engines.

All solvers share one loop skeleton: test the stopping rule, record the
current state, pick a direction, take a step.  The stopping rule is a
relative gradient-norm test, ``||grad f(x_k)|| <= tol * ||grad f(x_0)||``
in the Euclidean norm, evaluated before every update, so the reported
iteration count is the number of updates actually performed.

Methods
-------
``gd``
    Full gradient descent, step ``1 / lambda_max(H)`` for quadratics.
``pgd``
    Preconditioned gradient descent ``x - (1/L_A) A^{-1} grad f(x)``.
``rcd`` / ``rbcd`` / ``rfasd``
    Subspace descent over a decomposition: restrict the gradient, solve
    the local (Galerkin) system, prolong, step by the inverse local
    Lipschitz constant.  The three names differ only in which
    decomposition the caller supplies (coordinates, blocks, multilevel).
``rfas``
    Full-approximation variant: the local problem is a nonlinear
    stationarity equation built from a local objective and a
    restriction of the current gradient.  Wherever its local problem is
    canonical (quadratic local energy, no projection) it shares
    ``rfasd``'s code path, so it reproduces ``rfasd`` bit for bit; only
    the other subspaces solve the stationarity equation.

For quadratic objectives the gradient and objective value are carried
incrementally.  A step adds c P_i or P_i delta to x, and g moves by the
same multiple of H P_i.  Under a banded Hessian g changes only at the
nnz(H P_i) cached nonzeros of ``Decomposition.applied`` (3 for a
multilevel hat), and ``||g||^2`` is carried too, which makes a step
O(support size).  There the scalar steps (a canonical k = 1 subspace on
a contiguous support) run in the compiled kernel ``_step.c``, one
sampler batch at a time: it sums g_i left to right, adds c v_i to x,
``c g_i + c^2 h_i / 2`` to f and c (H v_i) to g, and hands back to this
loop at an epoch boundary, when the carried norm nears the threshold,
at ``max_iterations`` and before any other step.  Every other step
(blocks, other supports, non-canonical ``rfas`` steps, and all steps
under a dense Hessian or of a non-quadratic objective) is the general
P_i delta step in numpy.  The carried norm is set exactly from g at
every epoch boundary, and the stopping test uses the exact norm
whenever the carried one is within its rounding bound of the
threshold.  A run stops as converged only if the true gradient at the
final iterate meets the tolerance; if it does not, g, f and the norm
are resynced from it and the run goes on.  The loop and the
single-step reference functions address subspace i of a decomposition
by its index and read it from the flat arrays.
"""

from __future__ import annotations

import ctypes
from dataclasses import dataclass, field, replace
from math import isfinite, sqrt
from numbers import Integral

import numpy as np

from . import _kernel
from .linalg import (
    DimensionMismatchError,
    NotSpdError,
    SpdOperator,
    as_vector,
    extreme_eigenvalues,
)
from .sampling import make_sampler

__all__ = [
    "METHODS",
    "SolverConfig",
    "RunTrace",
    "DivergenceError",
    "LocalSolveError",
    "QuadraticEnergyLocal",
    "subspace_search_direction",
    "rfasd_step",
    "fas_search_direction",
    "solve_local_stationarity",
    "run_solver",
]

METHODS = ("gd", "pgd", "rcd", "rbcd", "rfasd", "rfas")

# Divergence guard: this many consecutive epochs of objective increase,
# combined with a 1e3-fold growth over the window, aborts the run.
_GUARD_EPOCHS = 10
_GUARD_GROWTH = 1e3
_TINY, _EPS = float(np.finfo(float).tiny), float(np.finfo(float).eps)
_INT64_MAX = 2**63 - 1  # the kernel's iteration counter is an int64


class DivergenceError(RuntimeError):
    """The iteration is growing the objective instead of shrinking it."""


class LocalSolveError(RuntimeError):
    """A nonlinear local solve failed to converge within its budget."""


@dataclass
class SolverConfig:
    """What to run and how.

    ``step_size=None`` means the canonical step ``1 / L_i`` with the
    per-subspace Lipschitz constant (or ``1 / L`` for the full-space
    methods); a float forces that fixed step everywhere.
    """

    method: str
    sampler: str = "uniform"
    step_size: float | None = None
    tolerance: float = 1e-6
    max_iterations: int = 2_000_000
    seed: int = 0


@dataclass
class RunTrace:
    """Complete record of one solver run.

    ``objective_values`` and ``gradient_norms`` have one entry per
    visited state (iteration count + 1); under a banded Hessian the
    norms are the carried ones (see the module docstring), exact at
    epoch boundaries and at a converged stop.  ``chosen`` lists the
    subspace index used at each update.  ``gaps`` is ``f - f_star``
    when the objective knows its minimum, else None.
    """

    method: str
    sampler: str
    seed: int
    tolerance: float
    subspace_count: int
    converged: bool
    chosen: np.ndarray
    objective_values: np.ndarray
    gradient_norms: np.ndarray
    gaps: np.ndarray | None
    final_x: np.ndarray = field(repr=False)

    @property
    def iteration_count(self):
        return int(self.chosen.size)

    @property
    def epoch_count(self):
        """Iterations divided by the number of subspaces (real-valued)."""
        return self.iteration_count / self.subspace_count

    def write_csv(self, path):
        """Write ``k,i_k,f,gnorm,gap`` rows, one per visited state.

        The terminal state has no chosen index and stores ``i_k = -1``;
        the gap column is empty when the optimal value is unknown.
        Output is byte-stable for a fixed run.
        """
        k_total = self.objective_values.size
        with open(path, "w") as fh:
            fh.write("k,i_k,f,gnorm,gap\n")
            for k in range(k_total):
                i_k = int(self.chosen[k]) if k < self.chosen.size else -1
                gap = "" if self.gaps is None else repr(float(self.gaps[k]))
                fh.write(
                    f"{k},{i_k},{float(self.objective_values[k])!r},"
                    f"{float(self.gradient_norms[k])!r},{gap}\n"
                )

    def __repr__(self):
        return (
            f"RunTrace({self.method}/{self.sampler}, iters={self.iteration_count}, "
            f"epochs={self.epoch_count:.2f}, converged={self.converged})"
        )


class QuadraticEnergyLocal:
    """Canonical local objective ``w -> 1/2 (A_i w, w)`` of subspace i.

    ``matrix`` is the (k, k) local matrix A_i of the decomposition.  Its
    stationarity equation ``A_i eta = tau`` is linear, so the
    full-approximation solver can shortcut the Newton loop; using these
    locals makes ``rfas`` coincide with ``rfasd`` exactly.
    """

    def __init__(self, decomposition, i):
        self.decomposition, self.index = decomposition, i
        if i in decomposition.blocks:
            self.matrix = decomposition.blocks[i].dense()
        else:
            self.matrix = np.array([[decomposition.scalars[i]]])

    def value(self, w):
        w = np.atleast_1d(np.asarray(w, dtype=np.float64))
        return 0.5 * float(np.dot(self.matrix @ w, w))

    def gradient(self, w):
        w = np.atleast_1d(np.asarray(w, dtype=np.float64))
        return self.matrix @ w

    def hessian(self, w):
        return self.matrix


def _canonical(local, decomposition, i):
    """Whether ``local`` is the canonical local energy of subspace i."""
    return (
        isinstance(local, QuadraticEnergyLocal)
        and local.decomposition is decomposition
        and local.index == i
    )


def _solve_local(decomposition, i, v):
    """``A_i^{-1} v`` for subspace i."""
    if i in decomposition.blocks:
        return decomposition.blocks[i].solve(v)
    return v / decomposition.scalars[i]


def solve_local_stationarity(local, target, start, tol=1e-10, max_iter=100):
    """Solve ``grad f_i(w) = target`` by damped Newton iteration.

    ``local`` needs ``gradient(w)`` and ``hessian(w)``.  Converges to
    residual ``tol * max(1, ||target||)``; raises ``LocalSolveError``
    when the budget runs out or a step cannot reduce the residual.
    """
    target = np.atleast_1d(np.asarray(target, dtype=np.float64))
    w = np.atleast_1d(np.asarray(start, dtype=np.float64)).copy()
    r = local.gradient(w) - target
    rn = float(np.linalg.norm(r))
    goal = tol * max(1.0, float(np.linalg.norm(target)))
    for _ in range(max_iter):
        if rn <= goal:
            return w
        h = local.hessian(w)
        h = h.dense() if isinstance(h, SpdOperator) else np.atleast_2d(h)
        try:
            delta = np.linalg.solve(h, -r)
        except np.linalg.LinAlgError as exc:
            raise LocalSolveError(f"singular local Hessian: {exc}") from exc
        t = 1.0
        while t > 2.0**-40:
            wt = w + t * delta
            rt = local.gradient(wt) - target
            rtn = float(np.linalg.norm(rt))
            if rtn <= (1.0 - 0.25 * t) * rn:
                break
            t *= 0.5
        else:
            raise LocalSolveError(
                f"damped Newton stalled at residual {rn:.3e} (goal {goal:.3e})"
            )
        w, r, rn = wt, rt, rtn
    if rn <= goal:
        return w
    raise LocalSolveError(
        f"local solve did not reach residual {goal:.3e} in {max_iter} Newton steps"
    )


# -- single-step operations (reference implementations) -----------------


def subspace_search_direction(gradient, decomposition, i):
    """Direction ``-P_i A_i^{-1} P_i^T g`` of subspace i, as a full vector."""
    d = decomposition
    support, basis = d.basis(i)
    g_i = basis.T @ as_vector(gradient, d.ambient_dimension)[support]
    out = np.zeros(d.ambient_dimension)
    out[support] = basis @ _solve_local(d, i, np.negative(g_i))
    return out


def rfasd_step(x, decomposition, i, objective, step=None):
    """One update of ``x`` in subspace i; returns the new iterate."""
    x = as_vector(x, decomposition.ambient_dimension)
    s = subspace_search_direction(objective.gradient(x), decomposition, i)
    alpha = (1.0 / decomposition.lipschitz[i]) if step is None else float(step)
    return x + alpha * s


def fas_search_direction(x, decomposition, i, local, objective, projection=None):
    """Full-approximation direction of subspace i, as a full vector.

    Builds the corrected local target
    ``tau = grad f_i(q) - P_i^T grad f(x)`` with ``q`` the local
    projection of ``x`` (zero when no projection is given), solves the
    stationarity equation ``grad f_i(eta) = tau`` for the local objective
    ``local``, and prolongs ``eta - q``.  With the canonical quadratic
    local energy and no projection this equals
    :func:`subspace_search_direction` exactly.
    """
    d = decomposition
    x = as_vector(x, d.ambient_dimension)
    support, basis = d.basis(i)
    g_i = basis.T @ objective.gradient(x)[support]
    if projection is None:
        q = np.zeros(basis.shape[1])
    else:
        q = np.atleast_1d(np.asarray(projection(x), dtype=np.float64))
    tau = local.gradient(q) - g_i
    if _canonical(local, d, i):
        eta = _solve_local(d, i, tau)
    else:
        eta = solve_local_stationarity(local, tau, q)
    out = np.zeros(d.ambient_dimension)
    out[support] = basis @ (eta - q)
    return out


# -- the run loop -------------------------------------------------------


def _full_space_setup(config, objective, decomposition):
    """Metric operator (pgd only) and step size for the full-space methods."""
    method = config.method.lower()
    precond = None
    if method == "pgd":
        precond = (
            decomposition.preconditioner
            if decomposition is not None
            else objective.hessian
        )
        if precond is None:
            raise ValueError(
                "pgd needs a decomposition (for its metric) or an SPD Hessian"
            )
    if config.step_size is not None:
        return precond, float(config.step_size)
    if not objective.is_quadratic:
        raise ValueError(
            f"{method} on a non-quadratic objective needs an explicit step_size"
        )
    h = objective.hessian if objective.hessian is not None else objective.hessian_matrix
    if method == "gd":
        return None, 1.0 / extreme_eigenvalues(h)[1]
    return precond, 1.0 / extreme_eigenvalues(h, precond)[1]


def run_solver(
    config,
    objective,
    decomposition=None,
    *,
    x0=None,
    local_objectives=None,
    projections=None,
    allow_semidefinite=False,
):
    """Run a solver to the relative gradient-norm tolerance.

    Parameters
    ----------
    config : SolverConfig
    objective : Objective
    decomposition : Decomposition, optional
        Required for the subspace methods; supplies the metric for pgd.
    x0 : array, optional
        Starting point, default all ones.
    local_objectives : sequence, optional
        Per-subspace local objectives for ``rfas``; defaults to the
        canonical quadratic energies of the decomposition.
    projections : sequence of callables, optional
        Per-subspace maps from a full iterate to local coordinates used
        by ``rfas`` (zero maps when omitted).
    allow_semidefinite : bool
        Opt-in for quadratics whose Hessian is only positive
        semidefinite.

    Returns
    -------
    RunTrace

    Raises
    ------
    DivergenceError
        If the objective rises for 10 consecutive epochs and grows a
        thousandfold over that window (measured against the magnitude
        of the value at the window start).
    """
    method = config.method.lower()
    if method not in METHODS:
        raise ValueError(f"unknown method {config.method!r}; choose from {METHODS}")
    if not config.tolerance > 0:
        raise ValueError("tolerance must be positive")
    cap = config.max_iterations
    if type(cap) is not int:  # a whole number of another type becomes an int
        if isinstance(cap, float) and cap.is_integer():
            cap = int(cap)
        if not isinstance(cap, Integral) or isinstance(cap, bool):
            raise ValueError(f"max_iterations must be a whole number, not {cap!r}")
        config = replace(config, max_iterations=int(cap))
    if cap < 0:
        raise ValueError("max_iterations must be nonnegative")
    if method not in ("gd", "pgd") and decomposition is None:
        raise ValueError(f"method {method!r} needs a decomposition")
    if (
        objective.is_quadratic
        and objective.hessian is None
        and not allow_semidefinite
    ):
        raise NotSpdError(
            "objective Hessian is positive semidefinite only; "
            "pass allow_semidefinite=True to proceed"
        )

    n = objective.dimension
    x = np.ones(n) if x0 is None else as_vector(x0, n).copy()

    if method in ("gd", "pgd"):
        return _run_full_space(config, objective, decomposition, x)
    return _run_subspace(
        config, objective, decomposition, x, local_objectives, projections
    )


class _Records:
    """f and ||g|| at each visited state and the index chosen there, in
    arrays that grow in place by an eighth and end at their exact size.

    ``run``, a kernel argument block, has its record pointers kept on
    the arrays as they move.
    """

    def __init__(self, size, run=None):
        self.arrays = (np.empty(size), np.empty(size), np.empty(size, dtype=np.int64))
        self.run = run
        self._moved()

    def _moved(self):
        if self.run is not None:
            self.run.fs, self.run.gns, self.run.chosen = map(
                _kernel.address, self.arrays, (np.float64, np.float64, np.int64)
            )

    def reserve(self, size):
        """Make room for ``size`` states."""
        if size <= self.arrays[0].size:
            return
        for a in self.arrays:
            a.resize(size + (size >> 3), refcheck=False)
        self._moved()

    def put(self, k, f, gn, i=-1):
        fs, gns, chosen = self.arrays
        if k >= fs.size:
            self.reserve(k + 1)
        fs[k], gns[k], chosen[k] = f, gn, i

    def trimmed(self, k):
        """The records of states 0..k; the arrays shrink in place."""
        for a, size in zip(self.arrays, (k + 1, k + 1, k)):
            a.resize(size, refcheck=False)
        return self.arrays


def _finish(record, k, config, j, converged, x, objective):
    f, gn, chosen = record.trimmed(k)
    gaps = None
    if objective.known_minimum is not None:
        gaps = f - objective.known_minimum
    return RunTrace(
        method=config.method.lower(),
        sampler=config.sampler if config.method.lower() not in ("gd", "pgd") else "none",
        seed=config.seed,
        tolerance=config.tolerance,
        subspace_count=j,
        converged=converged,
        chosen=chosen,
        objective_values=f,
        gradient_norms=gn,
        gaps=gaps,
        final_x=x.copy(),
    )


class _Guard:
    """Epoch-boundary divergence watchdog."""

    def __init__(self, f0):
        self.ref = f0
        self.prev = f0
        self.streak = 0

    def check(self, f, k):
        if not isfinite(f):
            raise DivergenceError(
                f"objective is no longer finite at iteration {k}; "
                "the step size is too large for this problem"
            )
        if f > self.prev:
            self.streak += 1
            if self.streak >= _GUARD_EPOCHS and f > _GUARD_GROWTH * max(
                abs(self.ref), _TINY
            ):
                raise DivergenceError(
                    f"objective rose for {self.streak} consecutive epochs "
                    f"(iteration {k}, f {self.ref:.6e} -> {f:.6e}); "
                    "the step size is too large for this problem"
                )
        else:
            self.streak = 0
            self.ref = f
        self.prev = f


def _run_full_space(config, objective, decomposition, x):
    precond, alpha = _full_space_setup(config, objective, decomposition)
    pgd = config.method.lower() == "pgd"

    g = objective.gradient(x)
    f = objective.value(x)
    gn = float(np.linalg.norm(g))
    threshold = config.tolerance * gn
    record = _Records(min(config.max_iterations, 1024) + 1)
    guard = _Guard(f)
    k = 0
    converged = False
    while True:
        if gn <= threshold:
            converged = True
            break
        if k >= config.max_iterations:
            break
        record.put(k, f, gn, 0)
        if pgd:
            x -= alpha * precond.solve(g)
        else:
            x -= alpha * g
        g = objective.gradient(x)
        f = objective.value(x)
        gn = float(np.linalg.norm(g))
        k += 1
        guard.check(f, k)
    record.put(k, f, gn)
    return _finish(record, k, config, 1, converged, x, objective)


def _run_subspace(config, objective, decomposition, x, local_objectives, projections):
    d = decomposition
    j = len(d)
    n = d.ambient_dimension
    if objective.dimension != n:
        raise ValueError("objective and decomposition dimensions disagree")
    if local_objectives is not None and len(local_objectives) != j:
        raise ValueError("need one local objective per subspace")
    if projections is not None and len(projections) != j:
        raise ValueError("need one projection per subspace")

    sampler = make_sampler(
        config.sampler,
        size=j,
        lipschitz=d.lipschitz if config.sampler == "proportional" else None,
        seed=config.seed,
    )

    # Per-subspace caches, index-aligned with the decomposition.
    if config.step_size is not None:
        alpha = np.full(j, float(config.step_size))
    else:
        alpha = 1.0 / d.lipschitz
    # rfas takes rfasd's path wherever its local problem is canonical.
    canonical = np.ones(j, dtype=bool)
    if config.method.lower() == "rfas":
        if local_objectives is not None:
            canonical[:] = [
                _canonical(loc, d, i) for i, loc in enumerate(local_objectives)
            ]
        if projections is not None:
            canonical &= [p is None for p in projections]
        if local_objectives is None and not canonical.all():
            local_objectives = [QuadraticEnergyLocal(d, i) for i in range(j)]

    quadratic = objective.is_quadratic
    binding = steps = None  # the kernel's view of d, and the kernel
    scalar = np.zeros(j, dtype=np.uint8)  # the steps the kernel takes
    if quadratic:
        h = objective.hessian_matrix
        if isinstance(h, SpdOperator) and h.is_banded:
            binding = _kernel.bind(d, h)
            aoff, arows, avals = binding.applied
            scalar = binding.scalar if canonical.all() else binding.scalar & canonical
            if scalar.any():
                steps = _kernel.load()
        else:
            hdense = h.dense() if isinstance(h, SpdOperator) else np.asarray(h, float)
        hscal, hgal = d.local_energies(h)
    # What the general branch reads of subspace i: basis(i), the local
    # matrix of H and, when banded, the nonzero rows of H P_i and their
    # k[i] values each.
    general = np.flatnonzero(scalar == 0).tolist()
    parts = {i: d.basis(i) for i in general}
    if quadratic:
        hloc = {i: hgal[i] if i in hgal else np.array([[hscal[i]]]) for i in general}
    if binding is not None:
        stencils = {}
        for i in general:
            at, k_i = slice(aoff[i], aoff[i + 1]), d.k[i]
            stencils[i] = arows[at][::k_i], avals[at].reshape(-1, k_i)

    g = np.array(objective.gradient(x), dtype=np.float64)
    if g.shape != (n,):  # the kernel writes g in place
        raise DimensionMismatchError(f"gradient has shape {g.shape}, expected ({n},)")
    f = objective.value(x)
    # gn2 = ||g||^2 is carried through banded updates and set from g @ g
    # at each epoch boundary.  Its rounding error stays below tau * slack
    # (slack: gn2 when last exact plus every square added or removed
    # since), so within that band of the threshold the test uses g @ g.
    gn2 = slack = float(g @ g)
    threshold = config.tolerance * sqrt(gn2)
    thr2 = threshold * threshold
    tau = 4.0 * (n + j) * _EPS
    max_iterations = config.max_iterations
    run = None
    if steps is not None:
        run = _kernel.Run(
            *map(_kernel.address, (x, g, alpha, scalar), (np.float64,) * 3 + (np.uint8,)),
            thr2=thr2, tau=tau, kmax=min(max_iterations, _INT64_MAX), j=j,
        )
        run_ref, layout_ref = ctypes.byref(run), ctypes.byref(binding.layout)
    record = _Records(min(max_iterations, 1024) + 1, run)
    guard = _Guard(f)

    k = 0
    converged = False
    next_index = sampler.next_index
    while True:
        if gn2 <= thr2 + tau * (slack + thr2):
            gn2 = slack = float(g @ g)
            if sqrt(gn2) <= threshold:
                # Converged only if the true gradient meets the tolerance;
                # otherwise resync from it and go on.
                g[:] = objective.gradient(x)
                gn2 = slack = float(g @ g)
                converged = sqrt(gn2) <= threshold
                if not converged:
                    f = objective.value(x)
        if converged or k >= max_iterations:
            break
        if steps is not None:
            batch = sampler.batch()
            if scalar[batch[0]]:
                # Scalar steps from the sampler's batch, in C, up to where
                # this loop has more to do than such a step.
                record.reserve(k + batch.size)
                run.k, run.f, run.gn2, run.slack = k, f, gn2, slack
                sampler.consume(
                    steps(layout_ref, run_ref, _kernel.address(batch, np.int64), batch.size)
                )
                k, f, gn2, slack = run.k, run.f, run.gn2, run.slack
                if k % j == 0:
                    guard.check(f, k)
                    gn2 = slack = float(g @ g)
                continue
        # Any other step adds P_i delta to x.
        i = next_index()
        record.put(k, f, sqrt(gn2), i)
        at, basis = parts[i]
        gi = basis.T @ g[at]
        if canonical[i]:
            sloc = _solve_local(d, i, np.negative(gi))
        else:
            loc = local_objectives[i]
            q = np.zeros(basis.shape[1])
            if projections is not None and projections[i] is not None:
                q = np.atleast_1d(np.asarray(projections[i](x), dtype=float))
            sloc = solve_local_stationarity(loc, loc.gradient(q) - gi, q) - q
        delta = alpha[i] * sloc
        dx = basis @ delta
        x[at] += dx
        if quadratic:
            f += float(gi @ delta) + 0.5 * float(delta @ (hloc[i] @ delta))
        # g moves by H P_i delta.
        if binding is not None:
            rows, hp = stencils[i]
            old = g[rows]
            g[rows] = new = old + hp @ delta
            s_old, s_new = float(old @ old), float(new @ new)
            gn2 += s_new - s_old
            slack += s_new + s_old
        elif quadratic:  # dense H
            g += hdense[:, at] @ dx
            gn2 = float(g @ g)
        else:
            g, f = objective.gradient(x), objective.value(x)
            gn2 = float(g @ g)
        k += 1
        if k % j == 0:
            guard.check(f, k)
            gn2 = slack = float(g @ g)
    record.put(k, f, sqrt(gn2))
    return _finish(record, k, config, j, converged, x, objective)
