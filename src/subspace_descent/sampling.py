"""Seeded subspace-index streams.

Four sampling disciplines over ``{0, ..., J-1}``:

``uniform``
    Independent draws with probability 1/J each.
``proportional``
    Independent draws with probability proportional to the local
    Lipschitz constants.
``permutation``
    A fresh uniformly random permutation of all J indices at the start
    of every epoch (J consecutive draws), served in order.
``cyclic``
    Deterministic sweep 0, 1, ..., J-1, 0, 1, ...; consumes no
    randomness.

All randomness comes from ``numpy.random.default_rng`` (the PCG64 bit
generator), so streams are reproducible across platforms for a fixed
``(kind, weights, J, seed)``.  Random kinds draw from the generator in
fixed-size batches; this is an implementation detail but part of what
defines the stream.
"""

from __future__ import annotations

import numpy as np

__all__ = ["SAMPLER_KINDS", "Sampler", "make_sampler"]

SAMPLER_KINDS = ("uniform", "proportional", "permutation", "cyclic")

_BATCH = 1024


class Sampler:
    """Iterator over subspace indices; see the module docstring.

    Use :func:`make_sampler` rather than constructing directly.
    """

    def __init__(self, kind, size, probabilities=None, seed=0):
        if kind not in SAMPLER_KINDS:
            raise ValueError(f"unknown sampler kind {kind!r}; choose from {SAMPLER_KINDS}")
        if size < 1:
            raise ValueError("sampler needs at least one index")
        self.kind = kind
        self.size = int(size)
        self.seed = seed
        self.probabilities = cumulative = None
        self._rng = None if kind == "cyclic" else np.random.default_rng(seed)
        if kind == "proportional":
            p = np.asarray(probabilities, dtype=np.float64)
            if p.ndim != 1 or p.size != size:
                raise ValueError("probabilities must be a length-J vector")
            if np.any(p <= 0) or not np.all(np.isfinite(p)):
                raise ValueError("probabilities must be positive and finite")
            p = p / p.sum()
            self.probabilities = p
            cumulative = np.cumsum(p)
            cumulative[-1] = 1.0
        elif kind == "uniform":
            self.probabilities = np.full(size, 1.0 / size)
        # The stream holds no reference to the sampler, so that a finished
        # run frees both at once instead of leaving a cycle to the collector.
        self._drawn = [0]
        self._stream = _index_stream(kind, self.size, self._rng, cumulative, self._drawn)

    @property
    def draw_count(self):
        """How many indices have been drawn."""
        return self._drawn[0]

    def next_index(self):
        """Next subspace index in ``{0, ..., J-1}``."""
        return next(self._stream)

    def draws(self):
        """The stream as a generator, for loops that draw many indices.

        It shares its position and ``draw_count`` with :meth:`next_index`
        and skips the per-draw method call.
        """
        return self._stream

    def __iter__(self):
        return self

    def __next__(self):
        return self.next_index()

    def __repr__(self):
        return f"Sampler({self.kind!r}, J={self.size}, seed={self.seed})"


def _index_stream(kind, size, rng, cumulative, drawn):
    """The index stream, a batch at a time; counts in ``drawn[0]`` each
    index it yields."""
    while True:
        if kind == "cyclic":
            batch = range(size)
        elif kind == "permutation":
            batch = rng.permutation(size).tolist()
        elif kind == "uniform":
            batch = rng.integers(0, size, size=_BATCH, dtype=np.intp).tolist()
        else:  # proportional: inverse CDF with ties resolved to the lower index
            batch = np.searchsorted(cumulative, rng.random(_BATCH), side="left")
            batch = np.minimum(batch, size - 1).tolist()
        for i in batch:
            drawn[0] += 1
            yield i


def make_sampler(kind, size=None, lipschitz=None, seed=0):
    """Build a sampler over J indices.

    ``size`` or ``lipschitz`` (a length-J weight vector) must be given;
    ``proportional`` requires the weights.  For proportional sampling
    the selection probabilities are ``L_i / sum(L)``.
    """
    if lipschitz is not None:
        lipschitz = np.asarray(lipschitz, dtype=np.float64)
        if size is None:
            size = lipschitz.size
        elif size != lipschitz.size:
            raise ValueError("size and lipschitz length disagree")
    if size is None:
        raise ValueError("pass size or a lipschitz weight vector")
    if kind == "proportional":
        if lipschitz is None:
            raise ValueError("proportional sampling needs Lipschitz weights")
        return Sampler(kind, size, probabilities=lipschitz, seed=seed)
    return Sampler(kind, size, seed=seed)
