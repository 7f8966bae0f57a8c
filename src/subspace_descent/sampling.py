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
    randomness.  A batch holds ``max(1, 1024 // J)`` whole sweeps.

All randomness comes from ``numpy.random.default_rng`` (the PCG64 bit
generator), so streams are reproducible across platforms for a fixed
``(kind, weights, J, seed)``.  Random kinds draw from the generator in
fixed-size batches; this is an implementation detail but part of what
defines the stream.  Besides one index at a time (``next_index``), a
sampler hands out the unread rest of its current batch as an int64
array (``batch``) and is told how many of those were used
(``consume``); either way the stream is the same.
"""

from __future__ import annotations

from itertools import chain
from operator import length_hint

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
        self._fetched = fetched = [0, iter(()), None]
        batches = _batches(kind, self.size, self._rng, cumulative, fetched)
        #: Next subspace index in ``{0, ..., J-1}``; a draw runs no Python frame.
        self.next_index = chain.from_iterable(batches).__next__

    @property
    def draw_count(self):
        """How many indices have been drawn (batch indices once consumed)."""
        return self._fetched[0] - length_hint(self._fetched[1])

    def batch(self):
        """The next indices of the stream, as a nonempty int64 array.

        They are the unread rest of the current batch (a fresh batch when
        that is used up) and stay unread until :meth:`consume` marks a
        leading part of them as drawn.
        """
        fetched = self._fetched
        if not length_hint(fetched[1]):
            self.next_index()  # fetch the next batch ...
            fetched[1].__setstate__(0)  # ... and unread its first index
        return fetched[2][fetched[2].size - length_hint(fetched[1]) :]

    def consume(self, count):
        """Mark the first ``count`` indices of :meth:`batch` as drawn."""
        fetched = self._fetched
        fetched[1].__setstate__(fetched[2].size - length_hint(fetched[1]) + count)

    def __iter__(self):
        return self

    def __next__(self):
        return self.next_index()

    def __repr__(self):
        return f"Sampler({self.kind!r}, J={self.size}, seed={self.seed})"


def _batches(kind, size, rng, cumulative, fetched):
    """Iterators over the stream's batches; ``fetched`` holds the number of
    indices made so far, the iterator over the current batch and the
    batch as an int64 array."""
    # consume() sets a batch iterator's position with __setstate__, which
    # is absolute for list iterators (a range iterator's moves on from
    # where it is in newer Pythons), so every kind iterates over a list.
    if kind == "cyclic":  # whole sweeps, about _BATCH indices a batch
        sweep = np.arange(size * max(1, _BATCH // size), dtype=np.int64) % size
        sweep_list = sweep.tolist()
    while True:
        if kind == "cyclic":
            batch = sweep
        elif kind == "permutation":
            batch = rng.permutation(size)
        elif kind == "uniform":
            batch = rng.integers(0, size, size=_BATCH, dtype=np.intp)
        else:  # proportional: inverse CDF with ties resolved to the lower index
            batch = np.searchsorted(cumulative, rng.random(_BATCH), side="left")
            batch = np.minimum(batch, size - 1)
        fetched[0] += batch.size
        fetched[2] = batch.astype(np.int64, copy=False)
        fetched[1] = it = iter(sweep_list if kind == "cyclic" else batch.tolist())
        yield it


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
