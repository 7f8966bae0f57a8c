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
defines the stream.  A sampler keeps the current batch as an int64
array with a cursor at its first unread index: ``batch`` hands out the
unread rest (after a refill when the batch is used up) and ``consume``
moves the cursor.  ``next_index`` and iteration read one index at a
time from the same stream.
"""

from __future__ import annotations

import numpy as np

__all__ = ["SAMPLER_KINDS", "Sampler", "make_sampler"]

SAMPLER_KINDS = ("uniform", "proportional", "permutation", "cyclic")

_BATCH = 1024


class Sampler:
    """Iterator over subspace indices; see the module docstring.

    ``probabilities`` holds the selection probabilities of proportional
    sampling and is None for the other kinds.  Use :func:`make_sampler`
    rather than constructing directly.
    """

    def __init__(self, kind, size, probabilities=None, seed=0):
        if kind not in SAMPLER_KINDS:
            raise ValueError(f"unknown sampler kind {kind!r}; choose from {SAMPLER_KINDS}")
        if size < 1:
            raise ValueError("sampler needs at least one index")
        self.kind = kind
        self.size = int(size)
        self.seed = seed
        self.probabilities = None
        self._rng = None if kind == "cyclic" else np.random.default_rng(seed)
        if kind == "proportional":
            p = np.asarray(probabilities, dtype=np.float64)
            if p.ndim != 1 or p.size != size:
                raise ValueError("probabilities must be a length-J vector")
            if np.any(p <= 0) or not np.all(np.isfinite(p)):
                raise ValueError("probabilities must be positive and finite")
            p = p / p.sum()
            self.probabilities = p
            self._cumulative = np.cumsum(p)
            self._cumulative[-1] = 1.0
        elif kind == "cyclic":  # whole sweeps, about _BATCH indices a batch
            self._sweep = np.arange(size * max(1, _BATCH // size), dtype=np.int64) % size
        # The stream: the current batch, the position of its first unread
        # index, and how many indices the batches so far held.
        self._batch = np.empty(0, dtype=np.int64)
        self._cursor = self._made = 0

    @property
    def draw_count(self):
        """How many indices have been drawn (batch indices once consumed)."""
        return self._made - self._batch.size + self._cursor

    def batch(self):
        """The next indices of the stream, as a nonempty int64 array.

        They are the unread rest of the current batch (a fresh batch when
        that is used up) and stay unread until :meth:`consume` marks a
        leading part of them as drawn.
        """
        if self._cursor == self._batch.size:
            if self.kind == "cyclic":
                batch = self._sweep
            elif self.kind == "permutation":
                batch = self._rng.permutation(self.size)
            elif self.kind == "uniform":
                batch = self._rng.integers(0, self.size, size=_BATCH, dtype=np.intp)
            else:  # proportional: inverse CDF with ties resolved to the lower index
                batch = np.searchsorted(self._cumulative, self._rng.random(_BATCH), side="left")
                batch = np.minimum(batch, self.size - 1)
            self._batch = batch.astype(np.int64, copy=False)
            self._cursor = 0
            self._made += batch.size
        return self._batch[self._cursor :]

    def consume(self, count):
        """Mark the first ``count`` indices of :meth:`batch` as drawn."""
        self._cursor += count

    def next_index(self):
        """Draw the next subspace index in ``{0, ..., J-1}``."""
        index = self.batch().item(0)
        self._cursor += 1
        return index

    def __iter__(self):
        return self

    def __next__(self):
        return self.next_index()

    def __repr__(self):
        return f"Sampler({self.kind!r}, J={self.size}, seed={self.seed})"


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
