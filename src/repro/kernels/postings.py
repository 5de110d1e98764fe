"""A value-posting summary store: score one object against every summary.

The daemon's row absorption (:mod:`repro.service.app`) routes each new
tuple to its closest LIMBO summary and folds it in with the associative
merge of Equations 1-2.  Both steps touch only the tuple's own values: by
the entropy identity of :mod:`repro.kernels.dense`,

    delta_I(c, t) * ln 2 = x(w_c + p) - x(w_c) - x(p)
                           + sum_{k in supp(t)} [ x(m_tk) + x(m_ck) - x(m_ck + m_tk) ]

with ``x(v) = v ln v``, ``w_c``/``m_ck`` the summary's prior and joint
mass on value ``k`` and ``p``/``m_tk`` the object's.  The bracket is zero
wherever ``m_ck = 0``, so it only needs adding at the summaries that hold
one of the object's values.  :class:`PostingStore` keeps exactly what that
needs: per-summary ``weights``/``wlogw`` arrays plus, for every value key,
a posting list of ``(summary index, joint mass)`` arrays.  Scoring is one
weight-only pass over all summaries plus one gather over the object's
postings; absorbing updates the winner's weight and postings in place.

A dense ``summaries x values`` matrix would do the same gather, but the
daemon's catalog grows with every absorbed row and most of the matrix
would be zeros; the postings hold only the nonzero masses.
"""

from __future__ import annotations

import math

import numpy as np

from repro.kernels.dense import _quantize, _xlogx, _xlogx_scalar

_LOG2 = math.log(2.0)


class _Posting:
    """The summaries holding one value, with their joint masses on it."""

    __slots__ = ("index", "mass", "size")

    def __init__(self, index, mass):
        self.index = np.asarray(index, dtype=np.int64)
        self.mass = np.asarray(mass, dtype=np.float64)
        self.size = len(self.index)

    def add(self, summary: int, m: float) -> None:
        """Add ``m`` to the summary's mass here, appending it if absent."""
        slots = np.flatnonzero(self.index[:self.size] == summary)
        if slots.size:
            self.mass[slots[0]] += m
            return
        if self.size == len(self.index):
            capacity = max(4, 2 * self.size)
            index = np.empty(capacity, dtype=np.int64)
            mass = np.empty(capacity, dtype=np.float64)
            index[:self.size] = self.index
            mass[:self.size] = self.mass
            self.index, self.mass = index, mass
        self.index[self.size] = summary
        self.mass[self.size] = m
        self.size += 1


class PostingStore:
    """DCF summaries as weights plus per-value postings (see module doc).

    Built from a fixed sequence of :class:`repro.clustering.dcf.DCF`
    summaries; summary ``i`` keeps index ``i``.  Queries and absorbed
    objects are sparse joint-mass mappings ``{value key: p(t) p(k|t)}``
    with their prior ``p(t)``, the form ``DCF.mass`` stores.  Absorbing
    performs the same float additions as ``DCF.absorb``, so the stored
    weights and masses stay bit-identical to absorbing into DCF copies.
    """

    __slots__ = ("weights", "wlogw", "_postings")

    def __init__(self, summaries):
        summaries = list(summaries)
        if not summaries:
            raise ValueError("cannot store zero summaries")
        self.weights = np.array([s.weight for s in summaries],
                                dtype=np.float64)
        self.wlogw = np.array([s.wlogw for s in summaries], dtype=np.float64)
        gathered: dict = {}
        for index, summary in enumerate(summaries):
            for key, m in summary.mass.items():
                entry = gathered.get(key)
                if entry is None:
                    entry = gathered[key] = ([], [])
                entry[0].append(index)
                entry[1].append(m)
        self._postings = {key: _Posting(indices, masses)
                          for key, (indices, masses) in gathered.items()}

    def __len__(self) -> int:
        return len(self.weights)

    def costs(self, mass, weight: float) -> np.ndarray:
        """``delta_I`` (bits) of merging the object into every summary.

        Losses pass the shared quantization grid, like every other kernel.
        """
        losses = (_xlogx(self.weights + weight) - self.wlogw
                  - _xlogx_scalar(weight))
        postings = []
        queries = []
        for key, m in mass.items():
            posting = self._postings.get(key)
            if posting is not None:
                postings.append(posting)
                queries.append(m)
        if postings:
            sizes = [posting.size for posting in postings]
            index = np.concatenate([p.index[:p.size] for p in postings])
            shared = np.concatenate([p.mass[:p.size] for p in postings])
            query = np.repeat(np.asarray(queries, dtype=np.float64), sizes)
            bracket = _xlogx(query) + _xlogx(shared) - _xlogx(shared + query)
            losses += np.bincount(index, weights=bracket,
                                  minlength=len(self.weights))
        return _quantize(np.maximum(losses / _LOG2, 0.0))

    def closest(self, mass, weight: float) -> int:
        """Index of the cheapest summary to merge into; ties go low."""
        return int(np.argmin(self.costs(mass, weight)))

    def absorb(self, index: int, mass, weight: float) -> None:
        """Fold the object into summary ``index`` (Equations 1-2)."""
        postings = self._postings
        for key, m in mass.items():
            posting = postings.get(key)
            if posting is None:
                posting = postings[key] = _Posting((), ())
            posting.add(index, m)
        merged = float(self.weights[index]) + weight
        self.weights[index] = merged
        self.wlogw[index] = merged * math.log(merged)

    def masses(self) -> list[dict]:
        """Every summary's joint masses as ``{value key: mass}`` dicts."""
        out: list[dict] = [{} for _ in range(len(self.weights))]
        for key, posting in self._postings.items():
            for summary, m in zip(posting.index[:posting.size].tolist(),
                                  posting.mass[:posting.size].tolist()):
                out[summary][key] = m
        return out
