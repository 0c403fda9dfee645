"""Row-wise magnitude-times-activation pruning on survivor weights.

Per weight matrix W (a x b) with calibration activations X (N x b), the
saliency of entry (i, j) is |W_ij| * ||X_:,j||_2; every row keeps its
top-ceil((1 - r2) * b) entries and zeroes the rest, ties toward the lower
column index.  The residual sparsity r2 = max(0, (r_tot - r1) / (1 - r1))
turns a total compression target into the weight-axis share left after the
expert-axis stage already removed an r1 fraction.

In the simulator each survivor expert is the linear map from one-hot
context features to output logits, i.e. the (vocab x ctx) matrix whose
every column is the expert's logit row, and X is the stack of one-hot
context rows from the calibration corpus.  Pruned columns therefore leave
the expert emitting uniform logits at rare contexts while frequent
contexts keep the exact pre-compression behavior.  The stage hands on its
keep masks alone: the loss evaluator multiplies an expert's logit row by
a mask's columns at the contexts it evaluates
(:func:`hodgecover.moe.compressed_symbol_outputs`).

The column norms of that one-hot X are the square roots of the context
counts, so :func:`prune_survivors` takes them once per call from a
``bincount`` of the corpus and never builds X.  They equal
``np.linalg.norm(X, axis=0)`` bit for bit: both take the correctly
rounded ``sqrt`` of an exact integer count.

Row i's scores are then |l_i| * norms, so one sort of the norms serves
every row it can.  A row's stable descending order
(``argsort(-scores, kind="stable")``) is the unique permutation that sorts
its entries by (-score, column).  Take ``order``, the stable descending
order of the norms.  Along it, equal norms come in ascending column order
and give equal scores, so each such adjacent pair is already in the row's
order.  Rounding is monotone, so |l_i| * norms never reverses two norms,
but where the norm drops it can tie them: every score is 0 when l_i is
zero, and products underflow or overflow when l_i is subnormal or huge.
So ``order`` is a row's order exactly when, at every adjacent pair where
the norm drops, the score drops too or ties with ascending columns.
:func:`prune_survivors` checks those pairs (a few: one fewer than the
distinct context counts) for every row of every survivor in one comparison
and sorts only the rows that fail.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .moe import CalibCorpus, MoeLayer, b64_array, b64_text


@dataclass(frozen=True, eq=False)
class PruneMask:
    """Binary keep mask with its per-row keep count and achieved sparsity."""

    mask: np.ndarray
    keep_per_row: int
    sparsity: float

    def to_dict(self) -> dict:
        """The mask as the JSON object :meth:`to_json` writes."""
        return {
            "shape": list(self.mask.shape),
            "keep_per_row": self.keep_per_row,
            "sparsity": self.sparsity,
            "bits": b64_text(np.packbits(self.mask.astype(np.uint8).ravel())),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    @classmethod
    def from_json(cls, text: str) -> "PruneMask":
        doc = json.loads(text)
        shape = tuple(doc["shape"])
        size = shape[0] * shape[1]
        raw = b64_array(doc["bits"], "bits", "u1", -(-size // 8))
        return cls(np.unpackbits(raw)[:size].reshape(shape), doc["keep_per_row"], doc["sparsity"])


def residual_sparsity(r_total: float, r1: float = 0.20) -> float:
    """Weight sparsity needed after an expert-axis stage at drop rate r1."""
    if r1 >= 1.0:
        raise ValueError(f"stage-1 rate must be < 1, got {r1}")
    return max(0.0, (r_total - r1) / (1.0 - r1))


def wanda_prune(w: np.ndarray, x: np.ndarray, r2: float) -> tuple[np.ndarray, PruneMask]:
    """Prune ``w`` row-wise at sparsity r2 using activation column norms."""
    w = np.asarray(w, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    if w.ndim != 2 or x.ndim != 2 or x.shape[1] != w.shape[1]:
        raise ValueError(f"shapes do not conform: W {w.shape}, X {x.shape}")
    keep = _keep_per_row(r2, w.shape[1])
    mask = _sorted_mask(np.abs(w) * np.linalg.norm(x, axis=0)[None, :], keep)
    return w * mask, PruneMask(mask, keep, 1.0 - keep / w.shape[1])


def _keep_per_row(r2: float, b: int) -> int:
    """Entries a row of b keeps at sparsity r2."""
    if not (0.0 <= r2 < 1.0):
        raise ValueError(f"sparsity must be in [0, 1), got {r2}")
    return math.ceil((1.0 - r2) * b)


def _sorted_mask(scores: np.ndarray, keep: int) -> np.ndarray:
    """uint8 mask of each row's first ``keep`` columns in its stable
    descending order of ``scores``: the top scores, ties to the lower column."""
    mask = np.zeros(scores.shape, dtype=np.uint8)
    np.put_along_axis(mask, np.argsort(-scores, axis=1, kind="stable")[:, :keep], 1, axis=1)
    return mask


def prune_survivors(layer: MoeLayer, corpus: CalibCorpus, survivors: Sequence[int],
                    r2: float) -> dict[int, PruneMask]:
    """Stage-2 pass over every survivor's weight matrix at sparsity r2.

    Reuses the calibration corpus already consumed by the barrier sweep;
    no further forward passes are needed.  Returns the keep masks keyed by
    expert index, each a (vocab x ctx) mask of survivor j's matrix, whose
    every column is j's logit row.  One sort of the norms orders every row
    it can, over all survivors at once (see the module docstring).
    """
    keep = _keep_per_row(r2, layer.ctx)
    norms = np.sqrt(np.bincount(corpus.contexts, minlength=layer.ctx).astype(np.float64))
    order = np.argsort(-norms, kind="stable")
    drops = np.flatnonzero(norms[order[:-1]] > norms[order[1:]])
    hi_col, lo_col = order[drops], order[drops + 1]
    # one row per (survivor, vocab entry): |l_i|, the row's scores over norms
    logits = np.abs(layer.expert_logits[np.asarray(survivors, dtype=np.int64)]).reshape(-1, 1)
    hi, lo = logits * norms[hi_col], logits * norms[lo_col]
    fits = ((hi > lo) | ((hi == lo) & (hi_col < lo_col))).all(axis=1)
    mask = np.zeros((len(logits), layer.ctx), dtype=np.uint8)
    mask[:, order[:keep]] = fits[:, None]
    rows = np.flatnonzero(~fits)
    mask[rows] = _sorted_mask(logits[rows] * norms, keep)
    mask = mask.reshape(-1, layer.vocab, layer.ctx)
    return {int(j): PruneMask(m, keep, 1.0 - keep / layer.ctx) for j, m in zip(survivors, mask)}


def masks_to_json(masks: Mapping[int, PruneMask]) -> str:
    return json.dumps({str(j): m.to_dict() for j, m in masks.items()})
