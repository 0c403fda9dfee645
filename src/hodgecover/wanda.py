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

Row i's scores are then |l_i| * norms, so one sort serves every row.  A
row's stable descending order (``argsort(-scores, kind="stable")``) is the
unique permutation that sorts its entries by (-score, column).  So a
permutation ``order`` is that row's order if and only if, along ``order``,
the scores never increase and each equal adjacent pair has ascending
columns.  :func:`prune_survivors` takes ``order`` as the stable descending
order of ``norms``, checks that condition on every row in one vectorised
comparison, and sorts only the rows where it fails.  Rounding is
monotone, so |l_i| * norms never reverses two norms, but it can tie them:
every score is 0 when l_i is zero, and products underflow or overflow
when l_i is subnormal or huge.
"""

from __future__ import annotations

import base64
import json
import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .moe import CalibCorpus, MoeLayer


@dataclass(frozen=True, eq=False)
class PruneMask:
    """Binary keep mask with its per-row keep count and achieved sparsity."""

    mask: np.ndarray
    keep_per_row: int
    sparsity: float

    def to_json(self) -> str:
        packed = np.packbits(self.mask.astype(np.uint8).ravel())
        return json.dumps({
            "shape": list(self.mask.shape),
            "keep_per_row": self.keep_per_row,
            "sparsity": self.sparsity,
            "bits": base64.b64encode(packed.tobytes()).decode("ascii"),
        })

    @classmethod
    def from_json(cls, text: str) -> "PruneMask":
        doc = json.loads(text)
        shape = tuple(doc["shape"])
        raw = np.frombuffer(base64.b64decode(doc["bits"]), dtype=np.uint8)
        bits = np.unpackbits(raw)[: shape[0] * shape[1]]
        return cls(bits.reshape(shape), doc["keep_per_row"], doc["sparsity"])


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
    mask = _prune_rows(w, np.linalg.norm(x, axis=0), r2)
    return w * mask.mask, mask


def _prune_rows(w: np.ndarray, norms: np.ndarray, r2: float,
                order: np.ndarray | None = None) -> PruneMask:
    """Keep mask of ``w`` at sparsity r2 given the activation column norms.

    ``order``, when given, is a candidate stable descending order of every
    row's scores; only the rows it does not fit are sorted (see the module
    docstring).
    """
    if not (0.0 <= r2 < 1.0):
        raise ValueError(f"sparsity must be in [0, 1), got {r2}")
    a, b = w.shape
    keep = math.ceil((1.0 - r2) * b)
    scores = np.abs(w) * norms[None, :]
    mask = np.zeros((a, b), dtype=np.uint8)
    rows = np.arange(a)
    if order is not None:
        fits = _in_order(scores, order)
        mask[:, order[:keep]] = fits[:, None]
        rows = rows[~fits]
    kept_cols = np.argsort(-scores[rows], axis=1, kind="stable")[:, :keep]
    mask[rows[:, None], kept_cols] = 1
    return PruneMask(mask, keep, 1.0 - keep / b)


def _in_order(scores: np.ndarray, order: np.ndarray) -> np.ndarray:
    """Per row: is ``order`` the row's stable descending order of ``scores``?"""
    along = scores.take(order, axis=1)
    before, after = along[:, :-1], along[:, 1:]
    return ((before > after) | ((before == after) & (order[:-1] < order[1:]))).all(axis=1)


def expert_weight_matrix(layer: MoeLayer, expert: int) -> np.ndarray:
    """The expert as a one-hot-context-to-logits map: (vocab x ctx), every
    column the expert's logit row."""
    return np.repeat(layer.expert_logits[expert][:, None], layer.ctx, axis=1)


def prune_survivors(layer: MoeLayer, corpus: CalibCorpus, survivors: Sequence[int],
                    r2: float) -> dict[int, PruneMask]:
    """Stage-2 pass over every survivor's weight matrix at sparsity r2.

    Reuses the calibration corpus already consumed by the barrier sweep;
    no further forward passes are needed.  Returns the keep masks keyed by
    expert index; the pruned matrix of survivor j is
    ``expert_weight_matrix(layer, j) * mask``.  One sort of the norms orders
    every row it can (see the module docstring).
    """
    norms = np.sqrt(np.bincount(corpus.contexts, minlength=layer.ctx).astype(np.float64))
    order = np.argsort(-norms, kind="stable")
    return {int(j): _prune_rows(expert_weight_matrix(layer, int(j)), norms, r2, order)
            for j in survivors}


def masks_to_json(masks: Mapping[int, PruneMask]) -> str:
    return json.dumps({str(j): json.loads(m.to_json()) for j, m in masks.items()})
