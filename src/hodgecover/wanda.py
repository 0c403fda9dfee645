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
contexts keep the exact pre-compression behavior.

The column norms of that one-hot X are the square roots of the context
counts, so :func:`prune_survivors` takes them once per call from a
``bincount`` of the corpus and never builds X.  They equal
``np.linalg.norm(X, axis=0)`` bit for bit: both take the correctly
rounded ``sqrt`` of an exact integer count.
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
    return _prune_rows(w, np.linalg.norm(x, axis=0), r2)


def _prune_rows(w: np.ndarray, norms: np.ndarray,
                r2: float) -> tuple[np.ndarray, PruneMask]:
    """Row-wise prune of ``w`` at sparsity r2 given the activation column norms."""
    if not (0.0 <= r2 < 1.0):
        raise ValueError(f"sparsity must be in [0, 1), got {r2}")
    a, b = w.shape
    keep = math.ceil((1.0 - r2) * b)
    scores = np.abs(w) * norms[None, :]
    kept_cols = np.argsort(-scores, axis=1, kind="stable")[:, :keep]
    mask = np.zeros((a, b), dtype=np.uint8)
    np.put_along_axis(mask, kept_cols, 1, axis=1)
    pruned = w * mask
    return pruned, PruneMask(mask, keep, 1.0 - keep / b)


def expert_weight_matrix(layer: MoeLayer, expert: int) -> np.ndarray:
    """The expert as a one-hot-context-to-logits map: (vocab x ctx), every
    column the expert's logit row."""
    return np.repeat(layer.expert_logits[expert][:, None], layer.ctx, axis=1)


def prune_survivors(layer: MoeLayer, corpus: CalibCorpus, survivors: Sequence[int],
                    r2: float) -> tuple[dict[int, np.ndarray], dict[int, PruneMask]]:
    """Stage-2 pass over every survivor's weight matrix at sparsity r2.

    Reuses the calibration corpus already consumed by the barrier sweep;
    no further forward passes are needed.  Returns the pruned matrices and
    masks keyed by expert index.
    """
    norms = np.sqrt(np.bincount(corpus.contexts, minlength=layer.ctx).astype(np.float64))
    pruned: dict[int, np.ndarray] = {}
    masks: dict[int, PruneMask] = {}
    for j in survivors:
        w = expert_weight_matrix(layer, int(j))
        pruned[int(j)], masks[int(j)] = _prune_rows(w, norms, r2)
    return pruned, masks


def masks_to_json(masks: Mapping[int, PruneMask]) -> str:
    return json.dumps({str(j): json.loads(m.to_json()) for j, m in masks.items()})
