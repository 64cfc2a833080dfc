"""Action selection over per-action return distributions.

Inputs are (n_actions, n_atoms) arrays: one quantile mixture per action.
Three rules are provided:

* greedy: argmax of the per-action means,
* ssd: greedy unless the top-2 means tie exactly, then the smaller raw
  second moment wins,
* thresholded ssd: when the gap between the top-2 means is at most a
  threshold the actions are treated as tied and the smaller second central
  moment (variance) wins; subtracting the mean makes the comparison
  consistent with the exact rule under equal means.

Every tie (argmax, moment comparison) breaks toward the lower action
index, so all rules are deterministic.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class TooFewActions(ValueError):
    pass


_KINDS = ("greedy", "ssd", "t-ssd")


def _dists(d) -> np.ndarray:
    a = np.asarray(d, dtype=float)
    if a.ndim != 2 or a.shape[0] < 1 or a.shape[1] < 1:
        raise ValueError(f"expected (n_actions, n_atoms) array, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("atoms must be finite")
    return a


def greedy_action(dists) -> int:
    """Action with the largest mean return; ties -> lowest index."""
    return int(np.argmax(_dists(dists).mean(axis=1)))


def top2(dists):
    """The two actions with the largest means, best first."""
    d = _dists(dists)
    if d.shape[0] < 2:
        raise TooFewActions("top2 needs at least two actions")
    means = d.mean(axis=1)
    a1 = int(np.argmax(means))
    rest = means.copy()
    rest[a1] = -np.inf
    a2 = int(np.argmax(rest))
    return a1, a2


def ssd_action(dists) -> int:
    """Greedy with exact-tie fallback to the smaller raw second moment.

    Only bit-equal means tie, so on trained values this rule behaves
    identically to greedy.
    """
    d = _dists(dists)
    if d.shape[0] == 1:
        return 0
    a1, a2 = top2(d)
    means = d.mean(axis=1)
    if means[a1] - means[a2] > 0.0:
        return a1
    raw = (d * d).mean(axis=1)
    return a1 if raw[a1] <= raw[a2] else a2


def thresholded_ssd_action(dists, thres: float) -> int:
    """Prefer the top action only when its mean lead exceeds ``thres``.

    Otherwise the top-2 are considered tied and the action whose
    distribution has the smaller variance (second central moment) is
    chosen.
    """
    if not thres >= 0:
        raise ValueError(f"threshold must be >= 0, got {thres}")
    d = _dists(dists)
    if d.shape[0] == 1:
        return 0
    a1, a2 = top2(d)
    means = d.mean(axis=1)
    if means[a1] - means[a2] > thres:
        return a1
    var = d.var(axis=1)
    return a1 if var[a1] <= var[a2] else a2


@dataclass(frozen=True)
class ExecPolicy:
    """A named execution rule; ``ssd_thres`` only matters for t-ssd."""

    kind: str = "greedy"
    ssd_thres: float = 0.0

    def __post_init__(self):
        kind = {"thresholded_ssd": "t-ssd"}.get(self.kind, self.kind)
        object.__setattr__(self, "kind", kind)
        if kind not in _KINDS:
            raise ValueError(f"unknown exec policy {self.kind!r}")
        if not self.ssd_thres >= 0:
            raise ValueError(f"ssd_thres must be >= 0, got {self.ssd_thres}")

    @property
    def label(self) -> str:
        return self.kind

    def select(self, dists) -> int:
        if self.kind == "greedy":
            return greedy_action(dists)
        if self.kind == "ssd":
            return ssd_action(dists)
        return thresholded_ssd_action(dists, self.ssd_thres)

    def to_dict(self) -> dict:
        doc = {"exec_policy": self.kind}
        if self.kind == "t-ssd":
            doc["ssd_thres"] = self.ssd_thres
        return doc

    @classmethod
    def from_dict(cls, doc: dict) -> "ExecPolicy":
        unknown = set(doc) - {"exec_policy", "ssd_thres"}
        if unknown:
            raise ValueError(f"unknown exec policy keys {sorted(unknown)}")
        if "exec_policy" not in doc:
            raise ValueError("exec policy entry missing 'exec_policy'")
        return cls(kind=doc["exec_policy"], ssd_thres=doc.get("ssd_thres", 0.0))
