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

A mean is the sum over atoms divided by n, the same bits as
``ndarray.mean``. Every rule makes its decision through one core,
``_ranked``, which validates the atoms once per decision and computes each
mean once; a second moment is computed only when the top-2 are tied.

Every tie (argmax, moment comparison) breaks toward the lower action
index, so all rules are deterministic.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import read


class TooFewActions(ValueError):
    pass


_KINDS = ("greedy", "ssd", "t-ssd")


def atom_means(d) -> np.ndarray:
    """Means over the last (atom) axis of d[..., action, atom]."""
    return np.add.reduce(d, axis=-1) / d.shape[-1]


def greedy(d) -> np.ndarray:
    """Argmax over actions of the atom means of d[..., action, atom]; ties
    go to the lowest index. Two sums that round to the same mean tie. Does
    not validate: the learner's behaviour policy and bootstrap targets call
    it on every step."""
    return atom_means(d).argmax(axis=-1)


def _ranked(dists):
    """Validate once, mean once: the atoms, their per-action means and the
    best and runner-up actions by mean (runner-up None for one action).

    The picks are argmax's, with the runner-up taken after masking the best
    to -inf, so when every other mean is -inf it is the best again.
    """
    d = np.asarray(dists, dtype=float)
    if d.ndim != 2 or d.shape[0] < 1 or d.shape[1] < 1:
        raise ValueError(f"expected (n_actions, n_atoms) array, got shape {d.shape}")
    means = atom_means(d)
    m = means.tolist()
    # an inf or nan atom makes its mean inf or nan, so finite means vouch
    # for the atoms; finite atoms whose sum overflows pass the full check
    if not all(map(math.isfinite, m)) and not np.isfinite(d).all():
        raise ValueError("atoms must be finite")
    a1 = int(means.argmax())
    if len(m) == 1:
        return d, means, a1, None
    means[a1] = -math.inf
    a2 = int(means.argmax())
    means[a1] = m[a1]           # the variance subtracts it again
    return d, means, a1, a2


def _tie_break(dists, thres: float, central: bool) -> int:
    """The best action by mean unless its lead is at most ``thres``; then
    the one of the top-2 with the smaller second moment, taken about the
    mean in ndarray.var's order when ``central``, else raw."""
    d, means, a1, a2 = _ranked(dists)
    if a2 is None or means[a1] - means[a2] > thres:
        return a1
    x = d - means[:, None] if central else d
    s = atom_means(x * x)
    return a1 if s[a1] <= s[a2] else a2


def greedy_action(dists) -> int:
    """Action with the largest mean return; ties -> lowest index."""
    return _ranked(dists)[2]


def top2(dists):
    """The two actions with the largest means, best first."""
    _, _, a1, a2 = _ranked(dists)
    if a2 is None:
        raise TooFewActions("top2 needs at least two actions")
    return a1, a2


def ssd_action(dists) -> int:
    """Greedy with exact-tie fallback to the smaller raw second moment.

    Only bit-equal means tie, so on trained values this rule behaves
    identically to greedy.
    """
    return _tie_break(dists, 0.0, central=False)


def thresholded_ssd_action(dists, thres: float) -> int:
    """Prefer the top action only when its mean lead exceeds ``thres``.

    Otherwise the top-2 are considered tied and the action whose
    distribution has the smaller variance (second central moment) is
    chosen.
    """
    if not thres >= 0:
        raise ValueError(f"threshold must be >= 0, got {thres}")
    return _tie_break(dists, thres, central=True)


@dataclass(frozen=True)
class ExecPolicy:
    """A named execution rule; ``ssd_thres`` only matters for t-ssd."""

    kind: str = "greedy"
    ssd_thres: float = 0.0

    def __post_init__(self):
        if self.kind not in _KINDS:
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
        return _tie_break(dists, self.ssd_thres, central=True)

    def to_dict(self) -> dict:
        doc = {"exec_policy": self.kind}
        if self.kind == "t-ssd":
            doc["ssd_thres"] = self.ssd_thres
        return doc

    @classmethod
    def from_dict(cls, doc: dict) -> "ExecPolicy":
        """The kind is keyed ``exec_policy``; ``ssd_thres`` may be absent,
        and only a t-ssd entry may give it."""
        doc = read(doc, {"exec_policy": str, "ssd_thres": float},
                   {"exec_policy"}, "ExecPolicy")
        pol = cls(kind=doc["exec_policy"], ssd_thres=doc.get("ssd_thres", 0.0))
        if "ssd_thres" in doc and pol.kind != "t-ssd":
            raise ValueError(f"ssd_thres applies only to t-ssd, not {pol.kind}")
        return pol
