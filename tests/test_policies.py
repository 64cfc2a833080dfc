import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qrrn.policies import (ExecPolicy, TooFewActions, atom_means,
                           greedy_action, ssd_action, thresholded_ssd_action,
                           top2)
from qrrn.quantdist import ssd_dominates

SPREAD = [-14.0, -10.0, -6.0, -2.0]     # mean -8, var 20
FLAT = [-10.0, -10.0, -10.0, -10.0]     # mean -10, var 0


def test_greedy_fixtures():
    assert greedy_action([SPREAD, FLAT]) == 0
    assert greedy_action([FLAT, SPREAD]) == 1
    assert greedy_action([FLAT, FLAT]) == 0        # tie -> lowest index
    assert greedy_action([[1.0, 2.0]]) == 0        # single action


def test_top2_fixtures():
    assert top2([[-10.0] * 2, [-8.0] * 2, [-12.0] * 2]) == (1, 0)
    assert top2([[-5.0] * 2, [-5.0] * 2, [-9.0] * 2]) == (0, 1)
    assert top2([[-3.0] * 2, [-1.0] * 2]) == (1, 0)
    with pytest.raises(TooFewActions):
        top2([[1.0, 2.0]])


def test_ssd_no_tie_equals_greedy():
    # means -8 vs -10: strict winner, dispersion ignored
    assert ssd_action([SPREAD, FLAT]) == 0


def test_ssd_exact_tie_prefers_smaller_raw_second_moment():
    a = [0.0, 0.0, 0.0, 0.0]           # raw second moment 0
    b = [-2.0, -1.0, 1.0, 2.0]         # raw second moment 2.5
    assert ssd_action([a, b]) == 0
    assert ssd_action([b, a]) == 1


def test_ssd_identical_dists_tie_breaks_low():
    assert ssd_action([FLAT, FLAT]) == 0


def test_ssd_single_action():
    assert ssd_action([[1.0, 2.0]]) == 0


def test_thresholded_fixture_robust_choice():
    # gap 2 <= 15: tie branch compares variances 20 vs 0 and picks the
    # lower-mean but tighter action
    assert thresholded_ssd_action([SPREAD, FLAT], 15.0) == 1
    assert thresholded_ssd_action([SPREAD, FLAT], 1.0) == 0   # gap 2 > 1
    # zero threshold plus distinct means behaves like greedy
    assert thresholded_ssd_action([SPREAD, FLAT], 0.0) == 0


def test_thresholded_single_action_and_validation():
    assert thresholded_ssd_action([[0.0, 1.0]], 3.0) == 0
    with pytest.raises(ValueError):
        thresholded_ssd_action([SPREAD, FLAT], -1.0)


def test_thresholded_infinite_threshold_compares_variances():
    rng = np.random.default_rng(2)
    for _ in range(200):
        d = rng.normal(scale=5, size=(4, 6))
        a1, a2 = top2(d)
        pick = thresholded_ssd_action(d, math.inf)
        var = d.var(axis=1)
        want = a1 if var[a1] <= var[a2] else a2
        assert pick == want


def test_ssd_equals_greedy_without_ties_property():
    rng = np.random.default_rng(3)
    for _ in range(10_000):
        d = rng.normal(scale=3, size=(rng.integers(2, 6), 4))
        means = d.mean(axis=1)
        if len(np.unique(means)) < len(means):
            continue
        assert ssd_action(d) == greedy_action(d)


def test_equal_mean_raw_moment_equals_variance_ordering():
    rng = np.random.default_rng(5)
    for _ in range(2000):
        a = rng.normal(scale=4, size=6)
        b = rng.normal(scale=4, size=6)
        a -= a.mean()
        b -= b.mean()
        shift = rng.normal()
        a += shift
        b += shift
        raw = [(x * x).mean() for x in (a, b)]
        var = [x.var() for x in (a, b)]
        assert (raw[0] <= raw[1]) == (var[0] <= var[1])
        assert ssd_action([a, b]) == thresholded_ssd_action([a, b], 0.0)


def test_scale_invariance():
    rng = np.random.default_rng(7)
    for _ in range(500):
        d = rng.normal(scale=6, size=(3, 4))
        thres = rng.uniform(0, 5)
        base = thresholded_ssd_action(d, thres)
        for c in (0.5, 2.0, 7.0):
            assert thresholded_ssd_action(c * d, c * thres) == base
        if len(np.unique(d.mean(axis=1))) == 3:
            for c in (0.5, 2.0, 7.0):
                assert greedy_action(c * d) == greedy_action(d)
                assert ssd_action(c * d) == ssd_action(d)


def test_tie_branch_consistent_with_dominance():
    # for equal means, the tie branch must agree with the dominance
    # relation whenever the pair is actually comparable
    rng = np.random.default_rng(11)
    checked = 0
    while checked < 500:
        a = rng.normal(scale=3, size=5)
        b = rng.normal(scale=3, size=5)
        a -= a.mean()
        b -= b.mean()
        ab, ba = ssd_dominates(a, b), ssd_dominates(b, a)
        if not (ab or ba):
            continue
        pick = thresholded_ssd_action([a, b], math.inf)
        chosen, rejected = ([a, b][pick], [a, b][1 - pick])
        assert ssd_dominates(chosen, rejected)
        checked += 1


# ---------------------------------------------------------------------------

def test_exec_policy_dispatch():
    assert ExecPolicy("greedy").select([SPREAD, FLAT]) == 0
    assert ExecPolicy("ssd").select([SPREAD, FLAT]) == 0
    assert ExecPolicy("t-ssd", ssd_thres=15.0).select([SPREAD, FLAT]) == 1


def test_exec_policy_serialization():
    pol = ExecPolicy.from_dict({"exec_policy": "t-ssd", "ssd_thres": 15.0})
    assert pol.kind == "t-ssd" and pol.ssd_thres == 15.0
    assert pol.to_dict() == {"exec_policy": "t-ssd", "ssd_thres": 15.0}
    assert ExecPolicy.from_dict({"exec_policy": "greedy"}).to_dict() == \
        {"exec_policy": "greedy"}
    for kind in ("cvar", "thresholded_ssd"):
        with pytest.raises(ValueError, match="unknown exec policy"):
            ExecPolicy.from_dict({"exec_policy": kind})
    with pytest.raises(ValueError):
        ExecPolicy.from_dict({"policy": "greedy"})
    for kind in ("greedy", "ssd"):      # a threshold that would be dropped
        with pytest.raises(ValueError, match="ssd_thres"):
            ExecPolicy.from_dict({"exec_policy": kind, "ssd_thres": 15.0})
    with pytest.raises(ValueError):
        ExecPolicy("t-ssd", ssd_thres=-2.0)


# ---------------------------------------------------------------------------
# bit-exactness against the rules as first written, validation, permutation
#
# The reference below is the original implementation, kept verbatim: it
# validates the atoms in every call and takes means and variances through
# ndarray.mean and ndarray.var. The rules must make the same choice on
# every input, and raise where it raises.

def _ref_dists(d) -> np.ndarray:
    a = np.asarray(d, dtype=float)
    if a.ndim != 2 or a.shape[0] < 1 or a.shape[1] < 1:
        raise ValueError(f"expected (n_actions, n_atoms) array, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("atoms must be finite")
    return a


def ref_greedy_action(dists) -> int:
    return int(np.argmax(_ref_dists(dists).mean(axis=1)))


def ref_top2(dists):
    d = _ref_dists(dists)
    if d.shape[0] < 2:
        raise TooFewActions("top2 needs at least two actions")
    means = d.mean(axis=1)
    a1 = int(np.argmax(means))
    rest = means.copy()
    rest[a1] = -np.inf
    a2 = int(np.argmax(rest))
    return a1, a2


def ref_ssd_action(dists) -> int:
    d = _ref_dists(dists)
    if d.shape[0] == 1:
        return 0
    a1, a2 = ref_top2(d)
    means = d.mean(axis=1)
    if means[a1] - means[a2] > 0.0:
        return a1
    raw = (d * d).mean(axis=1)
    return a1 if raw[a1] <= raw[a2] else a2


def ref_thresholded_ssd_action(dists, thres: float) -> int:
    if not thres >= 0:
        raise ValueError(f"threshold must be >= 0, got {thres}")
    d = _ref_dists(dists)
    if d.shape[0] == 1:
        return 0
    a1, a2 = ref_top2(d)
    means = d.mean(axis=1)
    if means[a1] - means[a2] > thres:
        return a1
    var = d.var(axis=1)
    return a1 if var[a1] <= var[a2] else a2


def outcome(fn, *args):
    """What fn returns, or the type of the ValueError it raises."""
    try:
        with np.errstate(all="ignore"):
            return fn(*args)
    except ValueError as exc:
        return type(exc)


# integers and eighths sum exactly, so means tie bit for bit; values near
# 1e308 make finite atoms whose sums overflow (to +-inf, or to nan when
# numpy's pairwise sum over n >= 8 atoms meets both signs)
ATOMS = st.one_of(st.integers(-40, 40).map(float),
                  st.integers(-320, 320).map(lambda i: i / 8),
                  st.sampled_from([0.0, -0.0]),
                  st.sampled_from([1e308, -1e308, 1.7e308, -1.7e308]),
                  st.floats(-1e3, 1e3, allow_nan=False, allow_subnormal=False))


@st.composite
def atom_rows(draw):
    """(n_actions, n_atoms) atoms with exact mean ties, including equal
    means over different spreads."""
    k, n = draw(st.integers(1, 5)), draw(st.integers(1, 9))
    rows = []
    for _ in range(k):
        how = draw(st.sampled_from(["fresh", "copy", "respread", "overflow"]))
        if how == "overflow":
            # in a pairwise sum the two halves overflow to inf and -inf
            big = draw(st.sampled_from([1e308, 1.7e308]))
            head = [big, big, -big, -big][:n]
            rows.append(head + [draw(ATOMS) for _ in range(n - len(head))])
            continue
        if how == "fresh" or not rows:
            rows.append([draw(ATOMS) for _ in range(n)])
            continue
        row = list(draw(st.sampled_from(rows)))
        if how == "respread" and n >= 2:
            # move a dyadic amount between two atoms: same sum, new spread
            i, j = draw(st.permutations(range(n)))[:2]
            c = draw(st.integers(1, 16)) / 4
            row[i], row[j] = row[i] - c, row[j] + c
        rows.append(row)
    return np.array(rows)


@st.composite
def layouts(draw, d):
    """The same atoms as a list, a C array or a non-contiguous view."""
    form = draw(st.sampled_from(["list", "array", "transposed", "strided",
                                 "reversed"]))
    if form == "list":
        return d.tolist()
    if form == "transposed":
        return np.ascontiguousarray(d.T).T
    if form == "strided":
        wide = np.zeros((d.shape[0], 2 * d.shape[1]))
        wide[:, 1::2] = d
        return wide[:, 1::2]
    if form == "reversed":
        return np.ascontiguousarray(d[::-1])[::-1]
    return d


@st.composite
def decisions(draw):
    dists = draw(layouts(draw(atom_rows())))
    # the mean gaps as this layout sums them: a view may sum in another order
    with np.errstate(all="ignore"):
        means = np.asarray(dists, dtype=float).mean(axis=1)
        gaps = [float(x - y) for x in means for y in means]
    exact = [g for g in gaps if math.isfinite(g) and g >= 0]
    thres = draw(st.one_of(st.sampled_from(exact or [0.0]),
                           st.sampled_from([0.0, -0.0, 0.5, 3.0, math.inf])))
    return dists, thres


@given(decisions())
@settings(max_examples=1000)
def test_rules_match_reference_bit_for_bit(case):
    dists, thres = case
    greedy = outcome(ref_greedy_action, dists)
    ssd = outcome(ref_ssd_action, dists)
    tssd = outcome(ref_thresholded_ssd_action, dists, thres)
    assert outcome(greedy_action, dists) == greedy
    assert outcome(top2, dists) == outcome(ref_top2, dists)
    assert outcome(ssd_action, dists) == ssd
    assert outcome(thresholded_ssd_action, dists, thres) == tssd
    assert outcome(ExecPolicy("greedy").select, dists) == greedy
    assert outcome(ExecPolicy("ssd").select, dists) == ssd
    assert outcome(ExecPolicy("t-ssd", thres).select, dists) == tssd


@given(st.integers(1, 5), st.integers(1, 12), st.data())
@settings(max_examples=300)
def test_atom_means_are_ndarray_mean_bits(k, n, data):
    d = np.array(data.draw(st.lists(st.floats(-1e6, 1e6), min_size=k * n,
                                    max_size=k * n))).reshape(k, n)
    for view in (d, np.ascontiguousarray(d.T).T, d[::-1], d[None]):
        assert atom_means(view).tobytes() == view.mean(axis=-1).tobytes()


def test_nan_mean_from_finite_atoms_is_argmax_pick():
    # nine atoms: the pairwise sum adds inf to -inf, so the mean is nan,
    # and argmax takes the first nan
    d = [[0.0] * 9, [1e308, 1e308, -1e308, -1e308] + [0.0] * 5, [0.0] * 9]
    with np.errstate(all="ignore"):
        assert greedy_action(d) == 1
        assert top2(d) == ref_top2(d) == (1, 0)
        assert ssd_action(d) == ref_ssd_action(d)
        assert thresholded_ssd_action(d, 2.0) == \
            ref_thresholded_ssd_action(d, 2.0)


BAD_INPUTS = {
    "nan": [[0.0, math.nan], [1.0, 2.0]],
    "inf": [[0.0, 1.0], [math.inf, 2.0]],
    "-inf": [[-math.inf, 1.0], [0.0, 2.0]],
    "nan-single": [[math.nan, 1.0]],
    "nan-beside-overflow": [[1e308] * 2 + [-1e308] * 2 + [math.nan] * 4 + [0.0],
                            [0.0] * 9],
    "1-D": [1.0, 2.0, 3.0],
    "3-D": [[[1.0, 2.0]], [[3.0, 4.0]]],
    "0-D": 1.0,
    "no actions": np.zeros((0, 3)),
    "no atoms": np.zeros((3, 0)),
    "empty": [],
}


@pytest.mark.parametrize("bad", BAD_INPUTS.values(), ids=BAD_INPUTS.keys())
def test_invalid_atoms_raise_everywhere(bad):
    calls = [greedy_action, top2, ssd_action,
             lambda d: thresholded_ssd_action(d, 1.0),
             ExecPolicy("greedy").select, ExecPolicy("ssd").select,
             ExecPolicy("t-ssd", 1.0).select]
    for call in calls:
        with pytest.raises(ValueError), np.errstate(all="ignore"):
            call(bad)


def test_finite_atoms_whose_sums_overflow_are_accepted():
    # both means overflow to +inf: argmax takes the first, and the gap
    # inf - inf is nan, so the tie branch decides
    d = [[1e308, 1e308, 0.0], [1.5e308, 1.5e308, 0.0]]
    with np.errstate(all="ignore"):
        assert greedy_action(d) == 0
        assert top2(d) == (0, 1)
        assert ssd_action(d) == ref_ssd_action(d)
        assert thresholded_ssd_action(d, 1.0) == \
            ref_thresholded_ssd_action(d, 1.0)


@st.composite
def shuffled_atoms(draw):
    """Integer atoms and the same atoms shuffled within each action. With
    n a power of two every mean, deviation, square and sum is exact, so no
    moment depends on the order of the atoms."""
    k = draw(st.integers(1, 5))
    n = draw(st.sampled_from([1, 2, 4, 8]))
    rows = [draw(st.lists(st.integers(-20, 20), min_size=n, max_size=n))
            for _ in range(k)]
    perms = [draw(st.permutations(r)) for r in rows]
    thres = float(draw(st.integers(0, 8)))
    return np.array(rows, dtype=float), np.array(perms, dtype=float), thres


@given(shuffled_atoms())
@settings(max_examples=300)
def test_rules_invariant_to_atom_order(case):
    d, shuffled, thres = case
    for rule in (ExecPolicy("greedy"), ExecPolicy("ssd"),
                 ExecPolicy("t-ssd", thres)):
        assert rule.select(shuffled) == rule.select(d)
