import numpy as np
import pytest

from qrrn.quantdist import (BadAlpha, BadN, cvar, huber_terms, integrated_cdf,
                            mean, midpoints, quantile_huber,
                            quantile_huber_grad, ssd_dominates, variance)

FIX = [-14.0, -10.0, -6.0, -2.0]


def test_midpoints_fixtures():
    np.testing.assert_allclose(midpoints(4), [0.125, 0.375, 0.625, 0.875],
                               rtol=0, atol=1e-12)
    np.testing.assert_allclose(midpoints(1), [0.5], rtol=0, atol=1e-12)
    np.testing.assert_allclose(midpoints(2), [0.25, 0.75], rtol=0, atol=1e-12)


@pytest.mark.parametrize("n", range(1, 65))
def test_midpoints_increasing_and_symmetric(n):
    taus = midpoints(n)
    assert np.all(np.diff(taus) > 0)
    np.testing.assert_allclose(taus + taus[::-1], np.ones(n), atol=1e-12)
    assert taus[0] > 0 and taus[-1] < 1


@pytest.mark.parametrize("bad", [0, -1, 2.5, True])
def test_midpoints_bad_n(bad):
    with pytest.raises(BadN):
        midpoints(bad)


def test_moment_fixtures():
    # hand expansion: mean -32/4, deviations (-6,-2,2,6), squares sum 336
    assert mean(FIX) == pytest.approx(-8.0, abs=1e-12)
    assert variance(FIX) == pytest.approx(20.0, abs=1e-12)
    assert mean([3.0] * 4) == 3.0
    assert variance([3.0] * 4) == 0.0
    assert mean([0.0] * 4) == variance([0.0] * 4) == 0.0


def test_variance_decomposition_property():
    rng = np.random.default_rng(7)
    for _ in range(200):
        d = rng.normal(scale=rng.uniform(0.1, 30), size=rng.integers(1, 12))
        lhs = variance(d)
        rhs = np.mean(np.square(d)) - mean(d) ** 2
        assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-9)


def test_invalid_distributions():
    for bad in ([], [[1.0, 2.0]], [np.nan], [np.inf]):
        with pytest.raises(ValueError):
            mean(bad)


def test_quantile_huber_fixtures():
    assert quantile_huber(0.0, 0.3, 1.0) == 0.0
    assert quantile_huber(1.0, 0.5, 1.0) == pytest.approx(0.25, abs=1e-12)
    assert quantile_huber(-2.0, 0.25, 1.0) == pytest.approx(1.125, abs=1e-12)


def test_quantile_huber_branch_continuity():
    rng = np.random.default_rng(11)
    for _ in range(200):
        tau = rng.uniform(0.01, 0.99)
        kappa = rng.uniform(0.1, 3.0)
        for u in (kappa, -kappa):
            quad = abs(tau - (u < 0)) * 0.5 * u * u / kappa
            lin = abs(tau - (u < 0)) * (abs(u) - 0.5 * kappa)
            assert quad == pytest.approx(lin, abs=1e-12)
            assert quantile_huber(u, tau, kappa) == pytest.approx(quad, abs=1e-12)


def test_quantile_huber_nonnegative_zero_iff_zero():
    rng = np.random.default_rng(3)
    u = rng.normal(scale=4, size=1000)
    tau = rng.uniform(0.01, 0.99, size=1000)
    vals = quantile_huber(u, tau, 1.0)
    assert np.all(vals >= 0)
    assert np.all(vals[np.abs(u) > 1e-12] > 0)
    assert quantile_huber(0.0, 0.7, 2.0) == 0.0


def test_quantile_huber_validation():
    with pytest.raises(ValueError):
        quantile_huber(1.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        quantile_huber(1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        quantile_huber(1.0, 0.5, 0.0)


def test_grad_fixtures():
    assert quantile_huber_grad(0.0, 0.25, 1.0) == 0.0
    assert quantile_huber_grad(0.5, 0.5, 1.0) == pytest.approx(0.25, abs=1e-12)
    # linear branch: |0.25 - 0| * sign(2)
    assert quantile_huber_grad(2.0, 0.25, 1.0) == pytest.approx(0.25, abs=1e-12)


def test_grad_matches_finite_difference_fixture():
    h = 1e-6
    fd = (quantile_huber(2.0 + h, 0.25, 1.0)
          - quantile_huber(2.0 - h, 0.25, 1.0)) / (2 * h)
    assert quantile_huber_grad(2.0, 0.25, 1.0) == pytest.approx(fd, abs=1e-6)


def test_grad_matches_finite_difference_random():
    rng = np.random.default_rng(17)
    count = 0
    while count < 10_000:
        u = rng.normal(scale=3)
        tau = rng.uniform(0.02, 0.98)
        kappa = rng.uniform(0.1, 3.0)
        if abs(u) < 1e-4 or abs(abs(u) - kappa) < 1e-3:
            continue   # second derivative jumps at 0 and +-kappa
        h = 1e-6
        fd = (quantile_huber(u + h, tau, kappa)
              - quantile_huber(u - h, tau, kappa)) / (2 * h)
        assert quantile_huber_grad(u, tau, kappa) == pytest.approx(fd, abs=1e-6)
        count += 1


def test_huber_terms_matches_public_functions():
    rng = np.random.default_rng(5)
    u = rng.normal(scale=5, size=(64, 4, 4))
    taus = midpoints(4).reshape(1, -1, 1)
    loss, grad = huber_terms(u, taus, 0.7)
    np.testing.assert_array_equal(loss, quantile_huber(u, taus, 0.7))
    np.testing.assert_array_equal(grad, quantile_huber_grad(u, taus, 0.7))


def test_ssd_fixtures():
    a = [0.0, 0.0, 0.0, 0.0]
    b = [-2.0, -1.0, 1.0, 2.0]
    assert ssd_dominates(a, b)          # equal means, a less disperse
    assert not ssd_dominates(b, a)
    assert ssd_dominates([1.0] * 4, [0.0] * 4)   # pointwise larger
    assert not ssd_dominates([0.0] * 4, [1.0] * 4)


def test_ssd_reflexive():
    rng = np.random.default_rng(23)
    for _ in range(50):
        d = rng.uniform(-20, 0, size=rng.integers(1, 9))
        assert ssd_dominates(d, d)


def test_ssd_mixed_atom_counts():
    assert ssd_dominates([0.0], [-1.0, 1.0])
    assert not ssd_dominates([-1.0, 1.0], [0.0])


def test_ssd_integrated_cdf_closed_form():
    # E[(z - X)+] for the four-atom fixture at hand-picked z
    d = [-2.0, -1.0, 1.0, 2.0]
    np.testing.assert_allclose(integrated_cdf(d, np.array([-2.0, 0.0, 3.0])),
                               [0.0, 0.75, 3.0], atol=1e-12)


def test_ssd_transitive_on_random_triples():
    rng = np.random.default_rng(29)
    found = 0
    while found < 300:
        a = rng.uniform(-20, 0, size=rng.integers(1, 9))
        b = rng.uniform(-20, 0, size=rng.integers(1, 9))
        c = rng.uniform(-20, 0, size=rng.integers(1, 9))
        if ssd_dominates(a, b) and ssd_dominates(b, c):
            assert ssd_dominates(a, c)
            found += 1


def test_pointwise_dominance_implies_ssd():
    rng = np.random.default_rng(31)
    for _ in range(300):
        n = rng.integers(1, 9)
        b = np.sort(rng.uniform(-20, 0, size=n))
        a = b + rng.uniform(0, 5, size=n)
        assert ssd_dominates(a, b)


def test_cvar_fixtures():
    assert cvar(FIX, 0.5) == pytest.approx(-12.0, abs=1e-12)
    assert cvar(FIX, 1.0) == pytest.approx(mean(FIX), abs=1e-12)
    assert cvar([4.0] * 6, 0.3) == 4.0
    # unsorted input is sorted internally
    assert cvar([-2.0, -14.0, -6.0, -10.0], 0.5) == pytest.approx(-12.0)
    assert cvar(FIX, 0.25) == -14.0


@pytest.mark.parametrize("bad", [0.0, -0.5, 1.5, "x", None])
def test_cvar_bad_alpha(bad):
    with pytest.raises(BadAlpha):
        cvar(FIX, bad)
