"""Stable-law sampler, closed forms, and the sum/difference algebra."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import erfcinv

from persistwalk import exponent, stable
from persistwalk.errors import NonPositiveArgument, OutOfRange
from persistwalk.rng import RandomStream

LEVY_MEDIAN = 0.5 / erfcinv(0.5) ** 2  # 2.1981...


def ks_distance(draws: np.ndarray) -> float:
    z = np.sort(draws)
    n = len(z)
    cdf = stable.levy_cdf(z)
    grid = np.arange(1, n + 1) / n
    return float(max(np.max(cdf - grid + 1.0 / n), np.max(grid - cdf)))


def test_params_validation():
    stable.StableParams(kappa=1.0, scale=0.25)
    stable.StableParams(kappa=-1.0)
    with pytest.raises(OutOfRange):
        stable.StableParams(kappa=1.0001)
    for scale in (0.0, math.inf, math.nan):
        with pytest.raises(OutOfRange):
            stable.StableParams(kappa=0.0, scale=scale)
    with pytest.raises(OutOfRange):
        stable.negativity_probability(-1.5)
    # a block size follows the package's size rule, before any draw; 2.5
    # used to end in TypeError
    four = stable.sample_standard_block(0.3, RandomStream(314, 0), 4)
    for n in (4.0, np.int64(4), Fraction(4)):
        np.testing.assert_array_equal(
            stable.sample_standard_block(0.3, RandomStream(314, 0), n), four)
    for n in (None, "10", 2.5, 0, -1, math.nan, math.inf):
        s = RandomStream(314, 0)
        with pytest.raises(OutOfRange, match="n="):
            stable.sample_standard_block(0.3, s, n)
        assert s.position == 0


def test_cms_transform_hand_point():
    # kappa=1, Phi=0, W=1: phi0=-pi/2, sin(pi/4)cos(-pi/4) = 1/2
    assert abs(stable.cms_transform(0.0, 1.0, 1.0, printed_form=True) - 0.5) < 1e-15
    assert abs(stable.cms_transform(0.0, 1.0, 1.0) - 1.0) < 1e-15


@given(st.floats(-1.5, 1.5), st.floats(0.05, 20.0),
       st.floats(-1.0, 1.0))
@settings(max_examples=100)
def test_cms_corrected_is_fixed_multiple_of_printed(phi_frac, w, kappa):
    phi = 0.5 * math.pi * 0.98 * phi_frac / 1.5
    printed = stable.cms_transform(phi, w, kappa, printed_form=True)
    corrected = stable.cms_transform(phi, w, kappa)
    assert corrected == pytest.approx((1.0 + kappa * kappa) * printed, rel=1e-12)


def test_sample_standard_consumes_two_positions():
    s = RandomStream(301, 0)
    stable.sample_standard(0.3, s)
    assert s.position == 2
    stable.sample_standard(0.3, s)
    assert s.position == 4


def test_block_matches_scalar_draws():
    block = stable.sample_standard_block(-0.4, RandomStream(302, 1), 64)
    s = RandomStream(302, 1)
    singles = [stable.sample_standard(-0.4, s) for _ in range(64)]
    np.testing.assert_allclose(block, singles, rtol=1e-12)


def test_one_sided_draws_are_positive():
    z = stable.sample_standard_block(1.0, RandomStream(303, 0), 10_000)
    assert np.all(z > 0)
    z = stable.sample_standard_block(-1.0, RandomStream(303, 1), 10_000)
    assert np.all(z < 0)


def test_sign_fractions_match_closed_form():
    n = 200_000
    for i, kappa in enumerate((-1 / 3, 0.0, 1 / 3)):
        z = stable.sample_standard_block(kappa, RandomStream(304, i), n)
        p = stable.negativity_probability(kappa)
        sigma = math.sqrt(p * (1 - p) / n)
        assert abs(np.mean(z < 0) - p) <= 3 * sigma


def test_corrected_form_matches_levy_cdf_printed_does_not():
    # The as-printed transform comes out a factor (1+kappa^2) small; against
    # the one-sided alpha=1/2 CDF that is a gross, unmistakable misfit, while
    # the corrected draws pass a tight goodness-of-fit bound.
    n = 100_000
    good = stable.sample_standard_block(1.0, RandomStream(305, 0), n)
    bad = stable.sample_standard_block(1.0, RandomStream(305, 0), n,
                                       printed_form=True)
    assert ks_distance(good) < 0.01
    assert ks_distance(bad) > 0.10


def test_levy_pdf_cdf_consistency():
    assert stable.levy_pdf(1.0) == pytest.approx(
        math.exp(-0.5) / math.sqrt(2 * math.pi), abs=1e-12)
    # cdf is the integral of pdf ...
    for hi in (0.5, 2.0, 30.0):
        val, err = quad(stable.levy_pdf, 1e-9, hi)
        assert val == pytest.approx(stable.levy_cdf(hi), abs=1e-8)
    # ... and normalizes over (0, inf); the tail above 10^6 still carries
    # mass ~8e-4, so the cutoff must genuinely be infinite here
    total, _ = quad(stable.levy_pdf, 1e-9, np.inf, limit=200)
    assert total == pytest.approx(1.0, abs=1e-6)
    assert 1.0 - stable.levy_cdf(1e6) == pytest.approx(7.98e-4, rel=1e-2)
    with pytest.raises(NonPositiveArgument):
        stable.levy_pdf(0.0)
    with pytest.raises(NonPositiveArgument):
        stable.levy_cdf(-1.0)


def test_levy_median_closed_form():
    z = stable.sample_standard_block(1.0, RandomStream(306, 0), 200_000)
    assert float(np.median(z)) == pytest.approx(LEVY_MEDIAN, abs=0.05)


def test_negativity_probability_endpoints_and_monotone():
    assert stable.negativity_probability(0.0) == pytest.approx(0.5, abs=1e-15)
    assert stable.negativity_probability(1.0) == pytest.approx(0.0, abs=1e-15)
    assert stable.negativity_probability(-1.0) == pytest.approx(1.0, abs=1e-15)
    grid = np.linspace(-1, 1, 201)
    vals = [stable.negativity_probability(k) for k in grid]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert stable.negativity_probability(-1 / 3) == pytest.approx(0.704833,
                                                                  abs=1e-6)


def test_negativity_matches_persistence_exponent():
    # phi(x, b) is exactly the negativity probability at kappa(x, b)
    for x, b in ((0.0, 1.0), (0.6, 1.0), (0.25, 1.3), (0.9, 0.7)):
        assert exponent.phi(x, b) == pytest.approx(
            stable.negativity_probability(exponent.kappa_of(x, b)), abs=1e-14)
    assert exponent.kappa_of(0.6, 1.0) == pytest.approx(-1 / 3, abs=1e-14)


def test_scaled_sampling_is_square_of_scale():
    params = stable.StableParams(kappa=1.0, scale=2.0)
    scaled = stable.sample_block(params, RandomStream(307, 0), 1000)
    standard = stable.sample_standard_block(1.0, RandomStream(307, 0), 1000)
    np.testing.assert_allclose(scaled, 4.0 * standard, rtol=1e-12)
    one = stable.sample(stable.StableParams(kappa=0.5), RandomStream(307, 1))
    assert one == stable.sample_standard(0.5, RandomStream(307, 1))


def test_combine_sum_coefficient_algebra():
    assert stable.combine_sum(1.0, 1.0) == stable.StableParams(1.0, 4.0)
    assert stable.combine_sum(1.0, 4.0).scale == pytest.approx(9.0, abs=1e-12)
    # output is itself a coefficient on a standard draw, so it nests
    nested = stable.combine_sum(stable.combine_sum(1.0, 1.0).scale, 1.0)
    assert nested.scale == pytest.approx(9.0, abs=1e-12)
    with pytest.raises(OutOfRange):
        stable.combine_sum(0.0, 1.0)


def test_combine_difference_kappa_and_scale():
    sym = stable.combine_difference(2.5, 2.5)
    assert sym.kappa == pytest.approx(0.0, abs=1e-15)
    d = stable.combine_difference(0.4, 1.6)
    assert d.kappa == pytest.approx(-1 / 3, abs=1e-14)
    assert d.scale == pytest.approx(3.6, abs=1e-12)
    with pytest.raises(OutOfRange):
        stable.combine_difference(1.0, -1.0)


def test_stability_closure_sum_of_two():
    # Z1 + Z2 for standard one-sided draws is the one-sided law rescaled by
    # combine_sum(1,1).scale = 4 (coefficient on a standard draw)
    n = 1_000_000
    z1 = stable.sample_standard_block(1.0, RandomStream(308, 0), n)
    z2 = stable.sample_standard_block(1.0, RandomStream(308, 1), n)
    coeff = stable.combine_sum(1.0, 1.0).scale
    assert ks_distance((z1 + z2) / coeff) < 0.005


def test_difference_sign_fraction():
    # 0.4*Z1 - 1.6*Z2 has kappa = -1/3; its negativity probability is checked
    # by direct simulation
    n = 400_000
    z1 = stable.sample_standard_block(1.0, RandomStream(309, 0), n)
    z2 = stable.sample_standard_block(1.0, RandomStream(309, 1), n)
    diff = 0.4 * z1 - 1.6 * z2
    p = stable.negativity_probability(stable.combine_difference(0.4, 1.6).kappa)
    sigma = math.sqrt(p * (1 - p) / n)
    assert abs(np.mean(diff < 0) - p) <= 3 * sigma


def test_empirical_characteristic_function():
    # mean of exp(itZ) over draws from Z_[kappa, c] vs the closed form; the
    # combine_* coefficient convention enters as c = sqrt(scale)
    n = 400_000
    cases = [
        (stable.StableParams(1.0, 1.0), None),
        (stable.StableParams(-1 / 3, 1.0), None),
        (stable.StableParams(0.5, 0.7), None),
    ]
    for i, (params, _) in enumerate(cases):
        z = stable.sample_block(params, RandomStream(310, i), n)
        for t in (0.5, 1.0, 2.0):
            emp = np.exp(1j * t * z).mean()
            ref = stable.characteristic_function(t, params.kappa, params.scale)
            assert abs(emp - complex(ref)) < 0.01


def test_characteristic_function_of_combined_difference():
    # empirical ch.f. of a*Z1 - b*Z2 against the combined parameters
    n = 400_000
    z1 = stable.sample_standard_block(1.0, RandomStream(311, 0), n)
    z2 = stable.sample_standard_block(1.0, RandomStream(311, 1), n)
    a, b = 0.4, 1.6
    d = stable.combine_difference(a, b)
    for t in (0.5, 1.0, 2.0):
        emp = np.exp(1j * t * (a * z1 - b * z2)).mean()
        ref = stable.characteristic_function(t, d.kappa, math.sqrt(d.scale))
        assert abs(emp - complex(ref)) < 0.01


def test_characteristic_function_symmetries():
    t = np.array([0.25, 1.0, 4.0])
    vals = stable.characteristic_function(t, 0.0, 1.3)
    assert np.allclose(vals.imag, 0.0)
    assert np.allclose(np.abs(stable.characteristic_function(t, 0.8, 2.0)),
                       np.exp(-2.0 * np.sqrt(t)))
    conj = stable.characteristic_function(-t, 0.8, 2.0)
    assert np.allclose(conj, np.conj(stable.characteristic_function(t, 0.8, 2.0)))


def test_sampling_determinism():
    a = stable.sample_standard_block(0.2, RandomStream(312, 7), 50)
    b = stable.sample_standard_block(0.2, RandomStream(312, 7), 50)
    np.testing.assert_array_equal(a, b)
    c = stable.sample_standard_block(0.2, RandomStream(313, 7), 50)
    assert not np.array_equal(a, c)
