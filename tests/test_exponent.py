"""Closed-form exponent phi(x, b), its inverse, and the b estimators."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from persistwalk import exponent
from persistwalk.errors import InsufficientTail, OutOfDomain, OutOfRange, Unattainable
from persistwalk.increments import preset

SIMPLE = preset("simple")
UNIT_UP = preset("unit-up", negatives=[-2])


def test_phi_special_values():
    assert exponent.phi(0.0, 1.0) == 0.5  # exact in floats
    assert abs(exponent.phi(0.5, 1.0) - 2 / 3) < 5e-16
    assert exponent.phi(0.6, 1.0) == pytest.approx(0.7048327646991335,
                                                   abs=1e-15)
    # x -> 1 pushes the exponent to 1, large b pushes it to 0
    assert exponent.phi(1 - 1e-12, 1.0) > 0.999
    assert exponent.phi(0.0, 1e9) < 1e-6
    assert exponent.phi(0.0, 1e-9) > 1 - 1e-6


def test_phi_two_forms_agree():
    xs = np.linspace(0.0, 0.99, 60)
    bs = np.exp(np.linspace(math.log(0.05), math.log(20.0), 60))
    worst = max(abs(exponent.phi(x, b) - exponent.phi_arctan(x, b))
                for x in xs for b in bs)
    assert worst <= 1e-12


def test_phi_monotone_in_x_and_b():
    xs = np.linspace(0.0, 0.95, 25)
    for b in (0.5, 1.0, 2.0):
        vals = [exponent.phi(x, b) for x in xs]
        assert all(a < c for a, c in zip(vals, vals[1:]))
    bs = np.exp(np.linspace(math.log(0.1), math.log(10.0), 25))
    for x in (0.0, 0.3, 0.8):
        vals = [exponent.phi(x, b) for b in bs]
        assert all(a > c for a, c in zip(vals, vals[1:]))


def test_psi_bar_and_kappa_values():
    assert exponent.psi_bar_of(1.0) == 0.0
    assert exponent.psi_bar_of(2.0) == pytest.approx(0.6, abs=1e-15)
    assert exponent.kappa_of(0.0, 1.0) == 0.0
    for x in (0.0, 0.4, 0.9):
        for b in (0.2, 1.0, 5.0):
            assert -1.0 < exponent.kappa_of(x, b) < 1.0
            assert -1.0 < exponent.psi_bar_of(b) < 1.0


def test_domain_errors():
    for bad_x in (-0.1, 1.0, 1.2):
        with pytest.raises(OutOfDomain):
            exponent.phi(bad_x, 1.0)
    for bad_b in (0.0, -2.0):
        with pytest.raises(OutOfDomain):
            exponent.phi(0.0, bad_b)
        with pytest.raises(OutOfDomain):
            exponent.psi_bar_of(bad_b)
    with pytest.raises(Unattainable):
        exponent.invert_phi(0.0, 0.0)
    with pytest.raises(Unattainable):
        exponent.invert_phi(1.0, 0.0)
    with pytest.raises(OutOfDomain):
        exponent.invert_phi(0.5, 1.0)
    # b = inf and 1e200 gave nan (b² overflows), and None or a string ended
    # in TypeError; b goes through the package's one rule for reals
    for bad_b in (math.inf, 1e200, math.nan, None, "2"):
        for f in (exponent.kappa_of, exponent.phi, exponent.phi_arctan, exponent.model):
            with pytest.raises(OutOfDomain, match="b="):
                f(0.5, bad_b)
        with pytest.raises(OutOfDomain, match="b="):
            exponent.psi_bar_of(bad_b)
    # x goes through the slope rule of the Monte Carlo entry points
    with pytest.raises(OutOfDomain, match="x="):
        exponent.phi(None, 1)
    with pytest.raises(OutOfDomain, match="x="):
        exponent.invert_phi(0.5, None)
    for bad_phi in (None, math.nan, "1/2"):
        with pytest.raises(Unattainable, match="phi="):
            exponent.invert_phi(bad_phi, 0.0)
    # exact and numpy inputs give the float input's value
    for x in (np.float32(0.5), Fraction(1, 2), "1/2"):
        assert exponent.phi(x, np.int64(2)) == exponent.phi(0.5, 2.0)


@given(st.floats(0.0, 0.95), st.floats(math.log(0.05), math.log(20.0)))
@settings(max_examples=300)
def test_invert_phi_round_trip(x, log_b):
    b = math.exp(log_b)
    assert exponent.invert_phi(exponent.phi(x, b), x) == pytest.approx(
        b, rel=1e-9)


def test_invert_phi_symmetric_point():
    assert exponent.invert_phi(0.5, 0.0) == pytest.approx(1.0, rel=1e-12)
    # at x = 1/2 the simple walk hits 2/3
    assert exponent.invert_phi(2 / 3, 0.5) == pytest.approx(1.0, rel=1e-9)


def test_model_bundle():
    m = exponent.model(0.25, 1.5)
    assert m.kappa == exponent.kappa_of(0.25, 1.5)
    assert m.psi_bar == exponent.psi_bar_of(1.5)
    assert m.phi == exponent.phi(0.25, 1.5)
    assert (m.x, m.b) == (0.25, 1.5)


def test_estimate_q_converges_to_phi():
    # q(n) = P(W_n < 0) approaches phi(x, 1) with an O(n^-1/2) drift
    q = exponent.estimate_q(SIMPLE, "1/2", 200, 3000, 611)
    assert q.engine == "exact-excursion"
    assert q.decided + q.undecided == q.trials
    assert abs(q.q_hat - exponent.phi(0.5, 1.0)) <= 0.045
    assert 0.005 < q.stderr < 0.02


def test_estimate_q_domain():
    with pytest.raises(OutOfDomain):
        exponent.estimate_q(SIMPLE, 1, 10, 100, 0)
    with pytest.raises(OutOfDomain):
        exponent.estimate_q(SIMPLE, "-1/4", 10, 100, 0)


def test_estimate_b_q_symmetric_walk():
    est = exponent.estimate_b_q(SIMPLE, 0, 100, 4000, 612)
    assert est.method == "q-inversion"
    assert abs(est.b_hat - 1.0) <= 4 * est.stderr
    assert est.stderr < 0.1
    assert est.diagnostics["n_long"] == 400
    # drift between the two horizons is folded into the stderr
    assert est.stderr >= abs(est.diagnostics["drift"])


def test_estimate_b_tail_symmetric_walk():
    est = exponent.estimate_b_tail(SIMPLE, 30_000, 613)
    assert est.method == "tail-ratio"
    assert abs(est.b_hat - 1.0) <= 4 * est.stderr
    assert est.diagnostics["c_plus"] > 0
    assert est.diagnostics["engine"] == "exact-excursion"


def test_estimate_b_tail_insufficient():
    with pytest.raises(InsufficientTail):
        exponent.estimate_b_tail(SIMPLE, 500, 614)
    # a bootstrap resample with no stretch past a grid point ended these in
    # ZeroDivisionError, and (5000, 4) in b̂ 1.0122 with a stderr of 0.1917
    # after a "divide by zero encountered in log" warning
    for n, seed in [(2000, s) for s in range(1, 9)] + [(5000, 1), (5000, 4)]:
        with pytest.raises(InsufficientTail, match=f"n_excursions={n}"):
            exponent.estimate_b_tail(SIMPLE, n, seed)
    # on unit-up -5 excursions failed in numpy ("negative dimensions") and a
    # step cap of -7 collected negative durations; 2.5 excursions ran
    for dist, n, step_cap in ((SIMPLE, 0, 2 ** 22), (UNIT_UP, -5, 2 ** 22),
                              (SIMPLE, 2.5, 2 ** 22), (UNIT_UP, 5000, -7)):
        with pytest.raises(OutOfRange):
            exponent.estimate_b_tail(dist, n, 615, step_cap=step_cap)


def test_estimate_b_dispatch():
    est = exponent.estimate_b(SIMPLE, "tail", 616, n_excursions=30_000)
    assert est.method == "tail-ratio"
    with pytest.raises(ValueError):
        exponent.estimate_b(SIMPLE, "bogus", 617)


def test_estimate_b_refuses_the_other_methods_options():
    # the tail method returned b̂ = 1.0604 here, as if x, trials and n_pairs
    # had not been given
    with pytest.raises(ValueError, match="'tail' takes no x, n_pairs, trials"):
        exponent.estimate_b(SIMPLE, "tail", 1, n_excursions=20000, trials=7,
                            n_pairs=3, x=0.5)
    with pytest.raises(ValueError, match="'q' takes no n_excursions, step_cap"):
        exponent.estimate_b(SIMPLE, "q", 1, n_excursions=20000, step_cap=2 ** 10,
                            trials=7)
