"""Exact-DP ground truth: pinned rationals, brute-force mirrors, brackets."""

from fractions import Fraction as F
from itertools import product

import numpy as np
import pytest

from persistwalk import increments, oracle
from persistwalk.errors import CapExceeded, OutOfDomain

SIMPLE = increments.preset("simple")
TG = increments.preset("truncated-geometric", p=F(1, 2), cutoff=3)


def _signs_with_carry(path):
    signs = np.sign(path).astype(np.int64)
    for i in range(1, len(signs)):
        if signs[i] == 0:
            signs[i] = signs[i - 1]
    signs[0] = 1
    return signs


def brute_atilde(dist, x, t, mode):
    """Exhaustive weighted enumeration of all atom sequences of length t."""
    x = F(x)
    p, q = x.numerator, x.denominator
    strict = mode == "strict"
    total = F(0)
    for seq in product(dist.atoms, repeat=t):
        w = F(1)
        pos, sign, g = 0, 1, 0
        ok = True
        for s, (v, pw) in enumerate(seq, start=1):
            w *= pw
            pos += v
            sign = 1 if pos > 0 else (-1 if pos < 0 else sign)
            g += sign
            if (q * g <= p * s) if strict else (q * g < p * s):
                ok = False
                break
        if ok:
            total += w
    return total


def brute_a_bracket(x, k, t_cap, mode="weak"):
    """(lower, upper) over all +-1 paths: lower counts paths whose 2k-th
    sign change happens inside the horizon with the barrier intact up to it;
    the upper bound adds paths still undecided at the horizon."""
    x = F(x)
    p, q = x.numerator, x.denominator
    strict = mode == "strict"
    lo = F(0)
    und = F(0)
    w = F(1, 2 ** t_cap)
    for bits in product((-1, 1), repeat=t_cap):
        path = np.concatenate([[0], np.cumsum(bits)])
        signs = _signs_with_carry(path)
        g = np.cumsum(signs[1:])
        svec = np.arange(1, t_cap + 1)
        viol = (q * g <= p * svec) if strict else (q * g < p * svec)
        first_viol = int(np.argmax(viol)) + 1 if viol.any() else t_cap + 1
        # sign-change times: last index of each stretch
        flips = np.flatnonzero(signs[1:-1] * signs[2:] == -1) + 1
        if len(flips) >= 2 * k:
            if first_viol > int(flips[2 * k - 1]):
                lo += w
        elif first_viol > t_cap:
            und += w
    return lo, lo + und


def test_atilde_simple_walk_small_t():
    # strict barrier at x=0 just requires the sign-sum to stay positive;
    # the first possible failure is the fourth step (three up-signs banked)
    got = [oracle.exact_atilde(SIMPLE, 0, t) for t in (1, 2, 3, 4)]
    assert got == [F(1, 2), F(1, 2), F(1, 2), F(3, 8)]


def test_atilde_matches_brute_enumeration():
    for x, mode in ((0, "strict"), (0, "weak"), (F(1, 2), "strict"),
                    (F(1, 3), "weak")):
        dp = oracle.exact_atilde(SIMPLE, x, 8, mode=mode)
        assert dp == brute_atilde(SIMPLE, x, 8, mode)
    for mode in ("strict", "weak"):
        dp = oracle.exact_atilde(TG, F(1, 2), 5, mode=mode)
        assert dp == brute_atilde(TG, F(1, 2), 5, mode)


def test_atilde_pinned_rationals():
    # regression pins; the t=6 values were cross-checked against full
    # 4^6-sequence enumeration when first recorded
    assert oracle.exact_atilde(TG, 0, 1) == F(7, 18)
    assert oracle.exact_atilde(TG, F(1, 2), 6, mode="strict") == \
        F(2894435, 11337408)
    assert oracle.exact_atilde(TG, F(1, 2), 6, mode="weak") == \
        F(2942351, 11337408)


def test_atilde_zero_atom_uses_carried_sign():
    # a lazy step keeps the previous sign, and time 0 counts as positive
    lazy = increments.validate([(1, F(1, 4)), (0, F(1, 2)), (-1, F(1, 4))],
                               name="lazy")
    assert oracle.exact_atilde(lazy, 0, 1) == F(3, 4)
    assert oracle.exact_atilde(lazy, 0, 2) == brute_atilde(lazy, 0, 2, "strict")


def test_atilde_monotone_in_t_x_and_mode():
    vals = [oracle.exact_atilde(SIMPLE, F(1, 2), t) for t in range(1, 11)]
    assert all(a >= b for a, b in zip(vals, vals[1:]))
    by_x = [oracle.exact_atilde(SIMPLE, x, 8) for x in
            (0, F(1, 4), F(1, 2), F(3, 4))]
    assert all(a >= b for a, b in zip(by_x, by_x[1:]))
    # weak admits ties the strict event rejects
    assert oracle.exact_atilde(TG, F(1, 2), 6, mode="weak") > \
        oracle.exact_atilde(TG, F(1, 2), 6, mode="strict")


def test_atilde_domain_and_cap():
    with pytest.raises(OutOfDomain):
        oracle.exact_atilde(SIMPLE, 1, 5)
    with pytest.raises(OutOfDomain):
        oracle.exact_atilde(SIMPLE, F(-1, 4), 5)
    with pytest.raises(OutOfDomain):
        oracle.exact_atilde(SIMPLE, 0, 0)
    with pytest.raises(CapExceeded):
        oracle.exact_atilde(SIMPLE, 0, 21, cap=20)


def test_a_bracket_matches_brute_enumeration():
    for k, x, mode in ((1, 0, "weak"), (2, 0, "weak"), (1, F(1, 2), "weak"),
                       (1, F(1, 2), "strict")):
        dp = oracle.exact_a(SIMPLE, x, k, 9, mode=mode)
        assert dp == brute_a_bracket(x, k, 9, mode=mode)


def test_a_bracket_pinned_values():
    assert oracle.exact_a(SIMPLE, 0, 0, 5) == (F(1), F(1))
    assert oracle.exact_a(SIMPLE, 0, 1, 9) == (F(33, 512), F(47, 128))
    assert oracle.exact_a(SIMPLE, 0, 2, 9) == (F(1, 512), F(185, 512))


def test_a_brackets_nest_as_the_horizon_grows():
    lo_prev, hi_prev = F(0), F(1)
    for t_cap in (10, 20, 40, 80):
        lo, hi = oracle.exact_a(SIMPLE, 0, 2, t_cap)
        assert lo_prev <= lo < hi <= hi_prev
        lo_prev, hi_prev = lo, hi
    # by t_cap=80 the bracket pins the value to better than 0.16
    assert hi_prev - lo_prev < F(16, 100)


def test_unknown_mode_is_refused():
    with pytest.raises(ValueError, match="mode"):
        oracle.exact_atilde(SIMPLE, 0, 4, mode="Strict")
    for k in (0, 1):
        with pytest.raises(ValueError, match="mode"):
            oracle.exact_a(SIMPLE, 0, k, 8, mode="wek")


def test_a_domain_and_cap():
    with pytest.raises(OutOfDomain):
        oracle.exact_a(SIMPLE, 1, 1, 10)
    with pytest.raises(OutOfDomain):
        oracle.exact_a(SIMPLE, 0, -1, 10)
    with pytest.raises(CapExceeded):
        oracle.exact_a(SIMPLE, 0, 1, 300, cap=200)


def test_equivalence_check_exhaustive():
    rep = oracle.equivalence_check(10)
    assert rep.ok
    assert rep.counterexamples == []
    assert rep.cases_checked == 752
    # barrier ties (q*G_s == p*s) make strict and weak genuinely different
    assert len(rep.mode_sensitive) == 216
    with pytest.raises(CapExceeded):
        oracle.equivalence_check(17)


def test_oracle_dp_value_dispatch():
    assert oracle.oracle_dp_value("simple", 0, 4) == F(3, 8)
    assert oracle.oracle_dp_value("tg:1/2,3", F(1, 2), 6) == \
        F(2894435, 11337408)
    lo, hi = oracle.oracle_dp_value("simple", 0, 9, k=1)
    assert (lo, hi) == (F(33, 512), F(47, 128))
    lo2, hi2 = oracle.oracle_dp_value("simple", 0, 12, k=1, t_cap=9)
    assert (lo2, hi2) == (lo, hi)
