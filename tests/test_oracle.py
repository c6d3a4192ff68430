"""Exact-DP ground truth: pinned rationals, brute-force mirrors, brackets."""

import math
from fractions import Fraction as F
from itertools import product

import numpy as np
import pytest

from persistwalk import increments, oracle
from persistwalk.errors import CapExceeded, OutOfDomain, OutOfRange

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


def reference_exact_atilde(dist, x, t, mode="strict"):
    """The dict DP over (position, carried sign, sign-sum) that the packed
    kernel replaced, kept as the reference it must match."""
    x = F(x)
    p, q = x.numerator, x.denominator
    r = 0 if mode == "strict" else 1
    atoms, denom = oracle._weights(dist)
    states = {(0, 1, 0): 1}
    dead = 0
    for s in range(1, t + 1):
        nxt = {}
        dead_mass = 0
        worst = (p * s - r) // q
        for (pos, sign, g), m in states.items():
            for v, w in atoms:
                npos = pos + v
                nsign = 1 if npos > 0 else (-1 if npos < 0 else sign)
                ng = g + nsign
                if ng <= worst:
                    dead_mass += m * w
                else:
                    key = (npos, nsign, ng)
                    nxt[key] = nxt.get(key, 0) + m * w
        states = nxt
        dead = dead * denom + dead_mass
        assert sum(states.values()) + dead == denom ** s
    return F(sum(states.values()), denom ** t)


def reference_exact_a(dist, x, k, t_cap, mode="weak"):
    """The dict DP over (position, carried sign, sign-sum, crossings) that
    the packed kernel replaced, kept as the reference it must match."""
    x = F(x)
    p, q = x.numerator, x.denominator
    r = 0 if mode == "strict" else 1
    atoms, denom = oracle._weights(dist)
    target = 2 * k
    states = {(0, 1, 0, 0): 1}
    success = dead = 0
    for s in range(1, t_cap + 1):
        nxt = {}
        dead_mass = success_mass = 0
        worst = (p * s - r) // q
        for (pos, sign, g, c), m in states.items():
            for v, w in atoms:
                npos = pos + v
                nsign = 1 if npos > 0 else (-1 if npos < 0 else sign)
                nc = c + (1 if (nsign != sign and s >= 2) else 0)
                if nc >= target:
                    success_mass += m * w
                    continue
                ng = g + nsign
                if ng <= worst:
                    dead_mass += m * w
                else:
                    key = (npos, nsign, ng, nc)
                    nxt[key] = nxt.get(key, 0) + m * w
        states = nxt
        success = success * denom + success_mass
        dead = dead * denom + dead_mass
        assert sum(states.values()) + dead + success == denom ** s
    alive = sum(states.values())
    total = denom ** t_cap
    return F(success, total), F(success + alive, total)


BIG = 2 ** 40
REFERENCE_WALKS = {
    "simple": SIMPLE,
    "unit-up:-2": increments.parse_dist_spec("unit-up:-2"),
    "unit-up:-2,-3": increments.parse_dist_spec("unit-up:-2,-3"),
    "tg:1/2,3": TG,
    "lazy": increments.validate([(1, F(1, 4)), (0, F(1, 2)), (-1, F(1, 4))],
                                name="lazy"),
    "+3/-1": increments.validate([(3, F(1, 4)), (-1, F(3, 4))], name="+3/-1"),
    "+-2": increments.validate([(2, F(1, 2)), (-2, F(1, 2))], name="+-2"),
    "+6/-1": increments.validate([(6, F(1, 7)), (-1, F(6, 7))], name="+6/-1"),
    # one atom far out: rows must stay sparse over positions
    "2^40": increments.validate([(BIG, F(1, BIG + 3)), (1, F(1, BIG + 3)),
                                 (-1, F(BIG + 1, BIG + 3))], name="2^40"),
}


@pytest.mark.parametrize("name", list(REFERENCE_WALKS))
def test_packed_kernel_matches_reference_dp(name):
    dist = REFERENCE_WALKS[name]
    for x in (0, F(1, 4), F(1, 3), F(1, 2), F(3, 4)):
        for mode in ("strict", "weak"):
            for t in (1, 2, 3, 7, 20, 33):
                assert oracle.exact_atilde(dist, x, t, mode=mode) == \
                    reference_exact_atilde(dist, x, t, mode), (x, mode, t)
            for k in (1, 2, 3):
                for t_cap in (1, 2, 9, 30):
                    assert oracle.exact_a(dist, x, k, t_cap, mode=mode) == \
                        reference_exact_a(dist, x, k, t_cap, mode), \
                        (x, mode, k, t_cap)


def test_mass_leak_is_caught_at_the_first_layer(monkeypatch):
    # weights summing to D - 1 lose mass on every step; a slot carry would
    # change the slot-sums the same way
    weights = oracle._weights

    def leaky(dist):
        atoms, denom = weights(dist)
        (v, w), rest = atoms[0], atoms[1:]
        return [(v, w - 1)] + rest, denom

    monkeypatch.setattr(oracle, "_weights", leaky)
    with pytest.raises(AssertionError, match="mass leak at layer 1$"):
        oracle.exact_atilde(SIMPLE, 0, 5)
    with pytest.raises(AssertionError, match="mass leak at layer 1$"):
        oracle.exact_a(TG, F(1, 2), 1, 5)


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


# sizes the package-wide size rule refuses, and whole numbers of other types
# it accepts as the int 4
BAD_SIZES = (None, "10", 2.5, 0, math.nan, math.inf)
WHOLE_FOURS = (4.0, np.int64(4), F(4))


def test_atilde_domain_and_cap(monkeypatch):
    with pytest.raises(OutOfDomain):
        oracle.exact_atilde(SIMPLE, 1, 5)
    with pytest.raises(OutOfDomain):
        oracle.exact_atilde(SIMPLE, F(-1, 4), 5)
    with pytest.raises(OutOfRange):
        oracle.exact_atilde(SIMPLE, 0, 0)
    with pytest.raises(CapExceeded):
        oracle.exact_atilde(SIMPLE, 0, 21, cap=20)
    for v in WHOLE_FOURS:
        assert oracle.exact_atilde(SIMPLE, 0, v) == F(3, 8)
        assert oracle.exact_atilde(SIMPLE, 0, 4, cap=v) == F(3, 8)
    # every size is refused before the first DP layer
    monkeypatch.setattr(oracle, "_forward", None)
    for t in (-3, "4", *BAD_SIZES):
        with pytest.raises(OutOfRange, match="t="):
            oracle.exact_atilde(SIMPLE, 0, t)
    for cap in BAD_SIZES:
        with pytest.raises(OutOfRange, match="cap="):
            oracle.exact_atilde(SIMPLE, 0, 4, cap=cap)


def test_a_bracket_matches_brute_enumeration():
    for k, x, mode in ((1, 0, "weak"), (2, 0, "weak"), (1, F(1, 2), "weak"),
                       (1, F(1, 2), "strict")):
        dp = oracle.exact_a(SIMPLE, x, k, 9, mode=mode)
        assert dp == brute_a_bracket(x, k, 9, mode=mode)


def test_a_bracket_pinned_values():
    assert oracle.exact_a(SIMPLE, 0, 0, 5) == (F(1), F(1))
    assert oracle.exact_a(SIMPLE, 0, 1, 9) == (F(33, 512), F(47, 128))
    assert oracle.exact_a(SIMPLE, 0, 2, 9) == (F(1, 512), F(185, 512))


# values of the DP that tested q·G against p·s state by state and summed
# Fractions per layer; one integer threshold per layer and integer mass
# bookkeeping must return the same rationals
UNIT_UP = increments.preset("unit-up", negatives=[-2])
DP_PINNED = {
    ("unit-up", "strict"): ("88966207875842048/450283905890997363",
                            "296181243904/22876792454961",
                            "4979501768704/22876792454961"),
    ("unit-up", "weak"): ("2615354763543052288/12157665459056928801",
                          "524013435392/22876792454961",
                          "5542972652032/22876792454961"),
    ("tg", "strict"): (
        "1371375664232991277832442978525660370654789000981/"
        "9028751479390699717312017900815782025058563653632",
        "329175451702445292732454509658152007/"
        "22758579803951670177896857389143949312",
        "7630994906251274472343792573441110793/"
        "45517159607903340355793714778287898624"),
    ("tg", "weak"): (
        "13076448792760081707573313838446059982137685256015/"
        "81258763314516297455808161107342038225527072882688",
        "443193117722610490543760704255693987/"
        "22758579803951670177896857389143949312",
        "12743700240138386485509185480756665/"
        "70242530259110093141656967250444288"),
}


@pytest.mark.parametrize("name,dist", [("unit-up", UNIT_UP), ("tg", TG)])
@pytest.mark.parametrize("mode", ["strict", "weak"])
def test_dp_values_pinned(name, dist, mode):
    atilde, lo, hi = (F(v) for v in DP_PINNED[name, mode])
    assert oracle.exact_atilde(dist, F(1, 3), 40, mode=mode) == atilde
    assert oracle.exact_a(dist, F(1, 3), 2, 30, mode=mode) == (lo, hi)


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


def test_a_domain_and_cap(monkeypatch):
    with pytest.raises(OutOfDomain):
        oracle.exact_a(SIMPLE, 1, 1, 10)
    with pytest.raises(OutOfRange):
        oracle.exact_a(SIMPLE, 0, -1, 10)
    with pytest.raises(CapExceeded):
        oracle.exact_a(SIMPLE, 0, 1, 300, cap=200)
    four = oracle.exact_a(SIMPLE, 0, 4, 9)
    for v in WHOLE_FOURS:
        assert oracle.exact_a(SIMPLE, 0, v, 9) == four
        assert oracle.exact_a(SIMPLE, 0, 1, v) == oracle.exact_a(SIMPLE, 0, 1, 4)
        assert oracle.exact_a(SIMPLE, 0, 1, 4, cap=v) == oracle.exact_a(SIMPLE, 0, 1, 4)
    for zero in (0.0, np.int64(0), F(0)):
        assert oracle.exact_a(SIMPLE, 0, zero, 9) == (F(1), F(1))
    # every size is refused before the first DP layer; a horizon below one
    # step, or not an integer, used to escape as UnboundLocalError or TypeError
    monkeypatch.setattr(oracle, "_forward", None)
    for k in (0, 1):
        for t_cap in (-2, *BAD_SIZES):
            with pytest.raises(OutOfRange, match="t_cap="):
                oracle.exact_a(SIMPLE, 0, k, t_cap)
    for k in (1.5, -1, *(v for v in BAD_SIZES if v != 0)):
        with pytest.raises(OutOfRange, match="k="):
            oracle.exact_a(SIMPLE, 0, k, 9)
    for cap in BAD_SIZES:
        with pytest.raises(OutOfRange, match="cap="):
            oracle.exact_a(SIMPLE, 0, 1, 9, cap=cap)


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
    # the two events the oracle-dp command dispatches to, at its defaults:
    # strict mode for the time event, weak mode and t_cap = t for the bracket
    simple = increments.parse_dist_spec("simple")
    tg = increments.parse_dist_spec("tg:1/2,3")
    assert oracle.exact_atilde(simple, 0, 4, mode="strict") == F(3, 8)
    assert oracle.exact_atilde(tg, F(1, 2), 6, mode="strict") == \
        F(2894435, 11337408)
    lo, hi = oracle.exact_a(simple, 0, 1, 9, mode="weak")
    assert (lo, hi) == (F(33, 512), F(47, 128))
