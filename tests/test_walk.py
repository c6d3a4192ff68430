"""Path-level machinery: signs, sign-sums, decomposition, first violation."""

import io
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from persistwalk import durations, walk
from persistwalk.errors import OutOfDomain, OutOfRange
from persistwalk.increments import preset, sample_block
from persistwalk.rng import RandomStream

steps_strategy = st.lists(st.sampled_from([-1, 1]), min_size=1, max_size=40)


def path_of(steps) -> np.ndarray:
    return np.concatenate([[0], np.cumsum(np.asarray(steps, dtype=np.int64))])


def test_sign_process_carries_through_zero():
    # worked example: 0, 1, 0, -1, 0, 1
    path = [0, 1, 0, -1, 0, 1]
    np.testing.assert_array_equal(walk.sign_process(path),
                                  [1, 1, 1, -1, -1, 1])


def test_sign_sum_example():
    np.testing.assert_array_equal(walk.sign_sum([0, 1, 0, -1, 0, 1]),
                                  [0, 1, 2, 1, 0, 1])


def test_sign_process_rejects_bad_start():
    with pytest.raises(ValueError):
        walk.sign_process([1, 2])


def test_decompose_worked_example():
    dec = walk.decompose([0, 1, 0, -1, 0, 1])
    assert dec.crossing_times == [0, 2, 4]
    assert dec.durations == [2, 2]
    assert dec.stretch_signs == [1, -1]
    assert dec.complete_excursions == 1
    assert dec.residual == 1
    assert dec.endpoint_values[1] == (0, -1)


def test_decompose_negative_first_stretch():
    dec = walk.decompose([0, -1, -2, -1, 0, 1])
    assert dec.first_stretch_sign == -1
    # S_4 = 0 carries the minus sign, so the flip is at s = 4
    assert dec.crossing_times[1] == 4


@given(steps_strategy)
@settings(max_examples=200)
def test_decomposition_partitions_time(steps):
    path = path_of(steps)
    dec = walk.decompose(path)
    assert sum(dec.durations) + dec.residual == len(path) - 1
    assert all(t >= 1 for t in dec.durations)


@given(steps_strategy)
@settings(max_examples=200)
def test_signs_constant_within_stretch_and_alternate(steps):
    path = path_of(steps)
    signs = walk.sign_process(path)
    dec = walk.decompose(path)
    times = dec.crossing_times + [len(path) - 1]
    for i, (a, b) in enumerate(zip(times, times[1:])):
        seg = signs[a + 1:b + 1]
        assert len(set(seg.tolist())) <= 1
        if i < len(dec.stretch_signs):
            assert all(v == dec.stretch_signs[i] for v in seg)
    for earlier, later in zip(dec.stretch_signs, dec.stretch_signs[1:]):
        assert earlier == -later


def brute_first_violation(path, x, mode):
    g = 0
    sign = 1
    for s in range(1, len(path)):
        pos = path[s]
        sign = 1 if pos > 0 else (-1 if pos < 0 else sign)
        g += sign
        bad = (x.denominator * g <= x.numerator * s) if mode == "strict" \
            else (x.denominator * g < x.numerator * s)
        if bad:
            return s
    return math.inf


# on the path 0, 1, .., 6 (G_s = s, never at or below x·s for x < 1) the
# int64 products q·G_s and p·s wrapped at s = 2 for the two finest x
FINE_X = (Fraction(1, 2 ** 62), Fraction(2 ** 61, 2 ** 62 + 1))


@given(steps_strategy,
       st.sampled_from([Fraction(0), Fraction(1, 4), Fraction(1, 2),
                        Fraction(2, 3), *FINE_X]),
       st.sampled_from(["strict", "weak"]))
@example([1] * 6, FINE_X[0], "strict")
@example([1] * 6, FINE_X[1], "weak")
@settings(max_examples=300)
def test_first_violation_matches_brute_force(steps, x, mode):
    path = path_of(steps)
    assert walk.first_violation_time(path, x, mode) == \
        brute_first_violation(path, x, mode)


def test_first_violation_rejects_bad_x():
    with pytest.raises(OutOfDomain):
        walk.first_violation_time([0, 1], Fraction(1))


def test_first_violation_rejects_unknown_mode():
    # a misspelt mode used to run the weak barrier silently
    with pytest.raises(ValueError, match="mode"):
        walk.first_violation_time([0, 1, 0], Fraction(0), "Strict")


def test_simulate_path_deterministic():
    d = preset("simple")
    a = walk.simulate_path(d, 100, RandomStream(5, 0))
    b = walk.simulate_path(d, 100, RandomStream(5, 0))
    np.testing.assert_array_equal(a, b)
    assert a[0] == 0
    assert len(a) == 101
    assert set(np.abs(np.diff(a)).tolist()) == {1}
    # horizon 0 is the one-point path; any other horizon follows the
    # package's size rule, before any draw (2.5 used to end in TypeError)
    for zero in (0, 0.0, np.int64(0)):
        np.testing.assert_array_equal(walk.simulate_path(d, zero, RandomStream(5, 0)), [0])
    for h in (100.0, np.int64(100), Fraction(100)):
        np.testing.assert_array_equal(walk.simulate_path(d, h, RandomStream(5, 0)), a)
    for h in (None, "10", 2.5, -1, math.nan, math.inf):
        s = RandomStream(5, 0)
        with pytest.raises(OutOfRange, match="horizon="):
            walk.simulate_path(d, h, s)
        assert s.position == 0


def test_xi_sequence_identity():
    # durations [3, 1, 2, 4] at x = 1/2: xi = (1/2)t+ - (3/2)t-
    # (jumps may exceed 1; only the sign pattern matters here)
    path = [0, 1, 2, 1, -1, 1, 2, -1, -2, -1, -1, 1]
    dec = walk.decompose(path)
    assert dec.durations[:4] == [3, 1, 2, 4]
    xi = walk.xi_sequence(dec, Fraction(1, 2))
    assert xi.values[0] == Fraction(3, 2) - Fraction(3, 2)
    assert xi.values[1] == Fraction(1) - Fraction(6)
    assert xi.partial_sums[1] == xi.values[0] + xi.values[1]


def test_xi_sequence_rejects_negative_start():
    dec = walk.decompose([0, -1, 0, 1, 0, -1])
    with pytest.raises(ValueError):
        walk.xi_sequence(dec, Fraction(0))


def test_write_path_csv():
    buf = io.StringIO()
    walk.write_path_csv([0, 1, 0, -1], buf, header_lines=("hello",))
    lines = buf.getvalue().strip().split("\n")
    assert lines[0] == "# hello"
    assert lines[1] == "step,position,sign,cumulative_sign_sum"
    assert lines[2] == "0,0,1,0"
    assert lines[4] == "2,0,1,2"
    assert lines[5] == "3,-1,-1,1"


def _count_complete_excursions(tau: np.ndarray, horizon: int) -> np.ndarray:
    """N_t per row: pairs of stretches finishing by time `horizon`.

    Crossing s is observable within a path of horizon t only for s <= t-1,
    matching the path-based decomposition below.
    """
    t2 = np.cumsum(tau, axis=1)[:, 1::2]
    return (t2 <= horizon - 1).sum(axis=1)


def test_excursion_count_scaling():
    # Median N_t across 10^4 walks grows like sqrt(t).  A complete excursion
    # is an up stretch plus a down stretch, each stretch two unit passages,
    # so t_{2k} is a Levy(1/2) sum over 4k passage times and
    #   median N_t -> sqrt(t / m) / 4,  m = 1 / (2 erfcinv(1/2)^2) = 2.198,
    # i.e. about 0.169 sqrt(t).
    trials, chunk = 10_000, 2_000
    ratios = {}
    for t in (1_000, 10_000, 100_000):
        k = int(3.4 * math.sqrt(t)) + 2
        k += k % 2
        stream = RandomStream(606, t)
        counts = []
        for _ in range(trials // chunk):
            u = stream.uniforms(2 * k * chunk)
            tau, _ = durations.srw_tau_from_uniform_pairs(u[0::2], u[1::2])
            counts.append(_count_complete_excursions(tau.reshape(chunk, k), t))
        # trials still running after k stretches sit far above the median
        # already; clamping them to k//2 leaves the median check intact
        n_t = np.minimum(np.concatenate(counts), k // 2)
        ratios[t] = float(np.median(n_t)) / math.sqrt(t)
        assert 0.05 <= ratios[t] <= 0.5
    # the Levy prediction, sharp once integer granularity fades
    assert abs(ratios[100_000] - 0.1686) <= 0.02
    # ratio stability across two decades pins the sqrt(t) exponent
    assert max(ratios.values()) / min(ratios.values()) <= 1.3


def test_excursion_count_via_durations_matches_paths():
    # the duration-draw shortcut above must agree with literal decomposition
    d = preset("simple")
    t = 400
    for trial in range(60):
        path = walk.simulate_path(d, t, RandomStream(909, trial))
        dec = walk.decompose(path)
        n_path = sum(1 for i in range(2, len(dec.crossing_times), 2)
                     if dec.crossing_times[i] <= t - 1)
        tau = np.array(dec.durations + [10 ** 9] * 12)[None, :]
        assert _count_complete_excursions(tau, t)[0] == n_path
