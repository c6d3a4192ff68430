"""Counter-stream RNG: determinism, range, and block/scalar agreement."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from persistwalk import montecarlo
from persistwalk.errors import OutOfRange
from persistwalk.increments import preset, steps_from_uniforms, validate
from persistwalk.rng import (RandomStream, fmix64, fmix64_array, stream_key,
                             trial_keys, u64_at, uniform_at)

seeds = st.integers(min_value=0, max_value=2 ** 64 - 1)


def test_same_seed_same_sequence():
    a = RandomStream(123, 7)
    b = RandomStream(123, 7)
    assert [a.next_u64() for _ in range(50)] == [b.next_u64() for _ in range(50)]


def test_streams_are_distinct():
    a = RandomStream(123, 0)
    b = RandomStream(123, 1)
    assert [a.next_u64() for _ in range(8)] != [b.next_u64() for _ in range(8)]


def test_one_seed_rule():
    # a numpy integer seed is its int's stream: np.int64 ended in an
    # OverflowError in trial_keys, np.uint64 warned of overflow in stream_key
    ids = np.arange(5, dtype=np.uint64)
    for seed in (1, -1, 2 ** 64 + 3, 2 ** 63):
        want = RandomStream(seed, 4).uniforms(3), trial_keys(seed, ids)
        numpy_seeds = [np.uint64(seed % 2 ** 64)]
        if -2 ** 63 <= seed < 2 ** 63:
            numpy_seeds += [np.int64(seed), np.int32(seed)]
        for s in numpy_seeds:
            assert np.array_equal(RandomStream(s, 4).uniforms(3), want[0])
            assert np.array_equal(trial_keys(s, ids), want[1])
    # negative seeds and seeds of 2^64 or more are taken mod 2^64
    assert stream_key(-1, 0) == stream_key(2 ** 64 - 1, 0)
    assert stream_key(2 ** 64 + 3, 0) == stream_key(3, 0)
    simple = preset("simple")
    curve = montecarlo.survival_atilde(simple, 0, 64, 100, np.int64(1))
    assert curve.survivors.tolist() == montecarlo.survival_atilde(
        simple, 0, 64, 100, 1).survivors.tolist()
    assert type(curve.config["seed"]) is int
    # a seed that is not an integer is refused (1.5 was a TypeError)
    for seed in (1.5, 1.0, "1", None, Fraction(1)):
        with pytest.raises(OutOfRange, match="seed="):
            RandomStream(seed)
        with pytest.raises(OutOfRange, match="seed="):
            trial_keys(seed, ids)


def test_stream_ids_and_positions_follow_the_seed_rule():
    # under the seed rule too: np.int64 ids and positions ended in an
    # OverflowError, an np.uint64 id warned of overflow and 1.5 was a
    # TypeError; every integer is its int's, taken mod 2^64
    want = RandomStream(1, 3).uniforms(4)
    for sid in (np.int64(3), np.uint64(3), np.int32(3), 3 + 2 ** 64):
        assert np.array_equal(RandomStream(1, sid).uniforms(4), want)
        assert stream_key(1, sid) == stream_key(1, 3)
    for position in (np.int64(2), np.uint64(2), 2 + 2 ** 64):
        stream = RandomStream(1, 3, position)
        assert stream.uniform() == want[2]
        assert np.array_equal(stream.uniforms(1), want[3:])
    # position -1 is 2^64 - 1, and a block runs on past it as draws one by
    # one do
    stream = RandomStream(1, 3, -1)
    block = stream.uniforms(3)
    assert block[0] == RandomStream(1, 3, 2 ** 64 - 1).uniform()
    assert np.array_equal(block[1:], want[:2]) and stream.uniform() == want[2]
    for bad in (1.5, 1.0, "3", None, Fraction(3)):
        with pytest.raises(OutOfRange, match="stream_id="):
            RandomStream(1, bad)
        with pytest.raises(OutOfRange, match="stream_id="):
            stream_key(1, bad)
        with pytest.raises(OutOfRange, match="position="):
            RandomStream(1, 3, bad)


def test_seed_changes_everything():
    a = RandomStream(1, 0).uniforms(100)
    b = RandomStream(2, 0).uniforms(100)
    assert not np.any(a == b)


@given(seeds, st.integers(min_value=0, max_value=2 ** 62))
@settings(max_examples=60)
def test_uniform_open_interval(seed, sid):
    s = RandomStream(seed, sid)
    u = s.uniforms(20)
    assert np.all(u > 0.0)
    assert np.all(u < 1.0)


def test_block_matches_scalar_calls():
    s1 = RandomStream(99, 5)
    block = s1.uniforms(64)
    s2 = RandomStream(99, 5)
    singles = np.array([s2.uniform() for _ in range(64)])
    np.testing.assert_array_equal(block, singles)
    assert s1.position == s2.position == 64


def test_block_resumes_mid_stream():
    s = RandomStream(4, 1)
    first = s.uniforms(10)
    rest = s.uniforms(10)
    again = RandomStream(4, 1).uniforms(20)
    np.testing.assert_array_equal(np.concatenate([first, rest]), again)


def test_fmix64_array_matches_scalar():
    zs = np.array([0, 1, 2, 123456789, 2 ** 63, 2 ** 64 - 1], dtype=np.uint64)
    got = fmix64_array(zs.copy())
    want = np.array([fmix64(int(z)) for z in zs], dtype=np.uint64)
    np.testing.assert_array_equal(got, want)


def test_trial_keys_match_stream_key():
    ids = np.arange(10, dtype=np.uint64)
    keys = trial_keys(42, ids)
    for i in range(10):
        assert int(keys[i]) == stream_key(42, i)


def test_u64_at_is_position_indexed():
    s = RandomStream(7, 3)
    seq = [s.next_u64() for _ in range(6)]
    keys = np.full(6, np.uint64(stream_key(7, 3)), dtype=np.uint64)
    counters = np.arange(6, dtype=np.uint64)
    np.testing.assert_array_equal(u64_at(keys, counters),
                                  np.array(seq, dtype=np.uint64))


def test_uniform_mean_and_spread():
    u = RandomStream(2024, 0).uniforms(200_000)
    assert abs(u.mean() - 0.5) < 0.005
    assert abs(u.var() - 1 / 12) < 0.002
    # no visible serial correlation
    c = np.corrcoef(u[:-1], u[1:])[0, 1]
    assert abs(c) < 0.01


def test_exponential_consumes_one_position():
    s = RandomStream(5, 5)
    s.exponential()
    assert s.position == 1


def _unfmix64(h: int) -> int:
    """Inverse of fmix64: undo each xorshift and multiply by the inverse
    constants mod 2**64."""
    mask = 2 ** 64 - 1

    def unshift(z, s):
        x = z
        for k in range(s, 64, s):
            x ^= z >> k
        return x

    z = unshift(h, 31)
    z = (z * pow(0x94D049BB133111EB, -1, 2 ** 64)) & mask
    z = unshift(z, 27)
    z = (z * pow(0xBF58476D1CE4E5B9, -1, 2 ** 64)) & mask
    return unshift(z, 30)


def test_top_bucket_stays_below_one():
    # h >> 11 = 2^53 - 1 puts (h >> 11) + 0.5 halfway to 2^53, which rounds
    # up to 1.0; both paths return 1 - 2^-53 for it instead
    assert ((2 ** 53 - 1) + 0.5) * 2.0 ** -53 == 1.0
    key = _unfmix64(2 ** 64 - 1)
    assert fmix64(key) == 2 ** 64 - 1
    s = RandomStream(0, 0)
    s.key = key
    u = s.uniform()
    block = uniform_at(np.array([key], dtype=np.uint64),
                       np.array([0], dtype=np.uint64))
    assert u == block[0] == 1 - 2.0 ** -53
    # a walk with three or more atoms maps it to its last atom
    for dist in (preset("truncated-geometric", p="1/2", cutoff=3),
                 preset("unit-up", negatives=[-2, -3]),
                 validate([(-1, Fraction(1, 4)), (0, Fraction(1, 2)),
                           (1, Fraction(1, 4))])):
        assert steps_from_uniforms(dist, block).tolist() == [dist.values()[-1]]
