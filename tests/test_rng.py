"""Counter-stream RNG: determinism, range, and block/scalar agreement."""

from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

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
