"""Counter-based deterministic random streams.

Every trial in a Monte Carlo run owns its own stream, keyed by
``(seed, stream_id)`` where the stream id is the global trial index.  The
n-th deviate of a stream is a pure function of ``(key, n)``::

    value(n) = fmix64(key + n * GOLDEN)

with ``fmix64`` the SplitMix64 output permutation (Stafford's mix 13).
Because a deviate never depends on how many other trials ran before it, a
run split across any number of workers reproduces the single-worker output
bit for bit — per-horizon survivor counts merge by plain integer addition.

Two implementations are provided and kept in lockstep:

* scalar (`RandomStream`), python ints, for the per-draw APIs;
* vectorized (`trial_keys` / `uniform_at` / ...), ``numpy.uint64``, for the
  trial engines.

The uniform mapping ``((h >> 11) + 0.5) * 2**-53`` lands strictly inside
(0, 1), so downstream ``log``/``arccos`` style transforms never see 0 or 1.
Only its top bucket, h >> 11 = 2**53 - 1, would round to 1.0; both paths
map it to 1 - 2**-53, a value no other bucket takes.
Uniforms are bit-identical between the scalar and vector paths; quantities
derived through libm calls (exponentials, say) agree to the last ulp or so
but are not guaranteed bitwise across paths.
"""

from __future__ import annotations

import math
import operator

import numpy as np

from .errors import OutOfRange

GOLDEN = 0x9E3779B97F4A7C15
_MASK = (1 << 64) - 1

# Domain-separation constants for deriving stream keys.  Arbitrary but fixed:
# changing them changes every sampled number in every run.
_SEED_TAG = 0x8BADF00D0D15EA5E
_STREAM_TAG = 0xC2B2AE3D27D4EB4F

_U64_30 = np.uint64(30)
_U64_27 = np.uint64(27)
_U64_31 = np.uint64(31)
_U64_11 = np.uint64(11)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_GOLDEN_U64 = np.uint64(GOLDEN)
_TWO_NEG53 = 2.0 ** -53
_U_MAX = 1.0 - _TWO_NEG53  # the top bucket's uniform, which would round to 1.0


def fmix64(z: int) -> int:
    """SplitMix64 finalizer on a python int (mod 2**64)."""
    z &= _MASK
    z ^= z >> 30
    z = (z * 0xBF58476D1CE4E5B9) & _MASK
    z ^= z >> 27
    z = (z * 0x94D049BB133111EB) & _MASK
    z ^= z >> 31
    return z


def fmix64_array(z: np.ndarray) -> np.ndarray:
    """Vectorized :func:`fmix64` over a uint64 array (returns a new array)."""
    z = z.astype(np.uint64, copy=True)
    z ^= z >> _U64_30
    z *= _MIX1
    z ^= z >> _U64_27
    z *= _MIX2
    z ^= z >> _U64_31
    return z


def _seed(value, name: str = "seed") -> int:
    """The one seed rule, for seeds, stream ids and positions alike: any
    integer, numpy's included, as a python int (used mod 2**64); anything
    else is refused with :class:`OutOfRange`."""
    try:
        return operator.index(value)
    except TypeError:
        raise OutOfRange(f"{name}={value!r} is not an integer") from None


def stream_key(seed: int, stream_id: int) -> int:
    """Key of stream ``stream_id`` under ``seed`` (both taken mod 2**64)."""
    return fmix64(fmix64(_seed(seed) + _SEED_TAG)
                  ^ fmix64(_seed(stream_id, "stream_id") + _STREAM_TAG))


def trial_keys(seed: int, stream_ids: np.ndarray) -> np.ndarray:
    """Vectorized :func:`stream_key` for an array of stream ids."""
    a = np.uint64(fmix64(_seed(seed) + _SEED_TAG))
    b = fmix64_array(stream_ids.astype(np.uint64) + np.uint64(_STREAM_TAG & _MASK))
    return fmix64_array(a ^ b)


def u64_at(keys: np.ndarray, counters: np.ndarray) -> np.ndarray:
    """Raw 64-bit outputs at the given counter positions (elementwise)."""
    return fmix64_array(keys + counters.astype(np.uint64) * _GOLDEN_U64)


def uniform_at(keys: np.ndarray, counters: np.ndarray) -> np.ndarray:
    """Uniforms on the open interval (0, 1) at the given counter positions."""
    u = (u64_at(keys, counters) >> _U64_11).astype(np.float64)
    u += 0.5
    u *= _TWO_NEG53
    return np.minimum(u, _U_MAX, out=u)


class RandomStream:
    """Scalar view of one counter-based stream.

    Parameters
    ----------
    seed : int
        Run-level seed (any integer, numpy's included; used mod 2**64).
    stream_id : int
        Index of this stream under the seed, typically a trial index (any
        integer, used mod 2**64).
    position : int
        Starting counter, 0 by default (any integer, used mod 2**64).
    """

    __slots__ = ("seed", "stream_id", "key", "position")

    def __init__(self, seed: int, stream_id: int = 0, position: int = 0):
        self.seed = seed
        self.stream_id = _seed(stream_id, "stream_id")
        self.key = stream_key(seed, self.stream_id)
        self.position = _seed(position, "position")

    def next_u64(self) -> int:
        h = fmix64(self.key + self.position * GOLDEN)
        self.position += 1
        return h

    def uniform(self) -> float:
        """One uniform on (0, 1); consumes one counter position."""
        return min(((self.next_u64() >> 11) + 0.5) * _TWO_NEG53, _U_MAX)

    def exponential(self) -> float:
        """Standard exponential deviate; consumes one counter position."""
        return -math.log(self.uniform())

    def uniforms(self, n: int) -> np.ndarray:
        """Block of ``n`` uniforms, bit-identical to ``n`` calls of uniform()."""
        keys = np.full(n, np.uint64(self.key), dtype=np.uint64)
        # wraps mod 2**64, as next_u64 does
        counters = np.arange(n, dtype=np.uint64) + np.uint64(self.position & _MASK)
        self.position += n
        return uniform_at(keys, counters)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"RandomStream(seed={self.seed}, stream_id={self.stream_id}, "
                f"position={self.position})")
