"""Finite-support zero-mean integer increment distributions.

The walk's step law is a finite list of ``(value, probability)`` atoms with
integer values and *exact rational* probabilities.  Validation enforces the
standing hypotheses of the whole toolkit:

* probabilities in (0, 1] summing to exactly 1,
* Σ value·probability = 0 exactly (no floating-point tolerance),
* at least one strictly positive and one strictly negative atom.

Probabilities stay rational through configuration and validation and are
converted to a cumulative float table only inside the sampler.

JSON configuration format (rationals as ``"p/q"`` strings)::

    {"atoms": [[1, "1/2"], [-1, "1/2"]], "name": "simple"}
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    BadProbabilities,
    ConfigParse,
    InfeasibleBalance,
    NonZeroMean,
    OneSidedSupport,
)
from .rng import RandomStream

_I64_MAX = 2 ** 63 - 1


def _as_fraction(p, what: str = "probability") -> Fraction:
    """Coerce ints / Fractions / 'p/q' strings; floats are rejected."""
    if isinstance(p, float):
        raise BadProbabilities(
            f"{what} {p!r} is a float; pass an exact rational (Fraction or 'p/q')")
    try:
        return Fraction(p)
    except (ValueError, ZeroDivisionError, TypeError) as exc:
        raise BadProbabilities(f"cannot read {what} {p!r} as a rational") from exc


def _integer(what: str, value, error: type = BadProbabilities) -> int:
    """``value`` as an int if it is an integer of Python or numpy (a bool is
    not), else ``error``: a float such as 2.0 or 2.5 is never truncated."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise error(f"{what} {value!r} is not an integer")
    return int(value)


@dataclass(frozen=True)
class IncrementDistribution:
    """A validated finite-support zero-mean integer step law.

    Instances are immutable (and hashable) and may be shared freely across
    workers; construct them through :func:`validate` or :func:`preset`.
    """

    atoms: tuple[tuple[int, Fraction], ...]
    name: str | None = None

    # -- derived views ---------------------------------------------------

    def values(self) -> np.ndarray:
        return _values(self.atoms)

    def probabilities(self) -> tuple[Fraction, ...]:
        return tuple(p for _, p in self.atoms)

    def cumulative(self) -> np.ndarray:
        """Cumulative float probabilities; the last entry is exactly 1.0."""
        return _cumulative(self.atoms)

    @property
    def is_simple(self) -> bool:
        return self.atoms == ((-1, Fraction(1, 2)), (1, Fraction(1, 2)))

    @property
    def max_step(self) -> int:
        return max(abs(v) for v, _ in self.atoms)

    def variance(self) -> Fraction:
        return sum((Fraction(v) ** 2) * p for v, p in self.atoms)

    def mirrored(self) -> "IncrementDistribution":
        """The law of ``-X`` (used to reuse one-sided machinery on both sides)."""
        atoms = tuple(sorted(((-v, p) for v, p in self.atoms)))
        return IncrementDistribution(atoms, name=None)

    # -- serialization ---------------------------------------------------

    def to_config(self) -> dict:
        cfg = {"atoms": [[v, str(p)] for v, p in self.atoms]}
        if self.name:
            cfg["name"] = self.name
        return cfg


@lru_cache(maxsize=None)
def _values(atoms: tuple[tuple[int, Fraction], ...]) -> np.ndarray:
    arr = np.array([v for v, _ in atoms], dtype=np.int64)
    arr.setflags(write=False)
    return arr


@lru_cache(maxsize=None)
def _cumulative(atoms: tuple[tuple[int, Fraction], ...]) -> np.ndarray:
    run = Fraction(0)
    cum = []
    for _, p in atoms:
        run += p
        cum.append(float(run))
    cum[-1] = 1.0  # guard against accumulated float error in the last slot
    arr = np.array(cum, dtype=np.float64)
    arr.setflags(write=False)
    return arr


def validate(atoms: Iterable, name: str | None = None) -> IncrementDistribution:
    """Check an atom list and return the immutable distribution.

    Duplicate values are merged (their probabilities add).  Raises
    :class:`NonZeroMean`, :class:`BadProbabilities` or
    :class:`OneSidedSupport` on violation of the standing hypotheses.
    """
    merged: dict[int, Fraction] = {}
    n_in = 0
    for entry in atoms:
        try:
            v_raw, p_raw = entry
        except (TypeError, ValueError) as exc:
            raise BadProbabilities(f"atom {entry!r} is not a (value, prob) pair") from exc
        v = _integer("increment value", v_raw)
        if abs(v) > _I64_MAX:
            raise BadProbabilities(f"increment value {v} outside the 64-bit signed range")
        p = _as_fraction(p_raw)
        merged[v] = merged.get(v, Fraction(0)) + p
        n_in += 1
    if n_in == 0:
        raise BadProbabilities("empty atom list")

    pairs = tuple(sorted(merged.items()))
    for v, p in pairs:
        if not (0 < p <= 1):
            raise BadProbabilities(f"probability {p} of atom {v} not in (0, 1]")
    total = sum(p for _, p in pairs)
    if total != 1:
        raise BadProbabilities(f"probabilities sum to {total}, not 1")
    if not any(v > 0 for v, _ in pairs):
        raise OneSidedSupport("no strictly positive atom")
    if not any(v < 0 for v, _ in pairs):
        raise OneSidedSupport("no strictly negative atom")
    mean = sum(v * p for v, p in pairs)
    if mean != 0:
        raise NonZeroMean(f"mean is {mean}, not 0")
    return IncrementDistribution(pairs, name=name)


def _negatives_with_weights(negatives: Sequence) -> list[tuple[int, Fraction]]:
    out = []
    for entry in negatives:
        try:
            v, w = (entry, 1) if isinstance(entry, (int, np.integer)) else entry
        except (TypeError, ValueError):
            raise InfeasibleBalance(f"negative-side entry {entry!r} is neither an "
                                    "integer nor a (value, weight) pair") from None
        v, w = _integer("negative-side atom", v, InfeasibleBalance), _as_fraction(w, "weight")
        if v >= 0:
            raise InfeasibleBalance(f"negative-side atom {v} is not < 0")
        if w <= 0:
            raise InfeasibleBalance(f"weight {w} of atom {v} is not > 0")
        out.append((v, w))
    if not out:
        raise InfeasibleBalance("need at least one negative atom")
    return out


def preset(kind: str, **params) -> IncrementDistribution:
    """Named walk families.

    ``simple``
        The ±1 symmetric walk.
    ``unit-up``
        Single positive atom at +1; ``negatives`` is a list of negative values
        (or ``(value, weight)`` pairs fixing their relative frequencies) and
        the +1 probability is derived to make the mean exactly zero.
        ``preset('unit-up', negatives=[-2])`` gives {(+1, 2/3), (-2, 1/3)}.
    ``truncated-geometric``
        Positive atoms at +1..+cutoff with probabilities ∝ p^k; the negative
        side (default a single atom at -1, same ``negatives`` format as above)
        is rescaled so the overall mean is exactly zero.
    """
    if kind == "simple":
        return validate([(1, Fraction(1, 2)), (-1, Fraction(1, 2))], name="simple")

    if kind == "unit-up":
        neg = _negatives_with_weights(params.pop("negatives"))
        if params:
            raise InfeasibleBalance(f"unexpected params {sorted(params)}")
        # p_i = lam * w_i on the negative side, p_plus at +1:
        #   p_plus + lam * sum(w) = 1,   p_plus = lam * sum(w * |v|)
        lam = 1 / sum(w * (1 - v) for v, w in neg)
        atoms = [(v, lam * w) for v, w in neg]
        atoms.append((1, lam * sum(w * (-v) for v, w in neg)))
        label = "unit-up(" + ",".join(str(v) for v, _ in neg) + ")"
        return validate(atoms, name=label)

    if kind == "truncated-geometric":
        p = _as_fraction(params.pop("p"), "p")
        cutoff = _integer("cutoff", params.pop("cutoff"), InfeasibleBalance)
        neg = _negatives_with_weights(params.pop("negatives", [-1]))
        if params:
            raise InfeasibleBalance(f"unexpected params {sorted(params)}")
        if not (0 < p < 1):
            raise InfeasibleBalance(f"geometric ratio p={p} not in (0, 1)")
        if cutoff < 1:
            raise InfeasibleBalance(f"cutoff {cutoff} < 1")
        g = [p ** k for k in range(1, cutoff + 1)]
        G = sum(g)
        M = sum(k * gk for k, gk in zip(range(1, cutoff + 1), g))
        W = sum(w for _, w in neg)
        V = sum(w * (-v) for v, w in neg)
        # s scales the positive side, mu the negative side:
        #   s*G + mu*W = 1  (normalization),  s*M = mu*V  (zero mean)
        s = V / (G * V + M * W)
        mu = s * M / V
        atoms = [(k, s * gk) for k, gk in zip(range(1, cutoff + 1), g)]
        atoms += [(v, mu * w) for v, w in neg]
        return validate(atoms, name=f"tg(p={p},cutoff={cutoff})")

    raise InfeasibleBalance(f"unknown preset kind {kind!r}")


def sample(dist: IncrementDistribution, stream: RandomStream) -> int:
    """One atom value; consumes one uniform from the stream."""
    u = stream.uniform()
    cum = dist.cumulative()
    idx = int(np.searchsorted(cum, u, side="right"))
    return int(dist.values()[idx])


def sample_block(dist: IncrementDistribution, stream: RandomStream, n: int) -> np.ndarray:
    """``n`` atom values; bit-identical to ``n`` scalar :func:`sample` calls."""
    u = stream.uniforms(n)
    return steps_from_uniforms(dist, u)


def steps_from_uniforms(dist: IncrementDistribution, u: np.ndarray) -> np.ndarray:
    """Map uniforms to atom values (the engines feed their own uniforms)."""
    cum = dist.cumulative()
    vals = dist.values()
    if len(vals) == 2:
        return np.where(u < cum[0], vals[0], vals[1])
    return vals[np.searchsorted(cum, u, side="right")]


# -- configuration loading ----------------------------------------------------

def from_config(cfg) -> IncrementDistribution:
    """Build from a dict / JSON string of the documented config format."""
    if isinstance(cfg, (str, bytes)):
        try:
            cfg = json.loads(cfg)
        except json.JSONDecodeError as exc:
            raise ConfigParse(f"bad JSON: {exc}") from exc
    if not isinstance(cfg, dict) or "atoms" not in cfg:
        raise ConfigParse("config must be an object with an 'atoms' field")
    try:
        atoms = [(v, _as_fraction(p)) for v, p in cfg["atoms"]]
    except (TypeError, ValueError) as exc:
        raise ConfigParse(f"bad atoms field: {exc}") from exc
    return validate(atoms, name=cfg.get("name"))


def parse_dist_spec(spec: str) -> IncrementDistribution:
    """Resolve a CLI ``--dist`` argument.

    Accepts a preset name (``simple``, ``unit-up:-2``, ``tg:1/2,3`` or
    ``tg:1/2,3,-1``), a path to a JSON config file, or inline JSON.
    """
    spec = spec.strip()
    if spec == "simple":
        return preset("simple")
    if spec.startswith("unit-up:"):
        try:
            negatives = [int(tok) for tok in spec[len("unit-up:"):].split(",") if tok]
        except ValueError as exc:
            raise ConfigParse(f"bad unit-up spec {spec!r}") from exc
        return preset("unit-up", negatives=negatives)
    if spec.startswith("tg:"):
        toks = [tok for tok in spec[len("tg:"):].split(",") if tok]
        if len(toks) < 2:
            raise ConfigParse(f"bad truncated-geometric spec {spec!r} (need p,cutoff)")
        try:
            negatives = [int(tok) for tok in toks[2:]] or [-1]
            return preset("truncated-geometric", p=toks[0], cutoff=int(toks[1]),
                          negatives=negatives)
        except (ValueError, InfeasibleBalance) as exc:
            raise ConfigParse(f"bad truncated-geometric spec {spec!r}: {exc}") from exc
    if spec.lstrip().startswith("{"):
        return from_config(spec)
    if os.path.exists(spec):
        with open(spec, "r", encoding="utf-8") as fh:
            return from_config(fh.read())
    raise ConfigParse(f"cannot resolve dist spec {spec!r} "
                      "(not a preset, JSON, or existing file)")


def parse_rational(s) -> Fraction:
    """Parse a CLI rational like '1/2', '0', or '3' (floats rejected)."""
    if isinstance(s, Fraction):
        return s
    try:
        return Fraction(str(s))
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigParse(f"cannot read {s!r} as a rational p/q") from exc
