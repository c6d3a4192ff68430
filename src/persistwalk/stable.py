"""The α = 1/2 zero-shift stable family Z_[κ, c].

Characteristic-function convention::

    E[exp(itZ)] = exp(-c |t|^(1/2) (1 - i κ sgn t)),   κ ∈ [-1, 1], c > 0,

so κ = 1 is the one-sided (Lévy) law with density
(2π)^(-1/2) e^(-1/(2z)) z^(-3/2) at c = 1, and replacing Z by λZ maps
c ↦ c·λ^(1/2).  The sampler therefore realizes Z_[κ, c] as c² times a
standard (c = 1) draw.

Sampling is the two-deviate transform (uniform angle Φ on (-π/2, π/2),
standard exponential W, pivot Φ₀ = -2·arctan κ)::

    Z = (1 + κ²) · sin(½(Φ - Φ₀)) · cos(Φ - ½(Φ - Φ₀)) / (cos²Φ · W)

The variant *without* the (1 + κ²) prefactor is available as
``printed_form=True`` on :func:`cms_transform` and
:func:`sample_standard_block`.  It produces the correct signs — P(Z < 0) =
1/2 - (2/π)·arctan κ either way — but at κ = 1 its CDF is
erfc(1/(2√z)) rather than the one-sided law's erfc(1/√(2z)); the empirical
one-sided CDF check in the acceptance suite distinguishes the two, and only
the prefactored form passes.  The flag exists for auditing that comparison.

Per-draw stream consumption is fixed (uniform first, then exponential) so
a draw is reproducible from its stream position alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import erfc

from .errors import NonPositiveArgument, OutOfRange
from .rng import RandomStream


@dataclass(frozen=True)
class StableParams:
    """Skewness κ ∈ [-1, 1] and scale c > 0 of Z_[κ, c] (α fixed at 1/2)."""

    kappa: float
    scale: float = 1.0

    def __post_init__(self):
        if not -1.0 <= self.kappa <= 1.0:
            raise OutOfRange(f"kappa={self.kappa} outside [-1, 1]")
        if not 0 < self.scale < math.inf:
            raise OutOfRange(f"scale={self.scale} must be finite and > 0")


def cms_transform(phi, w, kappa: float, *, printed_form: bool = False):
    """Map an angle Φ and exponential W to a standard draw (vectorizes).

    The algebraic core of the sampler, exposed separately so single points
    can be checked by hand: e.g. κ = 1, Φ = 0, W = 1 gives 1/2 under
    ``printed_form=True`` and 1 under the default.
    """
    phi = np.asarray(phi, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    phi0 = -2.0 * math.atan(kappa)
    half = 0.5 * (phi - phi0)
    z = np.sin(half) * np.cos(phi - half) / (np.cos(phi) ** 2 * w)
    if not printed_form:
        z = (1.0 + kappa * kappa) * z
    if z.ndim == 0:
        return float(z)
    return z


def sample_standard(kappa: float, stream: RandomStream) -> float:
    """One draw of Z_[κ, 1]; consumes two stream positions."""
    if not -1.0 <= kappa <= 1.0:
        raise OutOfRange(f"kappa={kappa} outside [-1, 1]")
    u = stream.uniform()
    w = stream.exponential()
    # u ∈ (0,1) strictly, so Φ stays inside (-π/2, π/2) and cos Φ > 0:
    # the degenerate-endpoint resample case cannot occur with this mapping.
    phi = math.pi * (u - 0.5)
    return cms_transform(phi, w, kappa)


def sample_standard_block(kappa: float, stream: RandomStream, n: int, *,
                          printed_form: bool = False) -> np.ndarray:
    """``n`` standard draws; same stream consumption as n scalar draws."""
    if not -1.0 <= kappa <= 1.0:
        raise OutOfRange(f"kappa={kappa} outside [-1, 1]")
    if n < 1:
        raise OutOfRange(f"n={n} < 1")
    u = stream.uniforms(2 * n)
    phi = math.pi * (u[0::2] - 0.5)
    w = -np.log(u[1::2])
    return cms_transform(phi, w, kappa, printed_form=printed_form)


def sample(params: StableParams, stream: RandomStream) -> float:
    """One draw of Z_[κ, c] = c² · Z_[κ, 1]."""
    return params.scale ** 2 * sample_standard(params.kappa, stream)


def sample_block(params: StableParams, stream: RandomStream, n: int) -> np.ndarray:
    return params.scale ** 2 * sample_standard_block(params.kappa, stream, n)


def negativity_probability(kappa: float) -> float:
    """P(Z_[κ, c] < 0) = 1/2 - (2/π)·arctan κ (scale-free)."""
    if not -1.0 <= kappa <= 1.0:
        raise OutOfRange(f"kappa={kappa} outside [-1, 1]")
    return 0.5 - 2.0 * math.atan(kappa) / math.pi


def combine_sum(a: float, b: float) -> StableParams:
    """Law of a·Z₁ + b·Z₂ for independent standard one-sided Z₁, Z₂.

    Coefficients a, b > 0 multiply standard (κ = 1, c = 1) draws; the sum is
    again one-sided with scale (√a + √b)².
    """
    if a <= 0 or b <= 0:
        raise OutOfRange("combine_sum needs a, b > 0")
    return StableParams(kappa=1.0, scale=(math.sqrt(a) + math.sqrt(b)) ** 2)


def combine_difference(a: float, b: float) -> StableParams:
    """Law of a·Z₁ - b·Z₂ for independent standard one-sided Z₁, Z₂.

    κ = (√a - √b)/(√a + √b), scale (√a + √b)²; a = b gives the symmetric law.
    """
    if a <= 0 or b <= 0:
        raise OutOfRange("combine_difference needs a, b > 0")
    ra, rb = math.sqrt(a), math.sqrt(b)
    return StableParams(kappa=(ra - rb) / (ra + rb), scale=(ra + rb) ** 2)


def levy_pdf(tval):
    """One-sided (κ = 1, c = 1) density (2π)^(-1/2) e^(-1/(2t)) t^(-3/2)."""
    t = np.asarray(tval, dtype=np.float64)
    if np.any(t <= 0):
        raise NonPositiveArgument("levy_pdf needs t > 0")
    out = math.sqrt(1.0 / (2.0 * math.pi)) * np.exp(-1.0 / (2.0 * t)) * t ** -1.5
    return float(out) if out.ndim == 0 else out


def levy_cdf(tval):
    """One-sided CDF erfc(1/√(2t)), the integral of :func:`levy_pdf`."""
    t = np.asarray(tval, dtype=np.float64)
    if np.any(t <= 0):
        raise NonPositiveArgument("levy_cdf needs t > 0")
    out = erfc(1.0 / np.sqrt(2.0 * t))
    return float(out) if out.ndim == 0 else out


def characteristic_function(t, kappa: float, scale: float = 1.0) -> np.ndarray:
    """E[exp(itZ)] under the module's convention (reference for tests)."""
    t = np.asarray(t, dtype=np.float64)
    mag = np.sqrt(np.abs(t))
    return np.exp(-scale * mag) * np.exp(1j * scale * kappa * np.sign(t) * mag)
