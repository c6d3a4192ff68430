"""Every real argument of the closed forms and the stable law, and of their
neighbours in ``montecarlo``, drawn from one small adversarial grammar: each
call returns finite values or raises a :class:`PersistWalkError`, never nan,
inf or an untyped error (``filterwarnings = error`` makes a numpy warning a
failure too)."""

import dataclasses
import inspect
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from persistwalk import exponent, montecarlo as mc, stable
from persistwalk.errors import PersistWalkError
from persistwalk.rng import RandomStream

GRAMMAR = (math.nan, math.inf, -math.inf, -0.0, 0, -1, 2.5, 1e200, 2 ** 600,
           np.float32(0.5), np.int64(2), Fraction(1, 3), "1/2", "abc", None)

# 3/4 of the rows stay positive forever and 1/4 die at once, so every
# n_grid the rule accepts has a finite defect
XI = np.ones((80, 16))
XI[:20] = -1.0

CALLS = {
    "psi_bar_of": exponent.psi_bar_of,
    "kappa_of": exponent.kappa_of,
    "phi": exponent.phi,
    "phi_arctan": exponent.phi_arctan,
    "invert_phi": exponent.invert_phi,
    "model": exponent.model,
    "StableParams": stable.StableParams,
    "cms_transform": stable.cms_transform,
    "sample_standard": lambda kappa: stable.sample_standard(kappa, RandomStream(1, 0)),
    "sample_standard_block":
        lambda kappa: stable.sample_standard_block(kappa, RandomStream(1, 0), 4),
    "negativity_probability": stable.negativity_probability,
    "combine_sum": stable.combine_sum,
    "combine_difference": stable.combine_difference,
    "levy_pdf": stable.levy_pdf,
    "levy_cdf": stable.levy_cdf,
    "characteristic_function": stable.characteristic_function,
    "gamma_ratio": mc.gamma_ratio,
    "geometric_grid": mc.geometric_grid,
    "skew_diagnostic_from_xi": lambda lo, hi: mc.skew_diagnostic_from_xi(XI, (lo, hi)),
}


def _finite(out) -> bool:
    if dataclasses.is_dataclass(out):
        return all(_finite(getattr(out, f.name)) for f in dataclasses.fields(out))
    return bool(np.all(np.isfinite(np.asarray(out, dtype=np.complex128))))


@pytest.mark.parametrize("name", sorted(CALLS))
@settings(derandomize=True, max_examples=120, database=None, deadline=None)
@given(data=st.data())
def test_returns_finite_values_or_refuses(name, data):
    call = CALLS[name]
    arity = sum(p.kind == p.POSITIONAL_OR_KEYWORD
                for p in inspect.signature(call).parameters.values())
    args = data.draw(st.tuples(*[st.sampled_from(GRAMMAR)] * arity))
    try:
        out = call(*args)
    except PersistWalkError:
        return
    assert _finite(out), f"{name}{args} = {out}"
