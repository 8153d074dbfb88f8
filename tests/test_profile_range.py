"""Property: a coefficient profile never leaves its extreme values.

MediumSpec proves the omega and beta ranges once, at construction, from
extreme_values(); coefficient reads carry no checks of their own, so
value(t) must stay inside that range for every t.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from milnesea.medium import CoefficientProfile  # noqa: E402

# interpolation rounds just below the zero knot at its own time
ROUNDING_TABLE = CoefficientProfile(
    kind="table", table=((-12.756003041925396, 0.24438662939201053),
                         (0.4396371841784763, 0.0)))
ROUNDING_T = 0.43963718417847625
# cosh((t - center) / width) overflows for |t| past ~7.1
NARROW_SECH2 = CoefficientProfile(kind="sech2-bump", base=0.2,
                                  amplitude=0.3, width=0.01)
# (t - center)^2 / width^2 overflows for |t - center| past ~1e-6
NARROW_GAUSSIAN = CoefficientProfile(kind="gaussian-bump", base=0.2,
                                     amplitude=0.3, width=1e-160)


def reals(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


times = reals(-100, 100)


@st.composite
def profiles(draw):
    kind = draw(st.sampled_from(["constant", "gaussian-bump", "sech2-bump",
                                 "table"]))
    if kind == "table":
        knots = sorted(set(draw(st.lists(times, min_size=1, max_size=6))))
        return CoefficientProfile(
            kind=kind, table=tuple((t, draw(reals(-10, 10))) for t in knots))
    # |t - center| / width reaches 15,000, far past where cosh(z)
    # overflows (~710)
    return CoefficientProfile(kind=kind, base=draw(reals(-10, 10)),
                              amplitude=draw(reals(-10, 10)),
                              center=draw(reals(-50, 50)),
                              width=draw(reals(0.01, 10)))


@given(profile=profiles(), t=times, ts=st.lists(times, max_size=20))
@example(profile=ROUNDING_TABLE, t=ROUNDING_T, ts=[ROUNDING_T, 0.0])
@example(profile=NARROW_SECH2, t=5.0, ts=[5.0, 3.55, 0.0, -100.0])
@example(profile=NARROW_GAUSSIAN, t=5.0, ts=[5.0, 1e-200, 0.0, -100.0])
def test_value_stays_within_extreme_values(profile, t, ts):
    lo, hi = profile.extreme_values()
    assert lo <= profile.value(t) <= hi
    values = profile.value(np.array(ts))
    assert values.shape == (len(ts),)
    assert np.all((lo <= values) & (values <= hi))
    # a scalar t gives the array's value, bit for bit
    assert values.tolist() == [profile.value(x) for x in ts]
