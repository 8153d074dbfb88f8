"""The vectorised %.17g: every byte equals CPython's bytes %-operation."""

import math
from fractions import Fraction

import numpy as np
import pytest

from milnesea import csvfloat


def g17(values):
    """csvfloat's text of each value, its padding dropped."""
    x = np.asarray(values, dtype=float)
    out = np.zeros((1, x.size, csvfloat.WORDS), np.uint64)
    csvfloat.put_g17(x[None], out)
    return [w.tobytes().replace(b"\0", b"") for w in out[0]]


def assert_g17(values):
    x = np.asarray(values, dtype=float).ravel()
    got = g17(x)
    wrong = [(v, g) for v, g in zip(x.tolist(), got) if g != b"%.17g" % v]
    assert not wrong, wrong[:10]


@pytest.fixture
def fallbacks(monkeypatch):
    """The values each call formats by the %-operation fallback."""
    calls, fallback = [], csvfloat._fallback

    def counted(values):
        calls.append(values.tolist())
        return fallback(values)

    monkeypatch.setattr(csvfloat, "_fallback", counted)
    return calls


def neighbours(x):
    x = np.asarray(x, dtype=float)
    return np.concatenate([np.nextafter(x, -np.inf), x,
                           np.nextafter(x, np.inf)])


def is_exact_tie(v: float) -> bool:
    """|v| * 10**(16 - X) is an odd multiple of 1/2 with 10**(16 - X) a
    double: a tie that only the half-to-even rule decides."""
    x = Fraction(abs(v))
    e = math.floor(math.log10(abs(v)))
    e += (x >= Fraction(10) ** (e + 1)) - (x < Fraction(10) ** e)
    scaled = x * Fraction(10) ** (16 - e)
    return 0 <= 16 - e <= 22 and scaled.denominator == 2


def test_random_bit_patterns(fallbacks):
    # every class of double: subnormals, huge values, nan and inf
    # (those fall back) and most exponents in between
    bits = np.random.default_rng(20261020).integers(
        0, 2 ** 64, 200_000, dtype=np.uint64, endpoint=False)
    values = bits.view(np.float64)
    assert_g17(values)
    fallen = [v for call in fallbacks for v in call]
    assert any(math.isnan(v) for v in fallen)
    assert any(0 < abs(v) < 1e-280 for v in fallen)
    assert any(1e280 < abs(v) < math.inf for v in fallen)


def test_powers_of_two_and_ten():
    assert_g17(neighbours(np.ldexp(1.0, np.arange(-1074, 1024))))
    tens = np.array([float(f"1e{k}") for k in range(-307, 309)])
    assert_g17(neighbours(tens))
    assert_g17(-neighbours(tens))


def test_notation_switches():
    # %g turns to scientific notation below 1e-4 and from 1e17 on, and
    # 17 digits reach the units from 1e16 on
    switches = neighbours([1e-5, 1e-4, 1e16, 1e17])
    assert_g17(neighbours(switches))
    assert_g17(-switches)
    assert g17([1e-5, 1e-4, 1e16, 1e17]) == [
        b"1.0000000000000001e-05", b"0.0001", b"10000000000000000",
        b"1e+17"]


def test_zeros():
    assert g17([0.0, -0.0]) == [b"0", b"-0"]


def test_exact_ties_round_half_to_even(fallbacks):
    # x * 10 has a fraction of exactly 1/2 at x = 1e15 + (2i + 1)/4, and
    # x * 100 at x = 1e14 + (4i + 2)/16: the product is exact, so the
    # tie is told, rounded half to even, and never falls back
    i = np.arange(20_000)
    ties = np.concatenate([1e15 + i / 4, 1e14 + i / 16, 2e15 + i / 4])
    assert sum(map(is_exact_tie, ties[::97].tolist())) > 50
    assert_g17(ties)
    assert_g17(-ties)
    assert fallbacks == []


def test_inexact_near_ties_fall_back(fallbacks):
    # 3 * 2**-24 * 10**23 is an exact tie, but 10**23 is no double
    near = 3.0 * 2.0 ** -24
    assert (Fraction(near) * 10 ** 23).denominator == 2
    assert_g17([near, 1.0])
    assert fallbacks == [[near]]


def test_property_any_finite_floats():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=300, deadline=None)
    @hypothesis.given(st.lists(st.floats(allow_nan=False,
                                         allow_infinity=False),
                               min_size=1, max_size=64))
    def check(values):
        assert_g17(values)

    check()


class TestTemplate:
    def test_lines_equal_the_percent_operation(self):
        line = b"%.17g,%.17g,composed,%s,%.17g\n%.17g,x%.17g\n"
        rng = np.random.default_rng(7)
        a = rng.standard_normal(500)
        b = rng.standard_normal(500) * 1e300
        flags = np.where(a > 0, b"true", b"false")
        columns = (a, b, flags, a, list(b), a)
        text = b"".join(csvfloat.Template(line).lines(columns, 3, 400))
        assert text == b"".join(
            line % tuple(c[i] for c in columns) for i in range(3, 400))

    def test_one_bytes_object_per_pass(self):
        template = csvfloat.Template(b"%.17g,%s\n")
        step = template.records_per_pass
        assert step == csvfloat.PASS_VALUES
        x = np.arange(2 * step + 1) / 3
        passes = list(template.lines((x, [b"a"] * x.size), 1, x.size))
        assert [p.count(b"\n") for p in passes] == [step, step]
        assert b"".join(passes) == b"".join(b"%.17g,a\n" % v for v in x[1:])

    def test_bytes_slots_alone(self):
        assert csvfloat.Template(b"%s;%s\n").format_pass(
            ([b"true", b"false"], [b"x", b""]), 0, 2) == b"true;x\nfalse;\n"

    @pytest.mark.parametrize("value", [b"ninebytes", "true"])
    def test_rejects_long_or_str_values(self, value):
        with pytest.raises(ValueError, match="not bytes of at most 8"):
            csvfloat.Template(b"%s\n").format_pass([[value]], 0, 1)

    def test_rejects_other_formats(self):
        with pytest.raises(ValueError, match="unsupported"):
            csvfloat.Template(b"%d,%.17g\n")
