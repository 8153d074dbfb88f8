"""Exact ``%.17g`` of float64 arrays in numpy, and CSV lines made with it.

``put_g17(x, outs)`` writes ``b"%.17g" % v`` for each float ``v`` of
``x`` as four little-endian uint64 words, 32 bytes holding the text with
0 bytes as padding. ``Template(line)`` splits a bytes line of ``%.17g``
and ``%s`` slots once into literal words and slots; its ``lines`` yields
the text of a run of records one pass at a time, each pass laid out in
words and its padding dropped with one ``bytes.translate``.

The digits are those of CPython's ``%.17g``, Gay's correctly rounded
dtoa. With X = floor(log10 |x|) and k = 16 - X they are the integer
N = round(|x| * 10**k), 10**16 <= N < 10**17. The product is Dekker's
exact two-product of |x| with ``hi``, the double nearest 10**k, plus
|x| times ``lo``, the double nearest 10**k - hi; the sum is off by less
than 2**-46. For 0 <= k <= 22, 10**k is a double and the product is
exact, so a tie rounds half to even, as in dtoa. One bytes
``%``-operation formats the rest: any other value within 2**-20 of a tie,
any |x| outside [1e-280, 1e280] but zero, and any non-finite value.
Only ufuncs and indexing run here, never BLAS.
"""

from __future__ import annotations

import re
from collections import namedtuple
from functools import lru_cache

import numpy as np

# uint64 words per formatted value: a prefix word for the sign and any
# "0.000", then three for the digits, the point and the exponent
WORDS = 4

_MIN, _MAX = 1e-280, 1e280  # |x| formatted here; the rest falls back
_X0 = -281  # decimal exponents X0..-X0 cover [_MIN, _MAX] with one slack
_SPLIT = 134217729.0  # 2**27 + 1: Veltkamp's split into 26-bit halves
_NEAR = 2.0 ** -20  # a fraction this close to 1/2 may be a tie: fall back
_E16, _E17 = 1e16, 1e17  # the unrounded N lies in [_E16, _E17)
_EDGE = 1 + 2.0 ** -40  # products this close to either end: check X
_U = np.uint64
_CLIP = "clip"  # take with out= and the default mode="raise" copies


def _word(text: bytes) -> int:
    """`text`, at most 8 bytes, as the value of a little-endian word."""
    return int.from_bytes(text, "little")


def _powers():
    """Per X = _X0..-_X0: (hi, lo) with hi + lo = 10**(16 - X) to about
    2**-106, and Veltkamp's split of hi; built from integers alone."""
    hi, lo = [], []
    for x in range(_X0, 1 - _X0):
        k = 16 - x
        if k >= 0:
            n = 10 ** k
            h = float(n)
            lo.append(float(n - int(h)))
        else:
            d = 10 ** -k
            h = 1 / d
            p, q = h.as_integer_ratio()
            lo.append((q - p * d) / (q * d))
        hi.append(h)
    hi = np.array(hi)
    c = hi * _SPLIT
    hh = c - (c - hi)
    return hi, np.array(lo), hh, hi - hh


def _layouts():
    """The per-X and per-(q, keep) tables of the text's words.

    A value's 17 digits d0..d16 sit in bytes 0..16 of three words. q is
    where its point goes: the digits before it stay (LOW masks); those
    after it move up one byte, past the point, and of them only digits
    below `keep` stay (HIGH masks); DOT puts the point in. q = X + 1 in
    fixed notation, 1 in scientific, and 0 below 1, where the prefix word
    carries the "0." and any zeros after it. The prefix word also holds
    the sign.
    """
    xs = np.arange(_X0, 1 - _X0)
    fixed = (xs >= -4) & (xs < 17)
    q = np.where(fixed, np.maximum(xs + 1, 0), 1)
    prefix = [_word(b"\0" + b"0." + b"0" * (-x - 1)) if -4 <= x < 0 else 0
              for x in xs.tolist()]
    # the exponent follows the digits: bytes 2.. of the third word
    exp = [0 if f else _word(b"\0\0" + b"e%+03d" % x)
           for f, x in zip(fixed.tolist(), xs.tolist())]
    # row j = q * 18 + keep; columns are the 24 bytes of the three words
    qq, keep = np.divmod(np.arange(18 * 18), 18)
    qq, keep, at = qq[:, None], keep[:, None], np.arange(24)
    low = np.where(at < qq, 0xFF, 0)
    high = np.where((at > qq) & (at <= keep), 0xFF, 0)
    dot = np.where((at == qq) & (keep > qq) & (qq > 0), ord("."), 0)
    return (q.astype(np.intp), np.array(prefix, _U), np.array(exp, _U),
            *(m.astype(np.uint8).view("<u8").T.copy()
              for m in (low, high, dot)))


_Tables = namedtuple("_Tables", "hi lo hh hl q prefix exp low high dot")


@lru_cache(maxsize=None)
def _tables() -> _Tables:
    """The tables, built on first use (~2 ms), not on import, and shared
    read-only."""
    tables = _Tables(*_powers(), *_layouts())
    for table in tables:
        table.flags.writeable = False
    return tables


def _product(a, xi, tab):
    """(p, r) with p + r = a * 10**(16 - X) to within 2**-46 for X the
    exponents of table index xi: p the rounded product, r what it lost
    (r is exact where 10**(16 - X) is a double)."""
    t = tab.hi.take(xi)
    p = a * t
    # Dekker's exact two-product of a with hi: p + r == a * hi
    ah = a * _SPLIT
    r = np.subtract(ah, a)
    ah -= r  # Veltkamp's split: a == ah + al, 26 bits each
    np.multiply(ah, tab.hh.take(xi, out=t, mode=_CLIP), out=r)
    r -= p
    r += np.multiply(ah, tab.hl.take(xi, out=t, mode=_CLIP), out=t)
    al = np.subtract(a, ah, out=ah)
    r += np.multiply(al, tab.hh.take(xi, out=t, mode=_CLIP), out=t)
    r += np.multiply(al, tab.hl.take(xi, out=t, mode=_CLIP), out=t)
    # plus a * lo, lo = 10**(16 - X) - hi
    r += np.multiply(a, tab.lo.take(xi, out=t, mode=_CLIP), out=t)
    return p, r


def _round17(p, r, xi, lo):
    """(N, near): N = p + r rounded to an integer, and the indices of the
    values too close to a tie to tell. p lies above 2**53, so it is even
    and rint(r) rounds p + r half to even; r - rint(r) is exact. Where
    10**(16 - X) is a double, p + r is exact, so even a tie is told."""
    ri = np.rint(r)
    n = p.astype(np.int64)
    n += ri.astype(np.int64)
    r -= ri  # in [-1/2, 1/2]
    near = np.flatnonzero(np.abs(r, out=r) > 0.5 - _NEAR)
    return n, near[lo[xi[near]] != 0]


def _digits(n, h):
    """The 17 digits of each n in [10**16, 10**17) as byte values 0..9:
    (d0..d7 and d8..d15 as two rows of words, d16 as a word). `n` is
    spent, and `h`, a (2, len(n)) uint64 array, is scratch."""
    ab = np.empty_like(h)
    u = n.view(_U)
    np.floor_divide(u, 10 ** 9, out=ab[0])
    u -= np.multiply(ab[0], 10 ** 9, out=h[0])
    np.floor_divide(u, 10, out=ab[1])
    u -= np.multiply(ab[1], 10, out=h[0])
    # SWAR: 8 digits to two 4-digit lanes, four 2-digit lanes, then
    # eight 1-digit lanes, first digit lowest. Each step takes the
    # quotients q of a lane by a multiply and shift and sets the lanes
    # to q + (v - q * d << s) == (v << s) + q * (1 - d << s) mod 2**64
    np.floor_divide(ab, 10000, out=h)
    for d, s, mul, shift, mask in ((10000, 32, 0, 0, 0),
                                   (100, 16, 10486, 20, 0x7F0000007F),
                                   (10, 8, 103, 10, 0xF000F000F000F)):
        if mul:
            np.multiply(ab, mul, out=h)
            h >>= shift
            h &= mask
        ab <<= s
        h *= (1 - (d << s)) % 2 ** 64
        ab += h
    return ab, u


def _significant(ab, y):
    """Per word of digit values, the bytes up to its last nonzero one;
    `y` is scratch of ab's shape."""
    np.add(ab, 0x7F7F7F7F7F7F7F7F, out=y)
    y &= 0x8080808080808080  # the top bit of each nonzero byte
    for s in (8, 16, 32):
        y |= y >> s  # and of every byte below it
    y >>= 7
    y *= 0x0101010101010101  # the top byte sums the bytes' ones
    y >>= 56
    return y


def _put(outs, k, w):
    """Word k of every value: part c of `w` into column k of outs[c]."""
    for out, part in zip(outs, w.reshape(len(outs), -1)):
        out[:, k] = part


_SPACE_TO_NUL = bytes.maketrans(b" ", b"\0")


def _fallback(values):
    """The words of ``b"%.17g" % v`` per value, by one %-operation: each
    left-justified in 24 bytes (no %.17g is longer), the spaces made 0."""
    text = b"%-24.17g" * len(values) % tuple(values.tolist())
    words = np.zeros((len(values), WORDS), _U)
    words[:, 1:] = np.frombuffer(text.translate(_SPACE_TO_NUL), "<u8") \
        .reshape(-1, WORDS - 1)
    return words


def put_g17(x, outs) -> None:
    """Write ``b"%.17g" % v`` of each float v of `x` (C, m), padded with 0
    bytes, into the rows of outs[c], a writable (m, WORDS) uint64 array
    per row c of `x`: word k of value (c, i) goes to outs[c][i, k]."""
    x = np.asarray(x, dtype=np.float64)
    m = x.shape[1]
    x = x.ravel()
    tab = _tables()
    a = np.abs(x)
    fallback = ~((a >= _MIN) & (a <= _MAX))  # zero, tiny, huge, nan, inf
    zero = a == 0
    np.copyto(a, 1.0, where=fallback)  # formatted, then overwritten
    fallback &= ~zero
    xi = np.log10(a)
    np.floor(xi, out=xi)
    xi = xi.astype(np.intp)
    xi -= _X0  # X as the index of the tables
    p, r = _product(a, xi, tab)
    # log10 may miss X by one next to a power of ten, and p may differ
    # from the unrounded product by a few units, which decide X
    moved = np.flatnonzero((p < _E16 * _EDGE) | (p > _E17 / _EDGE))
    if moved.size:
        pm, rm = p[moved], r[moved]
        xi[moved] += ((pm - _E17) + rm >= 0).astype(np.intp) \
            - ((pm - _E16) + rm < 0)
        p[moved], r[moved] = _product(a[moved], xi[moved], tab)
    del a
    n, near = _round17(p, r, xi, tab.lo)
    del p, r
    fallback[near] = True
    rolled = np.flatnonzero(n == 10 ** 17)  # rounded up to a power of 10
    n[rolled] = 10 ** 16
    xi[rolled] += 1
    h = np.empty((2, x.size), _U)
    ab, last = _digits(n, h)
    del n
    sig = _significant(ab, h).view(np.int64)
    keep = np.where(sig[1] > 0, sig[1] + 8, sig[0])  # digits to keep
    keep[last > 0] = 17
    del sig
    j = tab.q.take(xi)
    j *= 18
    j += keep  # the row of the mask tables
    del keep
    ab |= 0x3030303030303030  # digit values to ASCII
    last |= 0x30
    w, shifted, mask = h[0], h[1], np.empty_like(last)
    # per word: the digits before the point, the point, and the kept
    # digits after it, moved up one byte
    for k, (digits, below) in enumerate(((ab[0], None), (ab[1], ab[0]),
                                         (last, ab[1]))):
        np.left_shift(digits, 8, out=shifted)
        if below is not None:
            shifted |= below >> 56
        np.bitwise_and(digits, tab.low[k].take(j, out=mask, mode=_CLIP),
                       out=w)
        shifted &= tab.high[k].take(j, out=mask, mode=_CLIP)
        w |= shifted
        w |= tab.dot[k].take(j, out=mask, mode=_CLIP)
        if k == 0:
            w -= zero  # 1.0 stood in for 0.0: its "1" becomes "0"
        if k == 2:
            w |= tab.exp.take(xi, out=mask, mode=_CLIP)
        _put(outs, k + 1, w)
    np.take(tab.prefix, xi, out=w, mode=_CLIP)
    w[np.signbit(x)] |= ord("-")
    _put(outs, 0, w)
    i = np.flatnonzero(fallback)
    if i.size:
        for at, words in zip(i.tolist(), _fallback(x[i])):
            outs[at // m][at % m] = words


# a pass formats about this many floats: the larger, the less each numpy
# call costs per value, while one pass's text and temporaries stay small
PASS_VALUES = 4096
_SLOT = re.compile(rb"%\.17g|%s")


class Template:
    """A bytes line of ``%.17g`` and ``%s`` slots, split once into its
    literals and slots, laid out in words: 4 per ``%.17g``, 1 per ``%s``
    (values of at most 8 bytes), and as many as each literal needs."""

    def __init__(self, line: bytes):
        literals, kinds = _SLOT.split(line), _SLOT.findall(line)
        if any(b"%" in text for text in literals):
            raise ValueError(f"unsupported %-format in {line!r}")
        self.literals, self.slots, at = [], [], 0
        for text, kind in zip(literals, kinds + [None]):
            if text:
                words = np.frombuffer(text.ljust(-(-len(text) // 8) * 8,
                                                 b"\0"), "<u8")
                self.literals.append((at, words))
                at += words.size
            if kind is not None:
                self.slots.append((at, kind == b"%.17g"))
                at += WORDS if kind == b"%.17g" else 1
        self.width = at
        floats = sum(g for _, g in self.slots)
        self.records_per_pass = max(1, PASS_VALUES // max(1, floats))

    def lines(self, columns, lo: int, hi: int):
        """The lines of records lo..hi, one bytes object per pass of
        records_per_pass records: `columns` holds one sequence per slot,
        with one entry per record."""
        for start in range(lo, hi, self.records_per_pass):
            yield self.format_pass(columns, start,
                                   min(start + self.records_per_pass, hi))

    def format_pass(self, columns, lo: int, hi: int) -> bytes:
        """The lines of records lo..hi in one pass. A column given for
        several slots is formatted once."""
        m = hi - lo
        rows = np.empty((m, self.width), "<u8")
        for at, words in self.literals:
            rows[:, at:at + words.size] = words
        floats, copies = {}, []  # id -> (column, first slot); repeats
        for (at, is_float), column in zip(self.slots, columns):
            if not is_float:
                values = np.asarray(column[lo:hi])
                if values.dtype.kind != "S" or values.dtype.itemsize > 8:
                    raise ValueError("a %s value is not bytes of at most 8")
                rows[:, at] = values.astype("S8").view("<u8")
            elif id(column) in floats:
                copies.append((floats[id(column)][1], at))
            else:
                floats[id(column)] = column, at
        if floats:
            x = np.empty((len(floats), m))
            for row, (column, _) in zip(x, floats.values()):
                row[:] = column[lo:hi]
            put_g17(x, [rows[:, at:at + WORDS] for _, at in floats.values()])
            del x
        for at, to in copies:
            rows[:, to:to + WORDS] = rows[:, at:at + WORDS]
        padded = rows.tobytes()
        del rows
        return padded.translate(None, b"\0")
