"""``'%.17g'`` text for whole float64 blocks, at array speed.

:func:`format_rows` writes exactly the bytes of CPython's correctly rounded
``'%.17g' % x`` for every finite value.  The 17 digits come from |x|·10^(16−e)
in long double; a value whose scaled fraction lies within the error bound of
a rounding tie takes its digits from ``'%.16e' % x`` instead.
"""

import numpy as np

_E_MIN, _E_MAX = -326, 310  # decimal exponents of finite doubles, one step of slack
_Q = 16 - np.arange(_E_MIN, _E_MAX + 1)
_POW10 = np.array(["1e%d" % q for q in _Q], dtype=np.longdouble)  # correctly rounded
# Bound on |scaled - exact|: half an ulp below 1e17 where 10^q is exact, else
# two roundings of 2^-64 relative.  A long double without a 64-bit
# significand sends every value to the exact path.
_WINDOW = (np.where((_Q >= 0) & (_Q <= 27), 2.0 ** -8, 0.013)
           if np.finfo(np.longdouble).nmant >= 63 else np.full(_Q.shape, np.inf))
_ASCII = np.arange(48, 58, dtype=np.uint8)
_QUADS = np.stack(np.meshgrid(*[_ASCII] * 4, indexing="ij"), axis=-1).view("<u4").ravel()
_K = np.arange(18, dtype=np.int8)[:, None]
_PREFIX = np.frombuffer(b"0.000", np.uint8)[:, None]


def _digits(a: np.ndarray):
    """(D, e) with D a 17-digit integer and |a| rounding to D·10^(e−16); D = e = 0 at 0."""
    nz = a != 0
    e = np.floor(np.log10(np.where(nz, a, 1.0))).astype(np.int64)
    wide = a.astype(np.longdouble)
    y = wide * _POW10[e - _E_MIN]
    off = ((y >= 1e17) | (y < 1e16)) & nz  # log10 is one off next to a power of ten
    if off.any():
        e[off] += np.where(y[off] >= 1e17, 1, -1)
        y[off] = wide[off] * _POW10[e[off] - _E_MIN]
    d = y.astype(np.uint64)
    frac = (y - d).astype(np.float64)
    near = np.flatnonzero((np.abs(frac - 0.5) <= _WINDOW[e - _E_MIN]) & nz)
    d += frac > 0.5
    top = d == 10 ** 17
    d[top] = 10 ** 16
    e += top
    if near.size:
        texts = ["%.16e" % v for v in a[near].tolist()]
        d[near] = [int(t[0] + t[2:18]) for t in texts]
        e[near] = [int(t[19:]) for t in texts]
    e[~nz] = 0
    return d, e


def format_rows(block: np.ndarray) -> str:
    """``"".join(",".join("%.17g" % v for v in r) + "\\n" for r in block.tolist())``.

    Every value of the 2-D float64 ``block`` is laid out in a 30-byte column
    (sign, "0.000", 17 digits with a dot slot, "e±XXX", separator) of a
    column-major matrix, so each step runs along all values at once; the
    unused bytes stay NUL and are dropped at the end.
    """
    x = block.ravel()
    n = len(x)
    d, e = _digits(np.abs(x))
    hi, lo = np.divmod(d, 10 ** 8)
    groups = np.empty((4, n), np.intp)
    np.divmod(hi, 10 ** 4, out=(groups[0], groups[1]), casting="unsafe")
    np.divmod(lo, 10 ** 4, out=(groups[2], groups[3]), casting="unsafe")
    groups[0] %= 10 ** 4
    digits = np.zeros((19, n), np.uint8)  # rows 1..17 hold the digits, 0 and 18 stay NUL
    digits[1] = hi // 10 ** 8 + 48
    digits[2:18] = _QUADS[groups].view(np.uint8).reshape(4, n, 4).transpose(0, 2, 1).reshape(16, n)
    last = ((digits[1:18] != 48) * _K[:17]).max(axis=0)  # the last non-zero digit
    e = e.astype(np.int16)
    sci = (e < -4) | (e > 16)
    small = ~sci & (e < 0)
    point = np.where(sci, 1, e + 1).astype(np.int8)  # digits before the dot
    digits[1:18] *= _K[:17] <= np.maximum(point - 1, last)
    point[small | (last < point)] = 18  # no dot among the digits
    out = np.zeros((30, n), np.uint8)
    out[0] = np.signbit(x) * np.uint8(45)
    out[1:6] = _PREFIX * (_K[:5] < np.where(small, 1 - e, 0))
    before = _K < point
    out[6:24] = digits[1:] * before + digits[:18] * ~before
    out.reshape(-1)[np.arange(n) + n * (6 + point.astype(np.intp))] = 46
    mag = np.abs(e)
    out[24] = sci * np.uint8(101)  # also clears the dot slot of a value without a dot
    out[25] = np.where(e < 0, 45, 43).astype(np.uint8) * sci
    out[26] = (mag // 100 + 48) * (sci & (mag >= 100))
    out[27] = (mag // 10 % 10 + 48) * sci
    out[28] = (mag % 10 + 48) * sci
    out[29] = 44
    out[29, block.shape[1] - 1::block.shape[1]] = 10
    text = out.T.ravel()
    return text[text != 0].tobytes().decode("ascii")
