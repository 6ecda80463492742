"""``'%.17g'`` text for whole float64 blocks, at array speed.

:func:`format_rows` writes exactly the bytes of CPython's correctly rounded
``'%.17g' % x`` for every finite value.  The 17 digits come from |x|·10^(16−e)
as an error-free double-double product (Dekker, Numer. Math. 18, 224 (1971));
a value within :data:`_TIE` of a rounding tie, with digits off the 17-digit
range or with e off the table takes them from ``'%.16e' % x`` instead.
"""

import numpy as np

_E_MIN, _E_MAX = -326, 310  # decimal exponents of finite doubles, one step of slack
_E = np.arange(_E_MIN, _E_MAX + 1)
#: Half-width of the window around a rounding tie sent to '%.16e'; the scaled
#: fraction is off by less than 4e-15 (docs/conventions.md, "CSV numbers").
_TIE = 2.0 ** -20
_HIGH = np.uint64(2 ** 64 - 2 ** 26)  # sign, exponent and the upper 27 significant bits
_K = np.arange(18, dtype=np.int8)[:, None]


def _pow10_parts():
    """Rows H, H's upper and lower 26 bits, L: 10^(16−e) = H + L, each correctly rounded, for
    |e| ≤ 280 (the split stays finite, L a normal double); 0, off every digit range, beyond."""
    high, low = np.zeros((2, len(_E)))
    for e in range(-280, 281):  # 10^(16-e) = num / den and H = h_num / h_den; int / int rounds
        num, den = 10 ** max(16 - e, 0), 10 ** max(e - 16, 0)
        h_num, h_den = (num / den).as_integer_ratio()
        high[e - _E_MIN], low[e - _E_MIN] = num / den, (num * h_den - h_num * den) / (den * h_den)
    split = high * (2.0 ** 27 + 1)  # Veltkamp
    upper = split - (split - high)
    return np.stack([high, upper, high - upper, low])


def _form(e):
    """The text '%g' puts before ("0.000", below 1) and after ("e±XXX") the digits at exponent e."""
    if e < -4 or e > 16:
        return "\0" * 5 + "e" + "-+"[e > 0] + ("%02d" % abs(e)).rjust(3, "\0")
    return "0." + "0" * (-1 - e) if e < 0 else ""


_POW10 = _pow10_parts()
_FORMS = np.array([list(_form(e).ljust(10, "\0").encode()) for e in _E.tolist()], np.uint8).T.copy()
# per e: the digits before the dot (18: no dot among them), the last digit kept whatever its value
_POINT = np.select([(_E < -4) | (_E > 16), _E < 0], [1, 18], _E + 1).astype(np.int8)
_KEEP = np.where(_POINT == 18, -1, _POINT - 1).astype(np.int8)


def _exact(values):
    """D and e of each value from CPython's correctly rounded ``'%.16e'`` text."""
    texts = ["%.16e" % v for v in values.tolist()]
    return [int(t[0] + t[2:18]) for t in texts], [int(t[19:]) for t in texts]


def _digits(a: np.ndarray):
    """(D, e) with D a 17-digit integer and |a| rounding to D·10^(e−16); D = e = 0 at 0."""
    nz = a != 0
    e = np.floor(np.log10(np.where(nz, a, 1.0))).astype(np.int64)
    high, upper, lower, low = np.take(_POW10, e - _E_MIN, axis=1)
    a_upper = (a.view(np.uint64) & _HIGH).view(np.float64)
    a_lower = a - a_upper
    y = a * high  # an integer from 2^53 up; c = the exact error of y + a·low
    c = a_upper * upper - y
    c += a_upper * lower
    c += a_lower * upper
    c += a_lower * lower
    c += a * low
    del high, upper, lower, low, a_upper, a_lower
    whole = np.floor(c)
    frac = np.subtract(c, whole, out=c)
    d = y.astype(np.int64) + whole.astype(np.int64)
    # the digits before rounding lie in [1e16, 1e17 - 1) unless log10 was one off next to a
    # power of ten; stopping short of 17 nines leaves no carry into an 18th digit
    slow = (d - 10 ** 16).view(np.uint64) >= 9 * 10 ** 16 - 1
    slow |= np.abs(frac - 0.5) < _TIE
    slow &= nz
    d += frac > 0.5
    near = np.flatnonzero(slow)
    if near.size:
        d[near], e[near] = _exact(a[near])
    return d, e


def format_rows(block: np.ndarray) -> bytes:
    """``"".join(",".join("%.17g" % v for v in r) + "\\n" for r in block.tolist())``, in ASCII.

    Every value of the 2-D float64 ``block`` is laid out in a 30-byte column
    (sign, "0.000", 17 digits with a dot slot, "e±XXX", separator) of a
    column-major matrix, so each step runs along all values at once; the
    unused bytes stay NUL and are dropped at the end.
    """
    x = block.ravel()
    n = len(x)
    d, at = _digits(np.abs(x))
    at -= _E_MIN  # the column of e in the tables
    groups = np.empty((5, n), np.uint16)  # four digits each; the leading digit ends the first
    for k in range(4, -1, -1):
        step = d // 10 ** 4
        groups[k] = d - step * 10 ** 4
        d = step
    grid = np.zeros((21, n), np.uint8)
    places = grid[:20].reshape(5, 4, n)
    for k, scale in enumerate((1000, 100, 10, 1)):
        places[:, k] = step = groups // scale
        groups -= step * np.uint16(scale)
    del d, groups, step, places  # each table goes once read: 4096 values peak near 0.37 MB
    digits = grid[2:]  # rows 1..17 hold the digits, 0 and 18 stay NUL
    last = ((digits[1:18] != 0) * _K[:17]).max(axis=0)  # the last non-zero digit
    digits[1:18] += 48
    point = _POINT[at]
    out = np.zeros((30, n), np.uint8)
    out[0] = np.signbit(x) * np.uint8(45)
    np.take(_FORMS[:5], at, axis=1, out=out[1:6], mode="clip")
    body = np.subtract(digits[1:], digits[:18], out=out[6:24])  # uint8 wraps: a select
    body *= _K < point
    body += digits[:18]
    del grid, digits
    out.reshape(-1)[point.astype(np.intp) * n + np.arange(6 * n, 7 * n)] = 46
    body *= _K <= np.maximum(_KEEP[at], last + (last >= point))  # a digit after the dot moved
    np.take(_FORMS[5:], at, axis=1, out=out[24:29], mode="clip")  # clears a dot with no digit after
    del at, point, last
    out[29] = 44
    out[29, block.shape[1] - 1::block.shape[1]] = 10
    return out.T.tobytes().translate(None, b"\0")
