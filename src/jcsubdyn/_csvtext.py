"""``'%.17g'`` and ``repr`` text for whole float64 blocks, at array speed.

:func:`format_rows` writes exactly the bytes of ``'%.17g' % x``, :func:`format_json`
those of ``repr(x)``, for every finite value.  The 17 digits come from |x|·10^(16−e)
as an error-free double-double product (Dekker, Numer. Math. 18, 224 (1971)); a value
within :data:`_TIE` of a tie, with digits off the 17-digit range or with e off the
table takes them from ``'%.16e' % x`` instead, or its whole text from ``repr``.
"""

import numpy as np

_E_MIN, _E_MAX = -326, 310  # decimal exponents of finite doubles, one step of slack
_E = np.arange(_E_MIN, _E_MAX + 1)
#: Half-width of the window around a rounding tie sent to '%.16e'; the scaled
#: fraction is off by less than 4e-15 (docs/conventions.md, "CSV numbers").
_TIE = 2.0 ** -20
_HIGH = np.uint64(2 ** 64 - 2 ** 26)  # sign, exponent and the upper 27 significant bits
_MANTISSA, _EXPONENT = np.uint64(2 ** 52 - 1), np.uint64(2 ** 63 - 2 ** 52)
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


def _layout(top, fraction):
    """Per e, in scientific form below 1e-4 and above 10^top: the text before ("0.000") and after
    ("e±XX") the digits, the digits before the dot (18: none among them) and the last body row
    kept whatever its value: the integer digits, with ``fraction`` the dot and one more."""
    sci = (_E < -4) | (_E > top)
    forms = "".join(("\0" * 5 + "e%+03d" % e if s else "0." + "0" * (-1 - e) if e < 0 else "")
                    .ljust(10, "\0") for e, s in zip(_E.tolist(), sci.tolist()))
    point = np.select([sci, _E < 0], [1, 18], _E + 1).astype(np.int8)
    keep = np.select([point == 18, sci], [-1, 0], point - 1 + 2 * fraction).astype(np.int8)
    return np.frombuffer(forms.encode(), np.uint8).reshape(-1, 10).T.copy(), point, keep


_POW10 = _pow10_parts()
_PERCENT_17G, _REPR = _layout(16, False), _layout(15, True)


def _exact(values):
    """D and the table column of e of each value from CPython's correctly rounded ``'%.16e'``."""
    texts = ["%.16e" % v for v in values.tolist()]
    return [int(t[0] + t[2:18]) for t in texts], [int(t[19:]) - _E_MIN for t in texts]


def _scaled(a: np.ndarray):
    """(d, frac, at, slow): |a|·10^(16−e) = d + frac ± 4e-15, e at the column ``at``, d in
    [1e16, 1e17 − 1) unless ``slow`` (so is a fraction within _TIE of ½) or a = 0 (e = 0)."""
    nz = a != 0
    at = np.floor(np.log10(np.where(nz, a, 1.0))).astype(np.int64) - _E_MIN
    a_upper = (a.view(np.uint64) & _HIGH).view(np.float64)
    a_lower = a - a_upper
    y = a * np.take(_POW10[0], at)  # an integer from 2^53 up; c = the exact error of y + a·low
    upper, lower = np.take(_POW10[1], at), np.take(_POW10[2], at)  # each table goes once read
    c = a_upper * upper - y
    c += a_upper * lower
    c += a_lower * upper
    c += a_lower * lower
    del upper, lower, a_upper, a_lower
    c += a * np.take(_POW10[3], at)
    whole = np.floor(c)
    frac = np.subtract(c, whole, out=c)
    d = y.astype(np.int64) + whole.astype(np.int64)
    # the digits before rounding lie in [1e16, 1e17 - 1) unless log10 was one off next to a
    # power of ten; stopping short of 17 nines leaves no carry into an 18th digit
    slow = (d - 10 ** 16).view(np.uint64) >= 9 * 10 ** 16 - 1
    slow |= np.abs(frac - 0.5) < _TIE
    slow &= nz
    return d, frac, at, slow


def _digits(a: np.ndarray):
    """(D, at, []): |a| rounds to 17 digits D·10^(e−16), e at the column ``at``; 0, 0 at 0."""
    d, frac, at, slow = _scaled(a)
    d += frac > 0.5
    near = np.flatnonzero(slow)
    if near.size:
        d[near], at[near] = _exact(a[near])
    return d, at, near[:0]


def _shortest(a: np.ndarray):
    """(D, at, fall): the digits of ``repr`` as a 17-digit D, e at the column ``at``, and where
    D is not decided: a bound or a tie within _TIE, an uneven interval (powers of two, and 0)
    or a carry into an 18th digit.  D is the nearest 15 digits where they lie within half an
    ulp, which makes a shorter text too, else the nearest 16, else the nearest 17."""
    d, frac, at, slow = _scaled(a)
    slow |= (a.view(np.uint64) & _MANTISSA) == 0
    half = (a.view(np.uint64) & _EXPONENT).view(np.float64)  # 2^52 ulps, or 0 below normal
    half *= np.take(_POW10[0], at)
    half *= 2.0 ** -53  # half an ulp in units of the 17th digit, at most 11.1
    del a
    step = (frac > 0.5).astype(np.int64)
    for unit in (10, 100):  # 16 digits, then 15 where they fit too
        below = d % unit
        t = below + frac
        off = np.minimum(t, unit - t)
        slow |= np.abs(off - half) < _TIE
        slow |= np.abs(t - unit / 2) < _TIE
        np.copyto(step, (t > unit / 2) * unit - below, where=off < half)
    d += step
    slow |= d == 10 ** 17
    return d, at, np.flatnonzero(slow)


def _text(x, digits_of, layout, width, separate) -> bytes:
    """Each value of x laid out from ``digits_of(|x|)`` (``repr`` where it leaves one open) in a
    column of a column-major byte matrix: sign, "0.000", 17 digits with a dot slot, "e±XXX",
    ``width`` rows that ``separate`` fills.  So each step runs along all values at once; the
    unused bytes stay NUL and are dropped at the end."""
    forms, point_at, keep_at = layout
    n = len(x)
    d, at, fall = digits_of(np.abs(x))
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
    del d, groups, step, places  # each table goes once read: 4096 values peak near 0.3 MB
    digits = grid[2:]  # rows 1..17 hold the digits, 0 and 18 stay NUL
    last = ((digits[1:18] != 0) * _K[:17]).max(axis=0)  # the last non-zero digit
    digits[1:18] += 48
    point = point_at[at]
    out = np.zeros((29 + width, n), np.uint8)
    out[0] = np.signbit(x) * np.uint8(45)
    np.take(forms[:5], at, axis=1, out=out[1:6], mode="clip")
    body = np.subtract(digits[1:], digits[:18], out=out[6:24])  # uint8 wraps: a select
    for rows in (slice(0, 9), slice(9, 18)):  # its mask in halves: the largest temporary
        body[rows] *= _K[rows] < point
    body += digits[:18]
    del grid, digits
    out.reshape(-1)[point.astype(np.intp) * n + np.arange(6 * n, 7 * n)] = 46
    body *= _K <= np.maximum(keep_at[at], last + (last >= point))  # a digit after the dot moved
    np.take(forms[5:], at, axis=1, out=out[24:29], mode="clip")  # clears a dot with no digit after
    del at, point, last, body
    separate(out[29:])
    if fall.size:
        texts = np.array(list(map(float.__repr__, x[fall].tolist())), "S29")
        out[:29, fall] = texts.view(np.uint8).reshape(-1, 29).T
    text = out.T.tobytes()
    del out
    return text.translate(None, b"\0")


def format_rows(block: np.ndarray) -> bytes:
    """``"".join(",".join("%.17g" % v for v in r) + "\\n" for r in block.tolist())``."""
    def separate(rows):  # a comma after each value, a newline after a row's last
        rows[0] = 44
        rows[0, block.shape[1] - 1::block.shape[1]] = 10

    return _text(block.ravel(), _digits, _PERCENT_17G, 1, separate)


def format_json(values: np.ndarray, kinds: np.ndarray, seps) -> bytes:
    """``b"".join(float.__repr__(v).encode() + seps[k] for v, k in zip(values, kinds))``: of
    the nearest 15, 16 and 17 digits, the fewest within half an ulp, in ``repr``'s notation."""
    width = max(map(len, seps))
    table = np.frombuffer(b"".join(s.ljust(width, b"\0") for s in seps), np.uint8)
    return _text(values, _shortest, _REPR, width,
                 lambda rows: np.take(table.reshape(-1, width).T, kinds, axis=1, out=rows))
