"""The numerical kernels shared by the calculus modules, one implementation
each: circle trapezoid quadrature (geometrically convergent for functions
analytic on an annulus; Trefethen & Weideman, SIAM Review 56, 2014), factored
contour synthesis, point-mass synthesis and its scaled singular function,
residue weights, the windowed weighted mass with the flat-remainder
certification built on it, and the CSV row writer.  numpy and the standard
library only.
"""

import functools
import math

import numpy as np

from .errors import CertificationFailed

# Flat-remainder certification: weighted masses on the window t >=
# CERT_T_FLOOR (further left, shifted weights amplify rounding noise past
# any fixed threshold) at the shifts frac * (depth - CERT_MARGIN) must stay
# within CERT_FACTOR of the base-weight mass.
CERT_T_FLOOR = -12.0
CERT_FACTOR = 50.0
CERT_FRACS = (0.25, 0.6, 0.95)
CERT_MARGIN = 0.1


def circle_nodes(center, radius, n):
    """Trapezoid rule on |z - center| = radius, counter-clockwise:
    (theta, z nodes, dz weights) with n equispaced nodes."""
    theta = 2 * np.pi * np.arange(n) / n
    z = center + radius * np.exp(1j * theta)
    dz = 1j * radius * np.exp(1j * theta) * (2 * np.pi / n)
    return theta, z, dz


def circle_moments(f, center, radius, ks, n):
    """d_k = (2 pi i)^{-1} oint f(z) (z - center)^k dz for k in ks, by the
    n-node trapezoid rule: d_k = radius^{k+1} mean(f e^{i(k+1) theta}).

    At a pole, d_k is the coefficient of (z - center)^{-(k+1)}; k = -(l+1)
    gives the Cauchy integral f^(l)(center) / l!.
    """
    theta, z, _dz = circle_nodes(center, radius, n)
    fv = np.asarray(f(z), dtype=complex)
    ks = np.asarray(ks)
    return radius ** (ks + 1) * np.mean(
        fv[None, :] * np.exp(1j * np.outer(ks + 1, theta)), axis=1
    )


def contour_synthesis(grid, z, f_dz):
    """sum over contour nodes of f(z) r^{-z} dz / (2 pi i) at the grid's
    r = e^t, with f_dz = f(z) dz.  t = t_a + s_b (t_a = t_min + a B dt,
    s_b = b dt) factors e^{-t z} into one (N/B x K) @ (K x B) product:
    (N/B + B) K exponentials in place of N K."""
    n, dt = grid.n_points, grid.dt
    b = 2 ** ((n.bit_length() - 1) // 2)   # n = 2^k: b = 2^floor(k/2)
    rows = np.exp(np.outer(-grid.t_min - b * dt * np.arange(n // b), z))
    cols = np.exp(np.outer(-dt * np.arange(b), z))
    return ((rows * f_dz) @ cols.T).reshape(n) / (2j * np.pi)


def point_mass_synthesis(s, masses):
    """sum_j sum_l w_jl (-s)^l e^{-p_j s} for masses [(p_j, w_j)], at
    s = log r (or log(r [eta]) for scaled arguments)."""
    vals = np.zeros(np.shape(s), dtype=complex)
    for p, weights in masses:
        rp = np.exp(-p * s)
        for l, w in enumerate(weights):
            if w != 0:
                vals += w * (-s) ** l * rp
    return vals


def residue_weights(d, taylor):
    """w_k = sum_{i>=k} d_i T_{i-k} / k!, k < len(d): with d the Laurent
    data of a symbol at p and T the Taylor data of the function it
    multiplies, the residue of r^{-z} times the product at p is
    sum_k w_k (-log r)^k r^{-p}."""
    m = len(d)
    return np.array([
        sum(d[i] * taylor[i - k] for i in range(k, m)) / math.factorial(k)
        for k in range(m)
    ], dtype=complex)


def windowed_mass(s, values, gamma, dt):
    """sqrt(dt sum |e^{(1/2 - gamma) s} v|^2) over the window
    s >= CERT_T_FLOOR; inf when a windowed sample is not finite."""
    sel = s >= CERT_T_FLOOR
    w = np.exp((0.5 - gamma) * s[sel]) * values[sel]
    if not np.all(np.isfinite(w)):
        return np.inf
    return float(np.sqrt(dt * np.sum(np.abs(w) ** 2)))


def scaled_singular(masses, t, s, omega):
    """s^{1/2} omega(e^t s) point_mass_synthesis(t + log s, masses): the
    singular function of point masses [(p_j, w_j)] at the scaled argument
    r s, r = e^t (s = [eta] on an edge mode, s = 1 on the cone)."""
    ts = t + np.log(s)
    return np.sqrt(s) * omega(np.exp(ts)) * point_mass_synthesis(ts, masses)


def certify_flat(mass, gamma, depth, what):
    """Ratios mass(gamma + b) / mass(gamma) at the shifts
    b = frac * (depth - CERT_MARGIN), frac in CERT_FRACS, with mass a
    callable of the weight.  A certified flat part keeps every ratio <=
    CERT_FACTOR (a missed pole blows it up by many orders of magnitude);
    the first ratio above it raises CertificationFailed naming `what`."""
    beta = depth - CERT_MARGIN
    shifts = [frac * beta for frac in CERT_FRACS]
    base = max(mass(gamma), 1e-300)
    ratios = [mass(gamma + b) / base for b in shifts]
    for beta_p, ratio in zip(shifts, ratios):
        if not ratio <= CERT_FACTOR:
            raise CertificationFailed(
                "%s fails the weight check at beta'=%.4g (mass ratio %.3e); "
                "a deeper harvest is likely needed" % (what, beta_p, ratio))
    return ratios


# ----------------------------------------------------------------------
# CSV rows: '%.17g' % v and '%d' % v, byte for byte, for whole arrays

# Fast-path range of |x|: the two-product below neither overflows nor
# underflows there.  Zeros, subnormals, non-finite values and the rest go
# to '%.17g' % x, as do near-ties the error bound cannot certify.
G17_LO, G17_HI = 1e-280, 1e280
G17_E_MIN, G17_E_MAX = -281, 280      # decades the tables cover
# For a 10^q < 1e17 the two-product p + l below is within 4.3e-15 of
# a 10^q: a 10^q 2^-106 from the double-double's rounding, half an ulp of
# a * lo (below 11.1) and of the sum forming l (below 19.2).  A fraction
# |l - rint l| within G17_TIE_BOUND of 1/2 is not certified.
G17_TIE_BOUND = 1e-13
_VELTKAMP = 134217729.0               # 2^27 + 1
# Byte planes of a '%.17g' field: sign, "0.000", 17 digits with a point
# among them, "e", exponent sign, 3 exponent digits; a zero byte is not
# shown (no output character is NUL).
G17_WIDTH = 29
# Rows formatted and compacted at a time: bounds the working planes.  On
# solution.csv's shape (N = 8192, 5 y nodes, 4 columns; 2 vCPUs) 4096 rows
# write in 36 ms against 48 ms at 1024, for 1.1 MB more peak RSS.
CSV_CHUNK_ROWS = 4096
# Up to this many rows of plain arrays, '%.17g' % v itself is as fast and
# spares the process the fast path's fixed cost: its tables and numpy's
# loops, about 0.4 MB of resident memory.
CSV_SMALL_ROWS = 256


@functools.cache
def _g17_tables():
    """Built on first use, in exact integer arithmetic, indexed by the
    decade e - G17_E_MIN: thr, the least double >= 10^e (one more entry);
    hi, hh, hl, lo with hi + lo the double-double 10^(16-e) and hh + hl =
    hi its Veltkamp halves; and ascii4, the ASCII digits of 0..9999 as
    little-endian uint32 words."""
    thr, pow10 = [], []
    for e in range(G17_E_MIN, G17_E_MAX + 2):
        if e >= 0:
            t = float(10 ** e)
            below = int(t) < 10 ** e
        else:
            t = 1 / 10 ** -e                  # correctly rounded
            m, s = t.as_integer_ratio()
            below = m * 10 ** -e < s
        thr.append(math.nextafter(t, math.inf) if below else t)
    for e in range(G17_E_MIN, G17_E_MAX + 1):
        q = 16 - e
        if q >= 0:
            hi = float(10 ** q)
            lo = float(10 ** q - int(hi))
        else:
            hi = 1 / 10 ** -q
            m, s = hi.as_integer_ratio()
            lo = (s - m * 10 ** -q) / (s * 10 ** -q)
        t = _VELTKAMP * hi
        hh = t - (t - hi)
        pow10.append((hi, hh, hi - hh, lo))
    ascii4 = np.empty((10, 10, 10, 10, 4), dtype=np.uint8)
    digit = np.arange(48, 58, dtype=np.uint8)
    for k in range(4):
        ascii4[..., k] = digit.reshape((10,) + (1,) * (3 - k))
    return (np.array(thr),) + tuple(np.array(pow10).T.copy()) + (
        ascii4.view("<u4").ravel(),)


def g17_digits(x):
    """(d, e, sure) for float64 x: where sure, d = round(|x| 10^(16-e)) is
    in [10^16, 10^17) and '%.17g' % x shows the digits of d times
    10^(e-16).

    d is the certified rounding of the Dekker two-product of |x| with the
    double-double 10^(16-e) (Dekker, Numer. Math. 18, 1971), exact ties
    going half-even; elements outside [G17_LO, G17_HI) and near-ties are
    not sure."""
    thr, phi, phh, phl, plo, _ascii4 = _g17_tables()
    a = np.abs(x)
    sure = (a >= G17_LO) & (a < G17_HI)
    a[~sure] = 1.0
    # with 2^b <= a < 2^(b + 1), floor(log10 a) is floor(b log10 2) or one
    # more; b log10 2 is 0 at b = 0 and else over 4.5e-4 from an integer
    b = (a.view(np.int64) >> 52) - 1023
    i = np.floor(b * math.log10(2)).astype(np.intp) - G17_E_MIN
    i += a >= thr.take(i + 1)
    p = a * phi.take(i)
    ah = _VELTKAMP * a
    ah -= ah - a
    al = a - ah
    hh, hl = phh.take(i), phl.take(i)
    l = ah * hh
    l -= p
    l += ah * hl
    l += al * hh
    l += al * hl
    l += a * plo.take(i)
    del ah, al, hh, hl
    n = np.rint(l)
    # lo == 0: 10^(16-e) is a double, p + l is exact and so is a tie
    l -= n
    sure &= (np.abs(np.abs(l) - 0.5) >= G17_TIE_BOUND) | (plo.take(i) == 0)
    d = p.astype(np.int64)
    d += n.astype(np.int64)                     # p >= 1e16 > 2^53
    carry = d == 10 ** 17
    d[carry] = 10 ** 16
    i += carry
    return d, i + G17_E_MIN, sure


def g17_field(values):
    """'%.17g' % v for each float v, as G17_WIDTH uint8 planes over the
    shape of `values`, zero where a plane is not shown; '%.17g' % v itself
    (CPython's correctly rounded dtoa; Gay, AT&T NA Manuscript 90-10, 1990)
    where g17_digits is not sure."""
    x = np.asarray(values, dtype=np.float64)
    shape = x.shape
    x = x.ravel()
    n = x.size
    d, e, sure = g17_digits(x)
    # digits[k]: digit k of d (k < 17), the leading one and four words of
    # four, split in float64: for integers w < 10^9, w * 1e-4 exceeds
    # w / 10^4 by less than 1e-10 (1e-4 rounds up), so its floor is exact;
    # digits[17] = "0"
    top, low = np.divmod(d, 10 ** 8)
    del d
    top, low = top.astype(np.float64), low.astype(np.float64)
    words = np.empty((4, n))
    upper = np.floor(top * 1e-4)
    lead = np.floor(upper * 1e-4)
    words[0] = upper - lead * 1e4
    words[1] = top - upper * 1e4
    words[2] = np.floor(low * 1e-4)
    words[3] = low - words[2] * 1e4
    digits = np.empty((18, n), dtype=np.uint8)
    digits[0] = 48 + lead
    digits[1:17].reshape(4, 4, n)[...] = _g17_tables()[5].take(
        words.astype(np.intp)).view(np.uint8).reshape(4, n, 4).transpose(
            0, 2, 1)
    del words
    digits[17] = 48
    chars = np.empty((G17_WIDTH, n), dtype=np.uint8)
    # nd significant digits: 17 less the trailing zeros
    zero = digits[16] == 48
    nd = 17 - zero.view(np.uint8)
    for k in range(15, 0, -1):
        zero &= digits[k] == 48
        nd -= zero.view(np.uint8)
    fixed = (e >= -4) & (e < 17)
    small = fixed & (e < 0)
    # the point follows `pos` digits (pos = 17: no point); planes shown
    pos = np.where(fixed, np.where(small, 17, e + 1), 1).astype(np.uint8)
    shown = np.where(fixed & ~small, np.maximum(nd, pos), nd) + (nd > pos)
    np.multiply(x < 0, np.uint8(45), out=chars[0])
    zeros = np.where(small, 1 - e, 0).astype(np.uint8)
    np.less(np.arange(5, dtype=np.uint8)[:, None], zeros, out=chars[1:6])
    chars[1:6] *= np.frombuffer(b"0.000", dtype=np.uint8)[:, None]
    chars[6] = digits[0]
    # plane 6 + j: digit j before the point, digit j - 1 after it (a
    # uint8 blend, free of data-dependent branches), "." at j = pos
    body = chars[7:24]
    np.subtract(digits[1:18], digits[0:17], out=body)
    body *= np.arange(1, 18, dtype=np.uint8)[:, None] < pos
    body += digits[0:17]
    chars.reshape(-1)[(6 + pos.astype(np.intp)) * n + np.arange(n)] = 46
    chars[6:24] *= np.arange(18, dtype=np.uint8)[:, None] < shown
    ae = np.abs(e)
    chars[24] = 101
    chars[25] = np.where(e < 0, 45, 43)
    chars[26] = 48 + ae // 100
    chars[27] = 48 + ae // 10 % 10
    chars[28] = 48 + ae % 10
    chars[24:29] *= ~fixed
    chars[26] *= ae >= 100
    rest = np.flatnonzero(~sure)
    if rest.size:
        # NUL-padded: the padding is not shown
        chars[:, rest] = np.array(
            [b"%.17g" % v for v in x[rest].tolist()],
            dtype="S%d" % G17_WIDTH).view(np.uint8).reshape(-1, G17_WIDTH).T
    return chars.reshape((G17_WIDTH,) + shape)


def d_field(values):
    """'%d' % v for each int64 v, as uint8 planes over the shape of
    `values`, zero where not shown: a sign plane and as many digit planes
    as the largest |v| has."""
    v = np.asarray(values, dtype=np.int64)
    neg = v < 0
    u = v.astype(np.uint64)
    u = np.where(neg, np.uint64(0) - u, u)
    width = 1 + len(str(int(u.max()))) if u.size else 2
    chars = np.empty((width,) + v.shape, dtype=np.uint8)
    chars[0] = 45 * neg
    for k in range(width - 1, 0, -1):
        u, r = np.divmod(u, np.uint64(10))
        chars[k] = 48 + r
    # leading zeros are not shown; the last digit always is
    chars[1:-1] *= ~np.logical_and.accumulate(chars[1:-1] == 48)
    return chars


def csv_rows(columns):
    """The rows ",".join(fields) + "\\n" as uint8 arrays (bytes for at
    most CSV_SMALL_ROWS rows of arrays), a chunk of at most CSV_CHUNK_ROWS
    rows each.  A column is a float array ('%.17g' % v), an integer array
    ('%d' % v) or the 2-D planes of g17_field, which repeat on every row
    when they hold one column."""
    columns = [c if c.ndim == 2 and c.dtype == np.uint8 else c.ravel()
               for c in map(np.asarray, columns)]
    n = max(c.shape[-1] for c in columns)
    if n <= CSV_SMALL_ROWS and all(c.ndim == 1 for c in columns):
        fmt = ",".join("%d" if c.dtype.kind in "iu" else "%.17g"
                       for c in columns) + "\n"
        yield "".join(fmt % row for row in zip(*[c.tolist() for c in columns])
                      ).encode("ascii")
        return
    groups = [(fmt, [j for j, c in enumerate(columns)
                     if c.ndim == 1 and (c.dtype.kind in "iu") == ints])
              for fmt, ints in ((g17_field, False), (d_field, True))]
    for start in range(0, n, CSV_CHUNK_ROWS):
        rows = slice(start, min(n, start + CSV_CHUNK_ROWS))
        fields = [c[:, rows] if c.ndim == 2 and c.shape[1] > 1 else c
                  for c in columns]
        for fmt, js in groups:
            if js:
                planes = fmt(np.stack([columns[j][rows] for j in js]))
                for s, j in enumerate(js):
                    fields[j] = planes[:, s]
        yield _join(fields, rows.stop - rows.start)


def _join(fields, n):
    """The fields' nonzero bytes row by row, "," between, "\\n" after."""
    keeps = [np.flatnonzero(f.any(axis=1)) for f in fields]
    chars = np.empty((n, sum(map(len, keeps)) + len(fields)), dtype=np.uint8)
    o = 0
    for j, (f, keep) in enumerate(zip(fields, keeps)):
        w = len(keep)
        # a one-column block broadcasts down the rows
        chars[:, o:o + w] = np.take(f, keep, axis=0).T
        chars[:, o + w] = ord("\n" if j == len(fields) - 1 else ",")
        o += w + 1
    return chars[chars != 0]
