"""Integration of the vertical momentum system and horizontal lifts.

Fixed-step classical RK4 throughout (reproducible diagnostics). Every
evaluation of the vertical field goes through kernels.py and the
structure's ``vertical_terms``: the vertical loop one momentum at a time,
the lift's stage points and the fixed-point search on arrays. The work done
per sample afterwards (H and Casimirs, the lift's propagators) runs on
whole arrays, and so does the lift's product G_{i+1} = G_i Phi_i: blocked
prefix products, chunk by chunk, with only the chunk ends chained in
order. The fixed-point search runs Gauss-Newton on all its seeds at once,
with one batched pseudo-inverse per iteration.

CSV text is made per block of rows and its bytes are those of '%.17g' on
every value. Each run of adjacent columns that hold one 64-bit pattern
throughout the block is printed once, as one segment of text, and repeated;
the other values get their 17 significant digits from a double-double
product and their layout from numpy byte arithmetic, and '%.17g' itself
prints those the product cannot certify. A lift whose G overflows ends at
its last finite G.
"""

import functools
from dataclasses import dataclass, field

import numpy as np

from .hamiltonian import Momentum
from .kernels import field_jacobian, field_rows, rk4_stage_points, vertical_rk4

# Rows per block of CSV text, steps per block of lift propagators, and
# propagators per chunk of the lift's prefix products (a power of two).
CSV_BLOCK_ROWS = 512
LIFT_BLOCK_STEPS = 1024
LIFT_CHUNK = 64

# -- CSV text: the bytes of '%.17g' % value, made over whole arrays ----------
#
# _digits17 finds the 17 significant digits D and the decimal exponent X of
# each value from a double-double product, or reports that it cannot
# certify them. _layout writes the text of a certified value into a field
# of four little-endian 64-bit words: word 0 holds the sign and the "0.000"
# prefix of fixed notation below 1; words 1-3 hold the digits with the
# point among them and then "e+XX". '%.17g' prints every other value into
# the same field; it never needs more than 24 bytes. The last byte of a
# field is its separator. A run of constant columns is instead one segment
# of text, with its separators, padded to whole words (_csv_rows). Bytes
# that no text uses hold the filler byte 0, which one bytes.translate
# deletes from a block's text.
_X_MIN, _X_MAX = -99, 99  # decimal exponents of the power table
# The double-double |x| * 10^(16 - X) is within 5e-15 of the exact product
# (about 3 * 2^-106 relative, plus one rounding of a sum below 32); a
# fraction this far from 1/2 rounds to the same 17 digits as the exact one.
_TIE_MARGIN = 1e-9
_SPLIT = 134217729.0  # 2^27 + 1, Veltkamp's splitting constant


def _split(a):
    """Veltkamp split: a = hi + lo exactly, each with at most 26 bits."""
    c = _SPLIT * a
    hi = c - (c - a)
    return hi, a - hi


# Built on the first block of CSV text, not at import: a process that
# prints none then does not hold them (about 0.9 MB resident).
@functools.cache
def _power_table():
    """10^(16 - X) for _X_MIN <= X <= _X_MAX, indexed by _X_MAX - X, as
    float pairs (hi, lo): hi is the power rounded to a float, lo the rest
    rounded to a float, so hi + lo is within 2^-106 of the power. hi also
    comes split for the exact product."""
    pairs = []
    for k in range(16 - _X_MAX, 16 - _X_MIN + 1):
        num, den = (10 ** k, 1) if k >= 0 else (1, 10 ** -k)
        hi = num / den  # int / int rounds correctly
        hi_num, hi_den = hi.as_integer_ratio()
        pairs.append((hi, (num * hi_den - hi_num * den) / (den * hi_den)))
    hi, lo = np.array(pairs).T
    return hi, lo, *_split(hi)


def _words(byte_strings, nwords):
    """Each byte string, zero-padded, as nwords little-endian words."""
    raw = b"".join(b.ljust(8 * nwords, b"\0") for b in byte_strings)
    return np.frombuffer(raw, "<u8").astype(np.uint64).reshape(-1, nwords)


@functools.cache
def _layout_tables():
    """Tables of _layout.

    Per decimal exponent X, indexed by X - _X_MIN: the digits before the
    point, the digits kept at least, word 0 and the exponent bits of
    word 3. Per (kept digits c, digits before the point q), indexed by
    18 c + q, one array per word 1-3: the bytes of the digits before the
    point, the bytes of those after it (which move up one byte), and the
    point in the byte between, if any digit follows it. Per g < 10^4: its
    four digits as little-endian bytes, and how many of them end it as
    zeros.
    """
    point, least, prefix, exponent = [], [], [], []
    for x in range(_X_MIN, _X_MAX + 1):
        fixed = -4 <= x < 17
        # Below 1 the point is in the prefix: 17 puts none among the digits.
        point.append(x + 1 if fixed and x >= 0 else 17 if fixed else 1)
        least.append(x + 1 if fixed and x >= 0 else 1)
        prefix.append(b"\0" + (b"0." + b"0" * (-x - 1) if fixed and x < 0
                               else b""))
        exponent.append(b"" if fixed else b"\0\0e%+03d" % x)
    before, after, dot = [], [], []
    for c in range(18):
        for q in range(18):
            before.append(b"\xff" * min(c, q))
            after.append(b"\0" * q + b"\xff" * (c - q))
            dot.append(b"\0" * q + b"." if c > q else b"")
    groups = np.arange(10000)
    two = _words([b"%02d" % g for g in range(100)], 1)[:, 0]
    return (np.array(point), np.array(least), _words(prefix, 1)[:, 0],
            _words(exponent, 1)[:, 0],
            *(tuple(_words(t, 3).T.copy()) for t in (before, after, dot)),
            two[groups // 100] | two[groups % 100] << 16,
            sum(groups % 10 ** j == 0 for j in range(1, 5)))


def _digits17(x):
    """17 significant digits D and decimal exponent X of each |x|, as
    '%.17g' rounds them (to nearest, ties to even).

    Returns (D, X, ok); where ok is False, D and X are not certified:
    zeros, subnormals, non-finite values, |x| outside 10^_X_MIN ..
    10^(_X_MAX + 1), values within the error bound of a rounding tie, and
    values whose digits would round to, or whose log10 misplaces them
    against, a power of ten. '%.17g' must print those.
    """
    pow_hi, pow_lo, pow_hi_hi, pow_hi_lo = _power_table()
    a = np.abs(x)
    with np.errstate(divide="ignore", invalid="ignore"):
        e = np.floor(np.log10(a))
    ok = (e >= _X_MIN) & (e <= _X_MAX)  # False for 0, inf and nan
    a = np.where(ok, a, 1.0)
    i = np.where(ok, _X_MAX - e, _X_MAX).astype(np.intp)
    # y = a * 10^(16 - e) as the exact a * hi (Dekker) plus a * lo.
    p = a * pow_hi[i]
    a_hi, a_lo = _split(a)
    b_hi, b_lo = pow_hi_hi[i], pow_hi_lo[i]
    t = (((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo
         + a * pow_lo[i])
    s = p + t  # |p| > 2^53 > |t|: s + r is p + t exactly, s an integer
    r = t - (s - p)
    r_int = np.floor(r)
    frac = r - r_int
    floor_y = s.astype(np.int64) + r_int.astype(np.int64)
    d = floor_y + (frac > 0.5)
    # y below 10^16 means e was one too high; d of 10^17 or more, that y
    # rounds up to, or lies at, the next power of ten.
    ok &= (np.abs(frac - 0.5) > _TIE_MARGIN) & (floor_y >= 10 ** 16) \
        & (d < 10 ** 17)
    return d, np.where(ok, e, 0).astype(np.int64), ok


def _layout(negative, d, x):
    """Fields, as (n, 4) words, of the '%.17g' text of values with sign
    ``negative``, 17 significant digits ``d`` and decimal exponent ``x``:
    fixed notation for -4 <= x < 17, else d.ddde+XX, without the digits'
    trailing zeros and without a point that nothing follows."""
    (point_of, least_of, prefix_of, exponent_of, before, after, dot, four,
     trailing) = _layout_tables()
    xi = x - _X_MIN
    # Quotient and remainder by a // and a product: np.divmod on integer
    # arrays runs several times slower than //.
    lead = d // 10 ** 16
    hi8 = d // 10 ** 8 - lead * 10 ** 8
    lo8 = d - d // 10 ** 8 * 10 ** 8
    h1 = hi8 // 10 ** 4
    h2 = hi8 - h1 * 10 ** 4
    l1 = lo8 // 10 ** 4
    l2 = lo8 - l1 * 10 ** 4
    zeros = np.where(l2 != 0, trailing[l2], 4 + trailing[l1])
    zeros += np.where(lo8 != 0, 0,
                      np.where(h2 != 0, trailing[h2], 4 + trailing[h1]))
    k = np.maximum(17 - zeros, least_of[xi]) * 18 + point_of[xi]
    # The 17 digits as one 192-bit little-endian number in words 1-3.
    a = four[h1] | four[h2] << 32
    b = four[l1] | four[l2] << 32
    w = ((lead.astype(np.uint64) + ord("0")) | a << 8, a >> 56 | b << 8,
         b >> 56)
    up = [v & t[k] for v, t in zip(w, after)]
    out = np.empty((len(d), 4), np.uint64)
    out[:, 0] = prefix_of[xi] | negative.astype(np.uint64) * ord("-")
    out[:, 1] = w[0] & before[0][k] | up[0] << 8 | dot[0][k]
    out[:, 2] = w[1] & before[1][k] | up[1] << 8 | up[0] >> 56 | dot[1][k]
    out[:, 3] = (w[2] & before[2][k] | up[2] << 8 | up[1] >> 56
                 | dot[2][k] | exponent_of[xi])
    return out


def _printf_fields(values):
    """Fields, as (n, 4) words, holding '%.17g' % value left-aligned."""
    return _words([b"%.17g" % v for v in values.tolist()], 4)


def _value_fields(values):
    """Fields, as (n, 4) words, of '%.17g' % value for each value."""
    d, x, ok = _digits17(values)
    out = _layout(np.signbit(values), d, x)
    if not ok.all():
        out[~ok] = _printf_fields(values[~ok])
    return out


def _csv_rows(block, lead=""):
    """CSV text of the rows of a non-empty 2-D float array: each row is
    ``lead``, then its values as '%.17g' % value prints them, comma
    separated, then a newline.

    A row is laid out once for the whole block as pieces of 64-bit words.
    Each maximal run of columns whose values have one 64-bit pattern
    becomes one segment of text, its values printed once with their
    separators and ``lead`` in front of the row's first segment, zero-padded
    to whole words and repeated down the rows. Each other column gets a
    four-word field from _digits17 and _layout, its separator in the last
    byte.
    """
    block = np.ascontiguousarray(block, dtype=float)
    nrow, ncol = block.shape
    bits = block.view(np.uint64)
    same = (bits == bits[0]).all(axis=0)
    segments = []  # (word offset, words) of each segment
    fields_at = []  # word offset of each varied column's field
    width, text = 0, lead

    def close_segment():
        nonlocal width
        if text:
            words = _words([text.encode("ascii")], -(-len(text) // 8))[0]
            segments.append((width, words))
            width += len(words)

    for c, value in enumerate(block[0].tolist()):
        if same[c]:
            text += "%.17g" % value + ("\n" if c == ncol - 1 else ",")
            continue
        close_segment()
        text = ""
        fields_at.append(width)
        width += 4
    close_segment()
    out = np.zeros((nrow, width), np.uint64)
    for at, words in segments:
        out[:, at:at + len(words)] = words
    if fields_at:
        varied = np.flatnonzero(~same)
        fields = _value_fields(block[:, varied].ravel()).reshape(
            nrow, len(varied), 4)
        fields[:, :, 3] |= np.where(varied == ncol - 1, ord("\n"),
                                    ord(",")).astype(np.uint64) << 56
        out[:, np.add.outer(fields_at, np.arange(4))] = fields
    return out.astype("<u8", copy=False).tobytes().translate(
        None, b"\0").decode("ascii")


def _drift(values):
    """max |v - v[0]| of a diagnostic series, NaN if v[0] is not finite."""
    if not np.isfinite(values[0]):
        return float("nan")
    return float(np.max(np.abs(values - values[0])))


@dataclass
class Trajectory:
    """Sampled solution of the vertical (and optionally horizontal) system."""

    structure: "HomogeneousSRStructure"  # noqa: F821
    times: np.ndarray
    momenta: np.ndarray  # (N, n)
    group_points: np.ndarray | None = None  # (N, r, r)
    diagnostics: dict = field(default_factory=dict)
    aborted: bool = False

    @property
    def n_samples(self):
        return self.times.shape[0]

    def momentum(self, i):
        return Momentum(self.momenta[i], self.structure)

    def h_drift(self):
        """max |H(t) - H(0)| over the samples; NaN, with no warning, when
        H(0) is not finite (a start beyond the float range)."""
        return _drift(self.diagnostics["H"])

    def casimir_drifts(self):
        """Per Casimir, max |C(t) - C(0)| over the samples; NaN, with no
        warning, for a Casimir whose value at the start is not finite."""
        return {
            name: _drift(vals)
            for name, vals in self.diagnostics.items()
            if name != "H"
        }

    def csv_chunks(self):
        """CSV export in pieces: the header line, then blocks of rows.

        Columns are t, p_1..p_n, H, casimirs, then flattened group points;
        every value reads as '%.17g' prints it (see _csv_rows).
        """
        n = self.momenta.shape[1]
        names = [k for k in self.diagnostics if k != "H"]
        cols = ["t"] + [f"p_{i + 1}" for i in range(n)] + ["H"] + names
        parts = [self.times[:, None], self.momenta,
                 self.diagnostics["H"][:, None]]
        parts += [self.diagnostics[k][:, None] for k in names]
        if self.group_points is not None:
            r = self.group_points.shape[1]
            cols += [f"g_{i + 1}{j + 1}" for i in range(r) for j in range(r)]
            parts.append(self.group_points.reshape(self.n_samples, r * r))
        yield ",".join(cols) + "\n"
        for start in range(0, self.n_samples, CSV_BLOCK_ROWS):
            yield _csv_rows(np.concatenate(
                [a[start:start + CSV_BLOCK_ROWS] for a in parts], axis=1))

    def to_csv_text(self):
        return "".join(self.csv_chunks())


def _nsteps(T, step):
    if not (T > 0 and 0 < step <= T):
        raise ValueError("need T > 0 and 0 < step <= T")
    if not np.isfinite(T / step):
        raise ValueError("need T and T / step finite")
    return int(round(T / step))


def _trajectory(s, samples, last, step, casimirs):
    """The Trajectory of kernel output ``samples`` valid up to ``last``.

    A finite momentum can still overflow H or a Casimir, which grow as
    its square or higher powers: the trajectory then ends at the last
    sample whose diagnostics are finite too, and is flagged aborted. The
    start is kept whatever its diagnostics.
    """
    momenta = samples[: last + 1]
    # dmat is zero off the rows and columns of delta, and the momenta are
    # finite, so H sums the same nonzero terms in the same order on them.
    support = np.flatnonzero(s.dmat.any(axis=0))
    on = momenta[:, support]
    with np.errstate(over="ignore", invalid="ignore"):
        diagnostics = {"H": 0.5 * np.einsum(
            "ti,ij,tj->t", on, s.dmat[np.ix_(support, support)], on)}
        for name, poly in (casimirs or {}).items():
            diagnostics[name] = poly(momenta)
    finite = np.logical_and.reduce([np.isfinite(v) for v in diagnostics.values()])
    keep = len(finite) if finite.all() else max(1, int(np.argmin(finite)))
    return Trajectory(s, step * np.arange(keep), momenta[:keep],
                      diagnostics={k: v[:keep] for k, v in diagnostics.items()},
                      aborted=keep < len(samples))


def integrate_vertical(p0: Momentum, T, step, casimirs=None) -> Trajectory:
    """Integrate the momentum equation over [0, T] with fixed step RK4.

    ``casimirs`` is an optional mapping name -> Polynomial (on g*) recorded
    per sample alongside H. On a non-finite state, or one whose H or
    Casimirs overflow, the trajectory is truncated at the last valid
    sample and flagged aborted.
    """
    nsteps = _nsteps(T, step)
    s = p0.structure
    samples, last = vertical_rk4(s.vertical_terms, p0.coords, step,
                                 nsteps=nsteps)
    return _trajectory(s, samples, last, step, casimirs)


def integrate_vertical_batch(structure, momenta, T, step, casimirs=None):
    """integrate_vertical for each row of ``momenta`` (shape (B, n));
    returns B trajectories. Every row is checked before any is integrated."""
    _nsteps(T, step)
    rows = [Momentum(row, structure) for row in momenta]
    return [integrate_vertical(p, T, step, casimirs) for p in rows]


def closed_form_axisymmetric(p0: Momentum, t) -> Momentum:
    """Exact vertical solution where the structure's flow is a rotation.

    In m*-coordinates a = p0(m_basis), rotates (a_0, a_1) by the angle
    kappa * a_2 * t, with the structure's derived ``kappa``, and keeps the
    other a_r; the result lies on k-circ. ValueError where kappa is None.
    """
    s = p0.structure
    if s.kappa is None:
        raise ValueError("the vertical flow of this structure is not a "
                         "rotation: no closed form")
    a = p0.coords @ s.m_basis_float
    if s.kappa:
        theta = float(s.kappa) * a[2] * t
        c, sn = np.cos(theta), np.sin(theta)
        a[0], a[1] = c * a[0] - sn * a[1], sn * a[0] + c * a[1]
    return Momentum(s.m_dual @ a, s)


def _chained_products(g0, phi):
    """g0 phi_0, g0 phi_0 phi_1, ..., g0 phi_0 ... phi_{m-1} for a stack phi
    of m (r, r) matrices, as an (m, r, r) array.

    The stack is cut into chunks of LIFT_CHUNK, the last padded with the
    identity. Each chunk's inclusive prefix products take log2(LIFT_CHUNK)
    doubling passes of batched matmul (Hillis-Steele); the chunk ends are
    chained from g0 one at a time, and one batched matmul places every
    chunk behind the end of the one before it.
    """
    m, r = phi.shape[0], phi.shape[1]
    chunks = -(-m // LIFT_CHUNK)
    prefix = np.empty((chunks * LIFT_CHUNK, r, r))
    prefix[:m] = phi
    prefix[m:] = np.eye(r)
    prefix = prefix.reshape(chunks, LIFT_CHUNK, r, r)
    shift = 1
    while shift < LIFT_CHUNK:
        prefix[:, shift:] = prefix[:, :-shift] @ prefix[:, shift:]
        shift *= 2
    heads = np.empty((chunks, 1, r, r))
    heads[0, 0] = g0
    for c in range(1, chunks):
        heads[c, 0] = heads[c - 1, 0] @ prefix[c - 1, -1]
    return (heads @ prefix).reshape(-1, r, r)[:m]


def integrate_horizontal(traj: Trajectory) -> Trajectory:
    """Fill group_points by solving G' = G rho(dH(p(t))), G(0) = I.

    Each sample interval is one classical RK4 step of the joint system
    (p, G): the stage values of p are recomputed from the stored sample with
    the vertical field, so the lift is fourth order like the vertical flow.
    An RK4 step is linear in G, G_{i+1} = G_i Phi_i; the propagators Phi_i
    are built for blocks of LIFT_BLOCK_STEPS steps at once, and each block's
    G_i come from its prefix products (_chained_products): batched within
    chunks of LIFT_CHUNK steps, chained one chunk end at a time. The
    products associate differently from the step-by-step ones, so G differs
    from them by rounding only (about 1e-13 relative to max |G| at 10 000
    steps). Where G stops being finite (a trajectory that blows up), the
    lift ends at the last sample with a finite G, without a warning, and
    is flagged aborted.
    """
    s = traj.structure
    if s.representation is None:
        raise ValueError("structure carries no matrix representation")
    rho = np.stack(s.representation)
    n, r = rho.shape[0], rho.shape[1]
    terms = s.vertical_terms
    lift = s.dmat.T @ rho.reshape(n, r * r)  # p -> rho(dH(p)), flattened
    nsamp = traj.n_samples
    gpts = np.empty((nsamp, r, r))
    gpts[0] = np.eye(r)
    keep = nsamp
    for start in range(0, nsamp - 1, LIFT_BLOCK_STEPS):
        stop = min(start + LIFT_BLOCK_STEPS, nsamp - 1)
        dt = np.diff(traj.times[start:stop + 1])[:, None]
        with np.errstate(over="ignore", invalid="ignore"):
            a1, a2, a3, a4 = (
                (x @ lift).reshape(-1, r, r)
                for x in rk4_stage_points(terms, traj.momenta[start:stop], dt)
            )
            h = dt[:, :, None]
            # G-stages k_i = G K_i: K1 = a1, K2 = a2 + h/2 K1 a2, ...
            k2 = a2 + 0.5 * h * (a1 @ a2)
            k3 = a3 + 0.5 * h * (k2 @ a3)
            k4 = a4 + h * (k3 @ a4)
            phi = np.eye(r) + h / 6.0 * (a1 + 2.0 * k2 + 2.0 * k3 + k4)
            gpts[start + 1:stop + 1] = _chained_products(gpts[start], phi)
        finite = np.isfinite(gpts[start + 1:stop + 1])
        if not finite.all():
            keep = start + 1 + int(np.argmin(finite.all(axis=(1, 2))))
            break
    return Trajectory(
        s, traj.times[:keep], traj.momenta[:keep], group_points=gpts[:keep],
        diagnostics={k: v[:keep] for k, v in traj.diagnostics.items()},
        aborted=traj.aborted or keep < nsamp,
    )


def sample_momenta(structure, nsamples, rng):
    """Draw momenta on the level set H = 1/2 inside the annihilator of k.

    Rejection-free: a unit Gaussian direction fixes the delta-pairings
    through the metric square root (pinning H to 1/2 exactly), the rest of
    the m-dual block is Gaussian fill, the k-pairings are identically zero
    by construction in the dual of the adapted basis. ``nsamples`` must be
    positive, and a draw too large for memory is a ValueError. All rows are
    drawn and mapped at once; the result is bitwise the one that drawing
    and mapping row by row gives.
    """
    if nsamples <= 0:
        raise ValueError("samples must be positive")
    s = structure
    dm = s.m.dim
    # delta = m_basis @ E, E = m_dual^T delta; delta-pairings are E^T a.
    e_coef = s.m_dual.T @ s.delta_basis_float
    rank = e_coef.shape[1]
    gram_inv = np.linalg.inv(e_coef.T @ e_coef)
    # fixed basis of ker(E^T): fill directions that leave H untouched
    _, sv, vt = np.linalg.svd(e_coef.T)
    null_dim = dm - rank
    fill = vt[rank:].T
    sqrt_b = np.linalg.cholesky(s.metric_float)
    # One draw holds each row's rank + null_dim normals in the order that
    # per-row draws of rank, then null_dim, take them. The norm is
    # sqrt(u^T u) through matmul, bitwise the per-row np.linalg.norm;
    # np.linalg.norm along an axis sums differently, in the last bit.
    try:
        x = rng.standard_normal((nsamples, rank + null_dim))[:, :, None]
    except MemoryError:
        raise ValueError(f"{nsamples} samples need more memory than can be "
                         f"allocated") from None
    u = x[:, :rank]
    u /= np.sqrt(np.swapaxes(u, 1, 2) @ u)
    target = sqrt_b @ u  # delta-pairings with (1/2)|B^{-1/2} target|^2 = 1/2
    a = e_coef @ (gram_inv @ target)
    if null_dim:
        a = a + fill @ x[:, rank:]
    return (s.m_dual @ a)[:, :, 0]


def _fixed_point_residuals(s, x):
    """The fixed-point system at each row of x, as (B, n + 1 + dk): the
    vertical field, H - 1/2 and the k-pairings. A row too large for floats
    gives inf or NaN entries, with no warning."""
    with np.errstate(over="ignore", invalid="ignore"):
        h = 0.5 * np.einsum("bi,ij,bj->b", x, s.dmat, x) - 0.5
        return np.concatenate(
            [field_rows(s.vertical_terms, x), h[:, None], x @ s.k_basis_float],
            axis=1)


def _gauss_newton(s, seeds):
    """Up to 60 Gauss-Newton steps of the fixed-point system from every
    seed at once, each at most 1 long; returns the final states.

    The step is -J^+ r, the minimum-norm least-squares solution that
    lstsq(J, -r, rcond=None) gives, from one batched pseudo-inverse of the
    stacked (B, n + 1 + dk, n) Jacobians with the same cutoff. A seed
    leaves the batch once its residual is below 1e-14 in max norm, or once
    its state or residual is not finite, so no non-finite row reaches the
    pseudo-inverse.
    """
    x = np.array(seeds, dtype=float)
    k_rows = s.k_basis_float.T
    active = np.arange(len(x))
    for _ in range(60):
        p = x[active]
        res = _fixed_point_residuals(s, p)
        go = np.isfinite(p).all(axis=1) & np.isfinite(res).all(axis=1)
        go[go] = np.max(np.abs(res[go]), axis=1) >= 1e-14
        active, p, res = active[go], p[go], res[go]
        if not len(active):
            break
        jac = np.concatenate(
            [field_jacobian(s.vertical_terms, p), (p @ s.dmat.T)[:, None],
             np.broadcast_to(k_rows, (len(p),) + k_rows.shape)], axis=1)
        pinv = np.linalg.pinv(
            jac, rcond=np.finfo(float).eps * max(jac.shape[1:]))
        step = -(pinv @ res[:, :, None])[:, :, 0]
        step /= np.maximum(np.linalg.norm(step, axis=1), 1.0)[:, None]
        x[active] = p + step
    return x


def find_fixed_points(structure, samples, seed=0):
    """Fixed points of the vertical field on the level set H = 1/2.

    Seeds are sampled momenta polished together by batched Gauss-Newton
    (_gauss_newton) on the stacked system (vertical field, H - 1/2,
    k-pairings) with its exact Jacobian. A polished seed is a fixed point
    when it is finite, its field is below 1e-10, |H - 1/2| below 1e-9 and
    its k-pairings below 1e-9. The points are sorted by their coordinates
    rounded to 8 decimals, and a point is kept when it is more than 1e-6
    from every point kept before it.

    Where the fixed points form continua (rolling_sphere and
    free_step2_rank3 to rank6), the Jacobians are rank-deficient near the
    pseudo-inverse's cutoff, so where a seed lands depends on the solver's
    rounding. The count and the fixed-point conditions hold there, but the
    coordinates are not a stable function of model and seed, and may differ
    on another LAPACK build.
    """
    s = structure
    n = s.dim
    seeds = sample_momenta(s, samples, np.random.default_rng(seed))
    x = _gauss_newton(s, seeds)
    x = x[np.isfinite(x).all(axis=1)]
    res = np.abs(_fixed_point_residuals(s, x))
    x = x[(res[:, :n] < 1e-10).all(axis=1) & (res[:, n] < 1e-9)
          & (res[:, n + 1:] < 1e-9).all(axis=1)]
    x = x[sorted(range(len(x)), key=np.round(x, 8).tolist().__getitem__)]
    dist = np.linalg.norm(x[:, None] - x[None], axis=2)
    open_ = np.ones(len(x), dtype=bool)
    kept = []
    while open_.any():
        i = int(np.argmax(open_))
        kept.append(i)
        open_ &= dist[i] > 1e-6
    return [Momentum(p, s) for p in x[kept]]
