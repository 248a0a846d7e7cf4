"""Fixed-step RK4 kernel for the vertical momentum flow.

The vertical field is quadratic in p: f_j(p) = p([dH(p), e_j]) = pᵀ Q_j p
with Q_j = dmatᵀ c[:, j, :]. ``vertical_form`` stores every Q_j once as one
(n, n·n) matrix Q, for callers that evaluate the field on whole arrays (the
horizontal lift's stage points, the homogeneity residuals).

``vertical_rk4`` integrates one momentum. The field's few nonzero terms
(``vertical_terms``: at most 4 at n ≤ 6, 30 on free_step2_rank6) become
straight-line Python-float code for a block of RK4 steps, compiled once per
distinct term tuple per process, in 0.2–4 ms. At small n a numpy call on
4–6 numbers costs more than the arithmetic, so a step takes 1–2 µs at
n ≤ 6 and 7–10 µs on free_step2_rank6 (2-core Xeon VM). A batch of momenta
is a loop over its rows: at the phase portrait's 8 rows that beats stepping
the (B, n) batch with two numpy matmuls against vertical_form (so3_axisym,
5000 steps: 54 against 103 ms; free_step2_rank6, 1000 steps: 84 against
109 ms; best of 5). The matmuls win at 100 rows (so3_axisym, 10000 steps:
567 against 1592 ms), which only the acceptance tests run.

The kernel checks finiteness every CHECK_EVERY steps and stops a
trajectory at its last finite sample.
"""

import functools
import math

import numpy as np

# numba is not used; the constant stays for callers that report the backend.
HAVE_NUMBA = False

# Steps between finiteness checks.
CHECK_EVERY = 64


def vertical_form(c, dmat):
    """The (n, n·n) matrix Q of the vertical field f(p) = pᵀ Q_j p.

    Row a, column j·n + k holds Σ_i dmat[i, a] c[i, j, k], so that
    (p @ Q).reshape(n, n) @ p = f(p).
    """
    c = np.asarray(c, dtype=float)
    n = c.shape[0]
    q = np.einsum("ia,ijk->ajk", np.asarray(dmat, dtype=float), c)
    return np.ascontiguousarray(q.reshape(n, n * n))


def vertical_field_rows(q, p):
    """f(p) for each row of a (B, n) batch, from the matrix of vertical_form."""
    b, n = p.shape
    return ((p @ q).reshape(b, n, n) @ p[:, :, None])[:, :, 0]


def vertical_terms(c, dmat):
    """The nonzero terms of the vertical field, f_j(p) = Σ coef p_a p_k.

    A tuple of (j, a, k, coef) with a ≤ k, sorted: coef is Q_j[a, k] +
    Q_j[k, a] for a < k and Q_j[a, a] for a == k, with Q_j[a, k] = Σ_i
    dmat[i, a] c[i, j, k] summed over the nonzero entries of c and dmat
    only, and a pair that cancels to zero is dropped. The entries are
    Python ints and floats, so equal fields give equal, equally hashed
    tuples.
    """
    c = np.asarray(c, dtype=float)
    dmat = np.asarray(dmat, dtype=float)
    if not (np.isfinite(c).all() and np.isfinite(dmat).all()):
        raise ValueError("the vertical field has non-finite coefficients")
    d_rows = [[(a, d) for a, d in enumerate(row) if d] for row in dmat.tolist()]
    nz = np.nonzero(c)
    q = {}  # (j, a, k) -> Q_j[a, k]
    for i, j, k, v in zip(*(x.tolist() for x in nz), c[nz].tolist()):
        for a, d in d_rows[i]:
            q[j, a, k] = q.get((j, a, k), 0.0) + d * v
    terms = []
    for j, a, k in sorted({(j, min(a, k), max(a, k)) for j, a, k in q}):
        coef = q.get((j, a, k), 0.0) + (q.get((j, k, a), 0.0) if a < k else 0.0)
        if not math.isfinite(coef):
            raise ValueError("the vertical field has non-finite coefficients")
        if coef:
            terms.append((j, a, k, coef))
    return tuple(terms)


def _rk4_block_source(n, terms):
    """Python source of ``block(p, h, count)``: ``count`` RK4 steps from the
    n-tuple p, returned as a list of n-tuples, on Python floats.

    Built only from integer indices and the repr of float coefficients,
    which vertical_terms has checked to be finite. A component with no term
    has zero slope, so it is never updated and stands in for its own stage
    values.
    """
    rows = {}
    for j, a, k, coef in terms:
        rows.setdefault(int(j), []).append((int(a), int(k), repr(float(coef))))
    moving = sorted(rows)
    state = ", ".join(f"p{j}" for j in range(n)) + ","

    def field(slope, x):
        for j in moving:
            sums = " + ".join(
                f"{coef} * {x(a)} * {x(k)}" for a, k, coef in rows[j])
            yield f"        {slope}{j} = {sums}"

    def stage(slope, scale):
        for j in moving:
            yield f"        x{j} = p{j} + {scale} * {slope}{j}"

    def at_x(i):
        return f"x{i}" if i in rows else f"p{i}"

    lines = ["def block(p, h, count):",
             f"    {state} = p",
             "    h2 = 0.5 * h",
             "    h6 = h / 6.0",
             "    rows = []",
             "    for _ in range(count):"]
    lines += field("k1_", lambda i: f"p{i}")
    lines += stage("k1_", "h2")
    lines += field("k2_", at_x)
    lines += stage("k2_", "h2")
    lines += field("k3_", at_x)
    lines += stage("k3_", "h")
    lines += field("k4_", at_x)
    lines += [f"        p{j} = p{j} + h6 * (k1_{j} + 2.0 * (k2_{j} + k3_{j})"
              f" + k4_{j})" for j in moving]
    lines += [f"        rows.append(({state}))", "    return rows", ""]
    return "\n".join(lines)


@functools.lru_cache(maxsize=None)
def _rk4_block(n, terms):
    """The compiled ``block`` of _rk4_block_source, once per (n, terms)."""
    namespace = {"__builtins__": {"range": range}}
    exec(compile(_rk4_block_source(n, terms), "<srgo vertical RK4>", "exec"),
         namespace)
    return namespace["block"]


def rk4_stage_points(q, p, dt):
    """The four points at which one RK4 step from each row of p evaluates
    the field: p, p + dt/2 k1, p + dt/2 k2, p + dt k3.

    ``dt`` is a scalar or a (B, 1) column of per-row steps.
    """
    p2 = p + 0.5 * dt * vertical_field_rows(q, p)
    p3 = p + 0.5 * dt * vertical_field_rows(q, p2)
    p4 = p + dt * vertical_field_rows(q, p3)
    return p, p2, p3, p4


def vertical_rk4(c, dmat, p0, dt, nsteps):
    """Integrate one momentum p0 of shape (n,) with classical RK4, fixed step.

    Returns (samples, last_index): samples has shape (nsteps + 1, n); on a
    non-finite state the loop stops, last_index points at the last valid
    sample (== nsteps on success) and the later samples are zero.
    """
    nsteps = int(nsteps)
    h = float(dt)
    p = tuple(float(v) for v in p0)
    block = _rk4_block(len(p), vertical_terms(c, dmat))
    try:
        out = np.zeros((nsteps + 1, len(p)))
    except MemoryError:
        raise ValueError(
            f"{nsteps} steps need more memory than can be allocated "
            f"for their samples") from None
    out[0] = p
    for start in range(0, nsteps, CHECK_EVERY):
        stop = min(start + CHECK_EVERY, nsteps)
        rows = block(p, h, stop - start)
        out[start + 1:stop + 1] = rows
        bad = ~np.isfinite(out[start + 1:stop + 1]).all(axis=1)
        if bad.any():
            last = start + int(np.argmax(bad))
            out[last + 1:stop + 1] = 0.0
            return out, last
        p = rows[-1]
    return out, nsteps
