"""Float evaluation and RK4 integration of the vertical field.

Everything here reads the field as the structure's ``vertical_terms``: its
few nonzero terms (j, a, k, coef) of f_j(p) = sum coef p_a p_k (at most 4 at
n ≤ 6, 30 on free_step2_rank6). ``field_rows`` evaluates them on a (B, n)
batch as (P[:, a] * P[:, k]) @ S, with the index arrays and the scatter
matrix S built once per term tuple; ``field_jacobian`` reads the Jacobian
of one momentum or of a batch off the same arrays.

``vertical_rk4`` integrates one momentum. The terms become straight-line
Python-float code for a block of RK4 steps, compiled once per distinct term
tuple per process, in 0.2–4 ms. At small n a numpy call on 4–6 numbers
costs more than the arithmetic, so a step takes 1–2 µs at n ≤ 6 and
7–10 µs on free_step2_rank6 (2-core Xeon VM); a batch of momenta is a loop
over its rows. The kernel checks finiteness every CHECK_EVERY steps and
stops a trajectory at its last finite sample.
"""

import functools

import numpy as np

# numba is not used; the constant stays for callers that report the backend.
HAVE_NUMBA = False

# Steps between finiteness checks.
CHECK_EVERY = 64


@functools.lru_cache(maxsize=None)
def _field_arrays(n, terms):
    """Read-only arrays, shared by every caller, for the terms of an
    n-dimensional field: the index arrays a and k and the (terms, n) scatter
    matrix S with S[t, j] = coef; then, for the Jacobian, each term's two
    partial derivatives, coef p_k at (j, a) and coef p_a at (j, k), as flat
    positions, coefficients and indices into p."""
    js, a, k = (np.array([t[i] for t in terms], dtype=int) for i in range(3))
    coef = np.array([t[3] for t in terms], dtype=float)
    scatter = np.zeros((len(terms), n))
    scatter[np.arange(len(terms)), js] = coef
    out = (a, k, scatter, np.concatenate([js * n + a, js * n + k]),
           np.concatenate([coef, coef]), np.concatenate([k, a]))
    for x in out:
        x.setflags(write=False)
    return out


def field_rows(terms, p):
    """f(p) for each row of a (B, n) batch p, from the field's terms."""
    a, k, scatter = _field_arrays(p.shape[1], terms)[:3]
    return (p[:, a] * p[:, k]) @ scatter


def field_jacobian(terms, p):
    """The (n, n) Jacobian of the field at a momentum p of shape (n,), or
    one per row of a (B, n) batch, read off its terms: each adds coef p_k
    at (j, a) and coef p_a at (j, k)."""
    n = p.shape[-1]
    pos, coef, src = _field_arrays(n, terms)[3:]
    rows = p.reshape(-1, n)
    flat = pos + n * n * np.arange(len(rows))[:, None]
    return np.bincount(flat.ravel(), (coef * rows[:, src]).ravel(),
                       rows.size * n).reshape(p.shape + (n,))


def _rk4_block_source(n, terms):
    """Python source of ``block(p, h, count)``: ``count`` RK4 steps from the
    n-tuple p, returned as a list of n-tuples, on Python floats.

    Built only from integer indices and the repr of float coefficients,
    which the structure has checked to be finite. A component with no term
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


def rk4_stage_points(terms, p, dt):
    """The four points at which one RK4 step from each row of p evaluates
    the field: p, p + dt/2 k1, p + dt/2 k2, p + dt k3.

    ``dt`` is a scalar or a (B, 1) column of per-row steps.
    """
    p2 = p + 0.5 * dt * field_rows(terms, p)
    p3 = p + 0.5 * dt * field_rows(terms, p2)
    p4 = p + dt * field_rows(terms, p3)
    return p, p2, p3, p4


def vertical_rk4(terms, p0, dt, nsteps):
    """Integrate one momentum p0 of shape (n,) with classical RK4, fixed step.

    Returns (samples, last_index): samples has shape (nsteps + 1, n); on a
    non-finite state the loop stops, last_index points at the last valid
    sample (== nsteps on success) and the later samples are zero.
    """
    nsteps = int(nsteps)
    h = float(dt)
    p = tuple(float(v) for v in p0)
    block = _rk4_block(len(p), terms)
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
