"""Float evaluation and RK4 integration of the vertical field.

Everything here reads a quadratic field as its few nonzero terms
(j, a, k, coef) of f_j(p) = sum coef p_a p_k: the structure's
``vertical_terms`` (at most 4 at n ≤ 6, 30 on free_step2_rank6).
``field_rows`` evaluates them on a (B, n) batch as
(P[:, a] * P[:, k]) @ S, with the index arrays and the scatter matrix S
built once per term tuple; ``field_jacobian`` reads the Jacobian of one
momentum or of a batch off the same arrays.

``vertical_rk4`` integrates one momentum. The terms become straight-line
Python-float code for a block of RK4 steps, compiled once per distinct term
tuple per process, in 0.2–4 ms. At small n a numpy call on 4–6 numbers
costs more than the arithmetic. Only the moving components, those with a
term, are stepped, stored and checked (2 of 4 on so3_kp, 3 of 6 on cartan,
6 of 36 on free_step2_rank6); the others are first integrals and are
broadcast into the samples once. Coefficients of 1.0 and -1.0 are folded
into the sums, which rounds exactly as multiplying by them does. A step
takes 0.5–1.0 µs at n ≤ 6 and about 3 µs on free_step2_rank6 (2-core Xeon
VM, best of 5 over 10 000 steps); a batch of momenta is a loop over its
rows. The kernel checks finiteness every CHECK_EVERY steps and stops a
trajectory at its last finite sample.
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
    n-sequence p, on Python floats, returned as one flat list that holds
    each step's moving components in turn.

    Built only from integer indices and the repr of float coefficients,
    which the structure has checked to be finite. A component with no term
    has zero slope: it is never updated, never recorded, and stands in for
    its own stage values. A coefficient of 1.0 or -1.0 is folded into the
    sum (a * b, s - a * b, -(a * b) first), which rounds exactly as
    1.0 * a * b and s + -1.0 * a * b do; any other stays coef * a * b.
    """
    rows = {}
    for j, a, k, coef in terms:
        rows.setdefault(int(j), []).append((int(a), int(k), float(coef)))
    moving = sorted(rows)
    state = ", ".join(f"p{j}" for j in range(n)) + ","
    record = "(" + "".join(f"p{j}, " for j in moving) + ")"

    def field(slope, x):
        for j in moving:
            sums = ""
            for a, k, coef in rows[j]:
                term = f"{x(a)} * {x(k)}"
                if abs(coef) != 1.0:
                    term = f"{coef!r} * {term}"
                if coef == -1.0:
                    sums += f" - {term}" if sums else f"-({term})"
                else:
                    sums += f" + {term}" if sums else term
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
             "    put = rows.extend",
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
    lines += [f"        put({record})", "    return rows", ""]
    return "\n".join(lines)


@functools.lru_cache(maxsize=None)
def _rk4_block(n, terms):
    """The moving components of the terms (those with a term) and the
    others, as index arrays, and the compiled ``block`` of
    _rk4_block_source; once per (n, terms)."""
    # Plain lists, not np.setdiff1d: that imports numpy.ma (about 15 ms).
    moving = sorted({int(t[0]) for t in terms})
    fixed = [i for i in range(n) if i not in moving]
    moving, fixed = (np.array(x, dtype=int) for x in (moving, fixed))
    for x in (moving, fixed):
        x.setflags(write=False)
    namespace = {"__builtins__": {"range": range}}
    exec(compile(_rk4_block_source(n, terms), "<srgo vertical RK4>", "exec"),
         namespace)
    return moving, fixed, namespace["block"]


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

    Per block of CHECK_EVERY steps only the moving components are stored
    and checked. The others never change: a non-finite one stops the run
    before its first step. Both are placed into the valid samples once, at
    the end.
    """
    nsteps = int(nsteps)
    h = float(dt)
    moving, fixed, block = _rk4_block(len(p0), terms)
    try:
        out = np.zeros((nsteps + 1, len(p0)))
    except MemoryError:
        raise ValueError(
            f"{nsteps} steps need more memory than can be allocated "
            f"for their samples") from None
    out[0] = p0
    last = nsteps if np.isfinite(out[0]).all() else 0
    state = out[0].copy()
    moved = np.empty((last, len(moving)))
    # With no moving component every sample is p0.
    for start in range(0, last if len(moving) else 0, CHECK_EVERY):
        stop = min(start + CHECK_EVERY, nsteps)
        rows = moved[start:stop]
        rows.flat = block(state.tolist(), h, stop - start)
        if not np.isfinite(rows).all():
            last = start + int(np.argmin(np.isfinite(rows).all(axis=1)))
            break
        state[moving] = rows[-1]
    out[1:last + 1, moving] = moved[:last]
    out[1:last + 1, fixed] = out[0, fixed]
    return out, last
