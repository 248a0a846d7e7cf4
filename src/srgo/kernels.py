"""Fixed-step RK4 kernel for the vertical momentum flow, on batches.

The vertical field is quadratic in p: f_j(p) = p([dH(p), e_j]) = pᵀ Q_j p
with Q_j = dmatᵀ c[:, j, :]. ``vertical_form`` stores every Q_j once as one
(n, n·n) matrix Q, so the field of a batch P of shape (B, n) of momenta is
two matmuls: P @ Q, viewed as B (n, n) matrices, times P. The loop over
steps stays in Python, so at small n one trajectory is bound by interpreter
overhead per step; batching rows is the lever, since at small n a step of
B rows costs about as much as a step of one.
"""

import numpy as np

# numba is not used; the constant stays for callers that report the backend.
HAVE_NUMBA = False

# Steps between finiteness checks of the batch.
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


def rk4_stage_points(q, p, dt):
    """The four points at which one RK4 step from each row of p evaluates
    the field: p, p + dt/2 k1, p + dt/2 k2, p + dt k3.

    ``dt`` is a scalar or a (B, 1) column of per-row steps.
    """
    p2 = p + 0.5 * dt * vertical_field_rows(q, p)
    p3 = p + 0.5 * dt * vertical_field_rows(q, p2)
    p4 = p + dt * vertical_field_rows(q, p3)
    return p, p2, p3, p4


def vertical_rk4_batch(c, dmat, p0, dt, nsteps):
    """Integrate the rows of p0 (shape (B, n)) with classical RK4, fixed step.

    Returns (samples, last): samples has shape (nsteps + 1, B, n) and last
    shape (B,). A row whose state turns non-finite stops there: last[b] is
    its last valid sample (== nsteps on success) and its later samples are
    zero. Finiteness is checked every CHECK_EVERY steps; the other rows
    always run all nsteps.
    """
    nsteps = int(nsteps)
    h = float(dt)
    # The stages write (h/2) k1, (h/2) k2, h k3, (h/2) k4 into g[0..3], so
    # that each stage input is p + g[i] and the step is p += w @ g.
    q_full = h * vertical_form(c, dmat)
    q_half = 0.5 * q_full
    w = np.array([1.0, 2.0, 1.0, 1.0]) / 3.0
    p = np.array(p0, dtype=float, ndmin=2)
    b, n = p.shape
    out = np.zeros((nsteps + 1, b, n))
    out[0] = p
    last = np.full(b, nsteps)
    # Fixed buffers and views of them, so that a step allocates nothing.
    x = np.empty((b, n))
    qx = np.empty((b, n * n))
    g = np.empty((4, b, n))
    g_flat = g.reshape(4, b * n)
    dp = np.empty(b * n)
    dp_mat = dp.reshape(b, n)
    p_col, x_col, qx_mat = p[:, :, None], x[:, :, None], qx.reshape(b, n, n)
    g0, g1, g2, g3 = g
    g0_col, g1_col, g2_col, g3_col = g[:, :, :, None]
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, nsteps, CHECK_EVERY):
            stop = min(start + CHECK_EVERY, nsteps)
            for step in range(start + 1, stop + 1):
                np.matmul(p, q_half, out=qx)
                np.matmul(qx_mat, p_col, out=g0_col)
                np.add(p, g0, out=x)
                np.matmul(x, q_half, out=qx)
                np.matmul(qx_mat, x_col, out=g1_col)
                np.add(p, g1, out=x)
                np.matmul(x, q_full, out=qx)
                np.matmul(qx_mat, x_col, out=g2_col)
                np.add(p, g2, out=x)
                np.matmul(x, q_half, out=qx)
                np.matmul(qx_mat, x_col, out=g3_col)
                np.matmul(w, g_flat, out=dp)
                p += dp_mat
                out[step] = p
            bad = ~np.isfinite(out[start + 1:stop + 1]).all(axis=2)
            for row in np.flatnonzero(bad.any(axis=0)):
                last[row] = start + int(np.argmax(bad[:, row]))
                out[last[row] + 1:, row] = 0.0
                p[row] = 0.0  # a fixed point of the quadratic field
    return out, last


def vertical_rk4(c, dmat, p0, dt, nsteps):
    """Integrate one momentum p0 of shape (n,) with classical RK4, fixed step.

    Returns (samples, last_index): samples has shape (nsteps + 1, n); on a
    non-finite state the loop stops and last_index points at the last
    valid sample (== nsteps on success).
    """
    samples, last = vertical_rk4_batch(c, dmat, np.reshape(p0, (1, -1)), dt,
                                       nsteps)
    return samples[:, 0], int(last[0])
