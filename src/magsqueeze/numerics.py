"""Self-contained numerical kernels: Bessel functions, adaptive Runge-Kutta
integration, dense eigenproblems, Arnoldi spectral-radius estimates, and
adaptive quadrature.

Everything here is plain numpy and deterministic for fixed inputs.  The rest of
the package consumes these kernels through the contracts documented on each
function; none of them know anything about the physics.
"""

import functools
from dataclasses import dataclass

import numpy as np

from .errors import QuadratureConvergenceError, StepSizeUnderflowError

EULER_GAMMA = 0.5772156649015329

# Series/asymptotic crossover for J0/Y0.  Below the split the power series
# loses at most ~4 decimal digits to cancellation; above it the optimally
# truncated Hankel expansion is already below 1e-10 absolute.
_BESSEL_SPLIT = 13.0
_SERIES_KMAX = 80
_ASYMP_KMAX = 26


def _power_series(x, want_y=True):
    """Power series of J0 and the sum S of Y0 = (2/pi)[(ln(x/2)+gamma_E) J0 + S],
    S = sum_{k>=1} (-1)^{k+1} H_k q^k/(k!)^2 with q = x^2/4 and H_k the
    harmonic numbers; both share the terms (-q)^k/(k!)^2.  S is None unless
    `want_y`."""
    minus_q = -0.25 * x * x
    j0 = np.ones_like(x)
    y_sum = np.zeros_like(x) if want_y else None
    term = np.ones_like(x)
    harmonic = 0.0
    for k in range(1, _SERIES_KMAX + 1):
        term *= minus_q
        term /= k * k
        harmonic += 1.0 / k
        j0 += term
        if want_y:
            y_sum -= term * harmonic
        if np.all(np.abs(term) < 1e-18):
            break
    return j0, y_sum


def _hankel_pq(x):
    """Truncated Hankel asymptotic sums P(x), Q(x) for order zero."""
    p = np.ones_like(x)
    q = np.zeros_like(x)
    inv_x = 1.0 / x
    a = np.ones_like(x)  # running |a_k| / x^k
    for k in range(1, _ASYMP_KMAX + 1):
        a *= (2 * k - 1) ** 2 / (8.0 * k)
        a *= inv_x
        total = q if k % 2 == 1 else p
        if (k // 2) % 2:
            total -= a
        else:
            total += a
    return p, q


def _bessel0(x, want_y):
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 0
    xv = np.atleast_1d(x)
    out = np.empty_like(xv)
    small = np.abs(xv) < _BESSEL_SPLIT
    if np.any(small):
        xs = np.abs(xv[small])
        j0, y_sum = _power_series(xs, want_y)
        if want_y:
            out[small] = (2.0 / np.pi) * ((np.log(0.5 * xs) + EULER_GAMMA) * j0 + y_sum)
        else:
            out[small] = j0
    if np.any(~small):
        xl = np.abs(xv[~small])
        p, q = _hankel_pq(xl)
        chi = xl - 0.25 * np.pi
        amp = np.sqrt(2.0 / (np.pi * xl))
        if want_y:
            out[~small] = amp * (p * np.sin(chi) - q * np.cos(chi))
        else:
            out[~small] = amp * (p * np.cos(chi) + q * np.sin(chi))
    return out[0] if scalar else out


def bessel_j0(x):
    """Bessel function J0, absolute error <= 1e-10 on (0, 100].

    Power series below |x| = 13, Hankel asymptotic expansion above.  Accepts
    scalars or arrays; J0 is even, so negative arguments are folded.
    """
    return _bessel0(x, want_y=False)


def bessel_y0(x):
    """Bessel function Y0 for x > 0, absolute error <= 1e-10 on (0, 100]."""
    xv = np.asarray(x, dtype=float)
    if np.any(xv <= 0.0):
        raise ValueError("bessel_y0 requires x > 0")
    return _bessel0(x, want_y=True)


# ---------------------------------------------------------------------------
# Adaptive embedded Runge-Kutta (Dormand-Prince 5(4)) with dense output
# ---------------------------------------------------------------------------

_DP_A = [
    np.array([]),
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
    np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]),
]
_DP_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_DP_ERR = np.array(
    [71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40]
)
_DP_DENSE = np.array(
    [
        -12715105075 / 11282082432,
        0.0,
        87487479700 / 32700410799,
        -10690763975 / 1880347072,
        701980252875 / 199316789632,
        -1453857185 / 822651844,
        69997945 / 29380423,
    ]
)


# the smallest relative tolerance a step can meet: below it the error estimate
# is round-off, and the step size shrinks without bound (the same floor as
# scipy's solve_ivp)
MIN_RTOL = 100 * float(np.finfo(float).eps)
# from a start with zero entries (a basis state) the first step falls below the
# floor 16 eps unless atol >= about 40 eps rtol (measured at N = 2 and 5, rtol
# 1e-6 to MIN_RTOL), so no allowed rtol meets an atol below eps MIN_RTOL
MIN_ATOL = float(np.finfo(float).eps) * MIN_RTOL
# the bytes of `integrate_ode`'s output buffers, one per member of a stack
# (at least one state each), which `emit` reads in place
OUTPUT_CHUNK_BYTES = 256 * 1024


def _initial_step(f, y0, f0, rtol, atol, rms):
    """The first step size of each row of the (m, n) stack `y0`, with one
    call of `f` on the stack; each row's arithmetic is a one-member run's."""
    scale = atol + rtol * np.abs(y0)
    d0 = rms(y0 / scale)
    d1 = rms(f0 / scale)
    h0 = [1e-6 if (a < 1e-5 or b < 1e-5) else 0.01 * a / b for a, b in zip(d0, d1)]
    y1 = y0 + np.array(h0)[:, None] * f0
    f1 = f(y1)
    d2 = rms((f1 - f0) / scale) / h0
    steps = []
    for a, b, c in zip(h0, d1, d2):
        dm = max(b, c)
        h1 = max(1e-6, a * 1e-3) if dm <= 1e-15 else (0.01 / dm) ** 0.2
        steps.append(min(100 * a, h1))
    return steps


@dataclass
class IntegratorStats:
    """Counters of one member's integration by `integrate_ode`: right-hand-
    side evaluations, accepted and rejected steps, and the smallest and
    largest accepted step (inf and 0 before the first)."""

    nfev: int = 0
    accepted: int = 0
    rejected: int = 0
    min_step: float = np.inf
    max_step: float = 0.0


def integrate_ode(f, y0, t_grid, rtol, atol, emit, layout=None):
    """Integrate the independent autonomous systems dy/dt = f(y) of the rows
    of the (B, n) stack `y0` in lockstep and hand each member's states at
    the grid points to `emit`; returns one IntegratorStats per member.

    Each iteration makes one call `f(y, members)` on the (m, n) stack of the
    members still integrating, the rows `members` of `y0` (an ascending
    tuple, the same object until a member leaves), which returns their
    derivatives as an (m, n) stack.  Each member keeps its own t, step
    size, error norm, accept/reject decision, FSAL stage and dense output,
    and the arithmetic is a one-member run's row by row (stage sums as
    stacked products, RMS norms along each row, the step-size factor as a
    scalar), so a member's states and counters are bit for bit those of
    integrating it alone.  A member leaves the stack when it reaches the end
    of the grid.

    Each member's grid states go into its own (k, n) buffer; the B buffers
    share OUTPUT_CHUNK_BYTES (at least one state each, at most the grid).
    Each time one fills, and once at the member's end with the states left,
    `emit(member, first, states)` receives it, as the member's states at the
    grid indices first, first + 1, ...; each member's chunks arrive in grid
    order.  `states` is the buffer itself, overwritten after `emit` returns,
    so `emit` copies what it keeps.  An exception from `emit` ends the
    integration.

    Embedded Dormand-Prince 5(4) pair: the fifth-order solution propagates,
    the fourth-order difference controls the local error against
    atol + rtol*|y| per component.  Output at interior grid points comes from
    the standard fourth-order dense interpolant, so the grid never constrains
    the step size.

    `layout = (positions, size)` says that each row holds the entries at the
    distinct `positions` of a length-`size` vector whose other entries stay
    0.  Each RMS norm is then taken over that whole vector: |x|^2 is placed
    into a zeroed length-`size` buffer and averaged, so the sum runs in the
    order of the full vector's and every step is the one that integrating
    the full vector takes, bit for bit.

    Raises ValueError unless `y0` is a (B, n) stack, `rtol` is finite and
    >= MIN_RTOL, `atol` is finite and >= MIN_ATOL, the grid is finite and
    strictly increasing and the `positions` are n distinct indices below
    `size`, and StepSizeUnderflowError if the controller drives a member's h
    below the representable minimum or its error norm is NaN (a NaN
    right-hand side or step size, which would otherwise be rejected forever).
    """
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or t_grid.size == 0:
        raise ValueError("t_grid must be a non-empty 1-d array")
    if not np.all(np.isfinite(t_grid)):
        raise ValueError("t_grid must be finite")
    if np.any(np.diff(t_grid) <= 0):
        raise ValueError("t_grid must be strictly increasing")
    if not (np.isfinite(rtol) and rtol >= MIN_RTOL and np.isfinite(atol) and atol >= MIN_ATOL):
        raise ValueError(f"tolerances must be finite, rtol >= {MIN_RTOL!r} and atol >= "
                         f"{MIN_ATOL!r}, got rtol={rtol!r}, atol={atol!r}")
    y = np.array(y0, dtype=complex)
    if y.ndim != 2 or not y.size:
        raise ValueError(f"y0 must be a non-empty (members, n) stack, got shape {y.shape}")
    count, width = y.shape
    # the means of np.mean along each row: a pairwise sum, then one division
    if layout is None:
        def rms(x):
            return np.sqrt(np.add.reduce(np.abs(x) ** 2, axis=1) / width)
    else:
        positions, size = layout
        positions = np.asarray(positions)
        # np.bincount, not np.unique: np.unique imports numpy.ma, 1.7 MB of RSS
        if (positions.shape != (width,) or not np.issubdtype(positions.dtype, np.integer)
                or np.any((positions < 0) | (positions >= size))
                or np.bincount(positions).max() > 1):
            raise ValueError(f"layout positions must be {width} distinct indices below {size}")
        squares = np.zeros((count, size))

        def rms(x):
            part = squares[:len(x)]
            part[:, positions] = np.abs(x) ** 2
            return np.sqrt(np.add.reduce(part, axis=1) / size)

    stats = [IntegratorStats() for _ in range(count)]
    # the members share OUTPUT_CHUNK_BYTES, which also bounds the stacked
    # dense output below
    rows = min(t_grid.size, max(1, OUTPUT_CHUNK_BYTES // (16 * width * count)))
    outs = np.empty((count, rows, width), dtype=complex)
    outs[:, 0] = y
    # per member: the grid indices of its out[0] and of its next state
    first, next_out = [0] * count, [1] * count
    if rows == 1:
        for i in range(count):
            emit(i, 0, outs[i])
        first = [1] * count
    if t_grid.size == 1:
        return stats

    t_end = float(t_grid[-1])
    members = tuple(range(count))
    k = np.empty((count, 7, width), dtype=complex)
    k[:, 0] = f(y, members)
    t = [float(t_grid[0])] * count
    h = [min(step, t_end - t[0])
         for step in _initial_step(lambda x: f(x, members), y, k[:, 0], rtol, atol, rms)]
    calls = 2  # of f, each on every member of the stack

    hmin_floor = 16.0 * np.finfo(float).eps
    end_floor = hmin_floor * max(abs(t_end), 1.0)
    while True:
        # a member at the end, or within roundoff of it, emits its last
        # states and leaves the stack
        steps, left = [], []
        for r, i in enumerate(members):
            if not (t[i] < t_end and t_end - t[i] > end_floor):
                left.append(r)
                continue
            h[i] = min(h[i], t_end - t[i])
            if h[i] < hmin_floor * max(abs(t[i]), 1.0):
                raise StepSizeUnderflowError(
                    f"step size underflow at t={t[i]!r} (h={h[i]!r})"
                )
            steps.append(h[i])
        if left:
            for r in left:
                i = members[r]
                stats[i].nfev = calls
                if next_out[i] > first[i]:
                    emit(i, first[i], outs[i, :next_out[i] - first[i]])
            if not steps:
                return stats
            stay = [r for r in range(len(members)) if r not in left]
            members = tuple(members[r] for r in stay)
            y, k = y[stay], k[stay]
        step = np.array(steps)[:, None]
        for s in range(1, 7):
            yi = y + step * (_DP_A[s] @ k[:, :s])
            k[:, s] = f(yi, members)
        calls += 6
        y_new = y + step * (_DP_B5 @ k)
        err_vec = step * (_DP_ERR @ k)
        scale = atol + rtol * np.maximum(np.abs(y), np.abs(y_new))
        errs = rms(err_vec / scale)

        accepted, dense = [], []  # rows; (row, member, stop, t, h) of steps over grid points
        for r, (i, err) in enumerate(zip(members, errs)):
            ti, hi, record = t[i], h[i], stats[i]
            if err <= 1.0:
                t_new = ti + hi
                stop = np.searchsorted(
                    t_grid, t_new + 1e-14 * max(abs(t_new), 1.0), side="right"
                )
                if stop > next_out[i]:
                    dense.append((r, i, stop, ti, hi))
                accepted.append(r)
                record.accepted += 1
                record.min_step = min(record.min_step, hi)
                record.max_step = max(record.max_step, hi)
                t[i] = t_new
                factor = 5.0 if err == 0.0 else min(5.0, max(0.2, 0.9 * err ** -0.2))
                h[i] = hi * factor
            elif np.isnan(err):
                raise StepSizeUnderflowError(f"error norm is NaN at t={ti!r} (h={hi!r})")
            else:
                record.rejected += 1
                h[i] = hi * max(0.2, 0.9 * err ** -0.2)

        if dense:
            # dense output over [t, t+h] for the grid points inside, stacked
            # over the members that have some, in rounds of pieces that fit
            # the free rows of each member's buffer; a member's thetas are
            # padded to the longest piece
            sel = [row for row, *_ in dense]
            sel = slice(None) if len(sel) == len(members) else sel
            y_sel, h_sel = y[sel], step[sel]
            ydiff = y_new[sel] - y_sel
            r3 = h_sel * k[sel, 0] - ydiff
            r4 = (ydiff - h_sel * k[sel, 6] - r3)[:, None]
            r5 = (h_sel * (_DP_DENSE @ k[sel]))[:, None]
            ydiff, r3 = ydiff[:, None], r3[:, None]
            todo = list(range(len(dense)))
            while todo:
                pieces = []
                for j in todo:
                    i, stop, ti, hi = dense[j][1:]
                    end = min(stop, first[i] + rows)
                    pieces.append((j, i, (t_grid[next_out[i]:end] - ti) / hi))
                theta = np.zeros((len(pieces), max(len(th) for *_, th in pieces), 1))
                for p, (*_, th) in enumerate(pieces):
                    theta[p, :len(th), 0] = th
                part = slice(None) if len(todo) == len(dense) else todo
                poly = theta * (ydiff[part] + (1 - theta) * (
                    r3[part] + theta * (r4[part] + (1 - theta) * r5[part])))
                for p, (j, i, th) in enumerate(pieces):
                    end = next_out[i] + len(th)
                    np.add(y_sel[j], poly[p, :len(th)],
                           out=outs[i, next_out[i] - first[i]:end - first[i]])
                    next_out[i] = end
                del poly  # not held while `emit` runs
                for _, i, _ in pieces:
                    if next_out[i] - first[i] == rows:
                        emit(i, first[i], outs[i])
                        first[i] = next_out[i]
                todo = [j for j in todo if next_out[dense[j][1]] < dense[j][2]]
        if len(accepted) == len(members):
            k[:, 0] = k[:, 6]  # FSAL
            y = y_new
        elif accepted:
            k[accepted, 0] = k[accepted, 6]
            y[accepted] = y_new[accepted]


# ---------------------------------------------------------------------------
# Dense eigenproblems
# ---------------------------------------------------------------------------


def eig_smallest(mat):
    """Eigenpair (eigenvalue, eigenvector) of smallest modulus of a dense
    complex matrix.

    The residual ||A v - lambda v|| is checked against 1e-8 ||A||_F.
    """
    mat = np.asarray(mat, dtype=complex)
    vals, vecs = np.linalg.eig(mat)
    j = np.argsort(np.abs(vals))[0]
    val, vec = vals[j], vecs[:, j]
    norm = np.linalg.norm(mat)
    resid = np.linalg.norm(mat @ vec - val * vec)
    if norm > 0 and resid > 1e-8 * norm:
        raise np.linalg.LinAlgError(
            f"eigenpair residual {resid:.2e} exceeds 1e-8*||A|| ({norm:.2e})"
        )
    return val, vec


def spectral_radius_estimate(apply, size):
    """Spectral radius of a linear operator from a short Arnoldi run.

    `apply` maps a flat complex vector of length `size` to its image.  The
    largest Ritz modulus after 20 steps (fewer on an invariant subspace) is
    returned; the start vector is drawn from a fixed seed, so the estimate
    is deterministic.
    """
    steps = min(20, size)
    basis = np.zeros((steps + 1, size), dtype=complex)
    hess = np.zeros((steps + 1, steps), dtype=complex)
    rng = np.random.default_rng(0)
    start = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    basis[0] = start / np.linalg.norm(start)
    for j in range(steps):
        u = np.asarray(apply(basis[j]), dtype=complex)
        for _ in range(2):  # classical Gram-Schmidt, repeated for stability
            coeff = basis[: j + 1].conj() @ u
            u = u - coeff @ basis[: j + 1]
            hess[: j + 1, j] += coeff
        hess[j + 1, j] = np.linalg.norm(u)
        if hess[j + 1, j] <= 1e-12 * np.max(np.abs(hess[: j + 2, : j + 1])):
            steps = j + 1
            break
        basis[j + 1] = u / hess[j + 1, j]
    return float(np.max(np.abs(np.linalg.eigvals(hess[:steps, :steps]))))


# ---------------------------------------------------------------------------
# Adaptive Gauss-Kronrod quadrature
# ---------------------------------------------------------------------------

# bisection budget of quad_adaptive
QUAD_MAX_SUBDIVISIONS = 2000

# most abscissae per integrand call of the panel rules; bounds their arrays
QUAD_BLOCK_NODES = 8192

# Kronrod-15 nodes on [-1, 1] and weights; rows 1,3,...,13 are the Gauss-7 subset.
_GK_NODES = np.array(
    [
        -0.991455371120813, -0.949107912342759, -0.864864423359769,
        -0.741531185599394, -0.586087235467691, -0.405845151377397,
        -0.207784955007898, 0.0, 0.207784955007898, 0.405845151377397,
        0.586087235467691, 0.741531185599394, 0.864864423359769,
        0.949107912342759, 0.991455371120813,
    ]
)
_GK_WK = np.array(
    [
        0.022935322010529, 0.063092092629979, 0.104790010322250,
        0.140653259715525, 0.169004726639267, 0.190350578064785,
        0.204432940075298, 0.209482141084728, 0.204432940075298,
        0.190350578064785, 0.169004726639267, 0.140653259715525,
        0.104790010322250, 0.063092092629979, 0.022935322010529,
    ]
)
_GK_WG = np.array(
    [
        0.129484966168870, 0.279705391489277, 0.381830050505119,
        0.417959183673469, 0.381830050505119, 0.279705391489277,
        0.129484966168870,
    ]
)


@dataclass(frozen=True)
class QuadratureResult:
    """Value and error estimate of a numerical integral."""

    value: complex
    abs_error_estimate: float
    evaluations: int


def _panel_blocks(n_panels, order):
    """Slices splitting `n_panels` panels of `order` nodes each into
    near-equal blocks of at most QUAD_BLOCK_NODES nodes.  No block holds a
    single panel unless the whole partition does: numpy evaluates a
    one-row rule by another kernel than a many-row one."""
    count = max(1, -(-n_panels // (QUAD_BLOCK_NODES // order)))
    bounds = [n_panels * i // count for i in range(count + 1)]
    return [slice(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:])]


def _gk15_batch(f, lows, highs):
    """Vectorized 15-point rule over many intervals, with one integrand call
    per block of `_panel_blocks`; each interval's rule is one row of a
    matrix-vector product."""
    half = 0.5 * (highs - lows)
    mid = 0.5 * (highs + lows)
    vals, errs = [], []
    for block in _panel_blocks(half.size, _GK_NODES.size):
        x = mid[block, None] + half[block, None] * _GK_NODES[None, :]
        fx = np.asarray(f(x.ravel())).reshape(x.shape)
        vals.append(half[block] * (fx @ _GK_WK))
        errs.append(np.abs(vals[-1] - half[block] * (fx[:, 1::2] @ _GK_WG)))
    return np.concatenate(vals), np.concatenate(errs)


def quad_adaptive(f, edges, tol):
    """Adaptive Gauss-Kronrod (7/15) quadrature of a vectorized integrand.

    `edges` is the seed partition: at least two finite, strictly increasing
    panel bounds (pass [a, b] for one panel, or more where the phase count of
    an oscillatory integrand is known in advance); a ValueError otherwise.
    `f` must accept an ndarray of abscissae and return corresponding values
    (real or complex); it is called once per block of at most
    QUAD_BLOCK_NODES abscissae of the seed partition, then once per
    bisection.  Bisects the panel of largest error estimate, the oldest of
    equal ones, until the summed estimate is below `tol`; raises
    QuadratureConvergenceError (carrying the achieved estimate) if
    `QUAD_MAX_SUBDIVISIONS` bisections do not reach it or the estimate is
    not finite.  `evaluations` is 15 times the panels made.
    """
    edges = np.asarray(edges, dtype=float)
    if edges.ndim != 1 or edges.size < 2 or not (
            np.all(np.isfinite(edges)) and np.all(np.diff(edges) > 0)):
        raise ValueError("edges must hold at least two finite, strictly increasing values")
    vals, errs = _gk15_batch(f, edges[:-1], edges[1:])
    total_val = np.sum(vals)
    total_err = float(np.sum(errs))
    # the panels in one set of arrays, with room for every bisection's halves
    spare = np.zeros(2 * QUAD_MAX_SUBDIVISIONS)
    lows, highs, vals, errs = (np.concatenate([x, spare])
                               for x in (edges[:-1], edges[1:], vals, errs))
    made = edges.size - 1
    for _ in range(QUAD_MAX_SUBDIVISIONS):
        if not tol < total_err < np.inf:
            break
        i = np.argmax(errs[:made])
        halves = slice(made, made + 2)
        mid = 0.5 * (lows[i] + highs[i])
        lows[halves], highs[halves] = (lows[i], mid), (mid, highs[i])
        vals[halves], errs[halves] = _gk15_batch(f, lows[halves], highs[halves])
        total_val += vals[made] + vals[made + 1] - vals[i]
        total_err += errs[made] + errs[made + 1] - errs[i]
        errs[i] = -np.inf  # retired: never the argmax, and 0 in the sum below
        made += 2
    # refresh the error sum (the incremental update accumulates cancellation)
    total_err = float(np.sum(np.maximum(errs[:made], 0.0)))
    if not total_err <= tol:
        raise QuadratureConvergenceError(
            f"quadrature error estimate {total_err:.3e} above tolerance {tol:.3e}",
            achieved=total_err,
            requested=tol,
        )
    return QuadratureResult(value=total_val, abs_error_estimate=total_err, evaluations=15 * made)


@functools.cache
def _legendre12():
    """12-point Gauss-Legendre nodes and weights on [-1, 1], read-only.
    Built on first use, not at import: importing np.polynomial takes a few ms."""
    x, w = np.polynomial.legendre.leggauss(12)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def gauss_legendre_panels(f, edges):
    """Composite 12-point Gauss-Legendre integral of a vectorized integrand.

    `edges` is an increasing array of panel boundaries.  `f` is called once
    per block of at most QUAD_BLOCK_NODES nodes (whole panels) and the block
    sums are added up; intended for smooth integrands on structured grids
    (spectral k-integrals) where adaptivity is unnecessary.
    """
    edges = np.asarray(edges, dtype=float)
    x, w = _legendre12()
    total = 0.0
    for block in _panel_blocks(edges.size - 1, x.size):
        panels = edges[block.start:block.stop + 1]
        half = 0.5 * np.diff(panels)
        nodes = (panels[:-1, None] + half[:, None] * (x[None, :] + 1.0)).ravel()
        weights = (half[:, None] * w[None, :]).ravel()
        total += np.sum(weights * np.asarray(f(nodes)))
    return total
