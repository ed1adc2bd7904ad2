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
# grid states per output chunk of `integrate_ode` (at least one): its one
# output buffer, which `emit` reads in place
OUTPUT_CHUNK_BYTES = 256 * 1024


def _initial_step(f, y0, f0, rtol, atol, rms):
    scale = atol + rtol * np.abs(y0)
    d0 = rms(y0 / scale)
    d1 = rms(f0 / scale)
    h0 = 1e-6 if (d0 < 1e-5 or d1 < 1e-5) else 0.01 * d0 / d1
    y1 = y0 + h0 * f0
    f1 = f(y1)
    d2 = rms((f1 - f0) / scale) / h0
    dm = max(d1, d2)
    h1 = max(1e-6, h0 * 1e-3) if dm <= 1e-15 else (0.01 / dm) ** 0.2
    return min(100 * h0, h1)


def integrate_ode(f, y0, t_grid, rtol, atol, emit, layout=None):
    """Integrate the autonomous system dy/dt = f(y) and hand the states at
    the grid points to `emit`; returns None.

    The grid states go into one (k, len(y0)) buffer of OUTPUT_CHUNK_BYTES
    (at least one state, at most the grid).  Each time it fills, and once at
    the end with the states left, `emit(first, states)` receives it, as the
    states at the grid indices first, first + 1, ...; the chunks arrive in
    grid order.  `states` is the buffer itself, overwritten after `emit`
    returns, so `emit` copies what it keeps.  An exception from `emit` ends
    the integration.

    Embedded Dormand-Prince 5(4) pair: the fifth-order solution propagates,
    the fourth-order difference controls the local error against
    atol + rtol*|y| per component.  Output at interior grid points comes from
    the standard fourth-order dense interpolant, so the grid never constrains
    the step size.

    `layout = (positions, size)` says that `y` holds the entries at the
    distinct `positions` of a length-`size` vector whose other entries stay
    0.  Each RMS norm is then taken over that whole vector: |x|^2 is placed
    into a zeroed length-`size` buffer and averaged, so the sum runs in the
    order of the full vector's and every step is the one that integrating
    the full vector takes, bit for bit.

    Raises ValueError unless `rtol` is finite and >= MIN_RTOL, `atol` is
    finite and >= MIN_ATOL, the grid is finite and strictly increasing and the
    `positions` are len(y0) distinct indices below `size`, and
    StepSizeUnderflowError if the controller drives h below the
    representable minimum or a step's error norm is NaN (a NaN right-hand
    side or step size, which would otherwise be rejected forever).
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

    y = np.asarray(y0, dtype=complex).copy()
    if layout is None:
        def rms(x):
            return np.sqrt(np.mean(np.abs(x) ** 2))
    else:
        positions, size = layout
        positions = np.asarray(positions)
        if (positions.shape != (y.size,) or not np.issubdtype(positions.dtype, np.integer)
                or np.any((positions < 0) | (positions >= size))
                or np.unique(positions).size != y.size):
            raise ValueError(f"layout positions must be {y.size} distinct indices below {size}")
        squares = np.zeros(size)

        def rms(x):
            squares[positions] = np.abs(x) ** 2
            return np.sqrt(np.mean(squares))

    out = np.empty((min(t_grid.size, max(1, OUTPUT_CHUNK_BYTES // y.nbytes)), y.size),
                   dtype=complex)
    t = t_grid[0]
    out[0] = y
    first, next_out = 0, 1  # the grid indices of out[0] and of the next state
    if len(out) == 1:
        emit(first, out)
        first = 1
    if next_out >= t_grid.size:
        return
    t_end = t_grid[-1]

    k = np.empty((7, y.size), dtype=complex)
    k[0] = f(y)
    h = min(_initial_step(f, y, k[0], rtol, atol, rms), t_end - t)

    hmin_floor = 16.0 * np.finfo(float).eps
    while t < t_end:
        if t_end - t <= hmin_floor * max(abs(t_end), 1.0):
            break  # within roundoff of the end point
        h = min(h, t_end - t)
        if h < hmin_floor * max(abs(t), 1.0):
            raise StepSizeUnderflowError(
                f"step size underflow at t={t!r} (h={h!r})"
            )
        for i in range(1, 7):
            yi = y + h * (_DP_A[i] @ k[:i])
            k[i] = f(yi)
        y_new = y + h * (_DP_B5 @ k)
        err_vec = h * (_DP_ERR @ k)
        scale = atol + rtol * np.maximum(np.abs(y), np.abs(y_new))
        err = rms(err_vec / scale)

        if err <= 1.0:
            # dense output over [t, t+h] for all grid points inside at once
            t_new = t + h
            stop = np.searchsorted(
                t_grid, t_new + 1e-14 * max(abs(t_new), 1.0), side="right"
            )
            if stop > next_out:
                ydiff = y_new - y
                r3 = h * k[0] - ydiff
                r4 = ydiff - h * k[6] - r3
                r5 = h * (_DP_DENSE @ k)
                while next_out < stop:  # in pieces that fit the free rows of `out`
                    end = min(stop, first + len(out))
                    theta = ((t_grid[next_out:end] - t) / h)[:, None]
                    np.add(y, theta * (
                        ydiff + (1 - theta) * (r3 + theta * (r4 + (1 - theta) * r5))
                    ), out=out[next_out - first:end - first])
                    next_out = end
                    if end - first == len(out):
                        emit(first, out)
                        first = end
            k[0] = k[6]  # FSAL
            y = y_new
            t = t_new
            factor = 5.0 if err == 0.0 else min(5.0, max(0.2, 0.9 * err ** -0.2))
            h = h * factor
        elif np.isnan(err):
            raise StepSizeUnderflowError(f"error norm is NaN at t={t!r} (h={h!r})")
        else:
            h = h * max(0.2, 0.9 * err ** -0.2)
    if next_out > first:
        emit(first, out[:next_out - first])


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
