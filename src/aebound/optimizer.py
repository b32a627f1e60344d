"""Self-contained L-BFGS minimizer with a strong-Wolfe line search.

Two-loop recursion over a bounded history of correction pairs; the line
search brackets and zooms with quadratic interpolation. Used to fit
autoencoder weights, but works on any deterministic (cost, gradient)
objective.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import autoencoder, sphering


@dataclass(frozen=True)
class LbfgsOptions:
    history: int = 10
    max_iters: int = 400
    grad_tol: float = 1e-5
    wolfe_c1: float = 1e-4
    wolfe_c2: float = 0.9
    max_line_search_steps: int = 25

    def __post_init__(self):
        if not (0.0 < self.wolfe_c1 < self.wolfe_c2 < 1.0):
            raise ValueError("need 0 < c1 < c2 < 1")
        if self.history < 1 or self.max_iters < 1 or self.max_line_search_steps < 1:
            raise ValueError("history, max_iters and max_line_search_steps must be positive")
        if self.grad_tol <= 0:
            raise ValueError("grad_tol must be positive")


@dataclass
class TrainingTrace:
    iterations: int
    cost_history: list[float]
    final_grad_norm: float
    stop_reason: str  # converged | max_iters | line_search_failure


def _quadratic_min(a, fa, ga, b, fb):
    """Minimizer of the quadratic through (a, fa) with slope ga there and (b, fb).

    Returns None when the interpolation is degenerate.
    """
    if b == a:
        return None
    denom = (b - a) ** 2
    if denom == 0:
        return None
    top = fb - fa - ga * (b - a)
    if top == 0:
        return None
    t = a - ga * denom / (2.0 * top)
    return t if np.isfinite(t) else None


def _zoom(phi, lo, f_lo, g_lo, hi, f_hi, f0, g0, c1, c2, max_steps):
    """Strong-Wolfe zoom phase on the bracket [lo, hi]."""
    for _ in range(max_steps):
        t = _quadratic_min(lo, f_lo, g_lo, hi, f_hi)
        left, right = min(lo, hi), max(lo, hi)
        span = right - left
        if t is None or not (left + 0.1 * span <= t <= right - 0.1 * span):
            t = 0.5 * (lo + hi)
        f_t, g_t = phi(t)
        if not np.isfinite(f_t) or f_t > f0 + c1 * t * g0 or f_t >= f_lo:
            hi, f_hi = t, f_t
        else:
            if abs(g_t) <= -c2 * g0:
                return t, f_t, g_t
            if g_t * (hi - lo) >= 0:
                hi, f_hi = lo, f_lo
            lo, f_lo, g_lo = t, f_t, g_t
        if abs(hi - lo) < 1e-16 * max(1.0, abs(lo)):
            break
    if f_lo < f0:
        return lo, f_lo, g_lo
    return None


def _line(objective, x, d, last):
    """phi(a) = (f, directional derivative) at x + a*d; keeps the last (f, g) in `last`.

    `last` is a list owned by the caller, so phi holds no reference to itself
    and each iteration's arrays are freed as soon as it ends.
    """

    def phi(a):
        last[:] = objective(x + a * d)
        return last[0], float(last[1] @ d)

    return phi


def _first_step(g):
    """Scaled initial step for a search without curvature history (first iterate or restart)."""
    return min(1.0, 1.0 / max(1e-12, float(np.sum(np.abs(g)))))


def _strong_wolfe(phi, f0, g0, c1, c2, max_steps, alpha0=1.0):
    """Bracketing line search; phi(a) returns (value, directional derivative).

    Returns (alpha, f, g) satisfying the strong Wolfe conditions, or None.
    """
    if g0 >= 0:
        return None
    alpha_prev, f_prev, g_prev = 0.0, f0, g0
    alpha = alpha0
    for i in range(max_steps):
        f_a, g_a = phi(alpha)
        if not np.isfinite(f_a) or f_a > f0 + c1 * alpha * g0 or (i > 0 and f_a >= f_prev):
            return _zoom(phi, alpha_prev, f_prev, g_prev, alpha, f_a, f0, g0, c1, c2, max_steps)
        if abs(g_a) <= -c2 * g0:
            return alpha, f_a, g_a
        if g_a >= 0:
            return _zoom(phi, alpha, f_a, g_a, alpha_prev, f_prev, f0, g0, c1, c2, max_steps)
        alpha_prev, f_prev, g_prev = alpha, f_a, g_a
        alpha = 2.0 * alpha
    return None


def minimize(
    objective: Callable[[np.ndarray], tuple[float, np.ndarray]],
    theta0: np.ndarray,
    opts: LbfgsOptions = LbfgsOptions(),
) -> tuple[np.ndarray, TrainingTrace]:
    """L-BFGS minimization; returns the best iterate found and a trace."""
    x = np.asarray(theta0, dtype=np.float64).copy()
    if not np.all(np.isfinite(x)):
        raise ValueError("theta0 contains non-finite entries")
    f, g = objective(x)
    if not (np.isfinite(f) and np.all(np.isfinite(g))):
        raise ValueError("objective is non-finite at theta0")

    s_hist: list[np.ndarray] = []
    y_hist: list[np.ndarray] = []
    rho_hist: list[float] = []
    cost_history = [float(f)]
    best_x, best_f = x.copy(), f
    best_gnorm = float(np.max(np.abs(g)))
    stop_reason = "max_iters"
    iterations = 0

    for iterations in range(1, opts.max_iters + 1):
        gnorm = float(np.max(np.abs(g)))
        if gnorm <= opts.grad_tol:
            stop_reason = "converged"
            iterations -= 1
            break

        # two-loop recursion
        q = g.copy()
        alphas = []
        for s, yv, rho in zip(reversed(s_hist), reversed(y_hist), reversed(rho_hist)):
            a = rho * (s @ q)
            alphas.append(a)
            q -= a * yv
        if y_hist:
            gamma = (s_hist[-1] @ y_hist[-1]) / (y_hist[-1] @ y_hist[-1])
            q *= gamma
        for (s, yv, rho), a in zip(zip(s_hist, y_hist, rho_hist), reversed(alphas)):
            b = rho * (yv @ q)
            q += (a - b) * s
        d = -q
        dg = float(d @ g)
        if dg >= 0:  # not a descent direction; restart from steepest descent
            s_hist.clear()
            y_hist.clear()
            rho_hist.clear()
            d = -g
            dg = float(d @ g)

        last = [None, None]  # (f, g) of the line search's latest evaluation
        res = _strong_wolfe(
            _line(objective, x, d, last), f, dg, opts.wolfe_c1, opts.wolfe_c2,
            opts.max_line_search_steps, 1.0 if y_hist else _first_step(g),
        )
        if res is None and s_hist:
            # retry once along steepest descent with fresh memory
            s_hist.clear()
            y_hist.clear()
            rho_hist.clear()
            d = -g
            dg = float(d @ g)
            res = _strong_wolfe(
                _line(objective, x, d, last), f, dg, opts.wolfe_c1, opts.wolfe_c2,
                opts.max_line_search_steps, _first_step(g),
            )
        if res is None:
            # near the minimum the Wolfe test drowns in f-roundoff; accept a
            # plain step along d if it still shrinks the gradient
            for alpha in (1.0, 0.5, 0.25, 0.1):
                f_try, g_try = objective(x + alpha * d)
                if (
                    np.isfinite(f_try)
                    and np.all(np.isfinite(g_try))
                    and float(np.max(np.abs(g_try))) < gnorm
                ):
                    x_new = x + alpha * d
                    f_new, g_new = f_try, g_try
                    break
            else:
                stop_reason = "line_search_failure"
                break
        else:
            alpha, f_new, _ = res
            x_new = x + alpha * d
            f_last, g_new = last
            if f_last != f_new:  # zoom may return an earlier evaluation point
                f_new, g_new = objective(x_new)

        s = x_new - x
        yv = g_new - g
        sy = float(s @ yv)
        if sy > 1e-10 * float(np.linalg.norm(s)) * float(np.linalg.norm(yv)):
            s_hist.append(s)
            y_hist.append(yv)
            rho_hist.append(1.0 / sy)
            if len(s_hist) > opts.history:
                s_hist.pop(0)
                y_hist.pop(0)
                rho_hist.pop(0)

        x, f, g = x_new, f_new, np.asarray(g_new, dtype=np.float64)
        cost_history.append(float(f))
        gn = float(np.max(np.abs(g)))
        slack = 1e-14 * (1.0 + abs(best_f))  # f ties at roundoff level
        if f < best_f - slack or (f <= best_f + slack and gn < best_gnorm):
            best_f, best_gnorm, best_x = f, gn, x.copy()
    else:
        stop_reason = "max_iters"

    trace = TrainingTrace(
        iterations=iterations,
        cost_history=cost_history,
        final_grad_norm=float(np.max(np.abs(g))),
        stop_reason=stop_reason,
    )
    return best_x, trace


def train(
    data,
    n: int,
    k: int,
    cfg: autoencoder.CostConfig,
    opts: LbfgsOptions,
    seed: int,
) -> tuple[autoencoder.ModelParams, TrainingTrace]:
    """Fit autoencoder weights on raw window vectors.

    Estimates the global sphering scale from `data`, normalizes, minimizes the
    configured cost with L-BFGS, and returns the parameters with the scale
    attached. Deterministic given identical inputs and seed.
    """
    vectors = [np.asarray(getattr(x, "entries", x), dtype=np.float64) for x in data]
    if not vectors:
        raise ValueError("training data is empty")
    for v in vectors:
        if v.shape != (n,):
            raise ValueError(f"training vector has shape {v.shape}, expected ({n},)")
    sigma = sphering.estimate_sigma(vectors)
    X = sphering.normalize(np.stack(vectors), sigma)

    theta0 = autoencoder.init_params(n, k, seed, sigma=sigma)
    x0 = autoencoder.flatten_params(theta0)

    def objective(vec):
        c, g = autoencoder.cost_and_grad(autoencoder.unflatten_params(vec, n, k, sigma), X, cfg)
        return c, autoencoder.flatten_gradient(g)

    x_star, trace = minimize(objective, x0, opts)
    return autoencoder.unflatten_params(x_star, n, k, sigma), trace
