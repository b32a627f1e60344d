"""Self-contained L-BFGS minimizer with a strong-Wolfe line search.

Two-loop recursion over a bounded history of correction pairs; the line
search brackets and zooms with quadratic interpolation. Used to fit
autoencoder weights, but works on any deterministic (cost, gradient)
objective.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from functools import partial
from typing import Callable, NamedTuple

import numpy as np

from . import autoencoder, sphering


WOLFE_C1 = 1e-4  # sufficient decrease
WOLFE_C2 = 0.9  # curvature
MAX_LINE_SEARCH_STEPS = 25  # evaluations per bracketing phase and per zoom


@dataclass(frozen=True)
class LbfgsOptions:
    history: int = 10
    max_iters: int = 400
    grad_tol: float = 1e-5

    def __post_init__(self):
        if self.history < 1 or self.max_iters < 1:
            raise ValueError("history and max_iters must be positive")
        if self.grad_tol <= 0:
            raise ValueError("grad_tol must be positive")


@dataclass
class TrainingTrace:
    iterations: int
    cost_history: list[float]
    final_grad_norm: float
    stop_reason: str  # converged | max_iters | line_search_failure


class _Point(NamedTuple):
    """The point x + step*d with the objective's value and gradient there, and its slope along d."""

    step: float
    x: np.ndarray
    f: float
    slope: float
    grad: np.ndarray


def _point(objective, x, d, step):
    """The line-search point at x + step*d, carrying the objective's own value and gradient there."""
    x_step = x + step * d
    f, g = objective(x_step)
    return _Point(step, x_step, f, float(g @ d), g)


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
    return t if math.isfinite(t) else None


def _zoom(phi, lo, hi, f0, g0):
    """Strong-Wolfe zoom phase on the bracket between the points lo and hi."""
    for _ in range(MAX_LINE_SEARCH_STEPS):
        t = _quadratic_min(lo.step, lo.f, lo.slope, hi.step, hi.f)
        left, right = min(lo.step, hi.step), max(lo.step, hi.step)
        span = right - left
        if t is None or not (left + 0.1 * span <= t <= right - 0.1 * span):
            t = 0.5 * (lo.step + hi.step)
        p = phi(t)
        if not math.isfinite(p.f) or p.f > f0 + WOLFE_C1 * t * g0 or p.f >= lo.f:
            hi = p
        else:
            if abs(p.slope) <= -WOLFE_C2 * g0:
                return p
            if p.slope * (hi.step - lo.step) >= 0:
                hi = lo
            lo = p
        if abs(hi.step - lo.step) < 1e-16 * max(1.0, abs(lo.step)):
            break
    return lo if lo.f < f0 else None


def _first_step(g):
    """Scaled initial step for a search without curvature history (first iterate or restart)."""
    return min(1.0, 1.0 / max(1e-12, float(np.abs(g).sum())))


def _strong_wolfe(objective, x, d, f, g, alpha0):
    """Bracketing line search from x, where the objective is (f, g), along d.

    Returns the accepted point, which satisfies the strong Wolfe conditions,
    or None.
    """
    phi = partial(_point, objective, x, d)
    prev = _Point(0.0, x, f, float(d @ g), g)
    f0, g0 = prev.f, prev.slope
    if g0 >= 0:
        return None
    alpha = alpha0
    for i in range(MAX_LINE_SEARCH_STEPS):
        p = phi(alpha)
        if not math.isfinite(p.f) or p.f > f0 + WOLFE_C1 * alpha * g0 or (i > 0 and p.f >= prev.f):
            return _zoom(phi, prev, p, f0, g0)
        if abs(p.slope) <= -WOLFE_C2 * g0:
            return p
        if p.slope >= 0:
            return _zoom(phi, p, prev, f0, g0)
        prev = p
        alpha = 2.0 * alpha
    return None


def minimize(
    objective: Callable[[np.ndarray], tuple[float, np.ndarray]],
    theta0: np.ndarray,
    opts: LbfgsOptions = LbfgsOptions(),
) -> tuple[np.ndarray, TrainingTrace]:
    """L-BFGS minimization; returns the best iterate found and a trace."""
    x = np.asarray(theta0, dtype=np.float64).copy()
    if not np.isfinite(x).all():
        raise ValueError("theta0 contains non-finite entries")
    f, g = objective(x)
    if not (math.isfinite(f) and np.isfinite(g).all()):
        raise ValueError("objective is non-finite at theta0")

    hist: deque[tuple[np.ndarray, np.ndarray, float]] = deque(maxlen=opts.history)  # (s, y, 1 / s.y)
    cost_history = [float(f)]
    best_x, best_f = x, f  # iterates are replaced, never written to
    gnorm = best_gnorm = float(np.abs(g).max())
    stop_reason = "max_iters"
    iterations = 0

    for iterations in range(1, opts.max_iters + 1):
        if gnorm <= opts.grad_tol:
            stop_reason = "converged"
            iterations -= 1
            break

        # two-loop recursion
        q = g.copy()
        alphas = []
        for s, yv, rho in reversed(hist):
            a = rho * (s @ q)
            alphas.append(a)
            q -= a * yv
        if hist:
            s, yv, _ = hist[-1]
            q *= (s @ yv) / (yv @ yv)
        for (s, yv, rho), a in zip(hist, reversed(alphas)):
            b = rho * (yv @ q)
            q += (a - b) * s
        d = -q
        if float(d @ g) >= 0:  # not a descent direction; restart from steepest descent
            hist.clear()
            d = -g

        point = _strong_wolfe(objective, x, d, f, g, 1.0 if hist else _first_step(g))
        if point is None and hist:  # retry once along steepest descent with fresh memory
            hist.clear()
            d = -g
            point = _strong_wolfe(objective, x, d, f, g, _first_step(g))
        if point is None:
            # near the minimum the Wolfe test drowns in f-roundoff; accept a
            # plain step along d if it still shrinks the gradient
            for alpha in (1.0, 0.5, 0.25, 0.1):
                point = _point(objective, x, d, alpha)
                finite = math.isfinite(point.f) and np.isfinite(point.grad).all()
                if finite and np.abs(point.grad).max() < gnorm:
                    break
            else:
                stop_reason = "line_search_failure"
                break

        s = point.x - x
        yv = point.grad - g
        sy = float(s @ yv)
        if sy > 1e-10 * math.sqrt(s @ s) * math.sqrt(yv @ yv):
            hist.append((s, yv, 1.0 / sy))

        x, f, g = point.x, point.f, point.grad
        cost_history.append(float(f))
        gnorm = float(np.abs(g).max())
        slack = 1e-14 * (1.0 + abs(best_f))  # f ties at roundoff level
        if f < best_f - slack or (f <= best_f + slack and gnorm < best_gnorm):
            best_f, best_gnorm, best_x = f, gnorm, x

    trace = TrainingTrace(iterations=iterations, cost_history=cost_history, final_grad_norm=gnorm,
                          stop_reason=stop_reason)
    return best_x, trace


def train(
    data,
    n: int,
    k: int,
    cfg: autoencoder.CostConfig,
    opts: LbfgsOptions,
    seed: int,
) -> tuple[autoencoder.ModelParams, TrainingTrace]:
    """Fit autoencoder weights on a (B, n) batch of raw windows.

    Estimates the global sphering scale from `data`, normalizes, minimizes the
    configured cost with L-BFGS, and returns the parameters with the scale
    attached. Deterministic given identical inputs and seed.
    """
    raw = autoencoder._stack(data, n)
    sigma = sphering.estimate_sigma(raw)
    X = sphering.normalize(raw, sigma)

    theta0 = autoencoder.init_params(n, k, seed, sigma=sigma)
    x0 = autoencoder.flatten_params(theta0)

    objective = partial(autoencoder.flat_cost_and_grad, X=X, n=n, k=k, cfg=cfg)
    x_star, trace = minimize(objective, x0, opts)
    return autoencoder.unflatten_params(x_star, n, k, sigma), trace
