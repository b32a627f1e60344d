"""Three-layer sigmoid autoencoder: parameters, forward pass, costs, gradients.

Cost variants:
  AE  - mean squared reconstruction error
  WAE - AE plus weight decay on both weight matrices
  SAE - WAE plus a KL-divergence sparsity penalty on mean hidden activations

Gradients are analytic (reverse mode through the two sigmoid layers) and are
checked against central finite differences in the test suite.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.special import expit

from .sphering import SpheringScale

VARIANTS = ("ae", "wae", "sae")

_RHO_HAT_CLIP = 1e-8  # sigmoid outputs can underflow to exactly 0/1 in floats


@dataclass(frozen=True)
class ModelParams:
    """Encoder/decoder weights plus the training-time sphering scale."""

    w_enc: np.ndarray  # k x n
    b_enc: np.ndarray  # k
    w_dec: np.ndarray  # n x k
    b_dec: np.ndarray  # n
    n: int
    k: int
    sigma: SpheringScale

    def __post_init__(self):
        for name in ("w_enc", "b_enc", "w_dec", "b_dec"):
            arr = np.asarray(getattr(self, name), dtype=np.float64)
            object.__setattr__(self, name, arr)
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} contains non-finite entries")
        if self.k < 1 or self.n < 1:
            raise ValueError("n and k must be >= 1")
        if self.w_enc.shape != (self.k, self.n):
            raise ValueError(f"w_enc shape {self.w_enc.shape} != ({self.k}, {self.n})")
        if self.b_enc.shape != (self.k,):
            raise ValueError(f"b_enc shape {self.b_enc.shape} != ({self.k},)")
        if self.w_dec.shape != (self.n, self.k):
            raise ValueError(f"w_dec shape {self.w_dec.shape} != ({self.n}, {self.k})")
        if self.b_dec.shape != (self.n,):
            raise ValueError(f"b_dec shape {self.b_dec.shape} != ({self.n},)")
        if self.k >= self.n:
            warnings.warn(f"code dimension k={self.k} >= input dimension n={self.n}; no compression")


@dataclass(frozen=True)
class CostConfig:
    """Which cost variant to train and its hyperparameters."""

    variant: str = "wae"
    beta: float = 1e-4
    eta: float = 0.1
    rho: float = 0.05

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        if self.beta < 0 or self.eta < 0:
            raise ValueError("beta and eta must be nonnegative")
        if not (0.0 < self.rho < 1.0):
            raise ValueError(f"rho must be in (0,1), got {self.rho}")


@dataclass(frozen=True)
class CostGradient:
    """Partial derivatives of the cost, laid out like ModelParams."""

    w_enc: np.ndarray
    b_enc: np.ndarray
    w_dec: np.ndarray
    b_dec: np.ndarray


def sigmoid(v):
    """Numerically stable logistic function."""
    return expit(v)


def forward(theta: ModelParams, x) -> tuple[np.ndarray, np.ndarray]:
    """One encode/decode pass: returns (code y, reconstruction z)."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (theta.n,):
        raise ValueError(f"input shape {x.shape} != ({theta.n},)")
    y = sigmoid(theta.w_enc @ x + theta.b_enc)
    z = sigmoid(theta.w_dec @ y + theta.b_dec)
    return y, z


def _stack(data, n: int) -> np.ndarray:
    """The batch as a C-contiguous (B, n) float64 matrix; such an array is returned as is."""
    X = np.ascontiguousarray(data, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] == 0:
        raise ValueError(f"data has shape {X.shape}, expected a non-empty (B, {n}) batch of vectors")
    if X.shape[1] != n:
        raise ValueError(f"data vectors have length {X.shape[1]}, expected {n}")
    return X


def _forward_batch(theta: ModelParams, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    Y = sigmoid(X @ theta.w_enc.T + theta.b_enc)
    Z = sigmoid(Y @ theta.w_dec.T + theta.b_dec)
    return Y, Z


def kl_divergence(rho: float, rho_hat) -> np.ndarray:
    """Bernoulli KL(rho || rho_hat), elementwise."""
    rho_hat = np.asarray(rho_hat, dtype=np.float64)
    return rho * np.log(rho / rho_hat) + (1.0 - rho) * np.log((1.0 - rho) / (1.0 - rho_hat))


def cost_and_grad(theta: ModelParams, data, cfg: CostConfig) -> tuple[float, CostGradient]:
    """Training objective for the configured variant and its analytic gradient.

    One forward pass over the whole batch feeds both the cost and the reverse
    pass through the two sigmoid layers.
    """
    X = _stack(data, theta.n)
    B = X.shape[0]
    Y, Z = _forward_batch(theta, X)

    total = float(np.mean(0.5 * np.sum((X - Z) ** 2, axis=1)))
    delta_z = ((Z - X) / B) * Z * (1.0 - Z)  # B x n
    g_wdec = delta_z.T @ Y
    g_bdec = delta_z.sum(axis=0)

    back = delta_z @ theta.w_dec  # B x k
    if cfg.variant in ("wae", "sae"):
        total += 0.5 * cfg.beta * (float(np.sum(theta.w_enc**2)) + float(np.sum(theta.w_dec**2)))
    if cfg.variant == "sae":
        rho_hat_raw = Y.mean(axis=0)
        rho_hat = np.clip(rho_hat_raw, _RHO_HAT_CLIP, 1.0 - _RHO_HAT_CLIP)
        total += cfg.eta * float(np.sum(kl_divergence(cfg.rho, rho_hat)))
        kl_grad = cfg.eta * (-cfg.rho / rho_hat + (1.0 - cfg.rho) / (1.0 - rho_hat))
        kl_grad = np.where(rho_hat_raw == rho_hat, kl_grad, 0.0)  # clamp is flat
        back = back + kl_grad / B
    delta_y = back * Y * (1.0 - Y)  # B x k
    g_wenc = delta_y.T @ X
    g_benc = delta_y.sum(axis=0)

    if cfg.variant in ("wae", "sae"):
        g_wenc = g_wenc + cfg.beta * theta.w_enc
        g_wdec = g_wdec + cfg.beta * theta.w_dec
    return total, CostGradient(w_enc=g_wenc, b_enc=g_benc, w_dec=g_wdec, b_dec=g_bdec)


def cost(theta: ModelParams, data, cfg: CostConfig) -> float:
    """Training objective for the configured variant over the whole batch."""
    return cost_and_grad(theta, data, cfg)[0]


def gradient(theta: ModelParams, data, cfg: CostConfig) -> CostGradient:
    """Analytic gradient of `cost` with respect to every parameter."""
    return cost_and_grad(theta, data, cfg)[1]


def init_params(n: int, k: int, seed: int, sigma: SpheringScale | None = None) -> ModelParams:
    """Seeded symmetric-uniform weight init with zero biases."""
    if n < 1 or k < 1:
        raise ValueError("n and k must be >= 1")
    rng = np.random.default_rng(seed)
    r = np.sqrt(6.0 / (n + k))
    return ModelParams(
        w_enc=rng.uniform(-r, r, (k, n)),
        b_enc=np.zeros(k),
        w_dec=rng.uniform(-r, r, (n, k)),
        b_dec=np.zeros(n),
        n=n,
        k=k,
        sigma=sigma if sigma is not None else SpheringScale(1.0),
    )


def flatten_params(theta: ModelParams) -> np.ndarray:
    """Pack all parameters into one vector (w_enc, b_enc, w_dec, b_dec order)."""
    return np.concatenate(
        [theta.w_enc.ravel(), theta.b_enc, theta.w_dec.ravel(), theta.b_dec]
    )


def flatten_gradient(g: CostGradient) -> np.ndarray:
    return np.concatenate([g.w_enc.ravel(), g.b_enc, g.w_dec.ravel(), g.b_dec])


def unflatten_params(vec: np.ndarray, n: int, k: int, sigma: SpheringScale) -> ModelParams:
    vec = np.asarray(vec, dtype=np.float64)
    expected = k * n + k + n * k + n
    if vec.shape != (expected,):
        raise ValueError(f"parameter vector has length {vec.shape}, expected ({expected},)")
    i = 0
    w_enc = vec[i : i + k * n].reshape(k, n)
    i += k * n
    b_enc = vec[i : i + k]
    i += k
    w_dec = vec[i : i + n * k].reshape(n, k)
    i += n * k
    b_dec = vec[i : i + n]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # k >= n warning already raised at init
        return ModelParams(w_enc=w_enc, b_enc=b_enc, w_dec=w_dec, b_dec=b_dec, n=n, k=k, sigma=sigma)
