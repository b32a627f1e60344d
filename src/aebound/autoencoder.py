"""Three-layer sigmoid autoencoder: parameters, their wire code, costs and gradients.

Cost variants:
  AE  - mean squared reconstruction error
  WAE - AE plus weight decay on both weight matrices
  SAE - WAE plus a KL-divergence sparsity penalty on mean hidden activations

Gradients are analytic (reverse mode through the two sigmoid layers) and are
checked against central finite differences in the test suite.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .sphering import SpheringScale, denormalize, normalize

VARIANTS = ("ae", "wae", "sae")

_RHO_HAT_CLIP = 1e-8  # sigmoid outputs can underflow to exactly 0/1 in floats
_PARAM_NAMES = ("w_enc", "b_enc", "w_dec", "b_dec")  # flat-vector order


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
        for name in _PARAM_NAMES:
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

    @property
    def code_width(self) -> int:
        return self.k + 1

    @property
    def code_bits(self) -> int:
        return 32 * self.code_width

    def encode(self, P: np.ndarray) -> np.ndarray:
        """The float32 wire code of each row of a (B, n) batch: y, then the row mean with the bits of `p.mean()`."""
        y = sigmoid(matvecs(self.w_enc, normalize(P, self.sigma)) + self.b_enc)
        return np.column_stack([y, np.add.reduce(P, axis=1) / self.n]).astype(np.float32)

    def decode(self, code: np.ndarray) -> np.ndarray:
        """The (B, n) float64 reconstructions of a wire code, bitwise the same on both sides of the link."""
        z = sigmoid(matvecs(self.w_dec, code[:, :self.k].astype(np.float64)) + self.b_dec)
        return denormalize(z, code[:, self.k:].astype(np.float64), self.sigma)


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
        if not (0.0 <= self.beta < math.inf and 0.0 <= self.eta < math.inf):  # also rejects NaN
            raise ValueError(f"beta and eta must be finite and nonnegative, got beta={self.beta}, eta={self.eta}")
        if not (0.0 < self.rho < 1.0):
            raise ValueError(f"rho must be in (0,1), got {self.rho}")


@dataclass(frozen=True)
class CostGradient:
    """Partial derivatives of the cost, laid out like ModelParams."""

    w_enc: np.ndarray
    b_enc: np.ndarray
    w_dec: np.ndarray
    b_dec: np.ndarray


# exp(t) = 2**k * exp(r), t = k*ln2 + r, |r| <= ln2/2 (Cody and Waite, 1980; the
# split and the polynomial are fdlibm's). _LN2_HI has 21 trailing zero bits, so
# k*_LN2_HI and t - k*_LN2_HI are exact for every k the clip lets through.
_LN2_HI = 6.93147180369123816490e-01
_LN2_LO = 1.90821492927058770002e-10
_INV_LN2 = 1.44269504088896338700e+00
_EXP_POLY = (1.66666666666666019037e-01, -2.77777777770155933842e-03, 6.61375632143793436117e-05,
             -1.65339022054652515390e-06, 4.13813679705723846039e-08)  # P1..P5
_SIGMOID_CLIP = 750.0  # exp(-x) is already 0 or inf in float64 beyond it
_SIGMOID_BLOCK = 8192  # elements per pass: each temporary stays in cache


def _sigmoid_block(x: np.ndarray, out: np.ndarray) -> None:
    """`1 / (1 + exp(-x))` for a 1-D block, written into `out`."""
    t = np.clip(x, -_SIGMOID_CLIP, _SIGMOID_CLIP)
    np.negative(t, out=t)
    k = np.rint(t * _INV_LN2)
    hi = k * _LN2_HI
    np.subtract(t, hi, out=hi)
    lo = k * _LN2_LO
    r = np.subtract(hi, lo, out=t)
    s = r * r
    c = s * _EXP_POLY[4]
    for coef in _EXP_POLY[3::-1]:  # Horner: c = s*(P1 + s*(P2 + ... + s*P5))
        c += coef
        c *= s
    np.subtract(r, c, out=c)
    q = r  # q = exp(r) - 1 - r = r*c/(2 - c), in r's buffer
    q *= c
    q /= np.subtract(2.0, c, out=c)
    # exp(r) = (1 + hi) + (q - lo). 1 + hi is rounded once; its rounding error,
    # hi - ((1 + hi) - 1), is exact (Fast2Sum) and joins the small tail q - lo
    q -= lo
    e = np.add(1.0, hi, out=lo)
    np.subtract(e, 1.0, out=s)
    q += np.subtract(hi, s, out=s)
    e += q
    np.ldexp(e, k.astype(np.int32), out=e)  # overflows to inf, underflows to 0
    e += 1.0
    np.divide(1.0, e, out=out)


def sigmoid(v):
    """The logistic function `1 / (1 + exp(-v))`, the same bits on every IEEE host.

    Encoder and decoder must agree on every bit wherever each runs, and a
    libm's or numpy's `exp` may differ in the last bit by platform or CPU
    feature set. So `exp` is computed here from correctly rounded numpy
    operations only: Cody-Waite range reduction with ln2 split in two, a
    polynomial in the reduced argument, and `ldexp`. It stays within 2 ulps
    of `1 / (1 + math.exp(-v))` and is exactly 0.5 at 0; where `exp(-v)`
    overflows, the result is exactly 0, as the limit is. It runs in blocks,
    so its temporaries stay small whatever the batch.
    """
    x = np.asarray(v, dtype=np.float64)
    out = np.empty(x.shape)
    flat_x, flat_out = x.reshape(-1), out.reshape(-1)
    with np.errstate(over="ignore", invalid="ignore"):  # inf from ldexp; a NaN input stays NaN
        for start in range(0, flat_x.size, _SIGMOID_BLOCK):
            stop = start + _SIGMOID_BLOCK
            _sigmoid_block(flat_x[start:stop], flat_out[start:stop])
    return out if out.ndim else out[()]


def matvecs(w: np.ndarray, X: np.ndarray) -> np.ndarray:
    """`w @ v` for one vector v (n,) or for each row v of a (B, n) batch, in the format's summation order.

    Output i is `w[i, 0]*v[0]`, then `+ w[i, j]*v[j]` for j = 1 ... n-1, each
    product and sum rounded to float64 in that order, by numpy's elementwise
    operations only: a BLAS library picks its kernel, and its rounding, by CPU.
    So encoder and decoder agree on every bit, and a batch row keeps its bits.
    """
    out = X[..., :1] * w[:, 0]
    for j in range(1, w.shape[1]):
        out += X[..., j:j + 1] * w[:, j]
    return out


def _stack(data, n: int) -> np.ndarray:
    """The batch as a C-contiguous (B, n) float64 matrix; such an array is returned as is."""
    X = np.ascontiguousarray(data, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] == 0:
        raise ValueError(f"data has shape {X.shape}, expected a non-empty (B, {n}) batch of vectors")
    if X.shape[1] != n:
        raise ValueError(f"data vectors have length {X.shape[1]}, expected {n}")
    return X


def kl_divergence(rho: float, rho_hat) -> np.ndarray:
    """Bernoulli KL(rho || rho_hat), elementwise."""
    rho_hat = np.asarray(rho_hat, dtype=np.float64)
    return rho * np.log(rho / rho_hat) + (1.0 - rho) * np.log((1.0 - rho) / (1.0 - rho_hat))


def _blocks(vec: np.ndarray, n: int, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Views of w_enc (k, n), b_enc (k), w_dec (n, k) and b_dec (n) in a flat vector of that layout."""
    size = 2 * k * n + k + n
    if vec.shape != (size,):
        raise ValueError(f"parameter vector has length {vec.shape}, expected ({size},)")
    return (vec[: k * n].reshape(k, n), vec[k * n : k * n + k],
            vec[k * n + k : 2 * k * n + k].reshape(n, k), vec[2 * k * n + k :])


def _sigmoid_inplace(A: np.ndarray) -> np.ndarray:
    """`1 / (1 + exp(-A))` computed in place with numpy's `exp`; returns A.

    Training only: numpy picks its `exp` kernel by CPU feature set, so a fit
    is reproducible on one host, not across hosts (its last bits can differ
    from `sigmoid`'s). The codec keeps `sigmoid`, whose bits do not depend
    on the host, so the wire does not either. About 6 times faster than
    `sigmoid`. Where `-A` overflows `exp`, the result is exactly 0, as the
    limit is.
    """
    np.negative(A, out=A)
    with np.errstate(over="ignore"):
        np.exp(A, out=A)
    A += 1.0
    return np.reciprocal(A, out=A)


def flat_cost_and_grad(vec: np.ndarray, X: np.ndarray, n: int, k: int, cfg: CostConfig) -> tuple[float, np.ndarray]:
    """Training objective and its analytic gradient at a flat parameter vector.

    `vec` is laid out as `flatten_params` packs it, and `X` is the stacked
    (B, n) float64 batch. One forward pass over the whole batch feeds both the
    cost and the reverse pass through the two sigmoid layers. Every
    intermediate is computed in place and every gradient block is written
    straight into the returned flat vector, in `vec`'s layout. Each operation
    keeps the order and operands of the plain out-of-place formulas, so fits
    stay bit-identical to them; the tests compare the two bit for bit.

    Every sum over the batch is a product with a ones vector, one BLAS
    matrix-vector call. A single `ddot` over the flattened batch would be
    shorter, but OpenBLAS splits a long `ddot` across its threads, and then
    the fit would depend on the BLAS thread count.
    """
    w_enc, b_enc, w_dec, b_dec = blocks = _blocks(vec, n, k)
    if not np.isfinite(vec).all():
        name = next(name for name, b in zip(_PARAM_NAMES, blocks) if not np.isfinite(b).all())
        raise ValueError(f"{name} contains non-finite entries")
    B = X.shape[0]
    ones = np.ones(B)
    grad = np.empty_like(vec)
    g_wenc, g_benc, g_wdec, g_bdec = _blocks(grad, n, k)

    Y = np.matmul(X, w_enc.T)  # B x k
    Y += b_enc
    _sigmoid_inplace(Y)
    Z = np.matmul(Y, w_dec.T)  # B x n
    Z += b_dec
    _sigmoid_inplace(Z)

    D = Z - X  # becomes delta_z = ((Z - X) / B) * Z * (1 - Z)
    total = 0.5 * float(np.sum(ones @ (D * D))) / B  # the mean of each vector's half squared error
    D /= B
    D *= Z
    D *= np.subtract(1.0, Z, out=Z)
    np.matmul(D.T, Y, out=g_wdec)
    np.matmul(ones, D, out=g_bdec)

    back = np.matmul(D, w_dec)  # B x k; becomes delta_y = back * Y * (1 - Y)
    if cfg.variant in ("wae", "sae"):
        total += 0.5 * cfg.beta * (float(np.sum(w_enc**2)) + float(np.sum(w_dec**2)))
    if cfg.variant == "sae":
        rho_hat_raw = (ones @ Y) / B
        rho_hat = np.clip(rho_hat_raw, _RHO_HAT_CLIP, 1.0 - _RHO_HAT_CLIP)
        total += cfg.eta * float(np.sum(kl_divergence(cfg.rho, rho_hat)))
        kl_grad = cfg.eta * (-cfg.rho / rho_hat + (1.0 - cfg.rho) / (1.0 - rho_hat))
        kl_grad = np.where(rho_hat_raw == rho_hat, kl_grad, 0.0)  # clamp is flat
        back += kl_grad / B
    back *= Y
    back *= np.subtract(1.0, Y, out=Y)
    np.matmul(back.T, X, out=g_wenc)
    np.matmul(ones, back, out=g_benc)

    if cfg.variant in ("wae", "sae"):
        g_wenc += cfg.beta * w_enc
        g_wdec += cfg.beta * w_dec
    return total, grad


def cost_and_grad(theta: ModelParams, data, cfg: CostConfig) -> tuple[float, CostGradient]:
    """Training objective for the configured variant and its analytic gradient.

    The math is `flat_cost_and_grad`'s; the gradient blocks are views of its flat gradient.
    """
    X = _stack(data, theta.n)
    total, grad = flat_cost_and_grad(flatten_params(theta), X, theta.n, theta.k, cfg)
    return total, CostGradient(*_blocks(grad, theta.n, theta.k))


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
    w_enc, b_enc, w_dec, b_dec = _blocks(np.asarray(vec, dtype=np.float64), n, k)
    return ModelParams(w_enc=w_enc, b_enc=b_enc, w_dec=w_dec, b_dec=b_dec, n=n, k=k, sigma=sigma)
