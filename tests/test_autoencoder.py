import math
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from aebound import autoencoder as ae
from aebound.sphering import SpheringScale
from oracle import ordered_matvec


def finite_difference_gradient(theta, X, cfg, h=1e-6):
    v0 = ae.flatten_params(theta)
    fd = np.zeros_like(v0)
    for i in range(v0.size):
        vp, vm = v0.copy(), v0.copy()
        vp[i] += h
        vm[i] -= h
        fp = ae.cost(ae.unflatten_params(vp, theta.n, theta.k, theta.sigma), X, cfg)
        fm = ae.cost(ae.unflatten_params(vm, theta.n, theta.k, theta.sigma), X, cfg)
        fd[i] = (fp - fm) / (2 * h)
    return fd


def _ulps(a, b) -> np.ndarray:
    """Distance in units in the last place between nonnegative float64 arrays."""
    return np.abs(np.asarray(a, np.float64).view(np.int64) - np.asarray(b, np.float64).view(np.int64))


def _libm_sigmoid(x: float) -> float:
    """`1 / (1 + math.exp(-x))`, with exp's overflow taken as inf, as in IEEE arithmetic."""
    try:
        return 1.0 / (1.0 + math.exp(-x))
    except OverflowError:
        return 0.0


class TestSigmoid:
    def test_zero(self):
        assert ae.sigmoid(0.0) == 0.5
        assert ae.sigmoid(-0.0) == 0.5
        assert ae.sigmoid(np.zeros((2, 3))).tolist() == [[0.5] * 3] * 2

    def test_within_two_ulps_of_libm(self):
        rng = np.random.default_rng(5)
        special = [0.0, 1e-300, -1e-300, 709.78, -709.78, 746.0, -746.0, math.inf, -math.inf]
        x = np.concatenate([rng.uniform(-750.0, 750.0, 100_000), special])
        got = ae.sigmoid(x)
        expected = np.array([_libm_sigmoid(v) for v in x.tolist()])
        assert int(_ulps(got, expected).max()) <= 2
        assert got[-9:-6].tolist() == [0.5, 0.5, 0.5]
        assert got[-4:].tolist() == [1.0, 0.0, 1.0, 0.0]  # 746, -746, inf, -inf

    def test_scalar_shape_and_nan(self):
        assert np.ndim(ae.sigmoid(1.0)) == 0
        assert ae.sigmoid(np.ones((3, 1, 2))).shape == (3, 1, 2)
        assert np.isnan(ae.sigmoid(np.nan))

    def test_symmetry(self):
        rng = np.random.default_rng(0)
        v = rng.normal(0, 10, 100)
        np.testing.assert_allclose(ae.sigmoid(v) + ae.sigmoid(-v), 1.0, atol=1e-15)

    def test_extreme_negative_is_stable(self):
        out = ae.sigmoid(-1000.0)
        assert np.isfinite(out)
        assert 0.0 <= out <= 1e-300
        # matches the exp-shifted stable form where it does not underflow
        v = -700.0
        expected = np.exp(v) / (1.0 + np.exp(v))
        assert ae.sigmoid(v) == pytest.approx(expected, rel=1e-12)


@st.composite
def _products(draw):
    """A (m, n) matrix and a (B, n) batch, B in 0..5, of finite floats whose products and sums stay finite."""
    m, n, B = draw(st.integers(1, 6)), draw(st.integers(1, 6)), draw(st.integers(0, 5))
    floats = st.floats(-1e100, 1e100)
    w = np.array(draw(st.lists(floats, min_size=m * n, max_size=m * n))).reshape(m, n)
    X = np.array(draw(st.lists(floats, min_size=B * n, max_size=B * n))).reshape(B, n)
    return w, X


class TestMatvecs:
    @given(_products())
    @settings(max_examples=200, deadline=None)
    def test_stated_order_row_by_row(self, wX):
        w, X = wX
        got = ae.matvecs(w, X)
        assert got.shape == np.matmul(w, X[..., None])[..., 0].shape == (X.shape[0], w.shape[0])
        expected = np.array([ordered_matvec(w, x) for x in X]).reshape(got.shape)
        assert got.view(np.uint64).tolist() == expected.view(np.uint64).tolist()
        for x, row in zip(X, got):
            alone = ae.matvecs(w, x)
            assert alone.shape == (w @ x).shape
            assert alone.view(np.uint64).tolist() == row.view(np.uint64).tolist()


class TestModelParams:
    @pytest.mark.parametrize("n, k", [(1, 1), (3, 5)])
    def test_code_at_least_as_wide_as_input_warns(self, n, k):
        with pytest.warns(UserWarning, match="no compression"):
            ae.ModelParams(
                w_enc=np.zeros((k, n)), b_enc=np.zeros(k), w_dec=np.zeros((n, k)),
                b_dec=np.zeros(n), n=n, k=k, sigma=SpheringScale(1.0),
            )

    def test_narrower_code_does_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ae.init_params(4, 3, seed=0)


class TestCost:
    @pytest.mark.filterwarnings("ignore:code dimension")
    def test_perfect_reconstruction_near_zero(self):
        # k=n with near-identity behavior: feed the fixed point of the net
        theta = ae.ModelParams(
            w_enc=np.zeros((3, 3)), b_enc=np.zeros(3), w_dec=np.zeros((3, 3)),
            b_dec=np.zeros(3), n=3, k=3, sigma=SpheringScale(1.0),
        )
        X = np.full((4, 3), 0.5)
        assert ae.cost(theta, X, ae.CostConfig("ae")) == pytest.approx(0.0, abs=1e-15)

    def test_weight_decay_difference_exact(self):
        rng = np.random.default_rng(4)
        theta = ae.init_params(5, 2, seed=2)
        X = rng.uniform(0.1, 0.9, (6, 5))
        beta = 0.37
        gamma_ae = ae.cost(theta, X, ae.CostConfig("ae", beta=beta))
        gamma_wae = ae.cost(theta, X, ae.CostConfig("wae", beta=beta))
        expected = 0.5 * beta * (np.sum(theta.w_enc**2) + np.sum(theta.w_dec**2))
        assert gamma_wae - gamma_ae == pytest.approx(expected, rel=1e-12)

    def test_kl_hand_values(self):
        assert ae.kl_divergence(0.3, 0.3) == pytest.approx(0.0, abs=1e-15)
        expected = 0.05 * np.log(0.1) + 0.95 * np.log(0.95 / 0.5)
        assert ae.kl_divergence(0.05, 0.5) == pytest.approx(expected)
        assert expected == pytest.approx(0.4946, abs=5e-4)

    def test_kl_nonnegative(self):
        rng = np.random.default_rng(5)
        rho = rng.uniform(0.01, 0.99, 200)
        rho_hat = rng.uniform(0.01, 0.99, 200)
        vals = np.array([ae.kl_divergence(a, b) for a, b in zip(rho, rho_hat)])
        assert np.all(vals >= 0)

    @pytest.mark.filterwarnings("ignore:code dimension")
    def test_cost_ordering(self):
        rng = np.random.default_rng(6)
        for trial in range(50):
            n, k = int(rng.integers(2, 7)), int(rng.integers(1, 4))
            theta = ae.init_params(n, k, seed=trial)
            X = rng.uniform(0.1, 0.9, (int(rng.integers(1, 6)), n))
            cfgs = [ae.CostConfig(v, beta=0.01, eta=0.2, rho=0.05) for v in ("ae", "wae", "sae")]
            c_ae, c_wae, c_sae = (ae.cost(theta, X, c) for c in cfgs)
            assert c_sae >= c_wae >= c_ae

    def test_permutation_invariant(self):
        rng = np.random.default_rng(7)
        theta = ae.init_params(4, 2, seed=3)
        X = rng.uniform(0.1, 0.9, (5, 4))
        cfg = ae.CostConfig("sae")
        perm = rng.permutation(5)
        assert ae.cost(theta, X, cfg) == pytest.approx(ae.cost(theta, X[perm], cfg), rel=1e-14)

    def test_extreme_activations_do_not_crash(self):
        theta = ae.ModelParams(
            w_enc=np.full((2, 3), 1000.0), b_enc=np.zeros(2), w_dec=np.zeros((3, 2)),
            b_dec=np.zeros(3), n=3, k=2, sigma=SpheringScale(1.0),
        )
        X = np.full((2, 3), 0.9)
        out = ae.cost(theta, X, ae.CostConfig("sae"))
        assert np.isfinite(out)


class TestGradient:
    @pytest.mark.filterwarnings("ignore:code dimension")
    def test_zero_at_minimum(self):
        theta = ae.ModelParams(
            w_enc=np.zeros((3, 3)), b_enc=np.zeros(3), w_dec=np.zeros((3, 3)),
            b_dec=np.zeros(3), n=3, k=3, sigma=SpheringScale(1.0),
        )
        X = np.full((4, 3), 0.5)
        g = ae.gradient(theta, X, ae.CostConfig("ae"))
        for arr in (g.w_enc, g.b_enc, g.w_dec, g.b_dec):
            np.testing.assert_allclose(arr, 0.0, atol=1e-15)

    @pytest.mark.parametrize("variant", ["ae", "wae", "sae"])
    def test_matches_finite_differences(self, variant):
        rng = np.random.default_rng(8)
        cfg = ae.CostConfig(variant, beta=0.02, eta=0.3, rho=0.05)
        theta = ae.init_params(4, 2, seed=10)
        X = rng.uniform(0.1, 0.9, (3, 4))
        g = ae.flatten_gradient(ae.gradient(theta, X, cfg))
        fd = finite_difference_gradient(theta, X, cfg)
        rel = np.abs(g - fd) / np.maximum(1e-10, np.abs(fd))
        assert np.max(rel) <= 1e-6

    def test_wae_minus_ae_is_decay_gradient(self):
        rng = np.random.default_rng(9)
        theta = ae.init_params(5, 3, seed=11)
        X = rng.uniform(0.1, 0.9, (4, 5))
        beta = 0.7
        g_ae = ae.gradient(theta, X, ae.CostConfig("ae", beta=beta))
        g_wae = ae.gradient(theta, X, ae.CostConfig("wae", beta=beta))
        np.testing.assert_allclose(g_wae.w_enc - g_ae.w_enc, beta * theta.w_enc, rtol=0, atol=1e-15)
        np.testing.assert_allclose(g_wae.w_dec - g_ae.w_dec, beta * theta.w_dec, rtol=0, atol=1e-15)
        np.testing.assert_array_equal(g_wae.b_enc, g_ae.b_enc)
        np.testing.assert_array_equal(g_wae.b_dec, g_ae.b_dec)


class TestCostAndGrad:
    @pytest.mark.parametrize("variant", ["ae", "wae", "sae"])
    def test_equals_cost_and_gradient_exactly(self, variant):
        rng = np.random.default_rng(12)
        cfg = ae.CostConfig(variant, beta=0.02, eta=0.3, rho=0.05)
        theta = ae.init_params(6, 3, seed=13)
        X = rng.uniform(0.1, 0.9, (20, 6))
        c, g = ae.cost_and_grad(theta, X, cfg)
        assert c == ae.cost(theta, X, cfg)
        expected = ae.gradient(theta, X, cfg)
        for name in ("w_enc", "b_enc", "w_dec", "b_dec"):
            assert np.array_equal(getattr(g, name), getattr(expected, name))

    def test_list_of_vectors_matches_matrix(self):
        rng = np.random.default_rng(14)
        cfg = ae.CostConfig("sae")
        theta = ae.init_params(5, 2, seed=15)
        X = rng.uniform(0.1, 0.9, (7, 5))
        assert ae.cost_and_grad(theta, list(X), cfg)[0] == ae.cost_and_grad(theta, X, cfg)[0]

    def test_matrix_is_not_copied(self):
        X = np.full((3, 4), 0.5)
        assert ae._stack(X, 4) is X

    @pytest.mark.parametrize("fn", [ae.cost, ae.gradient, ae.cost_and_grad])
    def test_single_vector_rejected(self, fn):
        theta = ae.init_params(4, 2, seed=0)
        with pytest.raises(ValueError, match=r"\(B, 4\)"):
            fn(theta, np.full(4, 0.5), ae.CostConfig("ae"))

    @pytest.mark.parametrize("data", [np.zeros((0, 4)), [], np.zeros((3, 5)), [np.zeros(5)]])
    def test_empty_or_wrong_width_rejected(self, data):
        theta = ae.init_params(4, 2, seed=0)
        with pytest.raises(ValueError):
            ae.cost_and_grad(theta, data, ae.CostConfig("ae"))


def reference_cost_and_grad(theta, X, cfg):
    """The objective as separate out-of-place array expressions: the reference for the fused one."""
    B = X.shape[0]
    ones = np.ones(B)
    Y = 1.0 / (1.0 + np.exp(-(X @ theta.w_enc.T + theta.b_enc)))
    Z = 1.0 / (1.0 + np.exp(-(Y @ theta.w_dec.T + theta.b_dec)))
    total = 0.5 * float(np.sum(ones @ ((Z - X) * (Z - X)))) / B
    delta_z = ((Z - X) / B) * Z * (1.0 - Z)
    g_wdec = delta_z.T @ Y
    g_bdec = ones @ delta_z
    back = delta_z @ theta.w_dec
    if cfg.variant in ("wae", "sae"):
        total += 0.5 * cfg.beta * (float(np.sum(theta.w_enc**2)) + float(np.sum(theta.w_dec**2)))
    if cfg.variant == "sae":
        rho_hat_raw = (ones @ Y) / B
        rho_hat = np.clip(rho_hat_raw, 1e-8, 1.0 - 1e-8)
        total += cfg.eta * float(np.sum(ae.kl_divergence(cfg.rho, rho_hat)))
        kl_grad = cfg.eta * (-cfg.rho / rho_hat + (1.0 - cfg.rho) / (1.0 - rho_hat))
        back = back + np.where(rho_hat_raw == rho_hat, kl_grad, 0.0) / B
    delta_y = back * Y * (1.0 - Y)
    g_wenc = delta_y.T @ X
    g_benc = ones @ delta_y
    if cfg.variant in ("wae", "sae"):
        g_wenc = g_wenc + cfg.beta * theta.w_enc
        g_wdec = g_wdec + cfg.beta * theta.w_dec
    return total, np.concatenate([g_wenc.ravel(), g_benc, g_wdec.ravel(), g_bdec])


def random_params(rng, n, k, saturated=False):
    theta = ae.init_params(n, k, seed=int(rng.integers(1 << 30)))
    vec = ae.flatten_params(theta)
    vec += rng.normal(0, 0.3, vec.size)  # nonzero biases too
    if saturated:  # hidden units 0 and 1 pinned near 0 and 1: the rho_hat clip is active
        vec[k * n : k * n + 2] = (-60.0, 60.0)
    return ae.unflatten_params(vec, n, k, theta.sigma)


class TestFlatCostAndGrad:
    @pytest.mark.parametrize("saturated", [False, True], ids=["free", "clipped"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("variant", ["ae", "wae", "sae"])
    def test_equals_reference_bit_for_bit(self, variant, seed, saturated):
        rng = np.random.default_rng(seed)
        n, k, B = 9, 4, 37
        theta = random_params(rng, n, k, saturated)
        X = rng.uniform(0.05, 0.95, (B, n))
        cfg = ae.CostConfig(variant, beta=0.03, eta=0.2, rho=0.07)
        if saturated:
            rho_hat = ae.sigmoid(X @ theta.w_enc.T + theta.b_enc).mean(axis=0)
            assert rho_hat[0] < 1e-8 and rho_hat[1] > 1.0 - 1e-8
        want_cost, want_grad = reference_cost_and_grad(theta, X, cfg)
        vec = ae.flatten_params(theta)
        got_cost, got_grad = ae.flat_cost_and_grad(vec, X, n, k, cfg)
        assert got_cost == want_cost
        assert got_grad.tobytes() == want_grad.tobytes()
        c, g = ae.cost_and_grad(theta, X, cfg)
        assert c == want_cost
        assert ae.flatten_gradient(g).tobytes() == want_grad.tobytes()

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("block", range(4))
    def test_non_finite_entry_raises_model_params_message(self, block, bad):
        n, k = 5, 2
        theta = ae.init_params(n, k, seed=3)
        vec = ae.flatten_params(theta)
        vec[[0, k * n, k * n + k, 2 * k * n + k][block] + 1] = bad
        with pytest.raises(ValueError) as expected:
            ae.unflatten_params(vec, n, k, theta.sigma)
        with pytest.raises(ValueError) as got:
            ae.flat_cost_and_grad(vec, np.full((3, n), 0.5), n, k, ae.CostConfig("sae"))
        assert str(got.value) == str(expected.value) == f"{ae._PARAM_NAMES[block]} contains non-finite entries"

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError, match=r"parameter vector has length \(20,\), expected \(22,\)"):
            ae.flat_cost_and_grad(np.zeros(20), np.full((3, 4), 0.5), 4, 2, ae.CostConfig("ae"))

    @pytest.mark.parametrize("variant", ["ae", "wae", "sae"])
    def test_saturated_layers_are_quiet_and_finite(self, variant):
        # pre-activations beyond +-800: exp overflows for one sign and underflows for the other
        n, k = 4, 2
        w_enc = np.array([[300.0] * n, [-300.0] * n])  # with b_enc, pre-activations +-1650
        w_dec = np.array([[-900.0, 0.0], [900.0, 0.0], [-900.0, 0.0], [900.0, 0.0]])  # +-900
        vec = np.concatenate([w_enc.ravel(), (900.0, -900.0), w_dec.ravel(), np.zeros(n)])
        X = np.tile([1.0, -1.0, 0.5, 2.0], (3, 1))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            total, grad = ae.flat_cost_and_grad(vec, X, n, k, ae.CostConfig(variant))
        assert np.isfinite(total) and np.isfinite(grad).all()

    def test_inputs_untouched(self):
        rng = np.random.default_rng(4)
        theta = random_params(rng, 6, 2)
        vec, X = ae.flatten_params(theta), rng.uniform(0, 1, (8, 6))
        vec0, X0 = vec.copy(), X.copy()
        ae.flat_cost_and_grad(vec, X, 6, 2, ae.CostConfig("sae"))
        assert vec.tobytes() == vec0.tobytes() and X.tobytes() == X0.tobytes()


class TestInitParams:
    def test_deterministic(self):
        a = ae.init_params(10, 3, seed=42)
        b = ae.init_params(10, 3, seed=42)
        np.testing.assert_array_equal(a.w_enc, b.w_enc)
        np.testing.assert_array_equal(a.w_dec, b.w_dec)

    def test_range(self):
        theta = ae.init_params(100, 10, seed=1)
        r = np.sqrt(6.0 / 110.0)
        assert np.max(np.abs(theta.w_enc)) <= r
        assert np.max(np.abs(theta.w_dec)) <= r
        np.testing.assert_array_equal(theta.b_enc, 0.0)
        np.testing.assert_array_equal(theta.b_dec, 0.0)

    @pytest.mark.filterwarnings("ignore:code dimension")
    def test_empirical_mean_near_zero(self):
        theta = ae.init_params(1000, 1000, seed=2)
        w = theta.w_enc.ravel()
        r = np.sqrt(6.0 / 2000.0)
        se = (2 * r) / np.sqrt(12) / np.sqrt(w.size)  # SD of uniform / sqrt(count)
        assert abs(w.mean()) <= 3 * se

    def test_flatten_roundtrip(self):
        theta = ae.init_params(7, 3, seed=5)
        back = ae.unflatten_params(ae.flatten_params(theta), 7, 3, theta.sigma)
        np.testing.assert_array_equal(back.w_enc, theta.w_enc)
        np.testing.assert_array_equal(back.b_enc, theta.b_enc)
        np.testing.assert_array_equal(back.w_dec, theta.w_dec)
        np.testing.assert_array_equal(back.b_dec, theta.b_dec)

    def test_threads_leave_the_warning_filters_alone(self):
        # optimizer.train unflattens its result in harness worker threads when
        # AEB_THREADS > 1; the process-wide warning filters must come out unchanged
        theta = ae.init_params(6, 2, seed=3)
        vec = ae.flatten_params(theta)
        before = list(warnings.filters)
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # many thread switches inside each call
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                list(pool.map(lambda _: [ae.unflatten_params(vec, 6, 2, theta.sigma) for _ in range(3000)], range(4)))
        finally:
            sys.setswitchinterval(switch)
        assert warnings.filters == before
