import gc
import hashlib
import itertools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from aebound import autoencoder as ae, dataset, optimizer
from aebound.optimizer import LbfgsOptions, minimize, train

pytestmark = pytest.mark.filterwarnings("ignore:code dimension")


def quadratic(center):
    center = np.asarray(center, dtype=float)

    def obj(v):
        return 0.5 * float(np.sum((v - center) ** 2)), v - center

    return obj


def rosenbrock(v):
    x, y = v
    f = (1 - x) ** 2 + 100 * (y - x * x) ** 2
    g = np.array([-2 * (1 - x) - 400 * x * (y - x * x), 200 * (y - x * x)])
    return f, g


class TestMinimize:
    def test_isotropic_quadratic_fast_convergence(self):
        rng = np.random.default_rng(0)
        for dim in (2, 5, 10):
            c = rng.normal(0, 5, dim)
            x, trace = minimize(quadratic(c), rng.normal(0, 10, dim), LbfgsOptions(grad_tol=1e-8))
            assert trace.stop_reason == "converged"
            assert trace.iterations <= dim + 2
            assert np.max(np.abs(x - c)) <= 1e-7

    def test_general_quadratic_matches_closed_form(self):
        rng = np.random.default_rng(1)
        for dim in (3, 8, 20):
            A = rng.normal(size=(dim, dim))
            A = A @ A.T + dim * np.eye(dim)
            b = rng.normal(size=dim)
            x_star = np.linalg.solve(A, b)

            def obj(v):
                return 0.5 * float(v @ A @ v) - float(b @ v), A @ v - b

            x, _ = minimize(obj, rng.normal(size=dim),
                            LbfgsOptions(history=dim + 5, grad_tol=1e-12, max_iters=300))
            assert np.max(np.abs(x - x_star)) <= 1e-8

    def test_rosenbrock(self):
        x, trace = minimize(rosenbrock, np.array([-1.2, 1.0]),
                            LbfgsOptions(grad_tol=1e-10, max_iters=200))
        assert np.max(np.abs(x - 1.0)) <= 1e-5
        assert trace.iterations <= 200

    def test_nan_at_start(self):
        def bad(v):
            return float("nan"), np.zeros_like(v)

        with pytest.raises(ValueError):
            minimize(bad, np.zeros(2), LbfgsOptions())

    def test_non_finite_theta0(self):
        with pytest.raises(ValueError):
            minimize(quadratic([0.0]), np.array([np.inf]), LbfgsOptions())

    def test_cost_history_non_increasing(self):
        rng = np.random.default_rng(2)
        x, trace = minimize(rosenbrock, rng.normal(size=2), LbfgsOptions(max_iters=100))
        hist = trace.cost_history
        assert all(b <= a + 1e-12 for a, b in zip(hist, hist[1:]))

    def test_line_search_failure_returns_best(self):
        # non-smooth kink the Wolfe search cannot satisfy near the minimum
        def obj(v):
            return float(np.sum(np.abs(v))), np.sign(v)

        x, trace = minimize(obj, np.array([1.0, -2.0]), LbfgsOptions(max_iters=50))
        assert trace.stop_reason in ("line_search_failure", "max_iters", "converged")
        assert trace.cost_history[-1] <= trace.cost_history[0]

    def test_leaves_no_reference_cycles(self):
        gc.collect()
        gc.disable()
        try:
            minimize(quadratic([1.0, -2.0, 3.0]), np.zeros(3), LbfgsOptions(grad_tol=1e-10))
            assert gc.collect() == 0
        finally:
            gc.enable()


def spd_quadratics(seed, count, max_dim):
    """(objective, x0) pairs of random convex quadratics, drawn as acceptance test 5 draws them."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        dim = int(rng.integers(2, max_dim + 1))
        q, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
        a = q @ np.diag(rng.uniform(0.1, 10.0, dim)) @ q.T
        b = rng.normal(size=dim)
        yield (lambda x, a=a, b=b: (0.5 * x @ a @ x - b @ x, a @ x - b)), rng.normal(size=dim)


def _bytes(f, g):
    return np.float64(f).tobytes() + np.asarray(g, dtype=np.float64).tobytes()


class TestLineSearchContract:
    """Every point the line search returns carries x + step*d and the objective's own (f, gradient) there."""

    @pytest.mark.parametrize("seed, count, max_dim, skip, opts", [
        (17, 50, 20, 0, LbfgsOptions(max_iters=500, grad_tol=1e-12)),  # acceptance test 5
        # zoom returns an earlier point whose f ties the last evaluation's: telling
        # points apart by f pairs the new iterate with the wrong gradient here
        (17, 3, 29, 2, LbfgsOptions(history=3, grad_tol=1e-9)),
    ], ids=["test5-family", "history3-dim23"])
    def test_points_carry_their_own_gradient(self, monkeypatch, seed, count, max_dim, skip, opts):
        search = optimizer._strong_wolfe
        earlier = []  # per accepted point: was it evaluated before the search's last evaluation?

        def checked_search(objective, x, d, f, g, alpha0):
            assert _bytes(*objective(x)) == _bytes(f, g)  # the iterate's own gradient goes in
            evaluated = []

            def recorded(v):
                evaluated.append(v)
                return objective(v)

            point = search(recorded, x, d, f, g, alpha0)
            if point is not None:
                at = x + point.step * d
                assert point.x.tobytes() == at.tobytes()
                assert _bytes(*objective(at)) == _bytes(point.f, point.grad)
                earlier.append(not np.array_equal(evaluated[-1], at))
            return point

        monkeypatch.setattr(optimizer, "_strong_wolfe", checked_search)
        for objective, x0 in itertools.islice(spd_quadratics(seed, count, max_dim), skip, None):
            minimize(objective, x0, opts)
        assert any(earlier)  # the zoom handed back an earlier point, not only its last one


class TestTrain:
    def test_identity_capable_architecture_fits(self):
        rng = np.random.default_rng(3)
        data = [rng.uniform(10, 20, 6) for _ in range(50)]
        cfg = ae.CostConfig("ae")
        opts = LbfgsOptions(max_iters=300)
        model, trace = train(data, 6, 6, cfg, opts, seed=0)
        assert trace.cost_history[-1] < 0.1 * trace.cost_history[0]

    def test_deterministic(self):
        rng = np.random.default_rng(4)
        data = [rng.uniform(0, 1, 5) for _ in range(20)]
        cfg = ae.CostConfig("wae")
        opts = LbfgsOptions(max_iters=30)
        m1, _ = train(data, 5, 2, cfg, opts, seed=9)
        m2, _ = train(data, 5, 2, cfg, opts, seed=9)
        assert m1.w_enc.tobytes() == m2.w_enc.tobytes()
        assert m1.b_enc.tobytes() == m2.b_enc.tobytes()
        assert m1.w_dec.tobytes() == m2.w_dec.tobytes()
        assert m1.b_dec.tobytes() == m2.b_dec.tobytes()
        assert m1.sigma.sigma == m2.sigma.sigma

    def test_empty_data(self):
        with pytest.raises(ValueError):
            train([], 4, 2, ae.CostConfig("ae"), LbfgsOptions(), seed=0)

    def test_sigma_attached_from_training_data(self):
        from aebound.sphering import estimate_sigma

        rng = np.random.default_rng(5)
        data = [rng.normal(0, 3, 8) for _ in range(10)]
        model, _ = train(data, 8, 2, ae.CostConfig("ae"), LbfgsOptions(max_iters=5), seed=1)
        assert model.sigma.sigma == estimate_sigma(data).sigma

    def test_one_forward_pass_per_evaluation(self, monkeypatch):
        counts = {"evals": 0, "layers": 0}
        flat_cost_and_grad, sigmoid_inplace = ae.flat_cost_and_grad, ae._sigmoid_inplace

        def counted_eval(*args, **kwargs):
            counts["evals"] += 1
            return flat_cost_and_grad(*args, **kwargs)

        def counted_layer(*args, **kwargs):
            counts["layers"] += 1
            return sigmoid_inplace(*args, **kwargs)

        monkeypatch.setattr(ae, "flat_cost_and_grad", counted_eval)
        monkeypatch.setattr(ae, "_sigmoid_inplace", counted_layer)
        rng = np.random.default_rng(6)
        data = [rng.normal(0, 1, 6) for _ in range(15)]
        train(data, 6, 2, ae.CostConfig("sae"), LbfgsOptions(max_iters=10), seed=2)
        assert counts["evals"] > 10
        assert counts["layers"] == 2 * counts["evals"]  # a forward pass is two sigmoid layers


class TestGoldenFit:
    """Pinned fits of every variant with the default options, so a change to the objective or
    the optimizer that moves one bit of the weights or of the cost history shows."""

    WINDOWS = dataset.make_windows(dataset.synth_dataset(4, 600, seed=5, noise_sd=0.02), "temporal", 12)

    @pytest.mark.parametrize("variant, iterations, stop_reason, digest", [
        ("ae", 400, "max_iters", "8bb8542970d685bda72d884e750c5a70b61f9e22042bbe217ffbc65b84779ede"),
        ("wae", 278, "converged", "c540e70d1399885f666ccfacbaf94fef9ce49a40ad6a9ee79d4df8915265e405"),
        ("sae", 201, "converged", "5da9971346fd5f8c156a621ca82478ef3209324d79a85d315dfac03251cf8444"),
    ], ids=["ae", "wae", "sae"])
    def test_weights_and_history(self, variant, iterations, stop_reason, digest):
        model, trace = train(self.WINDOWS, 12, 3, ae.CostConfig(variant), LbfgsOptions(), seed=11)
        h = hashlib.sha256()
        for a in (model.w_enc, model.b_enc, model.w_dec, model.b_dec, np.array(trace.cost_history)):
            h.update(a.tobytes())
        assert (trace.iterations, trace.stop_reason, h.hexdigest()) == (iterations, stop_reason, digest)


_FIT_DIGESTS = """
import hashlib
import numpy as np
from aebound import autoencoder as ae
from aebound.optimizer import LbfgsOptions, train

rng = np.random.default_rng(3)
windows = np.sin(rng.uniform(0, 6, (800, 1)) + np.arange(16) / 3) + rng.normal(0, 0.05, (800, 16))
for variant in ae.VARIANTS:
    model, trace = train(windows, 16, 4, ae.CostConfig(variant), LbfgsOptions(max_iters=60), seed=1)
    h = hashlib.sha256(np.array(trace.cost_history).tobytes())
    for a in (model.w_enc, model.b_enc, model.w_dec, model.b_dec):
        h.update(a.tobytes())
    print(variant, h.hexdigest())
"""


def test_fits_do_not_depend_on_blas_threads():
    """A fit on 800 x 16 readings gives the same weights with BLAS on one thread and on two.

    OpenBLAS splits a long enough product (a `ddot` over more than 10 000
    elements, say) across its threads and sums the parts in another order.
    On a one-CPU machine OpenBLAS may cap its threads at one, and then both
    runs take the one-thread path and this test cannot fail.
    """
    src = str(Path(ae.__file__).resolve().parents[1])
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        run = subprocess.run([sys.executable, "-c", _FIT_DIGESTS], env=env, capture_output=True, text=True,
                             timeout=300, check=True)
        digests.append(run.stdout)
    assert digests[0].count("\n") == len(ae.VARIANTS)
    assert digests[0] == digests[1]
