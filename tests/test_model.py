import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as strat

from feeder_nilm import model as model_module
from feeder_nilm.model import (
    TrainConfig,
    count_from_output,
    data_loss,
    forward_batch,
    init_params,
    loss_and_gradient,
    run_epochs,
    train,
)


def zero_params(layer_sizes):
    params = init_params(layer_sizes, seed=0)
    for w in params.weights:
        w[:] = 0.0
    return params


def full_loss(params, X, y, l2):
    return loss_and_gradient(params, X, y, l2)[0]


def finite_difference_check(params, X, y, l2, eps=1e-6, tol=1e-4):
    """Central-difference oracle over every weight and bias coordinate."""
    _, grad_w, grad_b = loss_and_gradient(params, X, y, l2)
    for arrays, grads in ((params.weights, grad_w), (params.biases, grad_b)):
        for arr, grad in zip(arrays, grads):
            flat = arr.reshape(-1)
            flat_grad = grad.reshape(-1)
            for idx in range(flat.size):
                original = flat[idx]
                flat[idx] = original + eps
                up = full_loss(params, X, y, l2)
                flat[idx] = original - eps
                down = full_loss(params, X, y, l2)
                flat[idx] = original
                numeric = (up - down) / (2.0 * eps)
                analytic = flat_grad[idx]
                denom = max(abs(numeric), abs(analytic), 1e-8)
                assert abs(numeric - analytic) / denom < tol, (
                    f"coordinate {idx}: analytic {analytic}, numeric {numeric}"
                )


def reference_forward(params, X):
    pre, act, a = [], [X], X
    for w, b in zip(params.weights[:-1], params.biases[:-1]):
        z = a @ w.T + b
        a = np.maximum(z, 0.0)
        pre.append(z)
        act.append(a)
    z_out = a @ params.weights[-1].T + params.biases[-1]
    pre.append(z_out)
    return pre, act, np.logaddexp(0.0, z_out)[:, 0]


def reference_huber(residual):
    a = np.abs(residual)
    return np.where(a <= 1.0, 0.5 * residual * residual, a - 0.5)


def reference_objective(params, X, y, l2):
    loss = float(np.mean(reference_huber(reference_forward(params, X)[2] - y)))
    if l2 > 0.0:
        loss += 0.5 * l2 * sum(float(np.sum(w * w)) for w in params.weights)
    return loss


def reference_gradients(params, X, y, l2):
    pre, act, y_hat = reference_forward(params, X)
    z = pre[-1]
    e = np.exp(-np.abs(z))
    sigmoid = np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
    delta = (np.clip(y_hat - y, -1.0, 1.0) / X.shape[0] * sigmoid[:, 0])[:, None]
    grad_w, grad_b = [], []
    for layer in range(len(params.weights) - 1, -1, -1):
        gw = delta.T @ act[layer]
        if l2 > 0.0:
            gw += l2 * params.weights[layer]
        grad_w.append(gw)
        grad_b.append(delta.sum(axis=0))
        if layer > 0:
            delta = (delta @ params.weights[layer]) * (pre[layer - 1] > 0.0)
    return grad_w[::-1], grad_b[::-1]


def reference_run_epochs(params, train_set, val_set, config, permutations):
    """The training loop written out plainly: a fancy-indexed copy per
    batch, one update per parameter array, and separately computed
    objectives. ``run_epochs`` must reproduce it bit for bit."""
    (X, y), (X_val, y_val) = train_set, val_set
    current = params.copy()
    best, best_val = current.copy(), reference_objective(current, X_val, y_val, 0.0)
    history, stale = [], 0
    for epoch, order in enumerate(permutations):
        for lo in range(0, len(order), config.batch_size):
            idx = order[lo : lo + config.batch_size]
            grad_w, grad_b = reference_gradients(current, X[idx], y[idx], config.l2_penalty)
            for w, b, gw, gb in zip(current.weights, current.biases, grad_w, grad_b):
                w -= config.learning_rate * gw
                b -= config.learning_rate * gb
        val_loss = reference_objective(current, X_val, y_val, 0.0)
        history.append((epoch, reference_objective(current, X, y, config.l2_penalty), val_loss))
        if val_loss < best_val:
            best, best_val, stale = current.copy(), val_loss, 0
        else:
            stale += 1
            if stale > config.patience:
                break
    return best, history


class TestInit:
    def test_deterministic(self):
        a = init_params((4, 8, 1), seed=3)
        b = init_params((4, 8, 1), seed=3)
        for wa, wb in zip(a.weights, b.weights):
            assert np.array_equal(wa, wb)

    def test_biases_zero(self):
        params = init_params((4, 8, 1), seed=3)
        assert all(not b.any() for b in params.biases)

    def test_weight_mean_statistics(self):
        # Statistical oracle: mean of uniform(-a, a) draws lies within 3 sigma of 0.
        params = init_params((300, 350, 1), seed=5)
        draws = params.weights[0].reshape(-1)
        assert draws.size >= 100_000
        bound = math.sqrt(6.0 / (300 + 350))
        sigma_mean = bound / math.sqrt(3.0 * draws.size)
        assert abs(draws.mean()) < 3.0 * sigma_mean

    def test_output_size_must_be_one(self):
        with pytest.raises(ValueError):
            init_params((4, 8, 2), seed=0)


class TestForward:
    def test_all_zero_network_gives_ln2(self):
        params = zero_params((3, 4, 1))
        assert forward_batch(params, np.zeros((1, 3)))[0] == pytest.approx(math.log(2.0), abs=1e-12)

    def test_hand_computed_1_1_1(self):
        # x=1 -> z1 = 2*1 + 0.5 = 2.5 -> relu -> z2 = -1.5*2.5 + 0.3 = -3.45
        params = zero_params((1, 1, 1))
        params.weights[0][0, 0] = 2.0
        params.biases[0][0] = 0.5
        params.weights[1][0, 0] = -1.5
        params.biases[1][0] = 0.3
        expected = math.log1p(math.exp(-3.45))
        assert forward_batch(params, np.array([[1.0]]))[0] == pytest.approx(expected, abs=1e-12)

    @given(
        seed=strat.integers(min_value=0, max_value=1000),
        x=strat.lists(strat.floats(min_value=-50, max_value=50), min_size=3, max_size=3),
    )
    @settings(max_examples=50, deadline=None)
    def test_output_non_negative(self, seed, x):
        params = init_params((3, 6, 1), seed=seed)
        assert forward_batch(params, np.asarray(x)[None])[0] >= 0.0

    def test_dimension_mismatch(self):
        params = init_params((3, 4, 1), seed=0)
        with pytest.raises(ValueError):
            forward_batch(params, np.zeros((1, 5)))
        with pytest.raises(ValueError):
            forward_batch(params, np.zeros(3))  # a bare row is not a batch


class TestLossAndGradient:
    def test_perfect_predictions_zero_loss_zero_grad(self):
        params = init_params((2, 5, 1), seed=9)
        rng = np.random.default_rng(0)
        X = rng.normal(0, 1, (6, 2))
        y = forward_batch(params, X)  # residuals exactly zero
        loss, grad_w, grad_b = loss_and_gradient(params, X, y, l2=0.0)
        assert loss == 0.0
        assert all(not g.any() for g in grad_w)
        assert all(not g.any() for g in grad_b)

    def test_l2_only_gradient_is_exactly_l2_times_weights(self):
        params = init_params((2, 5, 1), seed=9)
        rng = np.random.default_rng(0)
        X = rng.normal(0, 1, (6, 2))
        y = forward_batch(params, X)
        l2 = 0.37
        _, grad_w, _ = loss_and_gradient(params, X, y, l2=l2)
        for g, w in zip(grad_w, params.weights):
            assert np.array_equal(g, l2 * w)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(12)
        params = init_params((3, 5, 4, 1), seed=12)
        for b in params.biases:
            # Keep pre-activations off the rectifier kink, where the
            # finite-difference oracle is invalid.
            b[:] = rng.normal(0.0, 0.5, b.shape)
        X = rng.normal(0, 1, (7, 3))
        y = rng.integers(0, 4, 7).astype(float)
        finite_difference_check(params, X, y, l2=0.01)

    def test_empty_batch_rejected(self):
        params = init_params((2, 3, 1), seed=0)
        with pytest.raises(ValueError):
            loss_and_gradient(params, np.zeros((0, 2)), np.zeros(0))

    @given(
        residuals=strat.lists(
            strat.one_of(
                strat.sampled_from([1.0, -1.0, 0.0, -0.0, 1e6, -1e6, 1e150, -1e150]),
                strat.floats(min_value=-1e150, max_value=1e150, allow_nan=False),
            ),
            min_size=1,
            max_size=40,
        )
    )
    @example(residuals=[1.0, -1.0, 0.0, -0.0])
    @example(residuals=[1e150, -1e150, 0.5, -2.5])
    @settings(max_examples=200, deadline=None)
    def test_huber_loss_bits_match_the_where_form(self, residuals):
        # Zero weights and an output bias of 40 give y_hat = softplus(40) = 40.0
        # exactly and a sigmoid of exactly 1, so y = 40 - r puts a residual of
        # (a rounding of) r on every row; +-1 and large magnitudes land exactly.
        params = zero_params((2, 3, 1))
        params.biases[-1][:] = 40.0
        X = np.zeros((len(residuals), 2))
        y = 40.0 - np.asarray(residuals)
        y_hat = forward_batch(params, X)
        assert (y_hat == 40.0).all()
        r = y_hat - y
        loss, _, grad_b = loss_and_gradient(params, X, y, l2=0.0)
        assert loss == float(np.mean(np.where(np.abs(r) <= 1.0, 0.5 * r * r, np.abs(r) - 0.5)))
        assert grad_b[-1][0] == np.sum(np.clip(r, -1.0, 1.0) / len(r))

    @given(
        seed=strat.integers(min_value=0, max_value=2**32 - 1),
        width=strat.integers(min_value=1, max_value=13),
        hidden=strat.lists(strat.integers(min_value=1, max_value=24), min_size=0, max_size=2),
        n_rows=strat.one_of(strat.sampled_from([1, 14, 16]), strat.integers(min_value=1, max_value=20)),
        l2=strat.sampled_from([0.0, 5e-4, 0.37]),
    )
    @example(seed=27, width=13, hidden=[24, 12], n_rows=16, l2=5e-4)
    @example(seed=27, width=13, hidden=[24, 12], n_rows=14, l2=0.0)
    @example(seed=3, width=11, hidden=[1], n_rows=1, l2=0.0)  # 1x1 products
    @settings(max_examples=100, deadline=None)
    def test_values_match_the_matmul_reference(self, seed, width, hidden, n_rows, l2):
        # The model's products go through np.dot, the reference's through @.
        rng = np.random.default_rng(seed)
        params = init_params((width, *hidden, 1), seed=seed)
        for b in params.biases:
            b[:] = rng.normal(0.0, 0.5, b.shape)
        X, y = rng.normal(0, 1, (n_rows, width)), rng.integers(0, 5, n_rows).astype(float)
        loss, grad_w, grad_b = loss_and_gradient(params, X, y, l2)
        want_w, want_b = reference_gradients(params, X, y, l2)
        assert loss == reference_objective(params, X, y, l2)
        for got, want in zip(grad_w + grad_b, want_w + want_b, strict=True):
            assert got.shape == want.shape and np.array_equal(got, want)
        assert np.array_equal(forward_batch(params, X), reference_forward(params, X)[2])

    def test_out_that_is_not_c_contiguous_is_refused(self):
        params = init_params((3, 4, 1), seed=0)
        out = [np.zeros((3, 4)).T, np.zeros((1, 4))], [np.zeros(4), np.zeros(1)]
        with pytest.raises(ValueError):
            loss_and_gradient(params, np.ones((5, 3)), np.zeros(5), out=out)


class TestDataLoss:
    params = init_params((2, 5, 1), seed=9)
    X = np.random.default_rng(0).normal(0, 1, (5, 2))
    y = np.arange(5.0)

    def test_column_targets_give_the_loss_of_flat_ones(self):
        want = loss_and_gradient(self.params, self.X, self.y)[0]
        assert data_loss(self.params, self.X, self.y) == want
        assert data_loss(self.params, self.X, self.y[:, None]) == want

    @pytest.mark.parametrize("X, y", [(X, y[:1]), (X, y[:4]), (X[:0], y[:0])], ids=["one-target", "short", "empty"])
    def test_refuses_what_loss_and_gradient_refuses(self, X, y):
        with pytest.raises(ValueError) as refused:
            loss_and_gradient(self.params, X, y)
        with pytest.raises(ValueError, match=str(refused.value)):
            data_loss(self.params, X, y)


class TestTrain:
    def make_data(self, n=20, seed=0):
        rng = np.random.default_rng(seed)
        X = rng.normal(0, 1, (n, 3))
        y = np.clip(np.round(X[:, 0] + 2.0), 0, None)
        return X, y

    def test_overfit_single_sample(self):
        X = np.array([[0.5, -0.2, 1.0]])
        y = np.array([2.0])
        params = init_params((3, 8, 1), seed=1)
        config = TrainConfig(learning_rate=0.05, batch_size=1, epochs=3000, patience=3000)
        fitted, history = train(params, (X, y), (X, y), config)
        assert full_loss(fitted, X, y, 0.0) < 1e-3

    def test_zero_learning_rate_leaves_params_untouched(self):
        X, y = self.make_data()
        params = init_params((3, 6, 1), seed=2)
        config = TrainConfig(learning_rate=0.0, epochs=5, patience=100)
        fitted, _ = train(params, (X, y), (X, y), config)
        for w_new, w_old in zip(fitted.weights, params.weights):
            assert np.array_equal(w_new, w_old)
        for b_new, b_old in zip(fitted.biases, params.biases):
            assert np.array_equal(b_new, b_old)

    def test_training_determinism(self):
        X, y = self.make_data()
        config = TrainConfig(learning_rate=0.02, epochs=40, shuffle_seed=5, patience=100)
        fitted_a, history_a = train(init_params((3, 6, 1), seed=2), (X, y), (X, y), config)
        fitted_b, history_b = train(init_params((3, 6, 1), seed=2), (X, y), (X, y), config)
        assert history_a == history_b
        for wa, wb in zip(fitted_a.weights, fitted_b.weights):
            assert np.array_equal(wa, wb)

    def test_batching_follows_index_sequence_not_storage(self):
        # Presenting identical example sequences from permuted storage
        # must produce identical parameters.
        X, y = self.make_data(n=12)
        config = TrainConfig(learning_rate=0.03, batch_size=4, epochs=3, patience=100)
        rng = np.random.default_rng(7)
        orders = [rng.permutation(12) for _ in range(3)]
        storage_perm = np.random.default_rng(8).permutation(12)
        inverse = np.argsort(storage_perm)
        fitted_a, _ = run_epochs(
            init_params((3, 6, 1), seed=4), (X, y), (X, y), config, orders
        )
        fitted_b, _ = run_epochs(
            init_params((3, 6, 1), seed=4),
            (X[storage_perm], y[storage_perm]),
            (X, y),
            config,
            [inverse[o] for o in orders],
        )
        for wa, wb in zip(fitted_a.weights, fitted_b.weights):
            assert np.array_equal(wa, wb)

    def test_returns_best_validation_params(self):
        X, y = self.make_data(n=30, seed=3)
        X_val, y_val = self.make_data(n=10, seed=4)
        config = TrainConfig(learning_rate=0.05, epochs=60, patience=10)
        fitted, history = train(init_params((3, 6, 1), seed=5), (X, y), (X_val, y_val), config)
        best_recorded = min(h[2] for h in history)
        assert data_loss(fitted, X_val, y_val) <= best_recorded + 1e-12

    def test_one_gradient_per_batch(self, monkeypatch):
        # The logged train objective costs a forward pass, not a full-batch gradient.
        calls = []

        def counting(*args, **kwargs):
            calls.append(len(args[2]))
            return loss_and_gradient(*args, **kwargs)

        monkeypatch.setattr(model_module, "loss_and_gradient", counting)
        X, y = self.make_data(n=10)
        config = TrainConfig(learning_rate=0.03, batch_size=4, epochs=3, patience=100)
        orders = [np.random.default_rng(k).permutation(10) for k in range(3)]
        _, history = run_epochs(init_params((3, 6, 1), seed=4), (X, y), (X, y), config, orders)
        assert len(history) == 3
        assert calls == [4, 4, 2] * 3

    def test_history_objective_includes_l2(self):
        X, y = self.make_data(n=10)
        config = TrainConfig(learning_rate=0.03, batch_size=4, epochs=2, l2_penalty=0.1, patience=100)
        orders = [np.arange(10)]
        params = init_params((3, 6, 1), seed=4)
        _, history = run_epochs(params, (X, y), (X, y), config, orders)
        stepped = params.copy()
        for lo in range(0, 10, 4):
            _, grad_w, grad_b = loss_and_gradient(stepped, X[lo : lo + 4], y[lo : lo + 4], 0.1)
            for w, gw in zip(stepped.weights, grad_w):
                w -= 0.03 * gw
            for b, gb in zip(stepped.biases, grad_b):
                b -= 0.03 * gb
        assert history[0][1] == loss_and_gradient(stepped, X, y, 0.1)[0]

    # (scenario seed, TrainConfig changes, layer sizes): the seeds keep L2 on, a batch size
    # that does not divide 23 and a patience short enough that some stop early; the edges
    # turn L2 off, take one row or every row per batch, stand still, or drop the hidden layers.
    _LOOPS = [
        (0, {}, (4, 7, 5, 1)),
        (1, {}, (4, 7, 5, 1)),
        (2, {}, (4, 7, 5, 1)),
        (3, {"l2_penalty": 0.0}, (4, 7, 5, 1)),
        (3, {"batch_size": 1}, (4, 7, 5, 1)),
        (3, {"batch_size": 23}, (4, 7, 5, 1)),
        (3, {"batch_size": 100}, (4, 7, 5, 1)),
        (3, {"learning_rate": 0.0}, (4, 7, 5, 1)),
        (3, {}, (4, 1)),
        (3, {"l2_penalty": 0.0}, (4, 1)),
    ]

    # The batch shapes desk_scale trains with: 286 rows in batches of 16 (the last one 14 rows),
    # a 13-24-12-1 network and its L2 penalty; 95 validation rows.
    _DESK = (27, {"batch_size": 16, "epochs": 4, "l2_penalty": 0.0005, "learning_rate": 0.02, "patience": 60},
             (13, 24, 12, 1), 286, 95)

    @pytest.mark.parametrize(
        "seed, changes, layer_sizes, n_rows, n_val",
        [(*case, 23, 9) for case in _LOOPS] + [_DESK],
        ids=["0", "1", "2", "l2-zero", "batch-1", "batch-all-rows", "batch-beyond-rows", "rate-zero",
             "no-hidden", "no-hidden-l2-zero", "desk-shaped"],
    )
    def test_bits_match_the_plain_loop(self, seed, changes, layer_sizes, n_rows, n_val):
        width = layer_sizes[0]
        rng = np.random.default_rng(seed)
        X, X_val = rng.normal(0, 1, (n_rows, width)), rng.normal(0, 1, (n_val, width))
        y = rng.integers(0, 5, n_rows).astype(float)
        y_val = rng.integers(0, 5, n_val).astype(float)
        fields = {"learning_rate": 0.05, "batch_size": 5, "epochs": 12, "l2_penalty": 0.01, "patience": 4}
        config = TrainConfig(**{**fields, **changes})
        orders = [rng.permutation(n_rows) for _ in range(config.epochs)]
        params = init_params(layer_sizes, seed=seed)
        fitted, history = run_epochs(params, (X, y), (X_val, y_val), config, orders)
        want, want_history = reference_run_epochs(params, (X, y), (X_val, y_val), config, orders)
        assert np.asarray(history).tobytes() == np.asarray(want_history).tobytes()
        for got, ref in zip(fitted.weights + fitted.biases, want.weights + want.biases, strict=True):
            assert got.shape == ref.shape
            assert got.tobytes() == ref.tobytes()  # signed zeros too

    @given(
        seed=strat.integers(min_value=0, max_value=2**32 - 1),
        width=strat.integers(min_value=1, max_value=13),
        hidden=strat.lists(strat.integers(min_value=1, max_value=24), min_size=0, max_size=2),
        n_rows=strat.one_of(strat.sampled_from([1, 14, 16, 20]), strat.integers(min_value=1, max_value=20)),
        l2=strat.sampled_from([0.0, 1e-4, 0.0005, 0.37]),
    )
    @example(seed=0, width=13, hidden=[], n_rows=14, l2=0.0)
    @example(seed=27, width=13, hidden=[24, 12], n_rows=16, l2=0.0005)
    @example(seed=27, width=13, hidden=[24, 12], n_rows=14, l2=0.0)
    @settings(max_examples=60, deadline=None)
    def test_out_views_of_one_flat_vector_get_the_bits_of_a_fresh_call(self, seed, width, hidden, n_rows, l2):
        # run_epochs passes views of one flat gradient vector as ``out``; the gradients written
        # there must be the bits of a call that allocates, and be returned as those very views.
        rng = np.random.default_rng(seed)
        params = init_params((width, *hidden, 1), seed=seed)
        for b in params.biases:
            b[:] = rng.normal(0.0, 0.5, b.shape)
        X, y = rng.normal(0, 1, (n_rows, width)), rng.integers(0, 5, n_rows).astype(float)
        sizes = [a.size for a in params.weights + params.biases]
        flat = np.full(sum(sizes), np.nan)  # stale contents must be overwritten, not added to
        views = np.split(flat, np.cumsum(sizes)[:-1])
        shaped = [v.reshape(a.shape) for v, a in zip(views, params.weights + params.biases, strict=True)]
        n = len(params.weights)
        out = shaped[:n], shaped[n:]
        loss, grad_w, grad_b = loss_and_gradient(params, X, y, l2, out=out)
        want_loss, want_w, want_b = loss_and_gradient(params, X, y, l2)
        assert loss == want_loss
        for got, want, view in zip(grad_w + grad_b, want_w + want_b, shaped, strict=True):
            assert got is view and np.shares_memory(got, flat)
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("seed", range(5))
    def test_l2_gradient_is_the_data_gradient_plus_l2_times_weights(self, seed):
        # The loop takes the data gradient at l2 = 0 and adds l2 * w itself: the same bits.
        rng = np.random.default_rng(seed)
        params = init_params((4, 7, 5, 1), seed=seed)
        for b in params.biases:
            b[:] = rng.normal(0.0, 0.5, b.shape)
        n = int(rng.integers(1, 20))
        X, y = rng.normal(0, 1, (n, 4)), rng.integers(0, 5, n).astype(float)
        l2 = float(rng.uniform(1e-4, 0.5))
        _, grad_w, grad_b = loss_and_gradient(params, X, y, l2)
        _, data_w, data_b = loss_and_gradient(params, X, y, 0.0)
        for got, data, w in zip(grad_w, data_w, params.weights, strict=True):
            assert got.tobytes() == (data + l2 * w).tobytes()
        for got, data in zip(grad_b, data_b, strict=True):
            assert got.tobytes() == data.tobytes()

    def test_empty_split_rejected(self):
        params = init_params((3, 6, 1), seed=0)
        X, y = self.make_data()
        with pytest.raises(ValueError):
            train(params, (np.zeros((0, 3)), np.zeros(0)), (X, y), TrainConfig())

    @pytest.mark.parametrize("targets", [19, 21])
    def test_split_with_another_number_of_targets_than_rows_rejected(self, targets):
        params = init_params((3, 6, 1), seed=0)
        X, y = self.make_data(n=21)
        with pytest.raises(ValueError):
            train(params, (X[:20], y[:targets]), (X, y), TrainConfig())
        with pytest.raises(ValueError):
            train(params, (X, y), (X[:20], y[:targets]), TrainConfig())


class TestPredictCount:
    def test_rounding_rule(self):
        # Half-up, floored at zero: np.rint / np.round (half to even) would give 0 and 2 for 0.5 and 2.5.
        counts = count_from_output(np.array([-0.7, 0.0, 0.49, 0.5, 1.5, 2.5, 3.2]))
        assert counts.dtype == np.int64
        assert counts.tolist() == [0, 0, 0, 1, 2, 3, 3]

    def test_zero_network_predicts_one(self):
        # forward = ln 2 ~ 0.693, rounds up to 1.
        params = zero_params((2, 3, 1))
        assert count_from_output(forward_batch(params, np.zeros((1, 2)))).tolist() == [1]
