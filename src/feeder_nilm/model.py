"""Feedforward count regressor with from-scratch reverse-mode gradients.

Architecture: affine + rectifier per hidden layer, affine + softplus at
the single output, so predictions are always non-negative. Training
minimizes a Huber loss (delta = 1) plus an L2 penalty on the weights by
mini-batch gradient descent; MAE stays the reporting metric. Training is
single-threaded and bit-deterministic given the seeds. Every matrix
product is an ``np.dot``: the same BLAS calls as ``@``, less dispatch.

``run_epochs`` gathers each epoch's permuted training rows once and takes
its batches as slices of that copy. Its working copy of the parameters
keeps every weight and bias as a view into one float64 vector, and its
gradient buffer is a second vector laid out the same way. Per batch one
``loss_and_gradient`` call at l2 = 0 writes the data gradient into views
of that buffer (``out=``), so nothing is concatenated or allocated per
array; the loop adds the weight decay ``l2 * w`` on the buffer's weight
slice, scales it by the rate and steps ``flat -= gradient``. The best
epoch is kept as a flat copy. Each of these is elementwise, so the bits
do not depend on that layout: they are those of ``gw += l2 * w`` and
``w -= rate * gw`` per array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "RegressorParams",
    "TrainConfig",
    "init_params",
    "forward_batch",
    "loss_and_gradient",
    "data_loss",
    "train",
    "run_epochs",
    "count_from_output",
    "MODEL_VERSION",
]

# Bumped whenever train or eval writes other values for the same inputs; part
# of the model fingerprint, so an older model, report and residuals re-run.
MODEL_VERSION = 1


@dataclass
class TrainConfig:
    learning_rate: float = 0.02
    batch_size: int = 16
    epochs: int = 400
    l2_penalty: float = 0.0
    shuffle_seed: int = 0
    patience: int = 60  # epochs without validation improvement before stopping

    def __post_init__(self) -> None:
        for key in ("learning_rate", "l2_penalty"):
            if not math.isfinite(getattr(self, key)):
                raise ValueError(f"{key} must be finite, got {getattr(self, key)!r}")
        if not self.learning_rate >= 0.0:
            raise ValueError("learning_rate must be non-negative")
        if self.batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        if self.epochs < 1:
            raise ValueError("epochs must be at least 1")
        if self.l2_penalty < 0.0:
            raise ValueError("l2_penalty must be non-negative")
        if self.patience < 0:
            raise ValueError("patience must be non-negative")
        if self.shuffle_seed < 0:
            raise ValueError("shuffle_seed must be non-negative")


@dataclass
class RegressorParams:
    """Layer sizes, weights (out x in) and biases."""

    layer_sizes: tuple[int, ...]
    weights: list[np.ndarray]
    biases: list[np.ndarray]

    def __post_init__(self) -> None:
        self.layer_sizes = tuple(int(s) for s in self.layer_sizes)
        if len(self.layer_sizes) < 2 or any(s < 1 for s in self.layer_sizes):
            raise ValueError("layer_sizes needs at least input and output, all positive")
        if self.layer_sizes[-1] != 1:
            raise ValueError("output layer size must be 1")
        expected = list(zip(self.layer_sizes[1:], self.layer_sizes[:-1]))
        if len(self.weights) != len(expected) or len(self.biases) != len(expected):
            raise ValueError("weights/biases must match the layer count")
        for w, b, shape in zip(self.weights, self.biases, expected):
            if w.shape != shape or b.shape != (shape[0],):
                raise ValueError("weight/bias shapes disagree with layer_sizes")
            if not (np.isfinite(w).all() and np.isfinite(b).all()):
                raise ValueError("parameters must be finite")

    def copy(self) -> "RegressorParams":
        return RegressorParams(self.layer_sizes, [w.copy() for w in self.weights], [b.copy() for b in self.biases])


def init_params(layer_sizes, seed: int) -> RegressorParams:
    """Glorot-uniform weights in +-sqrt(6/(fan_in+fan_out)), zero biases."""
    sizes = tuple(int(s) for s in layer_sizes)
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        bound = math.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-bound, bound, size=(fan_out, fan_in)))
        biases.append(np.zeros(fan_out, dtype=np.float64))
    return RegressorParams(sizes, weights, biases)


def _softplus(z: np.ndarray) -> np.ndarray:
    return np.logaddexp(0.0, z)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    # Numerically stable logistic; derivative of softplus. With
    # e = exp(-|z|) it is 1/(1+e) where z >= 0 and e/(1+e) below, and
    # exp(min(z, 0)) is exactly 1 or e there, so one division and no select.
    return np.exp(np.minimum(z, 0.0)) / (1.0 + np.exp(-np.abs(z)))


def _forward_pass(params: RegressorParams, X: np.ndarray):
    # Returns the activations (X, then each hidden layer's), the output pre-activation and the
    # (B,) outputs. Each rectifier runs in place, and act > 0 masks as pre-activation > 0 would.
    act: list[np.ndarray] = [X]
    for w, b in zip(params.weights[:-1], params.biases[:-1]):
        z = np.dot(act[-1], w.T)
        z += b
        act.append(np.maximum(z, 0.0, out=z))
    z_out = np.dot(act[-1], params.weights[-1].T)
    z_out += params.biases[-1]
    return act, z_out, _softplus(z_out)[:, 0]


def _as_batch(params: RegressorParams, X) -> np.ndarray:
    arr = np.asarray(X, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] != params.layer_sizes[0]:
        raise ValueError("input must be an (n, width) batch, width the network input size")
    return arr


def _as_rows(params: RegressorParams, X, y) -> tuple[np.ndarray, np.ndarray]:
    """A non-empty batch and its targets as one flat vector of as many rows."""
    arr = _as_batch(params, X)
    targets = np.asarray(y, dtype=np.float64).reshape(-1)
    if arr.shape[0] == 0:
        raise ValueError("batch must be non-empty")
    if targets.shape[0] != arr.shape[0]:
        raise ValueError("features and targets must have the same number of rows")
    return arr, targets


def forward_batch(params: RegressorParams, X) -> np.ndarray:
    """Network outputs for a batch of feature rows; always non-negative."""
    return _forward_pass(params, _as_batch(params, X))[2]


def _huber(residual: np.ndarray) -> tuple[float, np.ndarray]:
    """(mean Huber(delta=1) loss, clip(r, -1, 1)) of a non-empty residual vector.

    With g = clip(r, -1, 1) each term is g * (r - g/2): r*r/2 where |r| <= 1
    and |r| - 1/2 beyond, the same bits as either branch for every finite r
    (negating r negates both factors exactly). The mean is the plain sum
    over n, as ``np.mean`` takes it.
    """
    g = np.minimum(np.maximum(residual, -1.0), 1.0)  # np.clip costs more on a batch this small
    return float(np.add.reduce(g * (residual - 0.5 * g))) / residual.shape[0], g


def loss_and_gradient(params: RegressorParams, batch_X, batch_y, l2: float = 0.0, out=None):
    """Huber(delta=1) batch loss plus l2*|W|^2/2, with reverse-mode gradients.

    Returns (loss, weight_gradients, bias_gradients) with gradients shaped
    exactly like the parameters. The L2 penalty covers weights only.
    ``out`` is a (weight arrays, bias arrays) pair shaped like the
    parameters; the gradients are written into it and it is what is
    returned. Omitted, a zeroed pair is allocated. The weight arrays are
    written by ``np.dot``, which refuses (ValueError) any that is not
    C-contiguous float64; ``run_epochs``' views of one flat vector are.
    """
    X, y = _as_rows(params, batch_X, batch_y)
    act, z_out, y_hat = _forward_pass(params, X)
    y_hat -= y  # the residual; y_hat is this call's own array
    loss, clipped = _huber(y_hat)
    loss += _penalty(params, l2)

    # dL/dy_hat for the mean Huber: clip(residual, -1, 1) / n
    clipped /= X.shape[0]
    # through the softplus head: d softplus(z) = sigmoid(z); the product commutes bit for bit
    delta = _sigmoid(z_out)
    delta[:, 0] *= clipped

    if out is None:
        out = [np.zeros_like(w) for w in params.weights], [np.zeros_like(b) for b in params.biases]
    grad_w, grad_b = out
    for layer in range(len(params.weights) - 1, -1, -1):
        # A 1x1 product takes np.dot's scalar path and can give -0.0 where dgemm gives +0.0, which
        # never reaches a parameter: w - rate * (+-0.0) is w for w != 0, and a bias's gradient is a sum.
        np.dot(delta.T, act[layer], out=grad_w[layer])
        if l2 > 0.0:
            grad_w[layer] += l2 * params.weights[layer]
        np.add.reduce(delta, axis=0, out=grad_b[layer])
        if layer > 0:
            delta = np.dot(delta, params.weights[layer])
            delta *= act[layer] > 0.0
    return loss, grad_w, grad_b


def _penalty(params: RegressorParams, l2: float) -> float:
    if l2 > 0.0:
        return 0.5 * l2 * sum(float(np.add.reduce(w * w, axis=None)) for w in params.weights)
    return 0.0


def data_loss(params: RegressorParams, X, y) -> float:
    """Mean Huber(delta=1) loss of a batch, without the L2 penalty; refuses what loss_and_gradient does."""
    X, y = _as_rows(params, X, y)
    return _huber(_forward_pass(params, X)[2] - y)[0]


def _over(params: RegressorParams, flat: np.ndarray) -> RegressorParams:
    """Parameters shaped like ``params`` whose weights, then biases, are views into ``flat``."""
    views, offset = [], 0
    for arr in (*params.weights, *params.biases):
        views.append(flat[offset : offset + arr.size].reshape(arr.shape))
        offset += arr.size
    n = len(params.weights)
    return RegressorParams(params.layer_sizes, views[:n], views[n:])


def run_epochs(params, train_set, val_set, config: TrainConfig, permutations):
    """Gradient-descent epochs over explicit per-epoch index permutations.

    Batches are consecutive slices of each permutation, so results depend
    only on the presented example sequence, not on storage order. Returns
    (best-validation params, history rows (epoch, train_objective,
    val_loss)). Exposed separately from ``train`` so the batching
    contract is testable with hand-built permutations.
    """
    X_train, y_train = _as_rows(params, *train_set)
    X_val, y_val = _as_rows(params, *val_set)

    flat = np.concatenate((*params.weights, *params.biases), axis=None)
    current = _over(params, flat)
    grad = np.zeros_like(flat)  # each batch's gradient, laid out like flat
    grad_views = _over(params, grad)
    out = grad_views.weights, grad_views.biases
    n_weights = sum(w.size for w in params.weights)
    weights, grad_weights = flat[:n_weights], grad[:n_weights]
    best = flat.copy()
    best_val = data_loss(current, X_val, y_val)
    history: list[tuple[int, float, float]] = []
    stale = 0
    rate, size, l2 = config.learning_rate, config.batch_size, config.l2_penalty
    for epoch, order in enumerate(permutations):
        X_epoch, y_epoch = X_train[order], y_train[order]
        for lo in range(0, len(order), size):
            loss_and_gradient(current, X_epoch[lo : lo + size], y_epoch[lo : lo + size], 0.0, out=out)
            # Elementwise, so the same bits as gw += l2 * w, then w -= rate * gw, per array;
            # only for l2 > 0, as before, since adding 0.0 * w would turn a -0.0 gradient into +0.0.
            if l2 > 0.0:
                grad_weights += l2 * weights
            grad *= rate
            flat -= grad
        train_obj = data_loss(current, X_train, y_train) + _penalty(current, l2)
        val_loss = data_loss(current, X_val, y_val)
        history.append((epoch, train_obj, val_loss))
        if val_loss < best_val:
            best_val = val_loss
            best[:] = flat
            stale = 0
        else:
            stale += 1
            if stale > config.patience:
                break
    return _over(params, best), history


def train(params: RegressorParams, train_set, val_set, config: TrainConfig):
    """Mini-batch gradient descent; returns best-validation parameters and history.

    Deterministic given the initial parameters and ``config.shuffle_seed``.
    """
    n_rows = np.asarray(train_set[0]).shape[0]
    rng = np.random.default_rng(config.shuffle_seed)
    permutations = (rng.permutation(n_rows) for _ in range(config.epochs))
    return run_epochs(params, train_set, val_set, config, permutations)


def count_from_output(y_hat) -> np.ndarray:
    """Device counts from network outputs, elementwise: half-up rounding floored at zero.

    0.49 -> 0, 0.5 -> 1, 2.5 -> 3, 3.2 -> 3; this is the one place a
    continuous prediction becomes a count.
    """
    return np.maximum(np.floor(np.asarray(y_hat, dtype=np.float64) + 0.5), 0.0).astype(np.int64)
