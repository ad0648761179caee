"""Differentiable dense kernels, distances, optimizer, and a finite-difference oracle.

All arithmetic is float64. Every *_forward returns (output, cache); the
matching *_backward consumes the cache and an upstream gradient and returns
exact analytic gradients.
"""

import warnings

import numpy as np

DIST_STABILIZER = 1e-12
# Bound on pairwise_distances' difference tensor, and on the distance block
# evaluation ranks at a time. At D=128, 256 KiB ran faster than blocks of
# 64 KiB to 4 MiB for pairwise_distances on both 64x64 and 1200x1200 inputs;
# ranking a 1200x1200 gallery ran within 10% from 256 KiB to 16 MiB.
DIST_BLOCK_BYTES = 1 << 18


def _check_finite(x, what):
    if not np.all(np.isfinite(x)):
        raise ValueError(f"non-finite values in {what}")


# ---------------------------------------------------------------------------
# Layers
# ---------------------------------------------------------------------------

def dense_forward(x, w, b):
    """y = x @ w + b, with w of shape (in_dim, out_dim)."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != w.shape[0]:
        raise ValueError(f"dense: input shape {x.shape} incompatible with weight {w.shape}")
    _check_finite(x, "dense input")
    y = x @ w + b
    return y, (x, w)


def dense_backward(cache, g):
    x, w = cache
    g = np.asarray(g, dtype=np.float64)
    if g.shape != (x.shape[0], w.shape[1]):
        raise ValueError(f"dense backward: upstream shape {g.shape} expected {(x.shape[0], w.shape[1])}")
    dx = g @ w.T
    dw = x.T @ g
    db = g.sum(axis=0)
    return dx, dw, db


def relu_forward(x):
    x = np.asarray(x, dtype=np.float64)
    _check_finite(x, "relu input")
    y = np.maximum(x, 0.0)
    return y, (x,)


def relu_backward(cache, g):
    (x,) = cache
    if np.shape(g) != x.shape:
        raise ValueError("relu backward: shape mismatch")
    return np.where(x > 0.0, g, 0.0)


def batchnorm_forward(x, gamma, beta, running_mean, running_var, *,
                      eps=1e-5, momentum=0.1, train=True):
    """Batch normalization over axis 0.

    In train mode uses batch statistics and updates the running arrays in
    place with `running = (1 - momentum) * running + momentum * batch`.
    In eval mode the running statistics are used and left untouched.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != gamma.shape[0]:
        raise ValueError(f"batchnorm: input shape {x.shape} incompatible with dim {gamma.shape[0]}")
    _check_finite(x, "batchnorm input")
    if train:
        if x.shape[0] < 2:
            raise ValueError("batchnorm: train mode requires batch size >= 2")
        mean = x.mean(axis=0)
        var = x.var(axis=0)
        running_mean *= 1.0 - momentum
        running_mean += momentum * mean
        running_var *= 1.0 - momentum
        running_var += momentum * var
    else:
        mean = running_mean
        var = running_var
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = (x - mean) * inv_std
    y = gamma * xhat + beta
    return y, (xhat, inv_std, gamma, train, x.shape[0])


def batchnorm_backward(cache, g):
    """Differentiates through the batch statistics in train mode."""
    xhat, inv_std, gamma, train, n = cache
    g = np.asarray(g, dtype=np.float64)
    if g.shape != xhat.shape:
        raise ValueError("batchnorm backward: shape mismatch")
    dgamma = (g * xhat).sum(axis=0)
    dbeta = g.sum(axis=0)
    dxhat = g * gamma
    if train:
        dx = inv_std / n * (n * dxhat - dxhat.sum(axis=0) - xhat * (dxhat * xhat).sum(axis=0))
    else:
        dx = dxhat * inv_std
    return dx, dgamma, dbeta


def l2_normalize_forward(x, *, min_norm=1e-6):
    """Row-wise L2 normalization; (near-)zero rows pass through unchanged."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError("l2_normalize expects a 2-d array")
    _check_finite(x, "l2_normalize input")
    norms = np.linalg.norm(x, axis=1, keepdims=True)
    small = norms[:, 0] < min_norm
    if np.any(small):
        warnings.warn("l2_normalize: near-zero row(s) left unnormalized", RuntimeWarning)
    safe = np.where(norms < min_norm, 1.0, norms)
    y = x / safe
    return y, (y, safe[:, 0], small)


def l2_normalize_backward(cache, g):
    y, norms, small = cache
    g = np.asarray(g, dtype=np.float64)
    if g.shape != y.shape:
        raise ValueError("l2_normalize backward: shape mismatch")
    dot = (g * y).sum(axis=1, keepdims=True)
    dx = (g - y * dot) / norms[:, None]
    dx[small] = g[small]
    return dx


# ---------------------------------------------------------------------------
# Distances and classification loss
# ---------------------------------------------------------------------------

def pairwise_distances(a, b):
    """Euclidean distance matrix, entry (i, j) = ||a_i - b_j||.

    A tiny stabilizer inside the sqrt keeps the gradient defined at zero
    distance, so self-distances come out near 1e-6 rather than exactly 0.
    Memory beyond the output is bounded: the difference tensor is built in
    blocks of at most DIST_BLOCK_BYTES.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[1]:
        raise ValueError(f"pairwise_distances: shapes {a.shape} and {b.shape} incompatible")
    # each entry is the same einsum over one contiguous D-vector, blocked or not
    pair_bytes = 8 * max(a.shape[1], 1)
    cols = max(1, min(b.shape[0], DIST_BLOCK_BYTES // pair_bytes))
    rows = max(1, DIST_BLOCK_BYTES // (pair_bytes * cols))
    sq = np.empty((a.shape[0], b.shape[0]))
    for i in range(0, a.shape[0], rows):
        for j in range(0, b.shape[0], cols):
            diff = a[i:i + rows, None, :] - b[None, j:j + cols, :]
            sq[i:i + rows, j:j + cols] = np.einsum("ijk,ijk->ij", diff, diff)
    sq += DIST_STABILIZER
    return np.sqrt(sq, out=sq)


def softmax_cross_entropy(logits, labels):
    """Mean negative log-likelihood and its gradient w.r.t. the logits."""
    logits = np.asarray(logits, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.intp)
    n, c = logits.shape
    if n == 0:
        raise ValueError("softmax_cross_entropy: empty batch")
    if labels.shape != (n,):
        raise ValueError("softmax_cross_entropy: one label per row required")
    if labels.min() < 0 or labels.max() >= c:
        raise ValueError(f"softmax_cross_entropy: label out of range [0, {c})")
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    probs = exp / exp.sum(axis=1, keepdims=True)
    rows = np.arange(n)
    log_probs = shifted - np.log(exp.sum(axis=1, keepdims=True))
    loss = -log_probs[rows, labels].mean()
    grad = probs
    grad[rows, labels] -= 1.0
    grad /= n
    return loss, grad


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------

class AdamState:
    """Moment buffers and hyperparameters for one set of named parameters."""

    def __init__(self, params, *, learning_rate=1e-4, beta1=0.9, beta2=0.999, epsilon=1e-8):
        if not 0.0 < beta1 < 1.0 or not 0.0 < beta2 < 1.0:
            raise ValueError("adam: betas must lie in (0, 1)")
        # learning_rate 0 is allowed: it makes the update a verifiable no-op
        if learning_rate < 0.0 or epsilon <= 0.0:
            raise ValueError("adam: learning_rate must be >= 0 and epsilon > 0")
        self.learning_rate = learning_rate
        self.beta1 = beta1
        self.beta2 = beta2
        self.epsilon = epsilon
        self.step_count = 0
        self.first_moment = {k: np.zeros_like(v) for k, v in params.items()}
        self.second_moment = {k: np.zeros_like(v) for k, v in params.items()}


def adam_step(params, grads, state):
    """Bias-corrected Adam update, applied to `params` in place."""
    if set(grads) != set(params):
        raise ValueError("adam_step: parameter/gradient name mismatch")
    state.step_count += 1
    t = state.step_count
    bc1 = 1.0 - state.beta1 ** t
    bc2 = 1.0 - state.beta2 ** t
    for name, p in params.items():
        g = grads[name]
        if g.shape != p.shape:
            raise ValueError(f"adam_step: shape mismatch for {name}")
        if not np.all(np.isfinite(g)):
            raise ValueError(f"adam_step: non-finite gradient for {name}")
        m = state.first_moment[name]
        v = state.second_moment[name]
        m *= state.beta1
        m += (1.0 - state.beta1) * g
        v *= state.beta2
        v += (1.0 - state.beta2) * g * g
        p -= state.learning_rate * (m / bc1) / (np.sqrt(v / bc2) + state.epsilon)
    return params, state


# ---------------------------------------------------------------------------
# Finite-difference oracle
# ---------------------------------------------------------------------------

def finite_diff_grad(f, x, h=1e-5):
    """Central-difference gradient estimate of a scalar function."""
    if h <= 0.0:
        raise ValueError("finite_diff_grad: h must be positive")
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = f(x)
        flat[i] = orig - h
        fm = f(x)
        flat[i] = orig
        if not np.isfinite(fp) or not np.isfinite(fm):
            raise ValueError("finite_diff_grad: non-finite function evaluation")
        gflat[i] = (fp - fm) / (2.0 * h)
    return grad


def max_relative_error(analytic, numeric, floor=1e-4):
    """Elementwise |a - b| / max(|a|, |b|, floor), maximized.

    The floor keeps finite-difference roundoff (~1e-10 absolute) from
    dominating entries whose true gradient is exactly zero, e.g. bias
    gradients killed by batchnorm shift invariance.
    """
    a = np.asarray(analytic, dtype=np.float64).reshape(-1)
    b = np.asarray(numeric, dtype=np.float64).reshape(-1)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    if a.size == 0:
        return 0.0
    return float(np.max(np.abs(a - b) / denom))
