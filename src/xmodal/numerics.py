"""Differentiable dense kernels, distances, flat-vector Adam, and a finite-difference oracle.

All arithmetic is float64. Every *_forward returns (output, cache), and
train-mode `batchnorm_forward` its batch statistics as well; the matching
*_backward consumes the cache and an upstream gradient and returns exact
analytic gradients. No forward step writes to its arguments. The layers do
not check for non-finite values; that happens at the boundaries:
`encoder.encode` rejects non-finite input. `losses.total_loss_forward`
rejects a non-finite loss and `adam_step`, which updates one flat vector,
a non-finite gradient, both with `NonFiniteError`: their inputs were
finite, so the run diverged or overflowed.

The forward steps broadcast over leading stack axes. Rows are axis -2 and
features axis -1; any argument may carry leading axes, which broadcast
against the others' (a stacked vector parameter as (m, 1, d)). Each matrix
of a stack comes out bit-identical to its own unstacked call, since every
reduction runs along the same axis in the same order, and numpy's matmul
makes one BLAS call per matrix of a stack. The backward steps of dense,
relu and batchnorm broadcast the same way; a parameter's gradient comes
back with the stack's axes, one gradient per matrix, and a caller that
broadcast the parameter across the stack sums them. The other backward
steps take one matrix.

The oracle (`finite_diff_grad`, `finite_diff_entries`) takes a function of
a stack of points: given an (m, *x.shape) array it returns the m values. A
sweep's perturbed points go to it in a few stacks of bounded size, and the
estimates equal those of a point-by-point loop bit for bit. A function
made of forward steps evaluates a sweep in one call; `per_point` wraps a
function of one point.
"""

import math
import warnings

import numpy as np

DIST_STABILIZER = 1e-12
# Bound on the score block evaluation ranks at a time and on each stack of
# points the finite-difference oracle evaluates. Ranking a 1200x1200
# gallery by key sort (1 BLAS thread, fastest of 9) took 40 ms at 256 KiB,
# 36-37 ms at 512 KiB and 1 MiB, 45 ms at 128 KiB and 46 ms at 4 MiB.
DIST_BLOCK_BYTES = 1 << 18
_UNIT_ROUNDOFF = 2.0 ** -53
ADAM_BETA1, ADAM_BETA2, ADAM_EPSILON = 0.9, 0.999, 1e-8  # Kingma & Ba's defaults
L2_MIN_NORM = 1e-6  # shorter rows pass l2_normalize unchanged
RELATIVE_ERROR_FLOOR = 1e-4  # see relative_errors
_SMALLEST_SUBNORMAL = 2.0 ** -1074


class NonFiniteError(ValueError):
    """A value computed from finite inputs came out non-finite: the run
    diverged, or its inputs are too large for float64."""


# ---------------------------------------------------------------------------
# Layers
# ---------------------------------------------------------------------------

def dense_forward(x, w, b):
    """y = x @ w + b, with w of shape (in_dim, out_dim)."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim < 2 or x.shape[-1] != w.shape[-2]:
        raise ValueError(f"dense: input shape {x.shape} incompatible with weight {w.shape}")
    y = x @ w + b
    return y, (x, w)


def dense_backward(cache, g):
    dw, db = dense_param_grads(cache, g)
    return np.asarray(g, dtype=np.float64) @ cache[1].swapaxes(-1, -2), dw, db


def dense_param_grads(cache, g):
    """(dw, db) of `dense_backward`: a first layer's, whose input gradient nothing reads."""
    x, w = cache
    g = np.asarray(g, dtype=np.float64)
    if g.shape != x.shape[:-1] + w.shape[-1:]:
        raise ValueError(f"dense backward: upstream shape {g.shape} expected {x.shape[:-1] + w.shape[-1:]}")
    return x.swapaxes(-1, -2) @ g, g.sum(axis=-2)


def relu_forward(x):
    x = np.asarray(x, dtype=np.float64)
    y = np.maximum(x, 0.0)
    return y, (x,)


def relu_backward(cache, g):
    (x,) = cache
    if np.shape(g) != x.shape:
        raise ValueError("relu backward: shape mismatch")
    return np.where(x > 0.0, g, 0.0)


def batchnorm_forward(x, gamma, beta, running_mean, running_var, *, eps=1e-5, train=True):
    """Batch normalization over the rows (axis -2): (y, cache, batch stats).

    Train mode normalizes by the batch statistics and returns them as
    (mean, var), one row each per matrix; the caller folds them into its
    running statistics. Eval mode normalizes by the running statistics and
    returns None for them. Neither mode writes to the running arrays.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim < 2 or x.shape[-1] != gamma.shape[-1]:
        raise ValueError(f"batchnorm: input shape {x.shape} incompatible with dim {gamma.shape[-1]}")
    n = x.shape[-2]
    stats = None
    if train:
        if n < 2:
            raise ValueError("batchnorm: train mode requires batch size >= 2")
        # the ufunc calls of x.mean(axis=-2) and x.var(axis=-2), with the
        # centered rows made once
        mean = x.sum(axis=-2, keepdims=True) / n
        centered = x - mean
        var = (centered * centered).sum(axis=-2, keepdims=True) / n
        stats = mean[..., 0, :], var[..., 0, :]
    else:
        var = running_var
        centered = x - running_mean
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = centered * inv_std
    y = gamma * xhat + beta
    return y, (xhat, inv_std, gamma, train, n), stats


def batchnorm_backward(cache, g):
    """Differentiates through the batch statistics in train mode."""
    xhat, inv_std, gamma, train, n = cache
    g = np.asarray(g, dtype=np.float64)
    if g.shape != xhat.shape:
        raise ValueError("batchnorm backward: shape mismatch")
    dgamma = (g * xhat).sum(axis=-2)
    dbeta = g.sum(axis=-2)
    dxhat = g * gamma
    if train:
        dx = inv_std / n * (n * dxhat - dxhat.sum(axis=-2, keepdims=True)
                            - xhat * (dxhat * xhat).sum(axis=-2, keepdims=True))
    else:
        dx = dxhat * inv_std
    return dx, dgamma, dbeta


def l2_normalize_forward(x):
    """Row-wise L2 normalization; (near-)zero rows pass through unchanged."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim < 2:
        raise ValueError("l2_normalize expects rows: an array of 2 or more dims")
    norms = np.sqrt((x * x).sum(axis=-1, keepdims=True))  # np.linalg.norm's arithmetic
    small = norms[..., 0] < L2_MIN_NORM
    if np.any(small):
        warnings.warn("l2_normalize: near-zero row(s) left unnormalized", RuntimeWarning)
    safe = np.where(norms < L2_MIN_NORM, 1.0, norms)
    y = x / safe
    return y, (y, safe[..., 0], small)


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

def pair_distances(x, idx):
    """Distance of each row of x to the row `idx` names for it along its last
    axis: out[..., i] = ||x[i] - x[idx[..., i]]||.

    For a stack x of shape (..., n, D), idx is (..., k, n) and each matrix
    is paired with its own k index rows. Each distance is the einsum of one
    difference row, plus `DIST_STABILIZER` inside the sqrt, which keeps the
    gradient defined at zero distance (a self-distance reads about 1e-6).
    Since x_j - x_i is exactly -(x_i - x_j), out[i] with idx[i] = j equals
    out[j] with idx[j] = i bit for bit: the index rows k = 0..n-1, each
    repeating its k, give the whole symmetric distance matrix, and an index
    row repeating one anchor gives that anchor's distance to every row.
    The difference rows are formed in place, by one gather of whole rows
    from the stack's rows laid end to end and one broadcast subtraction.
    """
    n, dim = x.shape[-2:]
    # where each matrix's rows begin; 0 alone for one matrix
    first = np.arange(0, x.size // dim, n).reshape(x.shape[:-2] + (1, 1))
    diff = np.take(x.reshape(-1, dim), idx + first, axis=0)
    np.subtract(x[..., None, :, :], diff, out=diff)
    sq = np.einsum("...k,...k->...", diff, diff)
    sq += DIST_STABILIZER
    return np.sqrt(sq, out=sq)


def gemm_sq_distances(x):
    """Scores ||x_i||^2 + ||x_j||^2 - 2 x_i.x_j for every pair of rows of x,
    or of each matrix in a stack, from one GEMM per matrix, and the squared
    row norms.

    A score approximates the squared distance `pair_distances` takes the
    root of; `gemm_score_bound` says when an order of scores is certain to
    be the order of those distances.
    """
    sq = np.einsum("...ij,...ij->...i", x, x)
    scores = x @ x.swapaxes(-1, -2)
    scores *= -2.0
    scores += sq[..., :, None]
    scores += sq[..., None, :]
    return scores, sq


def gemm_score_bound(norm_sum, dim):
    """Half the lead one `gemm_sq_distances` score needs over another for the
    order to be certain.

    Take two pairs of `dim`-wide rows, each pair's squared norms summing to
    at most `norm_sum`, with scores s_a and s_b. If s_a - s_b > 2 * bound,
    then `pair_distances` computes d_a > d_b: the same order, strict,
    so no tie can appear after a pick. Derivation (Higham, "Accuracy and
    Stability of Numerical Algorithms", ch. 3), with unit roundoff
    u = 2**-53, gamma_n = nu / (1 - nu), N = ||x||^2 + ||y||^2 and the
    exact e = ||x - y||^2 <= 2N; a length-D dot product in any summation
    order, GEMM included, lies within gamma_D * sum |x_k y_k| of its value:

    - GEMM score s: each norm lies within gamma_D of its value and the
      cross term 2x.y within 2 gamma_D ||x|| ||y|| <= gamma_D N; the two
      final adds round partial sums below 2N and 3N. So
      |s - e| <= (2 gamma_D + 5u) N.
    - exact path q, the einsum of rounded differences: every term carries
      at most D + 2 roundings, so |q - e| <= gamma_{D+2} e <= 2 gamma_{D+2} N.
    - stabilizer and sqrt: if q_a - q_b > 7u (q_a + eps), then
      fl(q + eps) keeps a gap above 4u fl(q_a + eps), which survives the
      correctly rounded sqrt. With q_a <= 3N that takes 21uN + 7u eps.

    A lead above 2 (|s - e| + |q - e|) + 21uN + 7u eps is thus enough,
    which is 2 ((4D + 19.5) uN + 3.5u eps) to first order in u. A product
    that underflows adds an absolute error of at most 2**-1075, which adds
    at most 2.5D 2**-1074 inside those parentheses. The bound returned is
    2 ((4D + 20) uN + 4u eps + 4D 2**-1074); its factor 2 covers the
    second-order terms, norms summed from computed values, and the
    rounding of the lead and of this bound.
    """
    return 2.0 * ((4 * dim + 20) * _UNIT_ROUNDOFF * norm_sum
                  + 4 * _UNIT_ROUNDOFF * DIST_STABILIZER + 4 * dim * _SMALLEST_SUBNORMAL)


def softmax_cross_entropy_forward(logits, labels):
    """Mean negative log-likelihood of the labels: (loss, cache)."""
    logits = np.asarray(logits, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.intp)
    n, c = logits.shape[-2:]
    if n == 0:
        raise ValueError("softmax_cross_entropy: empty batch")
    if labels.shape != (n,):
        raise ValueError("softmax_cross_entropy: one label per row required")
    if labels.min() < 0 or labels.max() >= c:
        raise ValueError(f"softmax_cross_entropy: label out of range [0, {c})")
    shifted = logits - logits.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    log_probs = shifted - np.log(exp.sum(axis=-1, keepdims=True))
    # a stacked gather comes out column-major; each row must be contiguous
    # for its sum to take the same pairwise order as one matrix's
    picked = np.ascontiguousarray(log_probs[..., np.arange(n), labels])
    loss = -(picked.sum(axis=-1) / n)  # .mean()'s arithmetic
    return loss, (exp, labels)


def softmax_cross_entropy_backward(cache):
    """Gradient of the forward's loss w.r.t. the logits."""
    exp, labels = cache
    n = exp.shape[0]
    grad = exp / exp.sum(axis=1, keepdims=True)
    grad[np.arange(n), labels] -= 1.0
    grad /= n
    return grad


def softmax_cross_entropy(logits, labels):
    """Mean negative log-likelihood and its gradient w.r.t. the logits."""
    loss, cache = softmax_cross_entropy_forward(logits, labels)
    return loss, softmax_cross_entropy_backward(cache)


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------

class AdamState:
    """Moment buffers and learning rate for one flat parameter vector.

    The vector holds the arrays of `params` end to end, in their order at
    construction; `slices` maps each name to its span and shape.
    """

    def __init__(self, params, *, learning_rate=1e-4):
        # learning_rate 0 is allowed: it makes the update a verifiable no-op
        if learning_rate < 0.0:
            raise ValueError("adam: learning_rate must be >= 0")
        self.learning_rate = learning_rate
        self.step_count = 0
        self.slices = {}
        size = 0
        for name, p in params.items():
            self.slices[name] = (slice(size, size + p.size), p.shape)
            size += p.size
        self.first_moment = np.zeros(size)
        self.second_moment = np.zeros(size)
        self.scratch = np.empty((2, size))  # two rows: the caller's gradient stays as it is

    def views(self, vector):
        """Name -> that array of the flat `vector`, as a view of it."""
        return {name: vector[span].reshape(shape) for name, (span, shape) in self.slices.items()}


def adam_step(theta, grad, state):
    """Bias-corrected Adam update of the flat vector `theta`, in place, from
    the flat gradient `grad`; a non-finite entry raises before anything moves.

    The same operations in the same order as a per-array update, so the
    result is bit-identical.
    """
    m, v = state.first_moment, state.second_moment
    if theta.shape != m.shape or grad.shape != m.shape:
        raise ValueError(f"adam_step: size mismatch {theta.shape}, {grad.shape}, {m.shape}")
    if not np.all(np.isfinite(grad)):
        bad = next(n for n, g in state.views(grad).items() if not np.all(np.isfinite(g)))
        raise NonFiniteError(f"adam_step: non-finite gradient for {bad}")
    state.step_count += 1
    t = state.step_count
    bc1 = 1.0 - ADAM_BETA1 ** t
    bc2 = 1.0 - ADAM_BETA2 ** t
    tmp, den = state.scratch
    m *= ADAM_BETA1
    np.multiply(grad, 1.0 - ADAM_BETA1, out=tmp)
    m += tmp
    v *= ADAM_BETA2
    np.multiply(grad, 1.0 - ADAM_BETA2, out=tmp)
    tmp *= grad
    v += tmp
    # step = lr * (m / bc1) / (sqrt(v / bc2) + eps)
    np.divide(m, bc1, out=tmp)
    tmp *= state.learning_rate
    np.divide(v, bc2, out=den)
    np.sqrt(den, out=den)
    den += ADAM_EPSILON
    tmp /= den
    theta -= tmp


# ---------------------------------------------------------------------------
# Finite-difference oracle
# ---------------------------------------------------------------------------

# (steps in units of h, their weights, the denominator in units of h)
_TWO_POINT = ((1.0, -1.0), (1.0, -1.0), 2.0)
_FOUR_POINT = ((2.0, 1.0, -1.0, -2.0), (-1.0, 8.0, -8.0, 1.0), 12.0)


def _finite_differences(f, x, entries, stencil, h):
    """Estimates of df/dx at the flat indices `entries` of x, in that order.

    Each is sum(weight * f(x + step * h * e_i)) / (denominator * h) over
    the stencil. The perturbed points are built as stacks of at most
    DIST_BLOCK_BYTES (one point, when x alone is larger) and `f` is called
    once per stack; x itself is left untouched.
    """
    if not 0.0 < h < math.inf:
        raise ValueError(f"finite differences: h must be positive and finite, got {h}")
    steps, weights, denominator = stencil
    flat = x.reshape(-1)
    entries = np.asarray(entries, dtype=np.intp)
    # point p moves entry cols[p] to shifted[p]: entry by entry, each entry's
    # stencil steps in order
    cols = np.repeat(entries, len(steps))
    shifted = (flat[entries][:, None] + np.multiply(steps, h)).reshape(-1)
    vals = np.empty((entries.size, len(steps)))
    chunk = max(1, DIST_BLOCK_BYTES // (8 * max(x.size, 1)))
    for start in range(0, cols.size, chunk):
        m = min(chunk, cols.size - start)
        points = np.empty((m, flat.size))
        points[...] = flat
        points[np.arange(m), cols[start:start + m]] = shifted[start:start + m]
        values = np.asarray(f(points.reshape((m,) + x.shape)), dtype=np.float64)
        if values.shape != (m,):
            raise ValueError(f"finite differences: f returned shape {values.shape} "
                             f"for a stack of {m} points, expected ({m},)")
        vals.reshape(-1)[start:start + m] = values
    if not np.isfinite(vals).all():
        raise ValueError("finite differences: non-finite function evaluation")
    total = weights[0] * vals[:, 0]
    for k in range(1, len(steps)):
        total += weights[k] * vals[:, k]
    return total / (denominator * h)


def per_point(f):
    """The stack function the oracle takes, made from `f`, a scalar function
    of one point: it calls f on each point of the stack in turn."""
    return lambda points: [f(point) for point in points]


def finite_diff_grad(f, x, h=1e-5):
    """Central-difference gradient estimate of a scalar function.

    `f` maps a stack of points, an (m, *x.shape) array, to their m values
    (`per_point` makes one from a function of a single point).
    """
    x = np.asarray(x, dtype=np.float64)
    return _finite_differences(f, x, np.arange(x.size), _TWO_POINT, h).reshape(x.shape)


def finite_diff_entries(f, x, entries, h=1e-5):
    """Fourth-order central-difference estimates at the flat indices `entries`,
    with `f` a function of a stack of points as for `finite_diff_grad`.

    Each is (-f(x+2h) + 8 f(x+h) - 8 f(x-h) + f(x-2h)) / 12h, whose
    truncation error is O(h^4) against the two-point form's O(h^2), at
    twice the function evaluations.
    """
    return _finite_differences(f, np.asarray(x, dtype=np.float64), entries, _FOUR_POINT, h)


def relative_errors(analytic, numeric):
    """Elementwise |a - b| / max(|a|, |b|, RELATIVE_ERROR_FLOOR), flattened,
    and inf where an analytic entry is not finite.

    The floor keeps finite-difference roundoff (~1e-10 absolute) from
    dominating entries whose true gradient is exactly zero, e.g. bias
    gradients killed by batchnorm shift invariance. A NaN error fails every
    comparison, so Python's `max` drops it (`max(0.0, nan)` is 0.0): a NaN
    or infinite gradient entry reads as an infinite error instead.
    """
    a = np.asarray(analytic, dtype=np.float64).reshape(-1)
    b = np.asarray(numeric, dtype=np.float64).reshape(-1)
    errors = np.abs(a - b) / np.maximum(np.maximum(np.abs(a), np.abs(b)), RELATIVE_ERROR_FLOOR)
    return np.where(np.isfinite(a), errors, np.inf)


def max_relative_error(analytic, numeric):
    """The largest of `relative_errors`, 0 for empty arrays."""
    errors = relative_errors(analytic, numeric)
    return float(errors.max()) if errors.size else 0.0
