import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from xmodal.encoder import EncoderConfig, init_encoder
from xmodal.numerics import (
    DIST_BLOCK_BYTES,
    AdamState,
    adam_step,
    batchnorm_backward,
    batchnorm_forward,
    dense_backward,
    dense_forward,
    dense_param_grads,
    finite_diff_entries,
    finite_diff_grad,
    gemm_score_bound,
    gemm_sq_distances,
    l2_normalize_backward,
    l2_normalize_forward,
    max_relative_error,
    pair_distances,
    per_point,
    relu_backward,
    relu_forward,
    softmax_cross_entropy,
    softmax_cross_entropy_forward,
)

from helpers import (
    FOUR_POINT,
    TWO_POINT,
    AdamReference,
    adam_step_reference,
    dist_oracle,
    finite_differences_reference,
    pairwise_distances_reference,
)


class TestLayerForward:
    def test_dense_identity(self):
        x = np.array([[1.0, 2.0]])
        y, _ = dense_forward(x, np.eye(2), np.zeros(2))
        np.testing.assert_array_equal(y, x)

    def test_relu(self):
        y, _ = relu_forward(np.array([[-1.0, 2.0, 0.0]]))
        np.testing.assert_array_equal(y, [[0.0, 2.0, 0.0]])

    def test_l2_normalize_345(self):
        y, _ = l2_normalize_forward(np.array([[3.0, 4.0]]))
        np.testing.assert_allclose(y, [[0.6, 0.8]], atol=1e-12)

    def test_l2_normalize_unit_norm(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((20, 7)) + 0.5
        y, _ = l2_normalize_forward(x)
        np.testing.assert_allclose(np.linalg.norm(y, axis=1), 1.0, atol=1e-9)

    def test_l2_normalize_zero_vector_warns(self):
        with pytest.warns(RuntimeWarning):
            y, _ = l2_normalize_forward(np.zeros((1, 3)))
        np.testing.assert_array_equal(y, np.zeros((1, 3)))

    def test_dense_dim_mismatch(self):
        with pytest.raises(ValueError):
            dense_forward(np.ones((2, 3)), np.eye(2), np.zeros(2))

    def test_batchnorm_train_single_row_rejected(self):
        with pytest.raises(ValueError):
            batchnorm_forward(np.ones((1, 3)), np.ones(3), np.zeros(3),
                              np.zeros(3), np.ones(3), train=True)

    def test_batchnorm_eval_uses_running_stats(self):
        rm, rv = np.array([1.0, 2.0]), np.array([4.0, 9.0])
        x = np.array([[1.0, 2.0]])
        y, _, stats = batchnorm_forward(x, np.ones(2), np.zeros(2), rm, rv, eps=0.0, train=False)
        np.testing.assert_allclose(y, [[0.0, 0.0]], atol=1e-12)
        assert stats is None

    def test_batchnorm_train_returns_batch_stats(self):
        # the caller folds them into its running stats; the layer writes to
        # neither running array
        rng = np.random.default_rng(0)
        x = rng.standard_normal((8, 3))
        rm, rv = np.zeros(3), np.ones(3)
        _, _, (mean, var) = batchnorm_forward(x, np.ones(3), np.zeros(3), rm, rv, train=True)
        np.testing.assert_array_equal(mean, x.mean(axis=0))
        np.testing.assert_array_equal(var, x.var(axis=0))
        np.testing.assert_array_equal(rm, np.zeros(3))
        np.testing.assert_array_equal(rv, np.ones(3))

    @pytest.mark.parametrize("m, n, d", [(3, 2, 1), (5, 7, 3), (4, 12, 8), (2, 32, 64)])
    def test_stacked_layers_are_bit_identical_to_each_matrix(self, m, n, d):
        # each argument stacked in turn, a vector as (m, 1, d), against the
        # others unstacked; n >= 8 takes numpy's pairwise sums
        rng = np.random.default_rng(m * n * d)
        x, w, b = rng.standard_normal((n, d)), rng.standard_normal((d, d)), rng.standard_normal(d)
        gamma, beta = 0.5 + rng.random(d), rng.standard_normal(d)
        rm, rv = rng.standard_normal(d), 0.5 + rng.random(d)
        labels = rng.integers(0, d, size=n)

        def layers(x, w, b, gamma, beta):
            out = {"dense": dense_forward(x, w, b)[0], "relu": relu_forward(x)[0],
                   "l2": l2_normalize_forward(x)[0], "eval_bn": batchnorm_forward(
                       x, gamma, beta, rm, rv, train=False)[0]}
            out["train_bn"], _, (out["mean"], out["var"]) = batchnorm_forward(
                x, gamma, beta, rm, rv, train=True)
            if d > 1:
                out["softmax"] = softmax_cross_entropy_forward(x, labels)[0]
            return out

        args = {"x": x, "w": w, "b": b, "gamma": gamma, "beta": beta}
        for name, arg in args.items():
            stack = arg + 0.1 * rng.standard_normal((m,) + arg.shape)
            out = layers(**{**args, name: stack[:, None] if arg.ndim == 1 else stack})
            for k, v in enumerate(stack):
                one = layers(**{**args, name: v})
                for layer, value in one.items():
                    got = out[layer]
                    got = got[k] if np.ndim(got) > np.ndim(value) else got
                    np.testing.assert_array_equal(got, value, err_msg=f"{name} {layer}")


class TestLayerBackward:
    def test_relu_gate(self):
        _, cache = relu_forward(np.array([[-1.0, 2.0]]))
        dx = relu_backward(cache, np.array([[1.0, 1.0]]))
        np.testing.assert_array_equal(dx, [[0.0, 1.0]])

    def test_dense_identity_passthrough(self):
        _, cache = dense_forward(np.array([[1.0, 2.0]]), np.eye(2), np.zeros(2))
        g = np.array([[0.3, -0.7]])
        dx, _, _ = dense_backward(cache, g)
        np.testing.assert_array_equal(dx, g)

    def test_batchnorm_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            n, d = int(rng.integers(2, 8)), int(rng.integers(1, 8))
            x = rng.standard_normal((n, d))
            gamma, beta = 0.5 + rng.random(d), rng.standard_normal(d)
            proj = rng.standard_normal((n, d))

            def f(v):
                out, _, _ = batchnorm_forward(v, gamma, beta, np.zeros(d), np.ones(d), train=True)
                return float((out * proj).sum())

            _, cache, _ = batchnorm_forward(x, gamma, beta, np.zeros(d), np.ones(d), train=True)
            dx, _, _ = batchnorm_backward(cache, proj)
            assert max_relative_error(dx, finite_diff_grad(per_point(f), x)) < 1e-4

    def test_backward_shape_mismatch(self):
        _, cache = relu_forward(np.ones((2, 3)))
        with pytest.raises(ValueError):
            relu_backward(cache, np.ones((2, 4)))
        _, cache = dense_forward(np.ones((2, 4, 3)), np.ones((3, 5)), np.zeros(5))
        for backward in (dense_backward, dense_param_grads):
            with pytest.raises(ValueError, match=r"expected \(2, 4, 5\)"):
                backward(cache, np.ones((4, 5)))

    @pytest.mark.parametrize("n, d_in, d_out", [(1, 3, 2), (2, 1, 1), (12, 8, 6), (16, 64, 64),
                                                (16, 64, 25)])
    def test_stacked_backward_equals_per_matrix_calls(self, n, d_in, d_out):
        # the train step backpropagates both streams as one (2, n, d) stack;
        # every gradient must be each matrix's own call's, bit for bit, for
        # a weight stacked like the stream stages or shared like the head
        rng = np.random.default_rng(n * d_in * d_out)
        x, g = rng.standard_normal((2, n, d_in)), rng.standard_normal((2, n, d_out))
        for w in (rng.standard_normal((d_in, d_out)), rng.standard_normal((2, d_in, d_out))):
            _, cache = dense_forward(x, w, rng.standard_normal(d_out))
            stacked = dense_backward(cache, g)
            # a first layer's parameter gradients alone: the same bits
            for got, want in zip(dense_param_grads(cache, g), stacked[1:]):
                assert np.array_equal(got, want)
            for k in range(2):
                _, cache = dense_forward(x[k], w[k] if w.ndim == 3 else w, np.zeros(d_out))
                for got, want in zip(stacked, dense_backward(cache, g[k])):
                    assert np.array_equal(got[k], want)
        z = rng.standard_normal((2, n, d_out))
        dz = relu_backward(relu_forward(z)[1], g)
        for k in range(2):
            assert np.array_equal(dz[k], relu_backward(relu_forward(z[k])[1], g[k]))
        if n < 2:  # train-mode batchnorm needs two rows
            return
        gamma, beta = 0.5 + rng.random(d_out), rng.standard_normal(d_out)
        mean, var = rng.standard_normal(d_out), 0.5 + rng.random(d_out)
        for train in (True, False):
            _, cache, _ = batchnorm_forward(z, gamma, beta, mean, var, train=train)
            stacked = batchnorm_backward(cache, g)
            for k in range(2):
                _, cache, _ = batchnorm_forward(z[k], gamma, beta, mean, var, train=train)
                for got, want in zip(stacked, batchnorm_backward(cache, g[k])):
                    assert np.array_equal(got[k], want), train


def full_index(n):
    """Index rows k = 0..n-1, each repeating its k: with them `pair_distances`
    gives the whole distance matrix."""
    return np.broadcast_to(np.arange(n)[:, None], (n, n))


class TestPairwiseDistances:
    """The exact distances, as `pair_distances` gives them."""

    def test_3_4_5(self):
        d = pair_distances(np.array([[0.0, 0.0], [3.0, 4.0]]), np.array([[1, 0]]))
        assert np.all(np.abs(d - 5.0) < 1e-6)

    def test_self_distance_near_zero(self):
        a = np.random.default_rng(0).standard_normal((6, 4))
        d = pair_distances(a, full_index(6))
        assert np.all(np.diag(d) <= 1e-5)

    def test_matches_scalar_loop_oracle(self):
        rng = np.random.default_rng(5)
        a, b = rng.standard_normal((4, 3)), rng.standard_normal((5, 3))
        d = pair_distances(np.concatenate([a, b]), full_index(9))
        for i in range(4):
            for j in range(5):
                assert abs(d[i, 4 + j] - dist_oracle(a[i], b[j])) < 1e-12

    def test_symmetry_and_triangle_inequality(self):
        rng = np.random.default_rng(11)
        a = rng.standard_normal((10, 6))
        d = pair_distances(a, full_index(10))
        np.testing.assert_array_equal(d, d.T)
        for i in range(10):
            for j in range(10):
                for k in range(10):
                    assert d[i, j] <= d[i, k] + d[k, j] + 1e-9


class TestGemmScores:
    @pytest.mark.parametrize("dim", [1, 7, 64, 128, 129])
    def test_pair_distance_is_the_matrix_entry(self, dim):
        # the whole matrix, the mined pairs' distances and the exact rows a
        # certified pick falls back on are the entries of the unblocked
        # reference matrix, also for exact and near duplicates
        rng = np.random.default_rng(dim)
        for n, scale, offset in ((2, 1.0, 0.0), (12, 1e-3, 0.0), (64, 1.0, 0.0),
                                 (65, 1e3, 0.0), (64, 1.0, 1e6)):
            x = offset + scale * rng.standard_normal((n, dim))
            if n > 2:
                x[1] = x[0]
                x[2] = x[0] + 1e-12 * scale * rng.standard_normal(dim)
            full = pairwise_distances_reference(x, x)
            np.testing.assert_array_equal(pair_distances(x, full_index(n)), full)
            idx = rng.integers(0, n, (4, n))
            np.testing.assert_array_equal(pair_distances(x, idx), full[np.arange(n), idx])
            # each anchor against its own copy of the matrix, by an index
            # row that repeats the anchor
            rows = np.unique(rng.integers(0, n, 5))
            anchors = np.broadcast_to(rows[:, None, None], (rows.size, 1, n))
            stacked = pair_distances(np.stack([x] * rows.size), anchors)
            np.testing.assert_array_equal(stacked[:, 0], full[rows])
        # a stack over two leading axes pairs each matrix with its own rows
        xs = rng.standard_normal((3, 2, 12, dim))
        idx = rng.integers(0, 12, (3, 2, 4, 12))
        stacked = pair_distances(xs, idx)
        for s in np.ndindex(3, 2):
            np.testing.assert_array_equal(stacked[s], pair_distances(xs[s], idx[s]))

    @pytest.mark.parametrize("offset", [0.0, 1e6])
    def test_bound_covers_both_paths_rounding(self, offset):
        # half the bound covers the GEMM score's error plus the exact
        # einsum's, against the squared distance in rational arithmetic;
        # the other half is the margin that keeps the sqrt strictly ordered
        rng = np.random.default_rng(int(offset) + 3)
        for dim in (1, 7, 64, 129):
            x = offset + rng.standard_normal((12, dim))
            scores, sq = gemm_sq_distances(x)
            diff = x[:, None, :] - x[None, :, :]
            q = np.einsum("...k,...k->...", diff, diff)
            exact = [[Fraction(0)] * 12 for _ in range(12)]
            for i in range(12):
                for j in range(i):
                    e = sum((Fraction(a) - Fraction(b)) ** 2 for a, b in zip(x[i], x[j]))
                    exact[i][j] = exact[j][i] = e
            for i in range(12):
                for j in range(12):
                    e = exact[i][j]
                    error = abs(Fraction(scores[i, j]) - e) + abs(Fraction(q[i, j]) - e)
                    assert error <= Fraction(gemm_score_bound(sq[i] + sq[j], dim)) / 2, (dim, i, j)

    def test_bound_is_tight_enough_to_certify_training_batches(self):
        # unit rows at the reference width: scores about 2, bound near 1e-13
        assert gemm_score_bound(2.0, 128) < 1e-12


class TestSoftmaxCrossEntropy:
    def test_uniform_two_class(self):
        loss, _ = softmax_cross_entropy(np.array([[0.0, 0.0]]), [0])
        assert abs(loss - math.log(2.0)) < 1e-12

    def test_no_overflow_on_huge_logit(self):
        loss, grad = softmax_cross_entropy(np.array([[1000.0, 0.0]]), [0])
        assert loss < 1e-12
        assert np.all(np.isfinite(grad))

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(9)
        logits = rng.standard_normal((6, 4))
        labels = rng.integers(0, 4, size=6)
        _, grad = softmax_cross_entropy(logits, labels)
        fd = finite_diff_grad(per_point(lambda v: softmax_cross_entropy(v, labels)[0]), logits)
        assert max_relative_error(grad, fd) < 1e-4

    def test_label_out_of_range(self):
        with pytest.raises(ValueError):
            softmax_cross_entropy(np.zeros((1, 3)), [3])

    def test_empty_batch(self):
        with pytest.raises(ValueError):
            softmax_cross_entropy(np.zeros((0, 3)), [])


def flat_adam(arrays, **kwargs):
    """An AdamState over the named arrays and the flat vector holding them."""
    return AdamState(arrays, **kwargs), np.concatenate([v.reshape(-1) for v in arrays.values()])


class TestAdam:
    def test_first_step_is_signed_lr(self):
        state, theta = flat_adam({"w": np.array([1.0])}, learning_rate=1e-4)
        adam_step(theta, np.array([0.5]), state)
        assert abs(theta[0] - 0.9999) < 1e-8
        assert state.step_count == 1

    def test_zero_gradient_is_null_update(self):
        state, theta = flat_adam({"w": np.array([1.0, -2.0])}, learning_rate=0.1)
        adam_step(theta, np.zeros(2), state)
        np.testing.assert_array_equal(theta, [1.0, -2.0])

    def test_quadratic_descent(self):
        state, theta = flat_adam({"t": np.array([1.0])}, learning_rate=0.1)
        for _ in range(100):
            adam_step(theta, 2.0 * theta, state)
            assert abs(theta[0]) < 1.0
        assert abs(theta[0]) < 0.2

    def test_deterministic(self):
        def run():
            state, theta = flat_adam({"w": np.linspace(-1, 1, 5)}, learning_rate=0.05)
            for i in range(10):
                adam_step(theta, np.sin(theta + i), state)
            return theta

        np.testing.assert_array_equal(run(), run())

    def test_non_finite_gradient_rejected(self):
        state, theta = flat_adam({"w": np.array([1.0])})
        with pytest.raises(ValueError):
            adam_step(theta, np.array([np.inf]), state)

    def test_non_finite_gradient_names_it_and_moves_nothing(self):
        state, theta = flat_adam({"a": np.ones(3), "b": np.ones((2, 2)), "c": np.ones(1)},
                                 learning_rate=0.1)
        grad = np.ones_like(theta)
        state.views(grad)["b"][1, 0] = np.nan
        with pytest.raises(ValueError, match="non-finite gradient for b"):
            adam_step(theta, grad, state)
        np.testing.assert_array_equal(theta, 1.0)
        assert not state.first_moment.any() and not state.second_moment.any()
        assert state.step_count == 0

    def test_shape_mismatch_rejected(self):
        # a gradient of one entry would broadcast over the vector
        state, theta = flat_adam({"w": np.ones(3)})
        for t, g in ((theta, np.ones(4)), (theta, np.ones(1)), (np.ones(4), np.ones(4))):
            with pytest.raises(ValueError, match="size mismatch"):
                adam_step(t, g, state)
        np.testing.assert_array_equal(theta, 1.0)
        assert state.step_count == 0

    def test_flat_update_is_bit_identical_to_per_array(self):
        # the 24 arrays of the reference encoder; a learning-rate decay and
        # zeroed stream gradients, as in a training run's frozen epochs
        cfg = EncoderConfig(input_dim=32, num_classes=25, stage_dims=(64, 64, 64),
                            tap_stage=2, d=64, fusion="cat")
        ref_params = init_encoder(cfg, 0).values
        state, theta = flat_adam(ref_params, learning_rate=1e-3)
        params = state.views(theta)
        ref_state = AdamReference(ref_params, learning_rate=1e-3)
        rng = np.random.default_rng(11)
        for step in range(20):
            if step == 10:
                state.learning_rate = ref_state.learning_rate = 1e-4
            grad = 1e-2 * rng.standard_normal(theta.shape)
            grads = state.views(grad)
            if step < 5:
                for k in grads:
                    if k.startswith(("visible.", "thermal.")):
                        grads[k][...] = 0.0
            given = grad.copy()
            adam_step(theta, grad, state)
            adam_step_reference(ref_params, grads, ref_state)
            assert np.array_equal(grad, given), step  # the caller's gradient is left as it was
            for k in params:
                assert np.array_equal(params[k], ref_params[k]), (step, k)


class TestFiniteDiff:
    def test_quadratic_exact(self):
        g = finite_diff_grad(lambda xs: xs[:, 0] ** 2, np.array([3.0]), h=1e-3)
        assert abs(g[0] - 6.0) < 1e-6

    def test_constant_is_zero(self):
        g = finite_diff_grad(lambda xs: np.ones(len(xs)), np.ones(4))
        np.testing.assert_array_equal(g, np.zeros(4))

    def test_norm_gradient(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal(5) + 0.5
        g = finite_diff_grad(lambda vs: np.linalg.norm(vs, axis=1), x)
        np.testing.assert_allclose(g, x / np.linalg.norm(x), atol=1e-5)

    @pytest.mark.parametrize("shape, h", [((3,), 1e-5), ((4, 3), 1e-3), ((20, 15), 1e-5)])
    def test_stacked_sweep_is_the_per_point_loop(self, shape, h):
        # a (20, 15) x needs several stacks: 109 points of 300 entries fill one
        rng = np.random.default_rng(sum(shape))
        x = rng.standard_normal(shape)
        w = rng.standard_normal(shape)

        def f(v):
            return float(np.sin(v * w).sum() + 0.1 * (v ** 3).sum())

        stacks = []

        def stacked(points):
            stacks.append(points.shape)
            return per_point(f)(points)

        before = x.copy()
        want = finite_differences_reference(f, x.copy(), range(x.size), TWO_POINT, h)
        np.testing.assert_array_equal(finite_diff_grad(stacked, x, h).reshape(-1), want)
        entries = np.concatenate([rng.permutation(x.size), [0, 0]])  # repeats too
        want = finite_differences_reference(f, x.copy(), entries, FOUR_POINT, h)
        np.testing.assert_array_equal(finite_diff_entries(stacked, x, entries, h), want)
        np.testing.assert_array_equal(x, before)
        chunk = DIST_BLOCK_BYTES // (8 * x.size)
        assert all(s[0] <= chunk and s[1:] == shape for s in stacks)
        assert sum(s[0] for s in stacks) == 2 * x.size + 4 * entries.size
        assert len(stacks) == -(-2 * x.size // chunk) - (-4 * entries.size // chunk)

    def test_stack_of_one_point_when_x_alone_is_larger(self):
        x = np.random.default_rng(5).standard_normal(DIST_BLOCK_BYTES // 8 + 1)
        stacks = []

        def f(points):
            stacks.append(points.shape)
            return np.sin(points).sum(axis=1)

        entries = [0, 12345, x.size - 1]
        want = finite_differences_reference(lambda v: np.sin(v).sum(), x.copy(), entries,
                                            FOUR_POINT)
        np.testing.assert_array_equal(finite_diff_entries(f, x, entries), want)
        assert stacks == [(1, x.size)] * 12

    def test_stacks_stay_within_the_block_bound(self):
        # unstacked, the 8 192 points of this sweep would take 256 MiB
        x = np.random.default_rng(6).standard_normal((64, 64))
        tracemalloc.start()
        try:
            finite_diff_grad(lambda points: points.sum(axis=(1, 2)), x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * DIST_BLOCK_BYTES

    def test_one_value_per_point(self):
        with pytest.raises(ValueError, match="for a stack of 4 points"):
            finite_diff_grad(lambda points: 0.0, np.ones(2))
        with pytest.raises(ValueError, match="non-finite"):
            finite_diff_grad(lambda points: np.full(len(points), np.nan), np.ones(2))

    def test_bad_h(self):
        # a NaN h compares False with 0, and gave NaN estimates of a constant
        # function with no error
        for h in (0.0, -1e-5, np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match=f"h must be positive and finite, got {h}"):
                finite_diff_grad(lambda xs: np.zeros(len(xs)), np.ones(2), h=h)
            with pytest.raises(ValueError, match=f"h must be positive and finite, got {h}"):
                finite_diff_entries(lambda xs: np.zeros(len(xs)), np.ones(2), [0], h=h)

    def test_four_point_stencil_is_exact_on_quartics(self):
        # the two-point form reads 4 + 4h^2 for d/dx x^4 at x = 1
        x = np.array([[2.0, 1.0]])
        f = lambda vs: vs[:, 0, 1] ** 4 + 3.0 * vs[:, 0, 0]
        two_point = finite_diff_grad(f, x, h=1e-2)
        assert abs(two_point[0, 1] - 4.0004) < 1e-9
        est = finite_diff_entries(f, x, [1, 0], h=1e-2)
        np.testing.assert_allclose(est, [4.0, 3.0], rtol=0.0, atol=1e-10)
        np.testing.assert_array_equal(x, [[2.0, 1.0]])
