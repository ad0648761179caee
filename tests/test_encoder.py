import copy

import numpy as np
import pytest

from xmodal.config import ConfigError
from xmodal.encoder import (
    MODALITIES,
    EncoderConfig,
    EncoderParams,
    FeatureBundle,
    encode,
    encode_backward,
    fuse,
    init_encoder,
    param_shapes,
    test_feature as select_feature,
    zero_grads,
)
from xmodal.losses import BundleGrads, LossConfig, loss_targets, total_loss_forward
from xmodal.numerics import finite_diff_grad, max_relative_error, per_point

from helpers import stack_streams, train_step_reference


def small_config(mfi=True, fusion="cat", backbone=True):
    return EncoderConfig(input_dim=5, num_classes=3, stage_dims=(6, 5), tap_stage=2,
                         d=4, fusion=fusion, mfi_enabled=mfi, backbone_loss_enabled=backbone)


class TestInit:
    def test_deterministic(self):
        cfg = small_config()
        a, b = init_encoder(cfg, 7), init_encoder(cfg, 7)
        for k in a.values:
            np.testing.assert_array_equal(a.values[k], b.values[k])

    def test_streams_independent(self):
        p = init_encoder(small_config(), 0)
        assert not np.array_equal(p.values["visible.stage1.W"], p.values["thermal.stage1.W"])

    def test_bn_scale_ones(self):
        p = init_encoder(small_config(), 0)
        np.testing.assert_array_equal(p.values["head.bn.gamma"], np.ones(4))
        np.testing.assert_array_equal(p.values["mid.bn.gamma"], np.ones(8))

    @pytest.mark.parametrize("mfi", [True, False])
    def test_param_shapes_name_the_arrays_in_init_order(self, mfi):
        p = init_encoder(small_config(mfi=mfi), 0)
        values, bn_state = param_shapes(small_config(mfi=mfi))
        assert list(values.items()) == [(k, v.shape) for k, v in p.values.items()]
        assert list(bn_state.items()) == [(k, v.shape) for k, v in p.bn_state.items()]

    def test_invalid_config(self):
        with pytest.raises(ConfigError):
            EncoderConfig(input_dim=5, num_classes=1)
        with pytest.raises(ConfigError):
            EncoderConfig(input_dim=5, num_classes=3, tap_stage=9)


class TestFuse:
    def test_sum(self):
        np.testing.assert_array_equal(fuse([1.0, 2.0], [3.0, 4.0], "sum"), [4.0, 6.0])

    def test_cat_mid_first(self):
        np.testing.assert_array_equal(fuse([1.0, 2.0], [3.0, 4.0], "cat"), [1.0, 2.0, 3.0, 4.0])

    def test_sum_identity_element(self):
        v = np.array([1.5, -2.5])
        np.testing.assert_array_equal(fuse(v, np.zeros(2), "sum"), v)

    def test_sum_dim_mismatch(self):
        with pytest.raises(ValueError):
            fuse(np.ones(2), np.ones(3), "sum")
        # one row does not broadcast against n rows, but a stack does
        with pytest.raises(ValueError, match="equal dims"):
            fuse(np.ones((1, 3)), np.ones((4, 3)), "sum")
        assert fuse(np.ones((2, 4, 3)), np.ones((4, 3)), "sum").shape == (2, 4, 3)


class TestEncode:
    def test_modality_symmetry_with_tied_params(self):
        cfg = small_config()
        p = init_encoder(cfg, 3)
        for i in (1, 2):
            p.values[f"thermal.stage{i}.W"] = p.values[f"visible.stage{i}.W"].copy()
            p.values[f"thermal.stage{i}.b"] = p.values[f"visible.stage{i}.b"].copy()
        x = np.random.default_rng(0).standard_normal((4, 5))
        bv, _ = encode(p, cfg, x, "visible", mode="eval")
        bt, _ = encode(p, cfg, x, "thermal", mode="eval")
        np.testing.assert_array_equal(bv.v_post, bt.v_post)
        np.testing.assert_array_equal(bv.logits_skip, bt.logits_skip)

    def test_stream_pair_takes_a_stack_of_two(self):
        # the pair's rows are a (2, n, D) stack; its matrices are the
        # one-stream encodes' bit for bit
        cfg = small_config()
        p = init_encoder(cfg, 3)
        x = np.random.default_rng(0).standard_normal((2, 4, 5))
        pair, _ = encode(p, cfg, x, MODALITIES, mode="eval")
        for k, mod in enumerate(MODALITIES):
            assert np.array_equal(pair.v_fused_post[k], encode(p, cfg, x[k], mod, mode="eval")[0].v_fused_post)
        for bad in (x.reshape(8, 5), np.concatenate([x, x])):
            with pytest.raises(ValueError, match="does not match"):
                encode(p, cfg, bad, MODALITIES)
        with pytest.raises(ValueError, match="unknown modality"):
            encode(p, cfg, x, list(MODALITIES))

    def test_zero_weights_give_uniform_softmax(self):
        cfg = small_config()
        p = init_encoder(cfg, 0)
        for k in p.values:
            if k.endswith((".W", ".b", ".beta")):
                p.values[k][...] = 0.0
        x = np.random.default_rng(1).standard_normal((3, 5))
        b, _ = encode(p, cfg, x, "visible", mode="eval")
        np.testing.assert_array_equal(b.logits_backbone, np.zeros((3, 3)))

    def test_eval_mode_is_pure(self):
        cfg = small_config()
        p = init_encoder(cfg, 5)
        x = np.random.default_rng(2).standard_normal((4, 5))
        b1, _ = encode(p, cfg, x, "visible", mode="eval")
        b2, _ = encode(p, cfg, x, "visible", mode="eval")
        np.testing.assert_array_equal(b1.v_fused_post, b2.v_fused_post)
        np.testing.assert_array_equal(p.bn_state["head.bn.running_mean"], np.zeros(4))

    def test_train_mode_returns_batch_stats_and_writes_nothing(self):
        # the train step, not encode, folds them into the running stats
        cfg = small_config()
        p = init_encoder(cfg, 5)
        x = np.random.default_rng(2).standard_normal((4, 5))
        b, _ = encode(p, cfg, x, "visible", mode="train")
        for name, v in p.bn_state.items():
            np.testing.assert_array_equal(v, init_encoder(cfg, 5).bn_state[name])
        assert set(b.batch_stats) == set(p.bn_state)
        np.testing.assert_array_equal(b.batch_stats["head.bn.running_mean"], b.v_pre.mean(axis=0))
        np.testing.assert_array_equal(b.batch_stats["mid.bn.running_var"], b.v_fused.var(axis=0))
        assert encode(p, cfg, x, "visible", mode="eval")[0].batch_stats is None

    def test_train_bn_batch_of_one_rejected(self):
        cfg = small_config()
        p = init_encoder(cfg, 0)
        with pytest.raises(ValueError):
            encode(p, cfg, np.ones((1, 5)), "visible", mode="train")

    @pytest.mark.parametrize("mode", ["train", "eval"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_rejected(self, bad, mode):
        # the boundary check: the layers below encode do not check
        cfg = small_config()
        p = init_encoder(cfg, 0)
        x = np.random.default_rng(4).standard_normal((4, 5))
        x[2, 3] = bad
        with pytest.raises(ValueError, match="encode: non-finite input"):
            encode(p, cfg, x, "thermal", mode=mode)
        np.testing.assert_array_equal(p.bn_state["head.bn.running_mean"], np.zeros(4))

    def test_fused_dims(self):
        for fusion, dim in (("cat", 8), ("sum", 4)):
            cfg = small_config(fusion=fusion)
            p = init_encoder(cfg, 0)
            x = np.random.default_rng(3).standard_normal((4, 5))
            b, _ = encode(p, cfg, x, "visible", mode="eval")
            assert b.v_fused_post.shape == (4, dim)


BUNDLE_FIELDS = ("v_pre", "v_post", "logits_backbone", "v_fused", "v_fused_post", "logits_skip")
LOSS_FIELDS = ("softmax", "backbone", "cross", "intra", "dual", "total")


def matrix(value, k, like):
    """Matrix k of a stacked value, or the value itself when, like `like`,
    it is unstacked."""
    return value[k] if np.ndim(value) > np.ndim(like) else value


class TestStackedForward:
    """`encode` and `total_loss_forward` on a stack of parameter values, as
    the full-model finite-difference sweep calls them, give each value's own
    outputs bit for bit."""

    @pytest.mark.parametrize("mfi,fusion,backbone", [
        (True, "cat", True), (True, "sum", True), (False, "cat", True), (True, "cat", False)])
    def test_stack_equals_per_point_calls(self, mfi, fusion, backbone):
        # stream, head and mid weights and vectors, through one-stream
        # encodes and through the pair encode of the train step: a stream's
        # stack leaves the other stream's value unstacked, and a shared
        # array's stack gets a stream axis
        rng = np.random.default_rng(90)
        cfg = small_config(mfi=mfi, fusion=fusion, backbone=backbone)
        params = init_encoder(cfg, 21)
        for k in params.values:
            params.values[k] = params.values[k] + 0.05 * rng.standard_normal(params.values[k].shape)
        P, K, m = 3, 2, 7
        x = rng.standard_normal((2 * P * K, cfg.input_dim))
        targets = loss_targets(np.tile(np.repeat(np.arange(P), K), 2), P, K)
        loss_cfg = LossConfig(rho=0.5, lambda1=0.1, lambda2=2.0)
        names = ["visible.stage1.W", "thermal.stage2.b", "head.fc.W", "head.bn.gamma",
                 "head.cls.b", "mid.fc.W", "mid.bn.beta", "mid.cls.W"]

        def forward(values, mode):
            trial = EncoderParams(values={**params.values, **values}, bn_state=params.bn_state)
            bundles = [encode(trial, cfg, x[:P * K], "visible", mode=mode)[0],
                       encode(trial, cfg, x[P * K:], "thermal", mode=mode)[0]]
            return bundles, total_loss_forward(stack_streams(*bundles), targets, loss_cfg, cfg)[0]

        def pair_forward(values, mode):
            values = {n: v if n.startswith(MODALITIES) else v[:, None] for n, v in values.items()}
            trial = EncoderParams(values={**params.values, **values}, bn_state=params.bn_state)
            pair = encode(trial, cfg, x.reshape(2, P * K, -1), MODALITIES, mode=mode)[0]
            return ([stream_of(pair, s) for s in range(2)],
                    total_loss_forward(pair, targets, loss_cfg, cfg)[0])

        for name in (n for n in names if n in params.values):
            value = params.values[name]
            stack = value + 0.1 * rng.standard_normal((m,) + value.shape)
            stacked = {name: stack[:, None] if value.ndim == 1 else stack}
            for mode in ("train", "eval"):
                for bundles, breakdown in (forward(stacked, mode), pair_forward(stacked, mode)):
                    for k in range(m):
                        want_bundles, want = forward({name: stack[k]}, mode)
                        for got, one in zip(bundles, want_bundles):
                            for field in BUNDLE_FIELDS:
                                a, b = getattr(got, field), getattr(one, field)
                                assert (a is None) == (b is None), field
                                if b is not None:
                                    assert np.array_equal(matrix(a, k, b), b), (name, mode, field)
                            for stat, b in (one.batch_stats or {}).items():
                                assert np.array_equal(matrix(got.batch_stats[stat], k, b), b), stat
                        for field in LOSS_FIELDS:
                            b = getattr(want, field)
                            assert matrix(getattr(breakdown, field), k, b) == b, (name, mode, field)


def stream_of(pair, s):
    """Stream s's outputs of a pair encode, each behind its stack axes."""
    fields = {f: None if getattr(pair, f) is None else getattr(pair, f)[..., s, :, :]
              for f in BUNDLE_FIELDS}
    stats = {k: v[..., s, :] for k, v in (pair.batch_stats or {}).items()}
    return FeatureBundle(**fields, batch_stats=stats or None)


class TestTestFeature:
    def test_backbone_selection(self):
        cfg = small_config(mfi=False)
        bundle = FeatureBundle(v_pre=None, v_post=np.array([[3.0, 4.0, 0.0, 0.0]]),
                               logits_backbone=None)
        np.testing.assert_allclose(select_feature(bundle, cfg), [[0.6, 0.8, 0.0, 0.0]], atol=1e-12)

    def test_skip_selection_sentinel(self):
        cfg = small_config(mfi=True)
        sentinel = np.zeros((1, 8))
        sentinel[0, 0] = 2.0
        bundle = FeatureBundle(v_pre=None, v_post=np.ones((1, 4)),
                               logits_backbone=None, v_fused_post=sentinel)
        out = select_feature(bundle, cfg)
        assert out.shape == (1, 8)
        assert out[0, 0] == 1.0

    def test_unit_norm(self):
        cfg = small_config(mfi=False)
        rng = np.random.default_rng(4)
        bundle = FeatureBundle(v_pre=None, v_post=rng.standard_normal((10, 4)) + 0.3,
                               logits_backbone=None)
        np.testing.assert_allclose(np.linalg.norm(select_feature(bundle, cfg), axis=1), 1.0, atol=1e-9)


def model_loss(params, cfg, loss_cfg, x, labels, P, K):
    bd, grads = train_step_reference(copy.deepcopy(params), cfg, loss_cfg, x, loss_targets(labels, P, K))
    return bd.total, grads


class TestFullModelGradients:
    @pytest.mark.parametrize("mfi,fusion", [(True, "cat"), (True, "sum"), (False, "cat")])
    def test_all_parameters_match_finite_differences(self, mfi, fusion):
        rng = np.random.default_rng(99)
        cfg = small_config(mfi=mfi, fusion=fusion)
        P, K = 3, 2
        params = init_encoder(cfg, 11)
        for k in params.values:
            params.values[k] = params.values[k] + 0.05 * rng.standard_normal(params.values[k].shape)
        x = rng.standard_normal((2 * P * K, cfg.input_dim))
        labels = np.concatenate([np.repeat(np.arange(P), K)] * 2)
        loss_cfg = LossConfig(rho=0.5, lambda1=0.1, lambda2=2.0)

        _, grads = model_loss(params, cfg, loss_cfg, x, labels, P, K)
        for name in sorted(params.values):
            def f(v, name=name):
                trial = copy.deepcopy(params)
                trial.values[name] = v
                return model_loss(trial, cfg, loss_cfg, x, labels, P, K)[0]

            fd = finite_diff_grad(per_point(f), params.values[name])
            assert max_relative_error(grads[name], fd) < 1e-4, name


class TestSharedHeadAccumulation:
    def test_mixed_batch_gradient_is_sum_of_subbatches(self):
        # eval-mode BN removes batch-statistic coupling between sub-batches
        cfg = small_config()
        params = init_encoder(cfg, 13)
        rng = np.random.default_rng(14)
        xv = rng.standard_normal((4, 5))
        xt = rng.standard_normal((4, 5))

        def head_grads(x, modality):
            b, cache = encode(params, cfg, x, modality, mode="eval")
            g = BundleGrads(
                d_v_post=np.ones_like(b.v_post),
                d_logits_backbone=np.ones_like(b.logits_backbone),
                d_v_fused_post=np.ones_like(b.v_fused_post),
                d_logits_skip=np.ones_like(b.logits_skip),
            )
            return encode_backward(params, cfg, cache, g)

        gv = head_grads(xv, "visible")
        gt = head_grads(xt, "thermal")
        combined = zero_grads(params)
        for x, modality in ((xv, "visible"), (xt, "thermal")):
            b, cache = encode(params, cfg, x, modality, mode="eval")
            g = BundleGrads(
                d_v_post=np.ones_like(b.v_post),
                d_logits_backbone=np.ones_like(b.logits_backbone),
                d_v_fused_post=np.ones_like(b.v_fused_post),
                d_logits_skip=np.ones_like(b.logits_skip),
            )
            encode_backward(params, cfg, cache, g, out=combined)
        for name in combined:
            if name.startswith(("head.", "mid.")):
                np.testing.assert_allclose(combined[name], gv[name] + gt[name], atol=1e-12)
