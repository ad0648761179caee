"""Two-stream dense encoder with a shared head and a mid-level skip-fusion branch.

Each modality owns its Dense+ReLU stage stack; the bottleneck, batchnorm,
and classifiers are shared across modalities. When the skip branch is
enabled, the activation of the tap stage is projected and fused with the
pre-batchnorm bottleneck feature (elementwise sum, or concatenation with
the projected mid feature first).

`encode` alone chooses the model's outputs, a `FeatureBundle`: the
L2-normalized embedding that is ranked and metric-trained (of the fused
skip branch with MFI on, of the backbone with it off), that branch's
classifier logits, and with MFI on the backbone's logits, an auxiliary head.

`encode` broadcasts over leading stack axes, as the layers in `numerics`
do: any parameter array may be a stack of values (a vector as (m, 1, d)),
and then every output from the first layer it enters is a stack, each
matrix bit-identical to an encode with that one value. `encode` writes to
nothing; train mode returns the batch statistics, and the caller folds
them into the running stats.

The stream pair `MODALITIES` encodes both streams' rows in one call as a
(2, n, D) stack, visible first, through (2, ...) stacks of the stream
stages' weights; each output matrix equals its one-stream encode bit for
bit, and `encode_backward` takes the stack back in one call.
"""

import math
from dataclasses import dataclass

import numpy as np

from .config import ConfigError, allocating
from .numerics import (
    batchnorm_backward,
    batchnorm_forward,
    dense_backward,
    dense_forward,
    dense_param_grads,
    l2_normalize_backward,
    l2_normalize_forward,
    relu_backward,
    relu_forward,
)

MODALITIES = ("visible", "thermal")


@dataclass(frozen=True)
class EncoderConfig:
    input_dim: int
    num_classes: int
    stage_dims: tuple = (64, 64, 64)
    tap_stage: int = 3
    d: int = 1024
    fusion: str = "cat"
    mfi_enabled: bool = True
    backbone_loss_enabled: bool = True
    bn_epsilon: float = 1e-5
    bn_momentum: float = 0.1

    def __post_init__(self):
        if self.input_dim < 1 or self.d < 1:
            raise ConfigError("EncoderConfig: dims must be >= 1")
        if self.num_classes < 2 and self.num_classes != 0:
            raise ConfigError("EncoderConfig: num_classes must be >= 2, or 0 to infer from data")
        if not self.stage_dims or any(s < 1 for s in self.stage_dims):
            raise ConfigError("EncoderConfig: stage_dims must be positive")
        if not 1 <= self.tap_stage <= len(self.stage_dims):
            raise ConfigError("EncoderConfig: tap_stage out of range")
        if self.fusion not in ("sum", "cat"):
            raise ConfigError("EncoderConfig: fusion must be 'sum' or 'cat'")
        if not 0.0 < self.bn_epsilon < math.inf:
            raise ConfigError(f"EncoderConfig: bn_epsilon must be a finite number > 0, got {self.bn_epsilon}")
        if not 0.0 < self.bn_momentum <= 1.0:
            raise ConfigError(f"EncoderConfig: bn_momentum must lie in (0, 1], got {self.bn_momentum}")

    @property
    def fused_dim(self):
        return 2 * self.d if self.fusion == "cat" else self.d


@dataclass
class EncoderParams:
    """Trainable arrays by name, non-trainable batchnorm running stats, and
    optionally each stream array pair's (2, ...) stack, a view of `values`."""

    values: dict
    bn_state: dict
    stream_stacks: dict | None = None


@dataclass
class FeatureBundle:
    """Batched encoder outputs: (n, ·) matrices of one stream's rows, or a
    pair encode's (..., 2, n, ·) stacks of both streams', visible first."""

    embedding: np.ndarray
    logits: np.ndarray
    backbone_logits: np.ndarray | None = None
    # train mode: each batchnorm's batch mean and variance, by the name of
    # the running stat it folds into
    batch_stats: dict | None = None


def _glorot(rng, fan_in, fan_out):
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=(fan_in, fan_out))


def param_shapes(config):
    """(trainable arrays, batchnorm running stats): each a name -> shape
    dict, in the order `init_encoder` fills them. Nothing is allocated."""
    values, bn_state = {}, {}
    dims = (config.input_dim,) + tuple(config.stage_dims)
    for mod in MODALITIES:
        for i in range(1, len(dims)):
            values[f"{mod}.stage{i}.W"] = dims[i - 1:i + 1]
            values[f"{mod}.stage{i}.b"] = dims[i:i + 1]
    branches = [("head", dims[-1], config.d)]
    if config.mfi_enabled:
        branches.append(("mid", dims[config.tap_stage], config.fused_dim))
    for branch, in_dim, bn_dim in branches:
        values[f"{branch}.fc.W"] = (in_dim, config.d)
        values[f"{branch}.fc.b"] = (config.d,)
        values[f"{branch}.bn.gamma"] = values[f"{branch}.bn.beta"] = (bn_dim,)
        values[f"{branch}.cls.W"] = (bn_dim, config.num_classes)
        values[f"{branch}.cls.b"] = (config.num_classes,)
        bn_state[f"{branch}.bn.running_mean"] = bn_state[f"{branch}.bn.running_var"] = (bn_dim,)
    return values, bn_state


def init_encoder(config, seed):
    """Scaled-uniform Dense weights, drawn in `param_shapes` order; zero
    biases; unit/zero batchnorm affine and running variance/mean."""
    rng = np.random.default_rng(seed)

    def fill(name, shape):
        if name.endswith(".W"):
            return _glorot(rng, *shape)
        return (np.ones if name.endswith((".gamma", ".running_var")) else np.zeros)(shape)

    with allocating("EncoderConfig"):
        values, bn_state = ({name: fill(name, shape) for name, shape in section.items()}
                            for section in param_shapes(config))
    return EncoderParams(values=values, bn_state=bn_state)


def fuse(v_mid, v_pre, mode):
    """sum: elementwise addition of equal-shaped matrices; cat:
    concatenation with the mid feature first. Leading stack axes broadcast."""
    v_mid = np.asarray(v_mid, dtype=np.float64)
    v_pre = np.asarray(v_pre, dtype=np.float64)
    if mode == "sum":
        if v_mid.shape[-2:] != v_pre.shape[-2:]:
            raise ValueError("fuse: sum requires equal dims")
        return v_mid + v_pre
    if mode == "cat":
        lead = {v_mid.shape[:-2], v_pre.shape[:-2]}
        if len(lead) > 1:  # an unstacked matrix joins every matrix of a stack
            shape = np.broadcast_shapes(*lead)
            v_mid, v_pre = (np.broadcast_to(v, shape + v.shape[-2:]) for v in (v_mid, v_pre))
        return np.concatenate([v_mid, v_pre], axis=-1)
    raise ValueError(f"fuse: unknown mode {mode!r}")


def _stream_array(params, modality, key):
    """Array `key` (a name after the stream prefix) of one stream, or the pair's
    stack of it from `stream_stacks`, or built, visible first and a vector read
    as a row: (2, ...) of two values, (m, 2, ...) of a stack of m and a value."""
    if modality != MODALITIES:
        return params.values[f"{modality}.{key}"]
    if params.stream_stacks is not None:
        return params.stream_stacks[key]
    v, t = (np.atleast_2d(params.values[f"{mod}.{key}"]) for mod in MODALITIES)
    stack = np.empty(np.broadcast_shapes(v.shape[:-2], t.shape[:-2]) + (2,) + v.shape[-2:])
    stack[..., 0, :, :], stack[..., 1, :, :] = v, t
    return stack


def encode(params, config, x, modality, mode="train"):
    """Run one modality's rows through its stream and the shared layers, or
    the stream pair `MODALITIES`' rows as a (2, n, D) stack, visible first.

    Returns (FeatureBundle, cache). Train mode uses batch statistics in the
    batchnorm layers and returns them in `FeatureBundle.batch_stats`; eval
    mode reads the running stats. Neither changes `params`. Non-finite
    input is rejected here, since the layers themselves do not check.
    """
    pair = modality == MODALITIES
    if not pair and modality not in MODALITIES:
        raise ValueError(f"encode: unknown modality {modality!r}")
    if mode not in ("train", "eval"):
        raise ValueError(f"encode: unknown mode {mode!r}")
    x = np.asarray(x, dtype=np.float64)
    if x.ndim < 2 or x.shape[-1] != config.input_dim or (pair and x.shape[:-2] != (2,)):
        raise ValueError(f"encode: input shape {x.shape} does not match input_dim {config.input_dim}")
    if not np.all(np.isfinite(x)):
        raise ValueError("encode: non-finite input")
    train = mode == "train"
    v = params.values

    h = x
    stage_caches = []
    tap = None
    for i in range(1, len(config.stage_dims) + 1):
        z, dcache = dense_forward(h, _stream_array(params, modality, f"stage{i}.W"),
                                  _stream_array(params, modality, f"stage{i}.b"))
        h, rcache = relu_forward(z)
        stage_caches.append((dcache, rcache))
        if i == config.tap_stage:
            tap = h

    batch_stats = {} if train else None

    def top(branch, x):  # a branch's batchnorm, then its classifier
        post, bn_cache, stats = batchnorm_forward(
            x, v[f"{branch}.bn.gamma"], v[f"{branch}.bn.beta"],
            params.bn_state[f"{branch}.bn.running_mean"], params.bn_state[f"{branch}.bn.running_var"],
            eps=config.bn_epsilon, train=train)
        if train:
            batch_stats.update(zip((f"{branch}.bn.running_mean", f"{branch}.bn.running_var"), stats))
        logits, cls_cache = dense_forward(post, v[f"{branch}.cls.W"], v[f"{branch}.cls.b"])
        return post, logits, bn_cache, cls_cache

    v_pre, head_fc_cache = dense_forward(h, v["head.fc.W"], v["head.fc.b"])
    feature, logits, head_bn_cache, head_cls_cache = top("head", v_pre)
    backbone_logits = mid_caches = None
    if config.mfi_enabled:
        backbone_logits = logits
        v_mid, mid_fc_cache = dense_forward(tap, v["mid.fc.W"], v["mid.fc.b"])
        feature, logits, mid_bn_cache, mid_cls_cache = top("mid", fuse(v_mid, v_pre, config.fusion))
        mid_caches = (mid_fc_cache, mid_bn_cache, mid_cls_cache)
    embedding, l2_cache = l2_normalize_forward(feature)
    cache = (modality, stage_caches, head_fc_cache, head_bn_cache, head_cls_cache, mid_caches, l2_cache)
    return FeatureBundle(embedding, logits, backbone_logits, batch_stats), cache


def zero_grads(params):
    return {k: np.zeros_like(v) for k, v in params.values.items()}


def encode_backward(params, config, cache, grads, out=None):
    """Backpropagate BundleGrads through one encode call.

    Accumulates into `out` (a name -> array dict covering every trainable
    parameter) and returns it; the input gradient, which nothing reads, is
    not formed. Each shared array gets the visible matrix's gradient, then
    the thermal's, as two one-stream calls add them. Without
    `d_backbone_logits`, MFI's head classifier and batchnorm are skipped."""
    modality, stage_caches, head_fc_cache, head_bn_cache, head_cls_cache, mid_caches, l2_cache = cache
    pair = modality == MODALITIES
    streams = MODALITIES if pair else (modality,)
    if out is None:
        out = zero_grads(params)

    def add(grad, *names):  # one name per stream, or a shared array's one name for both
        if pair:
            out[names[0]] += grad[0]  # visible first
            out[names[-1]] += grad[1]
        else:
            out[names[0]] += grad

    def top(branch, cls_cache, bn_cache, d_logits, d_post=0.0):
        # a branch's classifier, then its batchnorm: the batchnorm input's gradient
        d, dw, db = dense_backward(cls_cache, d_logits)
        add(dw, f"{branch}.cls.W")
        add(db, f"{branch}.cls.b")
        d, dgamma, dbeta = batchnorm_backward(bn_cache, d + d_post)
        add(dgamma, f"{branch}.bn.gamma")
        add(dbeta, f"{branch}.bn.beta")
        return d

    d_feature = l2_normalize_backward(l2_cache, grads.d_embedding)
    d_tap = None
    if not config.mfi_enabled:
        d_v_pre = top("head", head_cls_cache, head_bn_cache, grads.d_logits, d_feature)
    else:
        mid_fc_cache, mid_bn_cache, mid_cls_cache = mid_caches
        d_fused = top("mid", mid_cls_cache, mid_bn_cache, grads.d_logits, d_feature)
        if config.fusion == "sum":
            d_v_mid = d_v_pre = d_fused
        else:
            d_v_mid, d_v_pre = d_fused[..., :config.d], d_fused[..., config.d:]
        d_tap, dw, db = dense_backward(mid_fc_cache, d_v_mid)
        add(dw, "mid.fc.W")
        add(db, "mid.fc.b")
        if grads.d_backbone_logits is not None:
            d_v_pre = top("head", head_cls_cache, head_bn_cache, grads.d_backbone_logits) + d_v_pre

    d_h, dw, db = dense_backward(head_fc_cache, d_v_pre)
    add(dw, "head.fc.W")
    add(db, "head.fc.b")

    for i in range(len(config.stage_dims), 0, -1):
        dcache, rcache = stage_caches[i - 1]
        if d_tap is not None and i == config.tap_stage:
            d_h = d_h + d_tap
        dz = relu_backward(rcache, d_h)
        d_h, dw, db = dense_backward(dcache, dz) if i > 1 else (None, *dense_param_grads(dcache, dz))
        add(dw, *(f"{mod}.stage{i}.W" for mod in streams))
        add(db, *(f"{mod}.stage{i}.b" for mod in streams))
    return out


def test_feature(bundle, config):
    """The bundle's embedding, which `encode` chose; `config` is not read."""
    return bundle.embedding
