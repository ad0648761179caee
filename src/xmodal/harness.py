"""Training loop, checkpoints, ablation runner, and gradient verification."""

import hashlib
import math
import time
import warnings
import zlib
from dataclasses import asdict, dataclass, field, is_dataclass, replace

import numpy as np

from . import losses as L
from .config import ConfigError, build_config, json_text, read_json
from .data import (
    batches_per_epoch,
    generate_synthetic,
    sample_pk_batch,
    split_identity_disjoint,
)
from .encoder import (
    MODALITIES,
    EncoderConfig,
    EncoderParams,
    encode,
    encode_backward,
    init_encoder,
    param_shapes,
)
from .evaluation import EvalProtocol, evaluate
from .losses import LabeledBatch, LossConfig
from .numerics import (
    DIST_BLOCK_BYTES,
    AdamState,
    adam_step,
    batchnorm_backward,
    batchnorm_forward,
    dense_backward,
    dense_forward,
    finite_diff_entries,
    finite_diff_grad,
    l2_normalize_backward,
    l2_normalize_forward,
    max_relative_error,
    relative_errors,
    relu_backward,
    relu_forward,
    softmax_cross_entropy,
    softmax_cross_entropy_forward,
)

CHECKPOINT_HEADER = "xmodal-checkpoint v1"
ABLATION_ARMS = ("baseline", "DMTL", "MFI", "EDFL")


@dataclass(frozen=True)
class TrainConfig:
    encoder: EncoderConfig
    loss: LossConfig = field(default_factory=LossConfig)
    P: int = 8
    K: int = 4
    epochs: int = 30
    freeze_stage_epochs: int = 5
    learning_rate: float = 1e-4
    lr_decay_factor: float = 0.1
    lr_decay_epoch: int = 15
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 1:
            raise ConfigError("TrainConfig: epochs must be >= 1")
        if not 0.0 <= self.learning_rate < math.inf:
            raise ConfigError(f"TrainConfig: learning_rate must be a finite number >= 0, "
                              f"got {self.learning_rate}")
        if not 0.0 < self.lr_decay_factor <= 1.0:
            raise ConfigError("TrainConfig: lr_decay_factor must lie in (0, 1]")
        if self.freeze_stage_epochs >= self.epochs:
            raise ConfigError("TrainConfig: freeze_stage_epochs must be < epochs")
        if self.P < 2 or self.K < 1:
            raise ConfigError("TrainConfig: need P >= 2 and K >= 1")
        for name in ("freeze_stage_epochs", "lr_decay_epoch", "seed"):
            if getattr(self, name) < 0:
                raise ConfigError(f"TrainConfig: {name} must be >= 0, got {getattr(self, name)}")


@dataclass
class RunReport:
    config_echo: dict
    seed: int
    epoch_records: list = field(default_factory=list)
    wall_clock_seconds: float = 0.0

    def to_dict(self):
        # no timing, so that reports for identical (data, config, seed)
        # inputs are byte-identical
        return {
            "config": self.config_echo,
            "seed": self.seed,
            "epochs": self.epoch_records,
        }

    def to_json(self):
        return json_text(self.to_dict())

    def to_text(self):
        lines = []
        if self.epoch_records:
            cols = ["epoch", "lr", "L_softmax", "L_backbone", "L_c_tri", "L_i_tri", "L_d_tri", "L_all"]
            lines.append("  ".join(f"{c:>10}" for c in cols))
            for rec in self.epoch_records:
                row = [f"{rec['epoch']:>10d}", f"{rec['lr']:>10.2e}"]
                row += [f"{rec[c]:>10.4f}" for c in cols[2:]]
                lines.append("  ".join(row))
        lines.append(f"seed: {self.seed}  wall-clock: {self.wall_clock_seconds:.2f}s")
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------

def _train_step(params, enc_cfg, loss_cfg, x, targets, out=None):
    """(LossBreakdown, gradient of every parameter) of one train step on the
    rows x of a PK batch, the visible half then the thermal half, added
    into `out` (name -> array) if given. The two halves are encoded as
    the stream pair's (2, n, D) stack, by one forward and one backward.

    It folds each stream's batch statistics into the running stats in
    `params.bn_state`, in place, visible first:
    running = (1 - momentum) * running + momentum * batch.
    """
    bundle, cache = encode(params, enc_cfg, x.reshape(2, -1, x.shape[-1]), MODALITIES)
    momentum = enc_cfg.bn_momentum
    for name, stats in bundle.batch_stats.items():
        running = params.bn_state[name]
        for batch in stats:  # one row per stream
            running *= 1.0 - momentum
            running += momentum * batch
    breakdown, loss_cache = L.total_loss_forward(bundle, targets, loss_cfg, enc_cfg)
    grads = encode_backward(params, enc_cfg, cache, L.total_loss_backward(loss_cache), out=out)
    return breakdown, grads


def train(dataset, config):
    """Single-threaded deterministic training run. The parameters are one flat
    vector in `param_shapes` order, `params.values` its views. The vector is
    led by the visible stream's arrays, then the thermal stream's in the same
    order, so that every stream pair's (2, ...) stack is a view of it as well."""
    if len(dataset.eligible) < config.P:
        raise ConfigError(f"P {config.P} exceeds the {len(dataset.eligible)} training identities "
                          "with rows in both modalities")
    # a P*K beyond the row count only draws rows again, while the loss's
    # (2PK, 2PK) pools grow with its square: refused before any is built
    if config.P * config.K > len(dataset):
        raise ConfigError(f"P {config.P} times K {config.K} exceeds the {len(dataset)} rows of the dataset")
    idents = np.unique(dataset.identity)
    enc_cfg = config.encoder
    if enc_cfg.num_classes == 0:  # infer from the data
        enc_cfg = replace(enc_cfg, num_classes=len(idents))
    if enc_cfg.num_classes != len(idents):
        raise ConfigError(
            f"num_classes {enc_cfg.num_classes} does not match {len(idents)} training identities")
    if enc_cfg.input_dim != dataset.input_dim:
        raise ConfigError(
            f"input_dim {enc_cfg.input_dim} does not match dataset dim {dataset.input_dim}")

    start = time.perf_counter()
    rng = np.random.default_rng(config.seed)
    params = init_encoder(enc_cfg, config.seed)
    state = AdamState(params.values, learning_rate=config.learning_rate)
    theta = np.concatenate([v.reshape(-1) for v in params.values.values()])
    params.values = state.views(theta)
    stages = slice(0, sum(v.size for k, v in params.values.items() if k.startswith(MODALITIES)))
    streams = theta[stages].reshape(2, -1)  # visible, thermal: the same arrays in the same order
    step_params = replace(params, stream_stacks={
        name.partition(".")[2]: streams[:, span].reshape((2, -1) + shape[-1:])
        for name, (span, shape) in state.slices.items() if name.startswith("visible.")})
    grad = np.empty_like(theta)
    grads = state.views(grad)
    init_stages = theta[stages].copy()
    n_batches = batches_per_epoch(dataset, config.P, config.K)

    report = RunReport(config_echo=asdict(replace(config, encoder=enc_cfg)), seed=config.seed)
    # every sampled batch is in pk_layout, so the pools depend on (P, K) alone
    targets = L.loss_targets(L.pk_layout(config.P, config.K)[0], config.P, config.K)
    for epoch in range(1, config.epochs + 1):
        lr = config.learning_rate
        if epoch > config.lr_decay_epoch:
            lr *= config.lr_decay_factor
        state.learning_rate = lr
        frozen = epoch <= config.freeze_stage_epochs
        sums = None
        for _ in range(n_batches):
            batch = sample_pk_batch(dataset, config.P, config.K, rng)
            grad.fill(0.0)
            breakdown, _ = _train_step(step_params, enc_cfg, config.loss, batch.features,
                                       replace(targets, labels=np.searchsorted(idents, batch.identity)),
                                       out=grads)
            if frozen:
                grad[stages] = 0.0
            adam_step(theta, grad, state)
            values = np.array(list(breakdown.as_dict().values()))
            sums = values if sums is None else sums + values
        rec = {"epoch": epoch, "lr": lr}
        rec.update(zip(breakdown.as_dict(), (sums / n_batches).tolist()))
        report.epoch_records.append(rec)
        if frozen:
            assert np.array_equal(theta[stages], init_stages), "a frozen stage moved"
    report.wall_clock_seconds = time.perf_counter() - start
    return params, enc_cfg, report


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------

def save_checkpoint(params, enc_cfg, path):
    doc = {
        "encoder_config": asdict(enc_cfg),
        "params": {k: {"shape": list(v.shape), "values": v.reshape(-1).tolist()}
                   for k, v in params.values.items()},
        "bn_state": {k: {"shape": list(v.shape), "values": v.reshape(-1).tolist()}
                     for k, v in params.bn_state.items()},
    }
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(CHECKPOINT_HEADER + "\n")
        fh.write(json_text(doc))


def load_checkpoint(path):
    """Parameters and encoder config, validated in full before any use."""
    doc = read_json(path, header=CHECKPOINT_HEADER)
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: expected a JSON object after the header")
    for section in ("encoder_config", "params", "bn_state"):
        if not isinstance(doc.get(section), dict):
            raise ConfigError(f"{path}: missing section {section!r}")
    try:
        enc_cfg = build_config(EncoderConfig, doc["encoder_config"])
    except ConfigError as exc:
        raise ConfigError(f"{path}: encoder_config: {exc}") from None
    shapes, bn_shapes = param_shapes(enc_cfg)
    params = EncoderParams(values=_unpack_section(path, doc, "params", shapes),
                           bn_state=_unpack_section(path, doc, "bn_state", bn_shapes))
    return params, enc_cfg


def _unpack_section(path, doc, section, expected):
    """One checkpoint section as arrays, checked against `expected`, its name
    -> shape dict from `param_shapes`: names, shapes, value types, counts,
    finiteness, and running variances >= 0."""
    stored = doc[section]
    if set(stored) != set(expected):
        raise ConfigError(
            f"{path}: parameter names in {section!r} do not match the stored encoder config "
            f"(missing {sorted(set(expected) - set(stored))}, "
            f"unexpected {sorted(set(stored) - set(expected))})")
    arrays = {}
    for name, want in expected.items():
        key = f"{path}: {section}.{name}"
        entry = stored[name] if isinstance(stored[name], dict) else {}
        shape, values = entry.get("shape"), entry.get("values")
        # JSON reads 8.0 as a float and true as a bool: a shape holds ints,
        # values ints or floats, whose types are tested in one pass
        if (not isinstance(shape, list) or any(type(v) is not int for v in shape)
                or not isinstance(values, list) or not set(map(type, values)) <= {int, float}):
            raise ConfigError(f"{key}: needs a 'shape' list of integers and a flat 'values' list of numbers")
        try:
            values = np.array(values, dtype=np.float64)
        except OverflowError:  # a JSON int beyond float64's range
            raise ConfigError(f"{key}: a value too large for float64") from None
        if tuple(shape) != want:
            raise ConfigError(f"{key}: shape {list(shape)}, the encoder config needs {list(want)}")
        if values.shape != (math.prod(want),):
            raise ConfigError(f"{key}: {values.size} values for shape {list(shape)}, "
                              f"which needs {math.prod(want)}")
        if not np.all(np.isfinite(values)):
            raise ConfigError(f"{key}: non-finite value")
        # training folds only batch variances, each >= 0, into a running variance
        if name.endswith(".running_var") and (values < 0.0).any():
            raise ConfigError(f"{key}: negative running variance")
        arrays[name] = values.reshape(shape)
    return arrays


# ---------------------------------------------------------------------------
# Ablation
# ---------------------------------------------------------------------------

def arm_config(base, arm):
    """The four ablation arms differ only in the MFI branch flag and lambda2:
    the MFI and EDFL arms enable the branch, baseline and MFI set lambda2 to 0."""
    if arm not in ABLATION_ARMS:
        raise ConfigError(f"unknown ablation arm {arm!r}")
    enc = replace(base.encoder, mfi_enabled=arm in ("MFI", "EDFL"))
    loss = base.loss if arm in ("DMTL", "EDFL") else replace(base.loss, lambda2=0.0)
    return replace(base, encoder=enc, loss=loss)


def split_hash(dataset):
    payload = ",".join(str(i) for i in dataset.identities())
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def run_ablation(synth_cfg, base_config, seeds, train_fraction=0.5):
    """Train all four arms per seed on identical data/splits; report rank-1 and mAP."""
    if not seeds:
        raise ConfigError("run_ablation: need at least one seed")
    for seed in seeds:
        if seed < 0:
            raise ConfigError(f"run_ablation: seed must be >= 0, got {seed}")
    per_seed = []
    for seed in seeds:
        scfg = replace(synth_cfg, seed=seed)
        dataset = generate_synthetic(scfg)
        train_ds, test_ds = split_identity_disjoint(dataset, train_fraction, seed)
        seed_rec = {"seed": seed, "split_hash": split_hash(train_ds), "arms": {}}
        for arm in ABLATION_ARMS:
            cfg = replace(arm_config(base_config, arm), seed=seed)
            params, enc_cfg, _ = train(train_ds, cfg)
            # the defaults: visible queries, a thermal multi-shot gallery, one trial
            metrics = evaluate(params, enc_cfg, test_ds, EvalProtocol(seed=seed))
            seed_rec["arms"][arm] = {"rank1": metrics["cmc"]["1"], "map": metrics["map"]}
        per_seed.append(seed_rec)
    table = {"arms": {}, "seeds": list(seeds), "per_seed": per_seed}
    for arm in ABLATION_ARMS:  # each arm's lists, in seed order, read off per_seed
        rank1, maps = ([rec["arms"][arm][key] for rec in per_seed] for key in ("rank1", "map"))
        table["arms"][arm] = {"mean_rank1": float(np.mean(rank1)), "mean_map": float(np.mean(maps)),
                              "per_seed_rank1": rank1, "per_seed_map": maps}
    return table


def ablation_text(table):
    lines = [f"{'arm':>10}  {'mean rank-1':>12}  {'mean mAP':>10}"]
    for arm in ABLATION_ARMS:
        rec = table["arms"][arm]
        lines.append(f"{arm:>10}  {rec['mean_rank1']:>12.4f}  {rec['mean_map']:>10.4f}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Gradient verification
# ---------------------------------------------------------------------------

GRADCHECK_THRESHOLD = 1e-4


def _gradient_error(analytic, f, x):
    """Max relative error of `analytic` against finite differences of f at x;
    f maps a stack of points to their values, as `finite_diff_grad` takes it.

    Entries that fail the two-point check at GRADCHECK_THRESHOLD are
    estimated again with the fourth-order stencil, so that truncation error
    of the central difference on a correct gradient does not read as a
    failure; a wrong gradient fails both estimates.
    """
    fd = finite_diff_grad(f, x)
    failing = np.flatnonzero(relative_errors(analytic, fd) >= GRADCHECK_THRESHOLD)
    if failing.size:
        fd.reshape(-1)[failing] = finite_diff_entries(f, x, failing)
    return max_relative_error(analytic, fd)


def _stacked(points, like):
    """A stack of values of the array `like`, shaped to broadcast against the
    rows: a stack of vectors as (m, 1, d)."""
    return points[:, None] if like.ndim == 1 else points


def _sweep_error(names, values, grads, loss):
    """Worst error, over the arrays values[name] in `names` order, of their
    gradients grads[name] against finite differences of loss(name, stack),
    the loss at a stack of values of that one array, the others as given."""
    worst = 0.0
    for name in names:  # each sweep is made before the next name binds
        v = values[name]
        worst = max(worst, _gradient_error(grads[name], lambda points: loss(name, _stacked(points, v)), v))
    return worst


def _layer_error(forward, backward, args, proj):
    """Worst error, over the arguments of a layer, of its analytic gradient
    of sum(forward(*args)[0] * proj) against finite differences. Each sweep
    calls `forward` once on a stack of values of one argument."""
    _, cache = forward(*args)
    grads = backward(cache, proj)

    def loss(i, stack):
        trial = list(args)
        trial[i] = stack
        # each point's sum runs over its own contiguous block
        return (forward(*trial)[0] * proj).reshape(len(stack), -1).sum(axis=1)

    return _sweep_error(range(len(args)), args, grads if len(args) > 1 else (grads,), loss)


def _check_dense(rng):
    n, din, dout = int(rng.integers(2, 8)), int(rng.integers(1, 8)), int(rng.integers(1, 8))
    x = rng.standard_normal((n, din))
    w = rng.standard_normal((din, dout))
    b = rng.standard_normal(dout)
    proj = rng.standard_normal((n, dout))
    return _layer_error(dense_forward, dense_backward, (x, w, b), proj)


def _check_relu(rng):
    x = rng.standard_normal((int(rng.integers(1, 8)), int(rng.integers(1, 8))))
    x = x + np.sign(x) * 0.05  # keep away from the kink at 0
    proj = rng.standard_normal(x.shape)
    return _layer_error(relu_forward, relu_backward, (x,), proj)


def _check_batchnorm(rng):
    n, d = int(rng.integers(2, 8)), int(rng.integers(1, 8))
    x = rng.standard_normal((n, d))
    gamma = 0.5 + rng.random(d)
    beta = rng.standard_normal(d)
    proj = rng.standard_normal((n, d))

    def forward(xx, gg, bb):
        return batchnorm_forward(xx, gg, bb, np.zeros(d), np.ones(d), train=True)[:2]

    return _layer_error(forward, batchnorm_backward, (x, gamma, beta), proj)


def _check_l2_normalize(rng):
    x = rng.standard_normal((int(rng.integers(1, 8)), int(rng.integers(2, 8))))
    x += np.sign(x) * 0.1
    proj = rng.standard_normal(x.shape)
    return _layer_error(l2_normalize_forward, l2_normalize_backward, (x,), proj)


def _check_softmax(rng):
    n, c = int(rng.integers(1, 8)), int(rng.integers(2, 8))
    logits = rng.standard_normal((n, c))
    labels = rng.integers(0, c, size=n)
    _, grad = softmax_cross_entropy(logits, labels)
    return _gradient_error(grad, lambda v: softmax_cross_entropy_forward(v, labels)[0], logits)


def _stable_pk_features(rng, P, K, dim, rho):
    """Random PK metric batch, in the sampler's `pk_layout`, whose hinge
    terms and mining selections sit safely away from kinks, so finite
    differences are trustworthy."""
    idents, mods = L.pk_layout(P, K)
    return _kink_free(lambda: LabeledBatch(features=rng.standard_normal((2 * P * K, dim)),
                                           identity=idents, modality=mods, P=P, K=K),
                      lambda batch: L.mining_margins(batch, rho), 1e-3, "triplet batch")


def _kink_free(draw, margin, tol, what):
    """draw(), drawn again, up to 50 times, until margin(it) > tol."""
    for _ in range(50):
        instance = draw()
        if margin(instance) > tol:
            return instance
    raise RuntimeError(f"could not build a kink-free {what}")


def _check_triplet(rng, kind):
    P, K = int(rng.integers(2, 4)), int(rng.integers(1, 3))
    dim = int(rng.integers(2, 6))
    rho = 0.5
    batch = _stable_pk_features(rng, P, K, dim, rho)
    if kind == "batch_hard":
        _, grad = L.batch_hard_triplet(batch.features, batch.identity, rho)
    elif kind == "cross":
        _, grad = L.cross_modality_triplet(batch, rho)
    else:
        _, grad = L.intra_modality_triplet(batch, rho)
    pools = L.triplet_pools(batch, kind)
    # triplet_loss evaluates a whole stack of perturbed features in one call
    return _gradient_error(grad, lambda v: L.triplet_loss(v, pools, rho), batch.features)


# The reference model: criterion 6's encoder (25 training identities), tapped
# at stage 2 of 3, on one PK batch of the reference run: 34 418 parameters
REFERENCE_MODEL = {"input_dim": 32, "stage_dims": (64, 64, 64), "d": 64, "num_classes": 25,
                   "P": 8, "K": 4}


def _full_model_setup(rng, mfi, fusion="cat", stage_dims=(6, 5), input_dim=5, d=4,
                      num_classes=3, P=3, K=2):
    cfg = EncoderConfig(input_dim=input_dim, num_classes=num_classes, stage_dims=stage_dims,
                        tap_stage=2, d=d, fusion=fusion, mfi_enabled=mfi,
                        backbone_loss_enabled=True)
    params = init_encoder(cfg, int(rng.integers(0, 2 ** 31)))
    for k in params.values:
        params.values[k] = params.values[k] + 0.05 * rng.standard_normal(params.values[k].shape)
    x = rng.standard_normal((2 * P * K, cfg.input_dim))
    labels = L.pk_layout(P, K)[0]
    loss_cfg = LossConfig(rho=0.5, lambda1=0.1, lambda2=2.0)
    return cfg, params, loss_cfg, x, labels, P, K


def _loss_sweep(params, cfg, loss_cfg, x, targets):
    """`loss(changed)`: `_train_step`'s total loss by the forward steps
    only, with `changed` (name -> a stack of m values, each vector as
    (m, 1, d)) in place of those arrays of `params`: the m losses, from the
    train step's pair encode and one loss call per part of the stack. A
    shared array's stack gets a stream axis, to meet both streams' rows; a
    stream's stack goes into the pair's (m, 2, ...) stack of that array.
    `encode` writes to nothing, so `params` is left as it was.

    A stack is evaluated in parts, so that its memory does not grow with
    its size: each part's intermediates, estimated from one unstacked
    forward's (its encodings, its loss cache and the dual loss's
    (4, 2n, 2n) candidate scores), stay within `DIST_BLOCK_BYTES`.
    """
    halves = x.reshape(2, -1, x.shape[-1])
    encoded = encode(params, cfg, halves, MODALITIES)
    _, loss_cache = L.total_loss_forward(encoded[0], targets, loss_cfg, cfg)
    point_bytes = _array_bytes((encoded, loss_cache)) + targets.offsets.nbytes
    part = max(1, DIST_BLOCK_BYTES // point_bytes)

    def part_loss(changed):
        changed = {name: v if name.startswith(MODALITIES) else v[:, None] for name, v in changed.items()}
        trial = EncoderParams(values={**params.values, **changed}, bn_state=params.bn_state)
        bundle, _ = encode(trial, cfg, halves, MODALITIES)
        return L.total_loss_forward(bundle, targets, loss_cfg, cfg)[0].total

    def loss(changed):
        m = len(next(iter(changed.values())))
        return np.concatenate([part_loss({name: v[start:start + part] for name, v in changed.items()})
                               for start in range(0, m, part)])

    return loss


def _array_bytes(tree):
    """Bytes of the distinct arrays held in nested tuples, lists, dicts and
    dataclasses."""
    found, todo = {}, [tree]
    while todo:
        obj = todo.pop()
        if isinstance(obj, np.ndarray):
            found[id(obj)] = obj.nbytes
        elif isinstance(obj, (tuple, list)):
            todo.extend(obj)
        elif isinstance(obj, dict):
            todo.extend(obj.values())
        elif is_dataclass(obj):
            todo.extend(vars(obj).values())
    return sum(found.values())


def _metric_margins(cfg, params, loss_cfg, x, labels, P, K):
    """Smallest distance of a model instance from a kink: of any ReLU input
    from zero, or of the mined triplets (see `mining_margins`)."""
    bundle, cache = encode(params, cfg, x.reshape(2, -1, x.shape[-1]), MODALITIES)
    # cache[1] holds one (dense cache, relu cache) pair per stage
    relu_margin = min(float(np.min(np.abs(relu_cache[0]))) for _, relu_cache in cache[1])
    feats = bundle.embedding.reshape(x.shape[0], -1)
    batch = LabeledBatch(features=feats, identity=labels, modality=L.pk_layout(P, K)[1], P=P, K=K)
    return min(relu_margin, L.mining_margins(batch, loss_cfg.rho))


def _full_model_instance(rng, mfi, tol, **setup):
    """A `_full_model_setup` instance, drawn again until its ReLU inputs and
    mined triplets are more than `tol` away from kinks: its parameters, the
    gradient of each by `_train_step`, and its `_loss_sweep`."""
    cfg, params, loss_cfg, x, labels, P, K = _kink_free(
        lambda: _full_model_setup(rng, mfi, **setup), lambda inst: _metric_margins(*inst), tol, "model instance")
    targets = L.loss_targets(labels, P, K)
    _, grads = _train_step(params, cfg, loss_cfg, x, targets)
    return params, grads, _loss_sweep(params, cfg, loss_cfg, x, targets)


def _check_full_model(rng, mfi, **setup):
    params, grads, loss = _full_model_instance(rng, mfi, 1e-3, **setup)
    return _sweep_error(sorted(params.values), params.values, grads, lambda name, stack: loss({name: stack}))


# Kink margin of the directional check's instances. Its farthest stencil
# point lies 2h = 2e-5 along a unit direction in 34 418 dimensions;
# over ten reference instances that moved no ReLU input by more than 5e-6.
DIRECTIONAL_KINK_TOL = 1e-4


def _check_directional(rng, fusion="cat"):
    """Worst error, as `_gradient_error` measures it, of the reference
    model's directional derivatives <grad L, u> against central differences
    of L(theta + t u) in t, over three random unit directions u of the
    whole parameter vector.

    The per-entry sweep of `_check_full_model` is too costly at this size.
    The model is `REFERENCE_MODEL` with the skip branch on, drawn by the
    same ReLU and mining kink guard. Each direction's points theta + t u
    are evaluated as one stack.
    """
    params, grads, loss = _full_model_instance(
        rng, True, DIRECTIONAL_KINK_TOL, fusion=fusion, **REFERENCE_MODEL)
    names = sorted(params.values)
    worst = 0.0
    for _ in range(3):
        u = {name: rng.standard_normal(params.values[name].shape) for name in names}
        norm = np.sqrt(sum(float((u[name] * u[name]).sum()) for name in names))
        u = {name: u[name] / norm for name in names}
        analytic = sum(float((grads[name] * u[name]).sum()) for name in names)

        def f(ts, u=u):
            t = ts[:, :, None]  # (m, 1, 1): each point's step, against every array
            return loss({name: params.values[name] + t * u[name] for name in names})

        worst = max(worst, _gradient_error(np.array([analytic]), f, np.zeros(1)))
    return worst


GRADCHECK_COMPONENTS = {
    "dense": _check_dense,
    "relu": _check_relu,
    "batchnorm": _check_batchnorm,
    "l2_normalize": _check_l2_normalize,
    "softmax_cross_entropy": _check_softmax,
    "batch_hard_triplet": lambda rng: _check_triplet(rng, "batch_hard"),
    "cross_modality_triplet": lambda rng: _check_triplet(rng, "cross"),
    "intra_modality_triplet": lambda rng: _check_triplet(rng, "intra"),
    "full_model_mfi": lambda rng: _check_full_model(rng, True),
    "full_model_backbone": lambda rng: _check_full_model(rng, False),
}

# the full-model sweep touches every parameter, so fewer repeats suffice
FULL_MODEL_TRIALS = 5


def gradcheck(trials=100, seed=0):
    """Finite-difference verification of every backward path.

    Returns (report, all_ok); report maps component name to its max relative
    error and trial count. A component passes below GRADCHECK_THRESHOLD,
    the same bound that picks the entries to estimate again.
    """
    if trials < 1:
        raise ConfigError(f"gradcheck: trials must be >= 1, got {trials}")
    if seed < 0:
        raise ConfigError(f"gradcheck: seed must be >= 0, got {seed}")
    report = {}
    all_ok = True
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for name, check in GRADCHECK_COMPONENTS.items():
            rng = np.random.default_rng([seed, zlib.crc32(name.encode())])
            n = FULL_MODEL_TRIALS if name.startswith("full_model") else trials
            worst = 0.0
            for _ in range(n):
                worst = max(worst, check(rng))
            ok = worst < GRADCHECK_THRESHOLD
            all_ok &= ok
            report[name] = {"max_relative_error": worst, "trials": n, "ok": ok}
    return report, all_ok


def gradcheck_text(report):
    lines = [f"{'component':>24}  {'max rel err':>12}  {'trials':>6}  status"]
    for name, rec in report.items():
        status = "ok" if rec["ok"] else "FAIL"
        lines.append(f"{name:>24}  {rec['max_relative_error']:>12.3e}  {rec['trials']:>6d}  {status}")
    return "\n".join(lines) + "\n"
