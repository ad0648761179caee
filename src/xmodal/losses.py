"""Batch-hard triplet losses over two modalities and the full training loss.

All triplet losses are sums over anchors, each term
[margin + hardest-positive distance - hardest-negative distance]_+,
with hardest pairs mined inside the batch. Gradients flow only through
the selected pair of anchors whose hinge is strictly active. Ties in the
hardest-pair selection break toward the lowest row index.

Every triplet loss is one weighted sum of such hinges, computed by one
forward step (`_hinges_forward`), which keeps each hinge's mined pairs,
and one gradient step (`_hinges_backward`). A single loss is one hinge of
weight 1; the dual loss is the cross hinge plus lambda1 times the intra
hinge. The (loss, grad) functions run both steps; a finite-difference
sweep runs the forward step alone, on candidate pools built once per batch
(`triplet_pools`). A `LabeledBatch` is checked once, when it is built, and
each loss only reads it; `pk_layout` defines a PK batch's rows.

The forward steps broadcast over leading stack axes, as the layers in
`numerics` do: `triplet_loss` and `total_loss_forward` take a stack of
feature matrices or of encoder outputs and return one loss per matrix,
each bit-identical to its own unstacked call; `total_loss_forward` reads
both streams' (..., 2, n, ·) outputs as the (..., 2n, ·) batch, a view.
The gradient steps take one matrix. The full loss reads the bundle as it
is (embedding, logits); the encoder config decides only the backbone term.

Every loss mines in one place, `_certified_picks`. A loss's candidate
pools are a stack of score offsets, a positive and a negative pool per
hinge, in its hinges' order. The picks are made on one GEMM of scores and
each is certified with `gemm_score_bound`; a pick it cannot certify is
made again on exact distances. Either way the picks are those of the exact distances, ties to
the lowest index, and the hinges and gradients use the mined pairs' exact
distances (`pair_distances`).
"""

import math
from dataclasses import dataclass

import numpy as np

from .config import ConfigError
from .numerics import (
    NonFiniteError,
    gemm_score_bound,
    gemm_sq_distances,
    pair_distances,
    softmax_cross_entropy_backward,
    softmax_cross_entropy_forward,
)

VISIBLE = "V"
THERMAL = "T"


@dataclass(frozen=True)
class LossConfig:
    rho: float = 0.5
    lambda1: float = 0.1
    lambda2: float = 2.0

    def __post_init__(self):
        # a chained comparison fails for NaN and for +inf, which a config
        # built in code (not read through json_fields) can hold
        for name in ("rho", "lambda1", "lambda2"):
            if not 0.0 <= getattr(self, name) < math.inf:
                raise ConfigError(f"LossConfig: {name} must be a finite number >= 0, "
                                  f"got {getattr(self, name)}")


def pk_layout(P, K):
    """(identity slot, modality) of each row of a PK batch: row (m*P + p)*K + k
    is pick k of slot p in modality m, the visible half (m = 0) first."""
    return np.tile(np.repeat(np.arange(P), K), 2), np.repeat(np.array([VISIBLE, THERMAL]), P * K)


@dataclass(frozen=True)
class LabeledBatch:
    """A 2*P*K block of rows: K per (identity, modality) for P identities, in
    any row order (the sampler's is `pk_layout`), checked once, when built;
    frozen, so a changed batch is a new one (`dataclasses.replace`), checked."""

    features: np.ndarray
    identity: np.ndarray
    modality: np.ndarray  # entries VISIBLE / THERMAL
    P: int
    K: int

    def __post_init__(self):
        if self.P < 2 or self.K < 1:
            raise ValueError("LabeledBatch: need P >= 2 identities and K >= 1 rows each")
        n = self.features.shape[0]
        if n != 2 * self.P * self.K:
            raise ValueError(f"LabeledBatch: expected {2 * self.P * self.K} rows, got {n}")
        if self.identity.shape != (n,) or self.modality.shape != (n,):
            raise ValueError("LabeledBatch: label arrays must match row count")
        idents = np.unique(self.identity)
        if idents.size != self.P:
            raise ValueError(f"LabeledBatch: expected {self.P} identities, got {idents.size}")
        # modality codes V=0, T=1, any other tag 2: a stray tag leaves some
        # (identity, V/T) count short of K, since there are only 2PK rows
        mod_code = 2 - 2 * (self.modality == VISIBLE) - (self.modality == THERMAL)
        pair = 3 * np.searchsorted(idents, self.identity) + mod_code
        counts = np.bincount(pair, minlength=3 * self.P).reshape(self.P, 3)
        bad = counts[:, :2] != self.K
        if bad.any():
            i, m = np.argwhere(bad)[0]  # row-major: lowest identity first, V before T
            raise ValueError(f"LabeledBatch: identity {idents[i]} has {counts[i, m]} "
                             f"{(VISIBLE, THERMAL)[m]} rows, expected {self.K}")


def _pools(labels, *cands):
    """Each anchor row's positive and negative candidate pools for each
    candidate mask, stacked as (2 * len(cands), n, n) score offsets: 0
    where column j is a candidate of row i, -inf where it is not.

    Row i anchors against the columns where cand[i] holds (a mask of True
    holds everywhere); positives share its label, negatives do not. Every
    row needs at least one of each.
    """
    same = labels[:, None] == labels[None, :]
    pools = np.stack([pool for cand in cands for pool in (cand & same, cand & ~same)])
    empty = ~pools.any(axis=2)
    if empty.any():
        k, i = np.argwhere(empty)[0]  # row-major: the first pool with an empty row
        raise ValueError(f"no {('positive', 'negative')[k % 2]} candidates for anchor row {i}")
    return np.where(pools, 0.0, -np.inf)


def _hinge_backward(features, mined):
    """Gradient of one hinge's loss, from its mined pairs (`_hinges_forward`),
    w.r.t. the full feature matrix: only the strictly active hinges contribute."""
    term, hp, hn, d_pos, d_neg = mined
    active = term > 0.0
    a, p, n = np.flatnonzero(active), hp[active], hn[active]
    # d = sqrt(||f_a - f_b||^2 + eps), so dd/df_a = (f_a - f_b) / d
    gp = (features[a] - features[p]) / d_pos[active][:, None]
    gn = (features[a] - features[n]) / d_neg[active][:, None]
    grad = np.zeros(features.shape)
    grad[a] = gp - gn
    _scatter_pairs(grad, p, n, gp, gn)
    return grad


def _scatter_pairs(grad, p, n, gp, gn):
    """grad[p] -= gp, then grad[n] += gn, with repeated rows accumulated.

    One np.add.at over the flat C-ordered grad, the positive rows' entries
    before the negative rows': each element receives its additions in the
    order of two row-wise np.add.at calls, so the sums are bit-identical.
    """
    d = grad.shape[1]
    rows = np.concatenate([p, n])
    flat = (rows[:, None] * d + np.arange(d)).reshape(-1)
    np.add.at(grad.reshape(-1), flat, np.concatenate([-gp, gn]).reshape(-1))


def mining_margins(batch, rho):
    """Smallest kink distance over plain, cross, and intra minings of a batch.

    Used by gradient checks to reject batches where the piecewise loss is
    (nearly) nondifferentiable: a hinge at zero, or a tie for the hardest
    positive or negative.
    """
    feats = np.asarray(batch.features, dtype=np.float64)
    n = feats.shape[0]
    # index row k pairs every row with row k: the exact distance matrix
    dist = pair_distances(feats, np.broadcast_to(np.arange(n)[:, None], (n, n)))
    pools = triplet_pools(batch, "batch_hard", "cross", "intra")
    # non-candidates read -inf among positives and +inf among negatives
    top = -np.partition(-(dist + pools[0::2]), 1, axis=-1)[..., :2]
    low = np.partition(dist - pools[1::2], 1, axis=-1)[..., :2]
    # with a single candidate the second pick is infinite and drops out
    return float(min(np.min(np.abs(rho + top[..., 0] - low[..., 0])),
                     np.min(top[..., 0] - top[..., 1]), np.min(low[..., 1] - low[..., 0])))


# A positive pool's hardest candidate is the farthest, a negative pool's the
# nearest: the largest of sign * distance.
_PAIR_SIGNS = np.array([1.0, -1.0])[:, None, None]


def _certified_picks(features, offsets):
    """Each row's hardest candidate in each stacked pool, as (picks, redone),
    of shape (..., k, n) for features (..., n, D), one matrix or a stack.

    `offsets` holds the k pools as (k, n, n) score offsets, 0 where a
    column is a candidate of the row and -inf where it is not: a positive
    pool, then a negative pool, for each hinge. Ties go to the lowest
    index, as an argmax on the exact distances picks them. The picks
    are made on GEMM scores by one argmax; a pick is certified when it
    leads the runner-up of its pool by more than twice `gemm_score_bound`
    (of its own matrix's norms) and every score of its row is finite.
    `redone` marks the picks that were not, and were made again on their
    rows' exact distances.
    """
    n, dim = features.shape[-2:]
    k = offsets.shape[0]
    shape = features.shape[:-2] + (k, n)
    # squared norms that overflow make non-finite scores, whose rows the
    # exact path mines, so their overflow and inf - inf are not faults
    with np.errstate(over="ignore", invalid="ignore"):
        scores, sq = gemm_sq_distances(features)
        # each (positive, negative) pair of pools at once
        cand = scores[..., None, None, :, :] * _PAIR_SIGNS + offsets.reshape(-1, 2, n, n)
        rows, flat = cand.reshape(-1, n), cand.reshape(-1)
        picks = rows.argmax(axis=1)
        at = np.arange(0, flat.size, n) + picks
        lead = flat[at]
        flat[at] = -np.inf  # the runner-up is the best of the rest
        lead -= flat[at - picks + rows.argmax(axis=1)]
        # a NaN lead or limit fails the test, and so takes the exact path
        limit = 2.0 * gemm_score_bound(2.0 * sq.max(axis=-1), dim)  # one per matrix
        redone = ~(lead.reshape(shape) > limit[..., None, None])
    if not np.isfinite(scores).all():
        redone |= ~np.isfinite(scores).all(axis=-1)[..., None, :]
    picks = picks.reshape(shape)
    if redone.any():
        # each redone anchor row, as (matrix, row), against its own matrix:
        # an index row that repeats the anchor gives its distance to every row
        stack = features.reshape(-1, n, dim)
        s, p, i = np.nonzero(redone.reshape(-1, k, n))
        anchors, row = np.unique(s * n + i, return_inverse=True)
        a_s, a_i = np.divmod(anchors, n)
        idx = np.broadcast_to(a_i[:, None, None], (a_i.size, 1, n))
        exact = pair_distances(stack[a_s], idx)[:, 0][row]
        masked = np.where(offsets[p, i] == 0.0, exact * _PAIR_SIGNS[p % 2, 0], -np.inf)
        picks.reshape(-1, k, n)[s, p, i] = masked.argmax(axis=1)
    return picks, redone


def _hinges_forward(features, offsets, weights, rho):
    """Forward step of every triplet loss: the weighted sum of batch-hard
    hinges, one per (positive, negative) pair of the stacked pools
    `offsets` (`triplet_pools`), with one weight per hinge.

    Each hinge sums [rho + hardest-positive distance - hardest-negative
    distance]_+ over the anchor rows. `features` is one (n, D) matrix,
    whose losses are floats, or a stack of them over leading axes, whose
    losses are arrays over those axes; each of their sums is the one sum of
    a single row vector. Returns (loss, the hinges' own losses, cache for
    `_hinges_backward`); the cache keeps each hinge's mined pairs.
    """
    picks, _ = _certified_picks(features, offsets)
    dist = pair_distances(features, picks)
    losses, mined = [], []
    for k in range(0, offsets.shape[0], 2):
        d_pos, d_neg = dist[..., k, :], dist[..., k + 1, :]
        term = rho + d_pos - d_neg
        loss = np.maximum(term, 0.0).sum(axis=-1)
        losses.append(float(loss) if loss.ndim == 0 else loss)
        mined.append((term, picks[..., k, :], picks[..., k + 1, :], d_pos, d_neg))
    # 1.0 * x is exact: a single loss is its hinge's sum, bit for bit
    loss = weights[0] * losses[0]
    for w, hinge in zip(weights[1:], losses[1:], strict=True):
        loss += w * hinge
    return loss, tuple(losses), (features, weights, mined)


def _hinges_backward(cache):
    """Gradient step of `_hinges_forward`'s loss w.r.t. one feature matrix:
    the hinges' gradients, weighted and summed in hinge order."""
    features, weights, mined = cache
    grad = _hinge_backward(features, mined[0])
    grad *= weights[0]  # in place, as the sums below: no full-size copy
    for w, hinge in zip(weights[1:], mined[1:]):
        grad += w * _hinge_backward(features, hinge)
    return grad


def _triplet(features, pools, rho):
    """(loss, grad) of the one hinge over `pools`: the forward step, then the gradient step."""
    loss, _, cache = _hinges_forward(np.asarray(features, dtype=np.float64), pools, (1.0,), rho)
    return loss, _hinges_backward(cache)


def batch_hard_triplet(features, labels, rho):
    """Plain batch-hard triplet loss: every row anchors against the whole batch."""
    labels = np.asarray(labels)
    if labels.shape != np.shape(features)[:1]:
        raise ValueError("batch_hard_triplet: one label per feature row required")
    if np.unique(labels).size < 2:
        raise ValueError("batch_hard_triplet: need at least 2 identities")
    return _triplet(features, _pools(labels, True), rho)


def cross_modality_triplet(batch, rho):
    """Bi-directional cross-modality loss: anchors in one modality, pool in the other."""
    return _triplet(batch.features, triplet_pools(batch, "cross"), rho)


def intra_modality_triplet(batch, rho):
    """Per-modality batch-hard loss, summed over the two modalities."""
    return _triplet(batch.features, triplet_pools(batch, "intra"), rho)


def triplet_pools(batch, *kinds):
    """Checked pools of the triplet hinges `kinds` over the rows of `batch`,
    stacked in the order given as the (2 * len(kinds), n, n) score offsets
    `_certified_picks` takes: a positive and a negative pool per hinge.

    A kind names a loss's candidates: "batch_hard" the whole batch, "cross"
    the rows of the other modality, "intra" those of the anchor's own. The
    pools are built here, once, so that `triplet_loss` can evaluate a loss
    at many feature matrices for the same rows, as a finite-difference
    sweep does; the dual loss takes the "cross" and "intra" pools.
    """
    visible = batch.modality == VISIBLE  # a checked row that is not VISIBLE is THERMAL
    same = visible[:, None] == visible[None, :]
    masks = {"batch_hard": True, "cross": ~same, "intra": same}
    for kind in kinds:
        if kind not in masks:
            raise ValueError(f"triplet_pools: unknown kind {kind!r}")
    return _pools(batch.identity, *(masks[kind] for kind in kinds))


def triplet_loss(features, pools, rho):
    """Forward step alone: the loss value of the triplet loss whose checked
    pools (`triplet_pools`, one kind) are given, with no gradient.

    `features` is one (n, D) matrix, whose loss is a float, or a stack of
    them over leading axes, whose losses come as an array over those axes,
    each equal to the matrix's own loss bit for bit. A finite-difference
    sweep evaluates all its points in one call.
    """
    return _hinges_forward(np.asarray(features, dtype=np.float64), pools, (1.0,), rho)[0]


def dual_modality_triplet(batch, config):
    """cross + lambda1 * intra, with matching gradient composition."""
    loss, (loss_c, loss_i), cache = _hinges_forward(
        np.asarray(batch.features, dtype=np.float64), triplet_pools(batch, "cross", "intra"),
        (1.0, config.lambda1), config.rho)
    return loss, _hinges_backward(cache), loss_c, loss_i


@dataclass
class BundleGrads:
    """Gradients flowing back into one stream's encoder outputs, or the stream
    pair's; `d_backbone_logits` is None when no loss term reads those logits."""

    d_embedding: np.ndarray
    d_logits: np.ndarray
    d_backbone_logits: np.ndarray | None = None


@dataclass
class LossBreakdown:
    softmax: float
    backbone: float
    cross: float
    intra: float
    dual: float
    total: float

    def as_dict(self):
        return {
            "L_softmax": self.softmax,
            "L_backbone": self.backbone,
            "L_c_tri": self.cross,
            "L_i_tri": self.intra,
            "L_d_tri": self.dual,
            "L_all": self.total,
        }


@dataclass(frozen=True)
class LossTargets:
    """Class labels of one PK batch, in `pk_layout`'s row order, with the
    stacked cross and intra pools of its rows as score offsets
    (`loss_targets`)."""

    labels: np.ndarray
    offsets: np.ndarray


def loss_targets(labels, P, K):
    """Checked `LossTargets` for the 2*P*K rows of a PK batch with these
    class labels, in `pk_layout`'s row order.

    A finite-difference sweep builds them once and evaluates
    `total_loss_forward` at many encodings of the same rows.
    """
    labels = np.asarray(labels, dtype=np.intp)
    # the batch checks read only the row count of the features
    batch = LabeledBatch(features=labels[:, None], identity=labels, modality=pk_layout(P, K)[1],
                         P=P, K=K)
    return LossTargets(labels=labels, offsets=triplet_pools(batch, "cross", "intra"))


def total_loss_forward(bundle, targets, config, enc_cfg):
    """Forward step of `total_loss`: (LossBreakdown, cache).

    `bundle` holds both streams' encoder outputs as (..., 2, n, ·) stacks,
    visible first: the triplet terms read its embedding and the softmax
    term its logits. The encoder config `enc_cfg` decides only the
    auxiliary softmax term on the backbone logits, run when MFI and the
    backbone loss are both on. The cache holds what `total_loss_backward`
    needs; a caller that wants the loss alone drops it. Axes ahead of the
    stream axis make the breakdown hold one value per matrix of the stack.
    """
    rows = targets.labels.size  # the visible labels, then as many thermal ones
    if bundle.embedding.shape[-3:-1] != (2, rows // 2):
        raise ValueError(f"total_loss: streams of shape {bundle.embedding.shape[-3:-1]} for "
                         f"{rows // 2} visible and {rows // 2} thermal labels")

    def batch(a):  # the streams' rows as one batch: a view
        return a.reshape(a.shape[:-3] + (rows, a.shape[-1]))

    loss_sm, sm_cache = softmax_cross_entropy_forward(batch(bundle.logits), targets.labels)
    loss_d, (loss_c, loss_i), dual_cache = _hinges_forward(
        batch(bundle.embedding), targets.offsets, (1.0, config.lambda1), config.rho)

    total = loss_sm + config.lambda2 * loss_d
    loss_bb, bb_cache = 0.0, None
    if enc_cfg.mfi_enabled and enc_cfg.backbone_loss_enabled:
        loss_bb, bb_cache = softmax_cross_entropy_forward(batch(bundle.backbone_logits), targets.labels)
        total += loss_bb
    if not (math.isfinite(total) if isinstance(total, float) else np.isfinite(total).all()):
        raise NonFiniteError(f"total_loss: non-finite loss {total}")

    breakdown = LossBreakdown(
        softmax=loss_sm, backbone=loss_bb, cross=loss_c, intra=loss_i,
        dual=loss_d, total=total)
    return breakdown, (config, bundle.embedding.shape[:-1], sm_cache, dual_cache, bb_cache)


def total_loss_backward(cache):
    """Gradient step of `total_loss`: BundleGrads on the encoder outputs, in
    the bundle's (2, n, ·) stream stack."""
    config, stream_rows, sm_cache, dual_cache, bb_cache = cache

    def streams(a):  # the batch's rows as the stream stack: a view
        return a.reshape(stream_rows + a.shape[-1:])

    return BundleGrads(
        d_embedding=streams(config.lambda2 * _hinges_backward(dual_cache)),
        d_logits=streams(softmax_cross_entropy_backward(sm_cache)),
        d_backbone_logits=None if bb_cache is None else streams(softmax_cross_entropy_backward(bb_cache)))


def total_loss(bundle, labels, config, enc_cfg, P, K):
    """Final training loss over one PK batch of `labels`, from both streams'
    (2, n, ·) encoder outputs by `enc_cfg`: the forward step, then the
    gradient step. Returns the breakdown and the BundleGrads on the outputs.
    """
    breakdown, cache = total_loss_forward(bundle, loss_targets(labels, P, K), config, enc_cfg)
    return breakdown, total_loss_backward(cache)
