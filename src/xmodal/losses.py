"""Batch-hard triplet losses over two modalities and the full training loss.

All triplet losses are sums over anchors, each term
[margin + hardest-positive distance - hardest-negative distance]_+,
with hardest pairs mined inside the batch. Gradients flow only through
the selected pair of anchors whose hinge is strictly active. Ties in the
hardest-pair selection break toward the lowest row index.

Each loss is a forward step, which computes the loss value and keeps what
the gradient needs, and a gradient step. The (loss, grad) functions run
both; a finite-difference sweep runs the forward step alone, on labels and
candidate pools checked once per batch.
"""

import math
from dataclasses import dataclass

import numpy as np

from .numerics import (
    l2_normalize_backward,
    l2_normalize_forward,
    pairwise_distances,
    softmax_cross_entropy_backward,
    softmax_cross_entropy_forward,
)

VISIBLE = "V"
THERMAL = "T"


@dataclass
class LossConfig:
    rho: float = 0.5
    lambda1: float = 0.1
    lambda2: float = 2.0
    mfi_enabled: bool = True
    backbone_loss_enabled: bool = True

    def validate(self):
        if self.rho < 0.0:
            raise ValueError("LossConfig: rho must be >= 0")
        if self.lambda1 < 0.0 or self.lambda2 < 0.0:
            raise ValueError("LossConfig: lambda1 and lambda2 must be >= 0")


@dataclass
class LabeledBatch:
    """A 2*P*K block of rows: K per (identity, modality) for P identities."""

    features: np.ndarray
    identity: np.ndarray
    modality: np.ndarray  # entries VISIBLE / THERMAL
    P: int
    K: int

    def validate(self):
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


def _pools(labels, cand):
    """Each anchor row's (positive, negative) candidate masks.

    Row i anchors against the columns where cand[i] holds; positives share
    its label, negatives do not. Every row needs at least one of each.
    """
    same = labels[:, None] == labels[None, :]
    pools = cand & same, cand & ~same
    for mask, kind in zip(pools, ("positive", "negative")):
        empty = np.flatnonzero(~mask.any(axis=1))
        if empty.size:
            raise ValueError(f"no {kind} candidates for anchor row {empty[0]}")
    return pools


def _masked_rows(dist, pools):
    """Each row's positive and negative candidate distances.

    Non-candidates read -inf among positives and +inf among negatives, so
    they are never mined.
    """
    pos, neg = pools
    return np.where(pos, dist, -np.inf), np.where(neg, dist, np.inf)


def _hinge_forward(dist, pools, rho):
    """Batch-hard hinge summed over every row of `dist` as an anchor.

    Returns (loss, mined): the anchor, hardest-positive and hardest-negative
    rows of each strictly active hinge, all that `_hinge_backward` needs.
    """
    pos, neg = _masked_rows(dist, pools)
    # argmax/argmin take the lowest index on ties
    hp = np.argmax(pos, axis=1)
    hn = np.argmin(neg, axis=1)
    a = np.arange(dist.shape[0])
    term = rho + dist[a, hp] - dist[a, hn]
    loss = float(np.maximum(term, 0.0).sum())
    active = term > 0.0
    return loss, (a[active], hp[active], hn[active])


def _hinge_backward(features, dist, mined):
    """Gradient of `_hinge_forward`'s loss w.r.t. the full feature matrix."""
    a, p, n = mined
    # d = sqrt(||f_a - f_b||^2 + eps), so dd/df_a = (f_a - f_b) / d
    gp = (features[a] - features[p]) / dist[a, p][:, None]
    gn = (features[a] - features[n]) / dist[a, n][:, None]
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


def _modality_masks(batch):
    """Cross and intra candidate masks of a validated batch."""
    batch.validate()
    visible = batch.modality == VISIBLE  # a validated row that is not VISIBLE is THERMAL
    same = visible[:, None] == visible[None, :]
    return ~same, same


def _plain_pools(features, labels):
    """Pools of the plain batch-hard loss: every row against the whole batch."""
    if labels.shape != features.shape[:1]:
        raise ValueError("batch_hard_triplet: one label per feature row required")
    if np.unique(labels).size < 2:
        raise ValueError("batch_hard_triplet: need at least 2 identities")
    return _pools(labels, np.ones((labels.size, labels.size), dtype=bool))


def mining_margins(batch, rho):
    """Smallest kink distance over plain, cross, and intra minings of a batch.

    Used by gradient checks to reject batches where the piecewise loss is
    (nearly) nondifferentiable: a hinge at zero, or a tie for the hardest
    positive or negative.
    """
    feats, labels = batch.features, batch.identity
    dist = pairwise_distances(feats, feats)
    cross, intra = _modality_masks(batch)
    margin = np.inf
    for cand in (np.ones_like(cross), cross, intra):
        pos, neg = _masked_rows(dist, _pools(labels, cand))
        top = -np.partition(-pos, 1, axis=1)[:, :2]
        low = np.partition(neg, 1, axis=1)[:, :2]
        # with a single candidate the second pick is infinite and drops out
        margin = min(margin, np.min(np.abs(rho + top[:, 0] - low[:, 0])),
                     np.min(top[:, 0] - top[:, 1]), np.min(low[:, 1] - low[:, 0]))
    return float(margin)


def _triplet(features, pools, rho):
    """(loss, grad) of the hinge over `pools`: the forward step, then the gradient step."""
    dist = pairwise_distances(features, features)
    loss, mined = _hinge_forward(dist, pools, rho)
    return loss, _hinge_backward(features, dist, mined)


def batch_hard_triplet(features, labels, rho):
    """Plain batch-hard triplet loss: every row anchors against the whole batch."""
    features = np.asarray(features, dtype=np.float64)
    return _triplet(features, _plain_pools(features, np.asarray(labels)), rho)


def cross_modality_triplet(batch, rho):
    """Bi-directional cross-modality loss: anchors in one modality, pool in the other."""
    cross, _ = _modality_masks(batch)
    return _triplet(batch.features, _pools(batch.identity, cross), rho)


def intra_modality_triplet(batch, rho):
    """Per-modality batch-hard loss, summed over the two modalities."""
    _, intra = _modality_masks(batch)
    return _triplet(batch.features, _pools(batch.identity, intra), rho)


def triplet_pools(batch, kind):
    """Checked pools of one triplet loss over the rows of `batch`.

    `kind` names the loss: "batch_hard", "cross" or "intra". The labels are
    checked here, once, so that `triplet_loss` can evaluate the loss at many
    feature matrices for the same rows, as a finite-difference sweep does.
    """
    if kind == "batch_hard":
        return _plain_pools(batch.features, np.asarray(batch.identity))
    if kind not in ("cross", "intra"):
        raise ValueError(f"triplet_pools: unknown kind {kind!r}")
    cross, intra = _modality_masks(batch)
    return _pools(batch.identity, cross if kind == "cross" else intra)


def triplet_loss(features, pools, rho):
    """Forward step alone: the loss value of the triplet loss whose checked
    pools (`triplet_pools`) are given, with no gradient."""
    return _hinge_forward(pairwise_distances(features, features), pools, rho)[0]


def _dual_forward(features, cross, intra, config):
    """Forward step of the dual loss over cross and intra pools.

    Returns (loss, cross loss, intra loss, cache for `_dual_backward`).
    """
    dist = pairwise_distances(features, features)
    loss_c, mined_c = _hinge_forward(dist, cross, config.rho)
    loss_i, mined_i = _hinge_forward(dist, intra, config.rho)
    return loss_c + config.lambda1 * loss_i, loss_c, loss_i, (features, dist, mined_c, mined_i, config)


def _dual_backward(cache):
    """Gradient of `_dual_forward`'s loss w.r.t. the features."""
    features, dist, mined_c, mined_i, config = cache
    grad_c = _hinge_backward(features, dist, mined_c)
    grad_i = _hinge_backward(features, dist, mined_i)
    return grad_c + config.lambda1 * grad_i


def dual_modality_triplet(batch, config):
    """cross + lambda1 * intra, with matching gradient composition."""
    config.validate()
    cross, intra = _modality_masks(batch)
    loss, loss_c, loss_i, cache = _dual_forward(
        batch.features, _pools(batch.identity, cross), _pools(batch.identity, intra), config)
    return loss, _dual_backward(cache), loss_c, loss_i


@dataclass
class BundleGrads:
    """Gradients flowing back into one modality's encoder outputs."""

    d_v_post: np.ndarray
    d_logits_backbone: np.ndarray
    d_v_fused_post: np.ndarray | None = None
    d_logits_skip: np.ndarray | None = None


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
    """Class labels of one PK batch encoded per modality, visible rows
    first, with the cross and intra pools of its rows (`loss_targets`)."""

    labels: np.ndarray
    n_visible: int
    cross: tuple
    intra: tuple


def loss_targets(labels_v, labels_t, P, K):
    """Checked `LossTargets` for rows with these per-modality labels.

    A finite-difference sweep builds them once and evaluates
    `total_loss_forward` at many encodings of the same rows.
    """
    labels_v = np.asarray(labels_v, dtype=np.intp)
    labels_t = np.asarray(labels_t, dtype=np.intp)
    labels = np.concatenate([labels_v, labels_t])
    modality = np.array([VISIBLE] * labels_v.size + [THERMAL] * labels_t.size)
    # the batch checks read only the row count of the features
    batch = LabeledBatch(features=labels[:, None], identity=labels, modality=modality, P=P, K=K)
    cross, intra = _modality_masks(batch)
    return LossTargets(labels=labels, n_visible=labels_v.size,
                       cross=_pools(labels, cross), intra=_pools(labels, intra))


def total_loss_forward(bundle_v, bundle_t, targets, config):
    """Forward step of `total_loss`: (LossBreakdown, cache).

    Metric features for the triplet terms are the L2-normalized selected
    features (skip branch when MFI is on, backbone otherwise); the softmax
    term uses the matching classifier logits. The cache holds what
    `total_loss_backward` needs; a caller that wants the loss alone drops it.
    """
    config.validate()
    nv, nt = bundle_v.v_post.shape[0], bundle_t.v_post.shape[0]
    if (nv, nv + nt) != (targets.n_visible, targets.labels.size):
        raise ValueError(f"total_loss: {nv} visible and {nt} thermal rows for "
                         f"{targets.n_visible} and {targets.labels.size - targets.n_visible} labels")
    if config.mfi_enabled:
        sel_v, sel_t = bundle_v.v_fused_post, bundle_t.v_fused_post
        logits = np.concatenate([bundle_v.logits_skip, bundle_t.logits_skip])
    else:
        sel_v, sel_t = bundle_v.v_post, bundle_t.v_post
        logits = np.concatenate([bundle_v.logits_backbone, bundle_t.logits_backbone])

    metric, norm_cache = l2_normalize_forward(np.concatenate([sel_v, sel_t]))
    loss_sm, sm_cache = softmax_cross_entropy_forward(logits, targets.labels)
    loss_d, loss_c, loss_i, dual_cache = _dual_forward(metric, targets.cross, targets.intra, config)

    total = loss_sm + config.lambda2 * loss_d
    loss_bb = 0.0
    bb_cache = None
    if config.mfi_enabled and config.backbone_loss_enabled:
        logits_bb = np.concatenate([bundle_v.logits_backbone, bundle_t.logits_backbone])
        loss_bb, bb_cache = softmax_cross_entropy_forward(logits_bb, targets.labels)
        total += loss_bb
    if not math.isfinite(total):
        raise ValueError(f"total_loss: non-finite loss {total}")

    breakdown = LossBreakdown(
        softmax=loss_sm, backbone=loss_bb, cross=loss_c, intra=loss_i,
        dual=loss_d, total=total)
    return breakdown, (config, bundle_v, bundle_t, norm_cache, sm_cache, dual_cache, bb_cache)


def total_loss_backward(cache):
    """Gradient step of `total_loss`: per-modality gradients on the encoder outputs."""
    config, bundle_v, bundle_t, norm_cache, sm_cache, dual_cache, bb_cache = cache
    nv = bundle_v.v_post.shape[0]
    d_logits = softmax_cross_entropy_backward(sm_cache)
    d_sel = l2_normalize_backward(norm_cache, config.lambda2 * _dual_backward(dual_cache))

    if not config.mfi_enabled:
        return (BundleGrads(d_v_post=d_sel[:nv], d_logits_backbone=d_logits[:nv]),
                BundleGrads(d_v_post=d_sel[nv:], d_logits_backbone=d_logits[nv:]))
    if bb_cache is None:
        d_bb_v = np.zeros_like(bundle_v.logits_backbone)
        d_bb_t = np.zeros_like(bundle_t.logits_backbone)
    else:
        d_logits_bb = softmax_cross_entropy_backward(bb_cache)
        d_bb_v, d_bb_t = d_logits_bb[:nv], d_logits_bb[nv:]
    return (BundleGrads(d_v_post=np.zeros_like(bundle_v.v_post), d_logits_backbone=d_bb_v,
                        d_v_fused_post=d_sel[:nv], d_logits_skip=d_logits[:nv]),
            BundleGrads(d_v_post=np.zeros_like(bundle_t.v_post), d_logits_backbone=d_bb_t,
                        d_v_fused_post=d_sel[nv:], d_logits_skip=d_logits[nv:]))


def total_loss(bundle_v, bundle_t, labels_v, labels_t, config, P, K):
    """Final training loss over one PK batch encoded per modality.

    The forward step, then the gradient step: returns the breakdown plus
    per-modality gradients (BundleGrads) on the encoder outputs.
    """
    targets = loss_targets(labels_v, labels_t, P, K)
    breakdown, cache = total_loss_forward(bundle_v, bundle_t, targets, config)
    return (breakdown, *total_loss_backward(cache))
