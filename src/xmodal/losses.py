"""Batch-hard triplet losses over two modalities and the full training loss.

All triplet losses are sums over anchors, each term
[margin + hardest-positive distance - hardest-negative distance]_+,
with hardest pairs mined inside the batch. Gradients flow only through
the selected pair of anchors whose hinge is strictly active. Ties in the
hardest-pair selection break toward the lowest row index.
"""

import math
from dataclasses import dataclass

import numpy as np

from .numerics import (
    l2_normalize_backward,
    l2_normalize_forward,
    pairwise_distances,
    softmax_cross_entropy,
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


def _masked_rows(labels, dist, cand):
    """Each row's positive and negative candidate distances.

    Row i anchors against the columns where cand[i] holds; positives share
    its label, negatives do not. Non-candidates read -inf among positives
    and +inf among negatives, so they are never mined.
    """
    same = labels[:, None] == labels[None, :]
    pos, neg = cand & same, cand & ~same
    for mask, kind in ((pos, "positive"), (neg, "negative")):
        empty = np.flatnonzero(~mask.any(axis=1))
        if empty.size:
            raise ValueError(f"no {kind} candidates for anchor row {empty[0]}")
    return np.where(pos, dist, -np.inf), np.where(neg, dist, np.inf)


def _mined_hinge(features, labels, dist, cand, rho):
    """Batch-hard hinge summed over every row of `dist` as an anchor.

    Returns (loss, grad w.r.t. the full feature matrix).
    """
    pos, neg = _masked_rows(labels, dist, cand)
    # argmax/argmin take the lowest index on ties
    hp = np.argmax(pos, axis=1)
    hn = np.argmin(neg, axis=1)
    a = np.arange(dist.shape[0])
    term = rho + dist[a, hp] - dist[a, hn]
    loss = float(np.maximum(term, 0.0).sum())
    active = term > 0.0
    a, p, n = a[active], hp[active], hn[active]
    # d = sqrt(||f_a - f_b||^2 + eps), so dd/df_a = (f_a - f_b) / d
    gp = (features[a] - features[p]) / dist[a, p][:, None]
    gn = (features[a] - features[n]) / dist[a, n][:, None]
    grad = np.zeros(features.shape)
    grad[a] = gp - gn
    _scatter_pairs(grad, p, n, gp, gn)
    return loss, grad


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
        pos, neg = _masked_rows(labels, dist, cand)
        top = -np.partition(-pos, 1, axis=1)[:, :2]
        low = np.partition(neg, 1, axis=1)[:, :2]
        # with a single candidate the second pick is infinite and drops out
        margin = min(margin, np.min(np.abs(rho + top[:, 0] - low[:, 0])),
                     np.min(top[:, 0] - top[:, 1]), np.min(low[:, 1] - low[:, 0]))
    return float(margin)


def batch_hard_triplet(features, labels, rho):
    """Plain batch-hard triplet loss: every row anchors against the whole batch."""
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels)
    if labels.shape != features.shape[:1]:
        raise ValueError("batch_hard_triplet: one label per feature row required")
    if np.unique(labels).size < 2:
        raise ValueError("batch_hard_triplet: need at least 2 identities")
    dist = pairwise_distances(features, features)
    return _mined_hinge(features, labels, dist, np.ones(dist.shape, dtype=bool), rho)


def cross_modality_triplet(batch, rho):
    """Bi-directional cross-modality loss: anchors in one modality, pool in the other."""
    cross, _ = _modality_masks(batch)
    dist = pairwise_distances(batch.features, batch.features)
    return _mined_hinge(batch.features, batch.identity, dist, cross, rho)


def intra_modality_triplet(batch, rho):
    """Per-modality batch-hard loss, summed over the two modalities."""
    _, intra = _modality_masks(batch)
    dist = pairwise_distances(batch.features, batch.features)
    return _mined_hinge(batch.features, batch.identity, dist, intra, rho)


def dual_modality_triplet(batch, config):
    """cross + lambda1 * intra, with matching gradient composition."""
    config.validate()
    cross, intra = _modality_masks(batch)
    dist = pairwise_distances(batch.features, batch.features)
    loss_c, grad_c = _mined_hinge(batch.features, batch.identity, dist, cross, config.rho)
    loss_i, grad_i = _mined_hinge(batch.features, batch.identity, dist, intra, config.rho)
    return loss_c + config.lambda1 * loss_i, grad_c + config.lambda1 * grad_i, loss_c, loss_i


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


def total_loss(bundle_v, bundle_t, labels_v, labels_t, config, P, K):
    """Final training loss over one PK batch encoded per modality.

    Metric features for the triplet terms are the L2-normalized selected
    features (skip branch when MFI is on, backbone otherwise); the softmax
    term uses the matching classifier logits. Returns the breakdown plus
    per-modality gradients on the encoder outputs.
    """
    config.validate()
    nv = bundle_v.v_post.shape[0]
    nt = bundle_t.v_post.shape[0]
    labels_v = np.asarray(labels_v, dtype=np.intp)
    labels_t = np.asarray(labels_t, dtype=np.intp)
    labels = np.concatenate([labels_v, labels_t])

    if config.mfi_enabled:
        sel_v, sel_t = bundle_v.v_fused_post, bundle_t.v_fused_post
        logits = np.concatenate([bundle_v.logits_skip, bundle_t.logits_skip])
    else:
        sel_v, sel_t = bundle_v.v_post, bundle_t.v_post
        logits = np.concatenate([bundle_v.logits_backbone, bundle_t.logits_backbone])

    sel = np.concatenate([sel_v, sel_t])
    metric, norm_cache = l2_normalize_forward(sel)
    modality = np.array([VISIBLE] * nv + [THERMAL] * nt)
    batch = LabeledBatch(features=metric, identity=labels, modality=modality, P=P, K=K)

    loss_sm, d_logits = softmax_cross_entropy(logits, labels)
    loss_d, d_metric, loss_c, loss_i = dual_modality_triplet(batch, config)
    d_sel = l2_normalize_backward(norm_cache, config.lambda2 * d_metric)

    total = loss_sm + config.lambda2 * loss_d
    loss_bb = 0.0
    d_logits_bb = None
    if config.mfi_enabled and config.backbone_loss_enabled:
        logits_bb = np.concatenate([bundle_v.logits_backbone, bundle_t.logits_backbone])
        loss_bb, d_logits_bb = softmax_cross_entropy(logits_bb, labels)
        total += loss_bb
    if not math.isfinite(total):
        raise ValueError(f"total_loss: non-finite loss {total}")

    zeros_v = np.zeros_like(bundle_v.v_post)
    zeros_t = np.zeros_like(bundle_t.v_post)
    zl_v = np.zeros_like(bundle_v.logits_backbone)
    zl_t = np.zeros_like(bundle_t.logits_backbone)
    if config.mfi_enabled:
        grads_v = BundleGrads(
            d_v_post=zeros_v,
            d_logits_backbone=d_logits_bb[:nv] if d_logits_bb is not None else zl_v,
            d_v_fused_post=d_sel[:nv],
            d_logits_skip=d_logits[:nv],
        )
        grads_t = BundleGrads(
            d_v_post=zeros_t,
            d_logits_backbone=d_logits_bb[nv:] if d_logits_bb is not None else zl_t,
            d_v_fused_post=d_sel[nv:],
            d_logits_skip=d_logits[nv:],
        )
    else:
        grads_v = BundleGrads(d_v_post=d_sel[:nv], d_logits_backbone=d_logits[:nv])
        grads_t = BundleGrads(d_v_post=d_sel[nv:], d_logits_backbone=d_logits[nv:])

    breakdown = LossBreakdown(
        softmax=loss_sm, backbone=loss_bb, cross=loss_c, intra=loss_i,
        dual=loss_d, total=total)
    return breakdown, grads_v, grads_t
