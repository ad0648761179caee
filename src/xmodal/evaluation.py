"""Cross-modality retrieval evaluation: ranking, CMC, mAP, repeated trials."""

import warnings
from dataclasses import dataclass

import numpy as np

from .encoder import encode, test_feature
from .losses import THERMAL, VISIBLE
from .numerics import pairwise_distances


@dataclass
class EvalProtocol:
    query_modality: str = VISIBLE
    gallery_modality: str = THERMAL
    trials: int = 1
    single_shot: bool = False
    ranks_reported: tuple = (1, 10, 20)
    seed: int = 0

    def validate(self):
        if self.query_modality not in (VISIBLE, THERMAL) or self.gallery_modality not in (VISIBLE, THERMAL):
            raise ValueError("EvalProtocol: modalities must be V or T")
        if self.query_modality == self.gallery_modality:
            raise ValueError("EvalProtocol: query and gallery modalities must differ")
        if self.trials < 1:
            raise ValueError("EvalProtocol: trials must be >= 1")
        if any(r < 1 for r in self.ranks_reported):
            raise ValueError("EvalProtocol: ranks must be >= 1")

    def describe(self):
        names = {VISIBLE: "Visible", THERMAL: "Thermal"}
        return f"{names[self.query_modality]} to {names[self.gallery_modality]}"


@dataclass
class RankingResult:
    cmc: dict
    map_score: float
    trials: int = 1
    seed: int = 0
    protocol: str = ""
    skipped_queries: int = 0


def rank_gallery(query_feature, gallery_features):
    """Gallery indices by ascending distance; ties break by ascending index."""
    gallery_features = np.asarray(gallery_features, dtype=np.float64)
    if gallery_features.size == 0 or gallery_features.shape[0] == 0:
        raise ValueError("rank_gallery: empty gallery")
    q = np.asarray(query_feature, dtype=np.float64).reshape(1, -1)
    d = pairwise_distances(q, gallery_features)[0]
    return np.argsort(d, kind="stable")


def average_precision(relevance):
    """AP = (1/R) * sum_k Precision@k over relevant positions k."""
    rel = np.asarray(relevance, dtype=bool)
    total = int(rel.sum())
    if total == 0:
        raise ValueError("average_precision: no relevant items")
    hits = np.cumsum(rel)
    k = np.arange(1, rel.size + 1)
    return float(np.sum((hits / k)[rel]) / total)


def cmc_curve(relevance_lists, ranks):
    """rate(r) = fraction of queries whose first relevant hit is at position <= r."""
    if not relevance_lists:
        raise ValueError("cmc_curve: no queries")
    first_hits = []
    for rel in relevance_lists:
        rel = np.asarray(rel, dtype=bool)
        if not rel.any():
            raise ValueError("cmc_curve: query with no relevant gallery item")
        first_hits.append(int(np.argmax(rel)) + 1)
    first_hits = np.asarray(first_hits)
    return {int(r): float(np.mean(first_hits <= r)) for r in ranks}


def _encode_features(dataset, params, config, modality_tag):
    """Eval-mode test features for all samples of one modality, plus labels."""
    stream = "visible" if modality_tag == VISIBLE else "thermal"
    samples = dataset.by_modality(modality_tag)
    if not samples:
        raise ValueError(f"evaluation: no samples with modality {modality_tag}")
    x = np.stack([s.feature for s in samples])
    bundle, _ = encode(params, config, x, stream, mode="eval")
    feats = test_feature(bundle, config)
    labels = np.array([s.identity for s in samples])
    return feats, labels


def evaluate_features(query_feats, query_labels, gallery_feats, gallery_labels,
                      ranks):
    """Single-pass CMC/mAP over explicit feature matrices."""
    dist = pairwise_distances(query_feats, gallery_feats)
    ap_values = []
    relevance_lists = []
    skipped = 0
    for qi in range(dist.shape[0]):
        order = np.argsort(dist[qi], kind="stable")
        rel = gallery_labels[order] == query_labels[qi]
        if not rel.any():
            skipped += 1
            continue
        relevance_lists.append(rel)
        ap_values.append(average_precision(rel))
    if skipped:
        warnings.warn(f"evaluation: {skipped} query(ies) without a gallery match excluded",
                      RuntimeWarning)
    if not ap_values:
        raise ValueError("evaluation: every query lacked a gallery match")
    cmc = cmc_curve(relevance_lists, ranks)
    return RankingResult(
        cmc=cmc,
        map_score=float(np.mean(ap_values)),
        skipped_queries=skipped,
    )


def run_protocol(test_dataset, params, config, protocol):
    """Repeated-trial evaluation; metrics are trial means, deterministic by seed."""
    protocol.validate()
    rng = np.random.default_rng(protocol.seed)
    query_feats, query_labels = _encode_features(test_dataset, params, config, protocol.query_modality)
    gallery_feats, gallery_labels = _encode_features(test_dataset, params, config, protocol.gallery_modality)

    cmc_acc = {int(r): 0.0 for r in protocol.ranks_reported}
    map_acc = 0.0
    skipped = 0
    for _ in range(protocol.trials):
        if protocol.single_shot:
            keep = []
            for ident in np.unique(gallery_labels):
                pool = np.flatnonzero(gallery_labels == ident)
                keep.append(pool[rng.integers(len(pool))])
            keep = np.sort(np.asarray(keep))
            g_feats, g_labels = gallery_feats[keep], gallery_labels[keep]
        else:
            g_feats, g_labels = gallery_feats, gallery_labels
        result = evaluate_features(query_feats, query_labels, g_feats, g_labels,
                                   protocol.ranks_reported)
        for r in cmc_acc:
            cmc_acc[r] += result.cmc[r]
        map_acc += result.map_score
        skipped += result.skipped_queries
    t = protocol.trials
    return RankingResult(
        cmc={r: v / t for r, v in cmc_acc.items()},
        map_score=map_acc / t,
        trials=t,
        seed=protocol.seed,
        protocol=protocol.describe(),
        skipped_queries=skipped,
    )
