"""Cross-modality retrieval evaluation: ranking, CMC, mAP, repeated trials."""

import itertools
import warnings
from dataclasses import dataclass

import numpy as np

from .config import ConfigError
from .data import DataError
from .encoder import encode
from .losses import THERMAL, VISIBLE
from .numerics import DIST_BLOCK_BYTES, NonFiniteError


@dataclass(frozen=True)
class EvalProtocol:
    query_modality: str = VISIBLE
    gallery_modality: str = THERMAL
    trials: int = 1
    single_shot: bool = False
    ranks_reported: tuple = (1, 10, 20)
    seed: int = 0

    def __post_init__(self):
        if self.query_modality not in (VISIBLE, THERMAL) or self.gallery_modality not in (VISIBLE, THERMAL):
            raise ConfigError("EvalProtocol: modalities must be V or T")
        if self.query_modality == self.gallery_modality:
            raise ConfigError("EvalProtocol: query and gallery modalities must differ")
        if self.trials < 1:
            raise ConfigError("EvalProtocol: trials must be >= 1")
        if any(r < 1 for r in self.ranks_reported):
            raise ConfigError("EvalProtocol: ranks must be >= 1")
        if self.seed < 0:
            raise ConfigError(f"EvalProtocol: seed must be >= 0, got {self.seed}")

    def describe(self):
        names = {VISIBLE: "Visible", THERMAL: "Thermal"}
        return f"{names[self.query_modality]} to {names[self.gallery_modality]}"


@dataclass
class RankingResult:
    cmc: dict
    map_score: float
    skipped_queries: int


def _ranked_blocks(query_feats, gallery_feats):
    """Gallery orders for consecutive blocks of query rows, as (start, order).

    Order is by ascending score ||g||^2 - 2 q.g, ties to the lowest gallery
    index. Each block's scores come from one GEMM: ||q||^2 is constant along
    a row and ranking needs no sqrt. Rows are centered on the gallery mean
    first, so that a common offset in the features cannot swamp the cross
    term. The GEMM runs against the gallery in its own row order, and each
    duplicate row (equal bytes once -0.0 reads as +0.0) gets a copy of its
    first occurrence's column, because BLAS may round equal columns
    differently; duplicates tie exactly. A block holds at most
    DIST_BLOCK_BYTES of scores, never a Q x G matrix.

    A block is ranked by one in-place sort of int64 keys. A score's float64
    bits, read as an int64 with a negative's magnitude bits flipped, order
    as the score does; its key replaces their low
    `bits = max(1, (G-1).bit_length())` bits with the gallery index. So the
    sorted keys' low bits are the order, and a run of keys that share their
    high bits comes out lowest index first. That is the order wherever such
    a run holds one score, an exact tie. Equal scores do share their high
    bits, since no score is -0.0: each sq_norms entry is a sum of squares,
    so >= +0.0, and x + y is +0.0 when it is zero and y >= +0.0. A row in
    which neighbouring keys share their high bits but not their score is
    ranked again by a stable argsort of its scores. Two scores must lie
    within 2**bits units in the last place of each other for that, so a
    row of continuous features seldom takes it. Features and scores must be
    finite: a non-finite feature, or a score that overflows, raises
    NonFiniteError.

    Unlike the dual loss's mining, which certifies its GEMM picks with
    numerics.gemm_score_bound, this order is not checked against the exact
    distances, so near-duplicate gallery rows may rank out of that order.
    """
    q = np.asarray(query_feats, dtype=np.float64)
    g = np.asarray(gallery_feats, dtype=np.float64)
    if q.ndim != 2 or g.ndim != 2 or q.shape[1] != g.shape[1]:
        raise ValueError(f"evaluation: query shape {q.shape} and gallery shape {g.shape} incompatible")
    if g.size == 0:
        raise ValueError("evaluation: empty gallery")
    if q.shape[0] == 0:
        raise ValueError("evaluation: no queries")
    if not np.isfinite(q).all():
        raise NonFiniteError("evaluation: non-finite query feature")
    if not np.isfinite(g).all():
        raise NonFiniteError("evaluation: non-finite gallery feature")
    mean = g.mean(axis=0)
    row_bytes = (g + 0.0).view(np.dtype((np.void, 8 * g.shape[1]))).reshape(-1)
    _, first, inverse = np.unique(row_bytes, return_index=True, return_inverse=True)
    first = first[inverse]
    dupes = np.flatnonzero(first != np.arange(len(g)))
    twins = first[dupes]
    centered = g - mean
    sq_norms = np.einsum("ij,ij->i", centered, centered)
    centered *= -2.0
    bits = max(1, (len(g) - 1).bit_length())
    low = (1 << bits) - 1
    index = np.arange(len(g), dtype=np.int64)
    rows = max(1, DIST_BLOCK_BYTES // (8 * g.shape[0]))
    for start in range(0, q.shape[0], rows):
        scores = (q[start:start + rows] - mean) @ centered.T
        scores += sq_norms
        scores[:, dupes] = scores[:, twins]
        if not np.isfinite(scores).all():
            raise NonFiniteError("evaluation: a query-gallery score overflowed; the features are too large")
        flip = scores.view(np.int64) >> 63
        flip &= 2**63 - 1
        keys = scores.view(np.int64) ^ flip
        keys &= ~low
        keys |= index
        keys.sort(axis=1)
        high = np.right_shift(keys, bits, out=flip)
        shared = np.flatnonzero(high[:, 1:] == high[:, :-1])
        order = np.bitwise_and(keys, low, out=keys)
        if shared.size:
            row, pos = divmod(shared, len(g) - 1)
            redo = np.unique(row[scores[row, order[row, pos]] != scores[row, order[row, pos + 1]]])
            order[redo] = np.argsort(scores[redo], axis=1, kind="stable")
        yield start, order


def _hit_scores(rows, cols, queries):
    """AP and 1-based first-hit position of each of `queries` rows that has a
    hit, from the (row, position) of every hit in row-major order. AP =
    (1/R) * sum_k Precision@k over the relevant positions k, summed in order."""
    counts = np.bincount(rows, minlength=queries)
    counts = counts[counts > 0]
    starts = np.cumsum(counts) - counts
    seen = np.arange(1, rows.size + 1) - np.repeat(starts, counts)
    return np.add.reduceat(seen / (cols + 1), starts) / counts, cols[starts] + 1


def _cmc_rates(first_hits, ranks):
    return {int(r): float(np.mean(first_hits <= r)) for r in ranks}


def rank_gallery(query_feature, gallery_features):
    """Gallery indices by ascending GEMM score (see _ranked_blocks); ties
    break by ascending index.

    Ranks through the same path as evaluate_features: one sort of packed
    int64 keys, and a stable argsort only if two unequal scores share a
    key's high bits. Non-finite features, or a score that overflows, raise
    NonFiniteError.
    """
    q = np.asarray(query_feature, dtype=np.float64).reshape(1, -1)
    (_, order), = _ranked_blocks(q, gallery_features)
    return order[0]


def average_precision(relevance):
    """AP = (1/R) * sum_k Precision@k over relevant positions k."""
    cols = np.flatnonzero(np.asarray(relevance, dtype=bool))
    if not cols.size:
        raise ValueError("average_precision: no relevant items")
    ap, _ = _hit_scores(np.zeros_like(cols), cols, 1)
    return float(ap[0])


def cmc_curve(relevance_lists, ranks):
    """rate(r) = fraction of queries whose first relevant hit is at position <= r.

    `relevance_lists` holds one relevance row per query, all of one length.
    """
    rel = np.asarray(relevance_lists, dtype=bool)
    if rel.ndim != 2 or rel.shape[0] == 0:
        raise ValueError("cmc_curve: no queries")
    _, first_hits = _hit_scores(*np.nonzero(rel), len(rel))
    if len(first_hits) < len(rel):
        raise ValueError("cmc_curve: query with no relevant gallery item")
    return _cmc_rates(first_hits, ranks)


def _encode_features(dataset, params, config, modality_tag):
    """Eval-mode test features for all samples of one modality, plus labels.

    Rows are encoded in blocks whose widest activation holds at most
    DIST_BLOCK_BYTES, which eval mode leaves bit-identical to one call. No
    block has a single row unless the modality does: numpy sends a one-row
    matmul to a BLAS gemv, whose rounding differs.
    """
    stream = "visible" if modality_tag == VISIBLE else "thermal"
    picked = np.flatnonzero(dataset.modality == modality_tag)
    if not picked.size:
        raise DataError(f"evaluation: the dataset has no samples with modality {modality_tag}")
    out_dim = config.fused_dim if config.mfi_enabled else config.d
    widest = max(config.input_dim, *config.stage_dims, out_dim, config.num_classes)
    step = max(2, DIST_BLOCK_BYTES // (8 * widest))
    bounds = [*range(0, max(picked.size - 1, 1), step), picked.size]
    feats = np.empty((picked.size, out_dim))
    for start, stop in zip(bounds, bounds[1:]):
        x = dataset.features[picked[start:stop]]
        feats[start:stop] = encode(params, config, x, stream, mode="eval")[0].embedding
    return feats, dataset.identity[picked]


def evaluate_features(query_feats, query_labels, gallery_feats, gallery_labels,
                      ranks):
    """Single-pass CMC/mAP over explicit feature matrices, in blocks of queries."""
    query_labels = np.asarray(query_labels)
    gallery_labels = np.asarray(gallery_labels)
    rows, cols = [], []
    for start, order in _ranked_blocks(query_feats, gallery_feats):
        row, col = np.nonzero(gallery_labels[order] == query_labels[start:start + len(order), None])
        rows.append(row + start)
        cols.append(col)
    ap_values, first_hits = _hit_scores(np.concatenate(rows), np.concatenate(cols), len(query_feats))
    if not ap_values.size:
        raise DataError("evaluation: every query lacked a gallery match")
    skipped = len(query_feats) - ap_values.size
    if skipped:
        warnings.warn(f"evaluation: {skipped} query(ies) without a gallery match excluded",
                      RuntimeWarning)
    return RankingResult(
        cmc=_cmc_rates(first_hits, ranks),
        map_score=float(np.mean(ap_values)),
        skipped_queries=skipped,
    )


def run_protocol(test_dataset, params, config, protocol):
    """CMC and mAP means, and the skipped-query sum, over `protocol.trials`
    trials, added up in trial order. A multi-shot gallery, every row of the
    gallery modality, is the same in each trial, so it is scored once.
    A single-shot trial (SYSU-MM01's) keeps one row per identity: for each
    identity in ascending order, `rng.integers(len(rows))` picks one of its
    rows in index order, with one generator seeded by `protocol.seed`.
    """
    query_feats, query_labels = _encode_features(test_dataset, params, config, protocol.query_modality)
    gallery_feats, gallery_labels = _encode_features(test_dataset, params, config, protocol.gallery_modality)

    def score(keep):
        return evaluate_features(query_feats, query_labels, gallery_feats[keep], gallery_labels[keep],
                                 protocol.ranks_reported)

    t = protocol.trials
    if protocol.single_shot:
        rng = np.random.default_rng(protocol.seed)
        # each identity's rows, in index order, are by_label[start:start + count]
        by_label = np.argsort(gallery_labels, kind="stable")
        _, starts, counts = np.unique(gallery_labels[by_label], return_index=True, return_counts=True)
        groups = list(zip(starts.tolist(), counts.tolist()))
        results = (score(np.sort(by_label[[start + rng.integers(count) for start, count in groups]]))
                   for _ in range(t))
    else:
        results = itertools.repeat(score(slice(None)), t)
    cmc_acc = {int(r): 0.0 for r in protocol.ranks_reported}
    map_acc, skipped = 0.0, 0
    for result in results:
        for r in cmc_acc:
            cmc_acc[r] += result.cmc[r]
        map_acc += result.map_score
        skipped += result.skipped_queries
    return RankingResult(
        cmc={r: v / t for r, v in cmc_acc.items()},
        map_score=map_acc / t,
        skipped_queries=skipped,
    )
