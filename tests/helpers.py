"""Independent brute-force oracles used across the test suite.

Everything here is written as plain scalar loops on purpose: these
implementations must not share code paths with the library they check.
"""

import math

import numpy as np

STAB = 1e-12


def dist_oracle(a, b):
    return math.sqrt(sum((x - y) ** 2 for x, y in zip(a, b)) + STAB)


def batch_hard_oracle(features, labels, rho, anchors=None, candidates=None):
    """Exhaustive max/min enumeration of the mined hinge loss."""
    n = len(features)
    anchors = range(n) if anchors is None else anchors
    candidates = list(range(n)) if candidates is None else list(candidates)
    loss = 0.0
    for a in anchors:
        pos = [dist_oracle(features[a], features[c]) for c in candidates if labels[c] == labels[a]]
        neg = [dist_oracle(features[a], features[c]) for c in candidates if labels[c] != labels[a]]
        term = rho + max(pos) - min(neg)
        loss += max(term, 0.0)
    return loss


def cross_modality_oracle(batch, rho):
    vis = [i for i in range(len(batch.features)) if batch.modality[i] == "V"]
    thm = [i for i in range(len(batch.features)) if batch.modality[i] == "T"]
    f, y = batch.features, batch.identity
    return (batch_hard_oracle(f, y, rho, anchors=vis, candidates=thm)
            + batch_hard_oracle(f, y, rho, anchors=thm, candidates=vis))


def intra_modality_oracle(batch, rho):
    vis = [i for i in range(len(batch.features)) if batch.modality[i] == "V"]
    thm = [i for i in range(len(batch.features)) if batch.modality[i] == "T"]
    f, y = batch.features, batch.identity
    return (batch_hard_oracle(f, y, rho, anchors=vis, candidates=vis)
            + batch_hard_oracle(f, y, rho, anchors=thm, candidates=thm))


def mining_margins_oracle(batch, rho):
    """Per-anchor sort of each plain, cross and intra candidate pool: the
    smallest gap between a hinge and zero, or between the two hardest
    positives or negatives."""
    n = len(batch.features)
    f, y = batch.features, batch.identity
    vis = [i for i in range(n) if batch.modality[i] == "V"]
    thm = [i for i in range(n) if batch.modality[i] == "T"]
    every = list(range(n))
    margin = math.inf
    for anchors, candidates in ((every, every), (vis, thm), (thm, vis), (vis, vis), (thm, thm)):
        for a in anchors:
            pos = sorted((dist_oracle(f[a], f[c]) for c in candidates if y[c] == y[a]), reverse=True)
            neg = sorted(dist_oracle(f[a], f[c]) for c in candidates if y[c] != y[a])
            margin = min(margin, abs(rho + pos[0] - neg[0]))
            if len(pos) > 1:
                margin = min(margin, pos[0] - pos[1])
            if len(neg) > 1:
                margin = min(margin, neg[1] - neg[0])
    return margin


def average_precision_oracle(relevance):
    relevant_seen = 0
    total = sum(1 for r in relevance if r)
    acc = 0.0
    for k, rel in enumerate(relevance, start=1):
        if rel:
            relevant_seen += 1
            acc += relevant_seen / k
    return acc / total


def cmc_oracle(relevance_lists, ranks):
    rates = {}
    for r in ranks:
        hits = 0
        for rel in relevance_lists:
            first = next(i for i, v in enumerate(rel, start=1) if v)
            if first <= r:
                hits += 1
        rates[r] = hits / len(relevance_lists)
    return rates


def rank_oracle(query, gallery):
    dists = [dist_oracle(query, g) for g in gallery]
    return sorted(range(len(gallery)), key=lambda i: (dists[i], i))


def random_pk_batch(rng, P, K, dim, scale=1.0):
    """A structurally valid metric batch with Gaussian features."""
    from xmodal.losses import LabeledBatch

    feats = scale * rng.standard_normal((2 * P * K, dim))
    idents = np.repeat(np.arange(P), 2 * K)
    mods = np.array((["V"] * K + ["T"] * K) * P)
    return LabeledBatch(features=feats, identity=idents, modality=mods, P=P, K=K)
