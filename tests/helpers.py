"""Independent brute-force oracles used across the test suite.

Everything here is written as plain scalar loops on purpose: these
implementations must not share code paths with the library they check.
"""

import copy
import math
from fractions import Fraction

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


def exact_rank_oracle(query, gallery):
    """Gallery indices by ascending exact squared distance, computed in
    rational arithmetic over the stored float64 values; exact ties break to
    the lowest index."""
    q = [Fraction(float(x)) for x in query]
    dists = [sum((x - Fraction(float(y))) ** 2 for x, y in zip(q, row)) for row in gallery]
    return sorted(range(len(gallery)), key=lambda i: (dists[i], i))


def ranked_blocks_reference(query_feats, gallery_feats):
    """`evaluation._ranked_blocks` as float argsorts: the same blocks of GEMM
    scores, each ranked by numpy's default argsort, and a row whose sorted
    scores do not increase strictly (it holds an exact tie) ranked again by
    the stable argsort, so ties break to the lowest index."""
    from xmodal.numerics import DIST_BLOCK_BYTES
    q = np.asarray(query_feats, dtype=np.float64)
    g = np.asarray(gallery_feats, dtype=np.float64)
    mean = g.mean(axis=0)
    unique, column = np.unique(g, axis=0, return_inverse=True)
    column = column.reshape(-1)
    unique -= mean
    sq_norms = np.einsum("ij,ij->i", unique, unique)
    unique *= -2.0
    rows = max(1, DIST_BLOCK_BYTES // (8 * g.shape[0]))
    for start in range(0, q.shape[0], rows):
        dist = (q[start:start + rows] - mean) @ unique.T
        dist += sq_norms
        dist = dist[:, column]
        order = np.argsort(dist, axis=1)
        ranked = np.take_along_axis(dist, order, axis=1)
        tied = ~np.all(ranked[:, 1:] > ranked[:, :-1], axis=1)
        order[tied] = np.argsort(dist[tied], axis=1, kind="stable")
        yield start, order


def run_protocol_reference(test_dataset, params, config, protocol):
    """(cmc, map, skipped) of `protocol` by a loop that scores every
    trial's gallery anew with `evaluate_features`. Single-shot, each trial
    keeps one row per identity: for each identity in `np.unique` order,
    `rng.integers` picks one of its `flatnonzero` rows."""
    from xmodal.evaluation import _encode_features, evaluate_features

    rng = np.random.default_rng(protocol.seed)
    query_feats, query_labels = _encode_features(test_dataset, params, config, protocol.query_modality)
    gallery_feats, gallery_labels = _encode_features(test_dataset, params, config,
                                                     protocol.gallery_modality)
    cmc = {int(r): 0.0 for r in protocol.ranks_reported}
    map_score, skipped = 0.0, 0
    for _ in range(protocol.trials):
        g_feats, g_labels = gallery_feats, gallery_labels
        if protocol.single_shot:
            keep = []
            for ident in np.unique(gallery_labels):
                pool = np.flatnonzero(gallery_labels == ident)
                keep.append(pool[rng.integers(len(pool))])
            keep = np.sort(np.asarray(keep))
            g_feats, g_labels = gallery_feats[keep], gallery_labels[keep]
        result = evaluate_features(query_feats, query_labels, g_feats, g_labels, protocol.ranks_reported)
        for r in cmc:
            cmc[r] += result.cmc[r]
        map_score += result.map_score
        skipped += result.skipped_queries
    t = protocol.trials
    return {r: v / t for r, v in cmc.items()}, map_score / t, skipped


def random_pk_batch(rng, P, K, dim, scale=1.0):
    """A structurally valid metric batch with Gaussian features."""
    from xmodal.losses import LabeledBatch

    feats = scale * rng.standard_normal((2 * P * K, dim))
    idents = np.repeat(np.arange(P), 2 * K)
    mods = np.array((["V"] * K + ["T"] * K) * P)
    return LabeledBatch(features=feats, identity=idents, modality=mods, P=P, K=K)


# ---------------------------------------------------------------------------
# Per-array and per-row forms of kernels that now run over flat arrays. The
# library's forms must match these bit for bit.
# ---------------------------------------------------------------------------

class AdamReference:
    """Per-array Adam: one moment pair per named parameter."""

    def __init__(self, params, learning_rate):
        from xmodal.numerics import ADAM_BETA1, ADAM_BETA2, ADAM_EPSILON

        self.learning_rate, self.beta1, self.beta2, self.epsilon = (
            learning_rate, ADAM_BETA1, ADAM_BETA2, ADAM_EPSILON)
        self.step_count = 0
        self.first_moment = {k: np.zeros_like(v) for k, v in params.items()}
        self.second_moment = {k: np.zeros_like(v) for k, v in params.items()}


def adam_step_reference(params, grads, state):
    if set(grads) != set(params):
        raise ValueError("adam_step: parameter/gradient name mismatch")
    state.step_count += 1
    t = state.step_count
    bc1 = 1.0 - state.beta1 ** t
    bc2 = 1.0 - state.beta2 ** t
    for name, p in params.items():
        g = grads[name]
        if g.shape != p.shape:
            raise ValueError(f"adam_step: shape mismatch for {name}")
        if not np.all(np.isfinite(g)):
            raise ValueError(f"adam_step: non-finite gradient for {name}")
        m = state.first_moment[name]
        v = state.second_moment[name]
        m *= state.beta1
        m += (1.0 - state.beta1) * g
        v *= state.beta2
        v += (1.0 - state.beta2) * g * g
        p -= state.learning_rate * (m / bc1) / (np.sqrt(v / bc2) + state.epsilon)
    return params, state


def adam_step_via_reference(theta, grad, state):
    """`adam_step(theta, grad, state)` done by `adam_step_reference` on the
    named views of the two vectors, with per-array moments kept on `state`."""
    params = state.views(theta)
    if not hasattr(state, "reference"):
        state.reference = AdamReference(params, state.learning_rate)
    state.reference.learning_rate = state.learning_rate
    adam_step_reference(params, state.views(grad), state.reference)


def sample_pk_batch_reference(dataset, P, K, rng):
    """PK sampling row by row from the `samples` view, reading the uniforms
    of `sample_pk_batch` one identity and one pool at a time: per identity,
    the visible and thermal sample ids in row order; identities ranked by
    (uniform, index); then W uniforms per chosen pool, in (identity,
    modality) order, ranked by (uniform, position) over the pool's own
    positions; then K integers per pool smaller than K, in the same order.
    The rows are gathered one at a time into the visible half or the
    thermal half of the batch."""
    from xmodal.losses import LabeledBatch

    index, by_id = {}, {}
    for s in dataset.samples:
        vis, thm = index.setdefault(s.identity, ([], []))
        (vis if s.modality == "V" else thm).append(s.sample_id)
        by_id[s.sample_id] = s
    eligible = [i for i, (vis, thm) in index.items() if vis and thm]
    if len(eligible) < P:
        raise ValueError(f"sample_pk_batch: only {len(eligible)} identities with both modalities, need {P}")
    eligible.sort()
    u = rng.random(len(eligible))
    chosen = sorted(range(len(eligible)), key=lambda i: (u[i], i))[:P]
    pools = [(ident, mod, pool) for ident in (eligible[ci] for ci in chosen)
             for mod, pool in zip("VT", index[ident])]
    width = max(len(pool) for _, _, pool in pools)
    picks = []
    for _, _, pool in pools:
        keys = rng.random(width)
        picks.append(sorted(range(len(pool)), key=lambda j: (keys[j], j))[:K])
    for k, (_, _, pool) in enumerate(pools):
        if len(pool) < K:
            picks[k] = [int(rng.integers(len(pool))) for _ in range(K)]
    halves = {"V": [], "T": []}  # (feature, identity, modality) per row
    for (ident, mod, pool), chosen_picks in zip(pools, picks):
        for p in chosen_picks:
            halves[mod].append((by_id[pool[p]].feature, ident, mod))
    features, idents, mods = zip(*halves["V"], *halves["T"])
    return LabeledBatch(features=np.stack(features), identity=np.array(idents),
                        modality=np.array(mods), P=P, K=K)


def validate_reference(batch):
    """The check `LabeledBatch` makes when it is built, as one count per
    (identity, modality), on any object with the batch's fields."""
    if batch.P < 2 or batch.K < 1:
        raise ValueError("LabeledBatch: need P >= 2 identities and K >= 1 rows each")
    n = batch.features.shape[0]
    if n != 2 * batch.P * batch.K:
        raise ValueError(f"LabeledBatch: expected {2 * batch.P * batch.K} rows, got {n}")
    if batch.identity.shape != (n,) or batch.modality.shape != (n,):
        raise ValueError("LabeledBatch: label arrays must match row count")
    idents = np.unique(batch.identity)
    if idents.size != batch.P:
        raise ValueError(f"LabeledBatch: expected {batch.P} identities, got {idents.size}")
    for ident in idents:
        for mod in ("V", "T"):
            count = int(np.sum((batch.identity == ident) & (batch.modality == mod)))
            if count != batch.K:
                raise ValueError(
                    f"LabeledBatch: identity {ident} has {count} {mod} rows, expected {batch.K}")


def pairwise_distances_reference(a, b):
    """Distances from one unblocked difference tensor."""
    diff = a[:, None, :] - b[None, :, :]
    return np.sqrt(np.einsum("ijk,ijk->ij", diff, diff) + STAB)


def pair_distances_reference(x, idx):
    """`numerics.pair_distances` for one matrix: entries of the unblocked
    matrix, out[k, i] = d(x[i], x[idx[k, i]])."""
    return pairwise_distances_reference(x, x)[np.arange(x.shape[0]), idx]


def certified_picks_reference(features, offsets):
    """`losses._certified_picks` with every pick made on the unblocked exact
    matrix, candidate by candidate, ties to the lowest index. Even pools
    are positive pools, odd pools negative ones."""
    dist = pairwise_distances_reference(features, features)
    pools, n = offsets.shape[:2]
    picks = np.empty((pools, n), dtype=np.intp)
    for k in range(pools):
        sign = -1.0 if k % 2 else 1.0  # the farthest positive, the nearest negative
        for i in range(n):
            cands = [j for j in range(n) if offsets[k, i, j] == 0.0]
            picks[k, i] = max(cands, key=lambda j: (sign * dist[i, j], -j))
    return picks, np.ones((pools, n), dtype=bool)


def triplet_reference(features, offsets, rho):
    """(loss, grad) of the one hinge over the (positive, negative) pools
    `offsets`, mined by `certified_picks_reference` on the unblocked exact
    matrix: the hinges summed over the anchors, and each active hinge's
    gradient scattered by `scatter_pairs_reference`."""
    dist = pairwise_distances_reference(features, features)
    (hp, hn), _ = certified_picks_reference(features, offsets)
    rows = np.arange(features.shape[0])
    d_pos, d_neg = dist[rows, hp], dist[rows, hn]
    term = rho + d_pos - d_neg
    a = np.flatnonzero(term > 0.0)
    gp = (features[a] - features[hp[a]]) / d_pos[a][:, None]
    gn = (features[a] - features[hn[a]]) / d_neg[a][:, None]
    grad = np.zeros(features.shape)
    grad[a] = gp - gn
    scatter_pairs_reference(grad, hp[a], hn[a], gp, gn)
    return float(np.maximum(term, 0.0).sum()), grad


def class_labels_reference(identity, idents):
    """The class label of each row by a dict lookup: an identity's class is
    its position in the sorted `idents`."""
    label_map = {ident: i for i, ident in enumerate(idents)}
    return np.array([label_map[i] for i in identity])


def scatter_pairs_reference(grad, p, n, gp, gn):
    """The mined-hinge scatter as two row-wise np.add.at calls, in place."""
    np.add.at(grad, p, -gp)
    np.add.at(grad, n, gn)


# ---------------------------------------------------------------------------
# The finite-difference oracle point by point. The library's stacked oracle
# must give these estimates bit for bit.
# ---------------------------------------------------------------------------

TWO_POINT = ((1.0, -1.0), (1.0, -1.0), 2.0)
FOUR_POINT = ((2.0, 1.0, -1.0, -2.0), (-1.0, 8.0, -8.0, 1.0), 12.0)


def finite_differences_reference(f, x, entries, stencil, h=1e-5):
    """Estimates of df/dx at the flat indices `entries` of the contiguous
    array x, with f a scalar function of one point: x is perturbed in
    place, f called at each stencil point in turn, and x restored after
    every entry. `stencil` is (steps in units of h, their weights, the
    denominator in units of h)."""
    steps, weights, denominator = stencil
    flat = x.reshape(-1)
    out = np.empty(len(entries))
    for k, i in enumerate(entries):
        orig = flat[i]
        vals = []
        for step in steps:
            flat[i] = orig + step * h
            vals.append(f(x))
        flat[i] = orig
        total = weights[0] * vals[0]
        for weight, val in zip(weights[1:], vals[1:]):
            total += weight * val
        out[k] = total / (denominator * h)
    return out


def check_triplet_reference(rng, kind):
    """`harness._check_triplet` with its sweeps made point by point, by
    `finite_differences_reference` on the one-matrix `triplet_loss`:
    (worst error, the estimates in the order they were made)."""
    from xmodal import harness
    from xmodal import losses as L
    from xmodal.numerics import max_relative_error, relative_errors

    P, K = int(rng.integers(2, 4)), int(rng.integers(1, 3))
    dim = int(rng.integers(2, 6))
    rho = 0.5
    batch = harness._stable_pk_features(rng, P, K, dim, rho)
    _, grad = {"batch_hard": lambda: L.batch_hard_triplet(batch.features, batch.identity, rho),
               "cross": lambda: L.cross_modality_triplet(batch, rho),
               "intra": lambda: L.intra_modality_triplet(batch, rho)}[kind]()
    pools = L.triplet_pools(batch, kind)
    x = batch.features.copy()

    def f(v):
        return L.triplet_loss(v, pools, rho)

    fd = finite_differences_reference(f, x, range(x.size), TWO_POINT).reshape(x.shape)
    estimates = [fd.copy()]
    failing = np.flatnonzero(relative_errors(grad, fd) >= harness.GRADCHECK_THRESHOLD)
    if failing.size:
        estimates.append(finite_differences_reference(f, x, failing, FOUR_POINT))
        fd.reshape(-1)[failing] = estimates[-1]
    return max_relative_error(grad, fd), estimates


def check_full_model_reference(rng, mfi, **setup):
    """`harness._check_full_model` with its sweeps made point by point, by
    `per_point`: each evaluation copies every parameter array and runs the
    whole train step, forward and backward, on one point."""
    from xmodal import harness
    from xmodal.losses import loss_targets
    from xmodal.numerics import per_point

    for _ in range(50):
        cfg, params, loss_cfg, x, labels, P, K = harness._full_model_setup(rng, mfi, **setup)
        if harness._metric_margins(params, cfg, loss_cfg, x, labels, P, K) > 1e-3:
            break
    else:
        raise RuntimeError("could not build a kink-free model instance")
    targets = loss_targets(labels, P, K)
    _, grads = harness._train_step(params, cfg, loss_cfg, x, targets)
    worst = 0.0
    for name in sorted(params.values):
        def f(v, name=name):
            trial = copy.deepcopy(params)
            trial.values[name] = v
            return harness._train_step(trial, cfg, loss_cfg, x, targets)[0].total

        worst = max(worst, harness._gradient_error(grads[name], per_point(f), params.values[name]))
    return worst


def batchnorm_inputs(params, cfg, cache):
    """The input of each batchnorm of an encode, by layer, made again from
    its cache's dense caches, each (input, weight), as the layers made them."""
    from xmodal.encoder import fuse

    v = params.values
    head_x, head_w = cache[2]
    inputs = {"head.bn": head_x @ head_w + v["head.fc.b"]}
    if cfg.mfi_enabled:
        tap, mid_w = cache[5][0]
        inputs["mid.bn"] = fuse(tap @ mid_w + v["mid.fc.b"], inputs["head.bn"], cfg.fusion)
    return inputs


def running_stats_reference(params, cfg, xv, xt):
    """The running stats after one train step, made as a train-mode
    batchnorm that updates its running arrays in place would make them:
    per call, running = (1 - momentum) * running + momentum * batch, the
    visible stream's calls first. Returns new arrays; `params` is left as
    it was."""
    from xmodal.encoder import encode

    state = {k: v.copy() for k, v in params.bn_state.items()}
    momentum = cfg.bn_momentum
    for x, modality in ((xv, "visible"), (xt, "thermal")):
        _, cache = encode(params, cfg, x, modality, mode="eval")
        for layer, v in batchnorm_inputs(params, cfg, cache).items():
            n = v.shape[0]
            mean = v.sum(axis=0) / n
            centered = v - mean
            var = (centered * centered).sum(axis=0) / n
            for stat, batch in (("running_mean", mean), ("running_var", var)):
                running = state[f"{layer}.{stat}"]
                running *= 1.0 - momentum
                running += momentum * batch
    return state


# ---------------------------------------------------------------------------
# The train step stream by stream. The stacked step encodes and
# backpropagates both streams in one call each, and must match it bit for bit.
# ---------------------------------------------------------------------------

def stack_streams(bundle_v, bundle_t):
    """The two streams' bundles as one, in the layout `total_loss_forward`
    reads: each output a (..., 2, n, ·) stack, visible first, with the
    bundles' leading stack axes broadcast."""
    from dataclasses import fields

    from xmodal.encoder import FeatureBundle

    stacked = {}
    for field in fields(FeatureBundle):
        a, b = getattr(bundle_v, field.name), getattr(bundle_t, field.name)
        if field.name != "batch_stats" and a is not None:
            stacked[field.name] = np.stack(np.broadcast_arrays(a, b), axis=-3)
    return FeatureBundle(**stacked)


def train_step_reference(params, cfg, loss_cfg, x, targets, out=None):
    """`harness._train_step` stream by stream: an encode of each half of x
    by its own stream, the running stats folded visible first, the loss on
    the stacked outputs, and one backward call per stream, visible first."""
    from xmodal import losses as L
    from xmodal.encoder import MODALITIES, encode, encode_backward

    n = x.shape[0] // 2
    encoded = [encode(params, cfg, half, mod) for half, mod in zip((x[:n], x[n:]), MODALITIES)]
    for bundle, _ in encoded:
        for name, batch in bundle.batch_stats.items():
            running = params.bn_state[name]
            running *= 1.0 - cfg.bn_momentum
            running += cfg.bn_momentum * batch
    breakdown, cache = L.total_loss_forward(stack_streams(*(b for b, _ in encoded)), targets,
                                            loss_cfg, cfg)
    grads = L.total_loss_backward(cache)
    for k, (_, stream_cache) in enumerate(encoded):
        stream_grads = L.BundleGrads(**{f: None if g is None else g[k] for f, g in vars(grads).items()})
        out = encode_backward(params, cfg, stream_cache, stream_grads, out=out)
    return breakdown, out
