import dataclasses
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xmodal.encoder import EncoderConfig, FeatureBundle, encode, init_encoder
from xmodal.losses import (
    LabeledBatch,
    LossConfig,
    batch_hard_triplet,
    cross_modality_triplet,
    dual_modality_triplet,
    intra_modality_triplet,
    loss_targets,
    mining_margins,
    pk_layout,
    _certified_picks,
    _hinges_forward,
    _scatter_pairs,
    total_loss,
    total_loss_forward,
    triplet_loss,
    triplet_pools,
)
from xmodal.numerics import (
    batchnorm_forward,
    finite_diff_entries,
    finite_diff_grad,
    gemm_score_bound,
    l2_normalize_forward,
    max_relative_error,
    per_point,
)

from helpers import (
    FOUR_POINT,
    TWO_POINT,
    batch_hard_oracle,
    batchnorm_inputs,
    certified_picks_reference,
    cross_modality_oracle,
    finite_differences_reference,
    intra_modality_oracle,
    mining_margins_oracle,
    pairwise_distances_reference,
    random_pk_batch,
    scatter_pairs_reference,
    triplet_reference,
    validate_reference,
)

RHO = 0.5


def branch(mfi, backbone=True):
    """An encoder config whose flags decide `total_loss`'s backbone term."""
    return EncoderConfig(input_dim=4, num_classes=3, mfi_enabled=mfi,
                         backbone_loss_enabled=backbone)


def four_point_batch():
    """v1=(0,0) v2=(2,0) t1=(1,0) t2=(3,0); identities 1 and 2."""
    feats = np.array([[0.0, 0.0], [2.0, 0.0], [1.0, 0.0], [3.0, 0.0]])
    return LabeledBatch(
        features=feats,
        identity=np.array([1, 2, 1, 2]),
        modality=np.array(["V", "V", "T", "T"]),
        P=2, K=1,
    )


class TestBatchHard:
    def test_satisfied_margin_is_zero(self):
        feats = np.array([[0.0], [0.0], [10.0], [10.0]])
        labels = np.array([0, 0, 1, 1])
        loss, grad = batch_hard_triplet(feats, labels, RHO)
        assert loss == 0.0
        np.testing.assert_array_equal(grad, np.zeros_like(feats))

    def test_degenerate_collapse(self):
        feats = np.zeros((4, 3))
        labels = np.array([0, 0, 1, 1])
        loss, _ = batch_hard_triplet(feats, labels, RHO)
        assert abs(loss - 4 * RHO) < 1e-12

    def test_matches_bruteforce_oracle(self):
        rng = np.random.default_rng(21)
        for _ in range(30):
            P, K = int(rng.integers(2, 5)), int(rng.integers(1, 4))
            feats = rng.standard_normal((P * K, 3))
            labels = np.repeat(np.arange(P), K)
            loss, _ = batch_hard_triplet(feats, labels, RHO)
            assert abs(loss - batch_hard_oracle(feats, labels, RHO)) < 1e-12

    def test_single_identity_rejected(self):
        with pytest.raises(ValueError, match="at least 2 identities"):
            batch_hard_triplet(np.ones((3, 2)), np.zeros(3), RHO)

    def test_label_count_mismatch_rejected(self):
        with pytest.raises(ValueError, match="one label per feature row"):
            batch_hard_triplet(np.ones((4, 2)), np.array([0, 1, 0]), RHO)


class TestCrossModality:
    def test_four_point_fixture(self):
        loss, _ = cross_modality_triplet(four_point_batch(), RHO)
        assert abs(loss - 1.0) < 1e-12

    def test_aligned_modalities_zero(self):
        feats = np.array([[0.0, 0.0], [5.0, 0.0], [0.0, 0.0], [5.0, 0.0]])
        batch = LabeledBatch(features=feats, identity=np.array([0, 1, 0, 1]),
                             modality=np.array(["V", "V", "T", "T"]), P=2, K=1)
        loss, _ = cross_modality_triplet(batch, RHO)
        # self-pair distances carry the sqrt stabilizer (~1e-6), not exact zero
        assert loss < 1e-5

    def test_modality_swap_symmetry(self):
        rng = np.random.default_rng(4)
        batch = random_pk_batch(rng, 3, 2, 4)
        swapped = LabeledBatch(
            features=batch.features,
            identity=batch.identity,
            modality=np.where(batch.modality == "V", "T", "V"),
            P=batch.P, K=batch.K)
        assert abs(cross_modality_triplet(batch, RHO)[0]
                   - cross_modality_triplet(swapped, RHO)[0]) < 1e-12
        assert abs(intra_modality_triplet(batch, RHO)[0]
                   - intra_modality_triplet(swapped, RHO)[0]) < 1e-12

    def test_matches_oracle(self):
        rng = np.random.default_rng(33)
        for _ in range(30):
            batch = random_pk_batch(rng, int(rng.integers(2, 5)), int(rng.integers(1, 4)), 3)
            loss, _ = cross_modality_triplet(batch, RHO)
            assert abs(loss - cross_modality_oracle(batch, RHO)) < 1e-12


class TestIntraModality:
    def test_four_point_fixture_zero(self):
        loss, _ = intra_modality_triplet(four_point_batch(), RHO)
        assert loss == 0.0

    def test_collapse_value(self):
        # every anchor's positive and negative distances cancel, leaving rho;
        # P*K anchors per modality -> 2*P*K*rho in total
        P, K = 3, 2
        batch = random_pk_batch(np.random.default_rng(0), P, K, 4, scale=0.0)
        loss, _ = intra_modality_triplet(batch, RHO)
        assert abs(loss - 2 * P * K * RHO) < 1e-12

    def test_matches_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(30):
            batch = random_pk_batch(rng, int(rng.integers(2, 5)), int(rng.integers(1, 4)), 3)
            loss, _ = intra_modality_triplet(batch, RHO)
            assert abs(loss - intra_modality_oracle(batch, RHO)) < 1e-12


class TestDualAndComposition:
    def test_lambda1_zero_equals_cross(self):
        batch = four_point_batch()
        cfg = LossConfig(rho=RHO, lambda1=0.0)
        loss, _, _, _ = dual_modality_triplet(batch, cfg)
        assert loss == cross_modality_triplet(batch, RHO)[0]

    def test_four_point_dual(self):
        loss, _, _, _ = dual_modality_triplet(four_point_batch(), LossConfig(rho=RHO, lambda1=0.1))
        assert abs(loss - 1.0) < 1e-12

    def test_composition_identity_over_lambda_grid(self):
        # the dual loss is the cross hinge plus lambda1 times the intra hinge
        # of the single losses' forward and gradient steps: exactly their
        # composition, loss, per-term losses and gradient alike, in the
        # per-identity row layout and in the sampler's
        rng = np.random.default_rng(8)
        for P, K, dim in ((2, 1, 2), (3, 2, 4), (4, 3, 5), (8, 4, 16)):
            idents, mods = pk_layout(P, K)
            for _ in range(3):
                per_identity = random_pk_batch(rng, P, K, dim)
                sampled = LabeledBatch(features=per_identity.features, identity=idents,
                                       modality=mods, P=P, K=K)
                for batch in (per_identity, sampled):
                    lc, gc = cross_modality_triplet(batch, RHO)
                    li, gi = intra_modality_triplet(batch, RHO)
                    for lam1 in (0.0, 0.1, 1.0, 2.0, 2.5, 5.0):
                        ld, grad, loss_c, loss_i = dual_modality_triplet(
                            batch, LossConfig(rho=RHO, lambda1=lam1))
                        assert (ld, loss_c, loss_i) == (lc + lam1 * li, lc, li)
                        np.testing.assert_array_equal(grad, gc + lam1 * gi)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(12)
        batch = random_pk_batch(rng, 3, 2, 4)
        assert mining_margins(batch, RHO) > 1e-3
        cfg = LossConfig(rho=RHO, lambda1=0.1)

        def f(v):
            b = LabeledBatch(features=v, identity=batch.identity,
                             modality=batch.modality, P=3, K=2)
            return dual_modality_triplet(b, cfg)[0]

        _, grad, _, _ = dual_modality_triplet(batch, cfg)
        assert max_relative_error(grad, finite_diff_grad(per_point(f), batch.features)) < 1e-4


def as_exact_path(batch, lambda1=0.1):
    """Check every triplet loss against the exact oracle, bit for bit; return
    which picks each loss made again exactly, by loss name.

    The oracle mines each pool candidate by candidate on the unblocked exact
    matrix, lowest index on ties (`certified_picks_reference`), and takes
    the hinges and their gradients from that matrix (`triplet_reference`).
    The dual loss is the cross loss plus lambda1 times the intra loss.
    """
    feats = batch.features
    offsets = triplet_pools(batch, "cross", "intra")
    picks, redone = _certified_picks(feats, offsets)
    np.testing.assert_array_equal(picks, certified_picks_reference(feats, offsets)[0])
    got = {"batch_hard": batch_hard_triplet(feats, batch.identity, RHO),
           "cross": cross_modality_triplet(batch, RHO),
           "intra": intra_modality_triplet(batch, RHO)}
    redone = {"dual": redone}
    for kind, (loss, grad) in got.items():
        pools = triplet_pools(batch, kind)
        want_loss, want_grad = triplet_reference(feats, pools, RHO)
        assert loss == want_loss, kind
        np.testing.assert_array_equal(grad, want_grad)
        redone[kind] = _certified_picks(feats, pools)[1]
    loss, grad, loss_c, loss_i = dual_modality_triplet(batch, LossConfig(rho=RHO, lambda1=lambda1))
    (lc, gc), (li, gi) = got["cross"], got["intra"]
    assert (loss_c, loss_i, loss) == (lc, li, lc + lambda1 * li)
    np.testing.assert_array_equal(grad, gc + lambda1 * gi)
    return redone


def near_duplicate_batch(eps, seed=0, P=4, K=3, dim=16):
    """A PK batch whose rows are copies of two unit rows, each moved by eps
    times a Gaussian row: every pool holds candidates nearly tied."""
    rng = np.random.default_rng(seed)
    base = rng.standard_normal((2, dim))
    base /= np.linalg.norm(base, axis=1, keepdims=True)
    batch = random_pk_batch(rng, P, K, dim)
    return dataclasses.replace(batch, features=base[rng.integers(0, 2, 2 * P * K)] + eps * batch.features)


class TestCertifiedMining:
    """Every triplet loss mines on GEMM scores; where the bound cannot
    certify a pick it mines on exact distances, so each loss always
    matches the exact oracle."""

    @pytest.mark.parametrize("seed, P, K, dim, unit", [
        (0, 2, 1, 2, False), (1, 3, 2, 4, False), (2, 4, 3, 5, False),
        (3, 8, 4, 128, True), (4, 8, 4, 64, True)])
    def test_ordinary_batches_need_no_exact_rows(self, seed, P, K, dim, unit):
        batch = random_pk_batch(np.random.default_rng(seed), P, K, dim)
        if unit:
            batch = dataclasses.replace(
                batch, features=batch.features / np.linalg.norm(batch.features, axis=1, keepdims=True))
        for kind, redone in as_exact_path(batch).items():
            assert not redone.any(), kind

    def test_exact_duplicate_rows(self):
        for kind, redone in as_exact_path(near_duplicate_batch(0.0)).items():
            assert redone.any(), kind

    @pytest.mark.parametrize("eps", [1e-9, 1e-12, 1e-15])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_near_duplicate_rows(self, eps, seed):
        for kind, redone in as_exact_path(near_duplicate_batch(eps, seed)).items():
            assert redone.any(), kind

    def test_hardest_candidates_tied_within_the_bound(self):
        # rows 2 and 3 are visible row 0's cross positives, at squared
        # distances 2 and 2 + 2t + t^2: apart by about 7e-15, less than
        # twice the bound, yet about 11 ulps apart as distances. Row 1, a
        # plain positive at squared distance 2, joins the tie there.
        t = 2.0 ** -48
        feats = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, 1.0, 0.0], [0.0, 1.0 + t, 0.0],
                          [-1.0, 0.0, 0.0], [0.0, -1.0, 0.0], [0.0, 0.0, -1.0], [-0.5, -0.5, 0.0]])
        batch = LabeledBatch(features=feats, identity=np.repeat([0, 1], 4),
                             modality=np.array(list("VVTTVVTT")), P=2, K=2)
        assert 2 * t < 2 * gemm_score_bound(2.0, 3)  # the largest squared norm is about 1
        redone = as_exact_path(batch)
        for kind in ("dual", "batch_hard", "cross"):
            assert redone[kind][0, 0], kind
        assert _certified_picks(feats, triplet_pools(batch, "cross", "intra"))[0][0, 0] == 3
        for kind in ("batch_hard", "cross"):
            assert _certified_picks(feats, triplet_pools(batch, kind))[0][0, 0] == 3

    def test_features_that_overflow_the_gemm(self):
        # squared norms overflow; the differences, about 1e151, do not
        rng = np.random.default_rng(5)
        batch = random_pk_batch(rng, 3, 2, 4)
        batch = dataclasses.replace(batch, features=1e154 * (1.0 + 1e-3 * batch.features))
        # a case the exact path handles is not reported as a fault
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            redone = as_exact_path(batch)
            mining_margins(batch, RHO)
        for kind in redone:
            assert redone[kind].all(), kind


def loss_bundles(rng, mfi, num_classes=3, P=3, K=2, d=4):
    """Random encoder outputs of both streams, as the (2, n, ·) stack
    `total_loss` reads, and the batch's class labels: unit embedding rows,
    as wide as the fused skip feature and with backbone logits if `mfi`."""
    n = P * K
    feature = rng.standard_normal((2, n, 2 * d if mfi else d))
    b = FeatureBundle(
        embedding=l2_normalize_forward(feature)[0],
        logits=rng.standard_normal((2, n, num_classes)),
        backbone_logits=rng.standard_normal((2, n, num_classes)) if mfi else None,
    )
    return b, np.tile(np.repeat(np.arange(P), K), 2)


def perturbations(x, rng, entries=3, h=1e-5):
    """x itself, then copies of x with a few entries moved by +h and by -h."""
    yield x
    for i in rng.choice(x.size, size=min(entries, x.size), replace=False):
        for step in (h, -h):
            v = x.copy()
            v.reshape(-1)[i] += step
            yield v


class TestForwardStep:
    """The forward step that finite-difference sweeps evaluate, on pools
    checked once, gives the (loss, grad) functions' loss bit for bit."""

    def test_triplet_losses(self):
        rng = np.random.default_rng(70)
        for P, K, dim in ((2, 1, 2), (3, 2, 4), (4, 3, 5)):
            batch = random_pk_batch(rng, P, K, dim)
            pools = {kind: triplet_pools(batch, kind) for kind in ("batch_hard", "cross", "intra")}
            for v in perturbations(batch.features, rng):
                b = LabeledBatch(features=v, identity=batch.identity,
                                 modality=batch.modality, P=P, K=K)
                assert triplet_loss(v, pools["batch_hard"], RHO) == \
                    batch_hard_triplet(v, batch.identity, RHO)[0]
                assert triplet_loss(v, pools["cross"], RHO) == cross_modality_triplet(b, RHO)[0]
                assert triplet_loss(v, pools["intra"], RHO) == intra_modality_triplet(b, RHO)[0]
                loss_d, _, loss_c, loss_i = dual_modality_triplet(b, LossConfig(rho=RHO, lambda1=0.1))
                assert loss_c == triplet_loss(v, pools["cross"], RHO)
                assert loss_i == triplet_loss(v, pools["intra"], RHO)
                assert loss_d == loss_c + 0.1 * loss_i

    def test_triplet_pools_check_the_batch_once(self, monkeypatch):
        # a LabeledBatch is checked when it is built, and the losses only
        # read it; the plain pools check the labels of any rows
        batch = four_point_batch()
        with pytest.raises(ValueError, match="unknown kind"):
            triplet_pools(batch, "plain")
        single = dict(features=batch.features, identity=np.zeros(4, dtype=int),
                      modality=batch.modality, P=2, K=1)
        with pytest.raises(ValueError, match="no negative candidates for anchor row 0"):
            triplet_pools(SimpleNamespace(**single), "batch_hard")
        with pytest.raises(ValueError, match="LabeledBatch: expected 2 identities, got 1"):
            LabeledBatch(**single)
        checks = []
        check = LabeledBatch.__post_init__

        def counted(b):
            checks.append(b)
            check(b)

        monkeypatch.setattr(LabeledBatch, "__post_init__", counted)
        for kind in ("batch_hard", "cross", "intra"):
            triplet_pools(batch, kind)
        cross_modality_triplet(batch, RHO)
        intra_modality_triplet(batch, RHO)
        dual_modality_triplet(batch, LossConfig(rho=RHO))
        mining_margins(batch, RHO)
        assert checks == []
        built = four_point_batch()
        assert len(checks) == 1 and checks[0] is built

    def test_triplet_pools_stack_in_the_order_given(self):
        rng = np.random.default_rng(76)
        kinds = ("batch_hard", "cross", "intra")
        for P, K in ((2, 1), (3, 2)):
            idents, mods = pk_layout(P, K)
            for batch in (random_pk_batch(rng, P, K, 3),
                          LabeledBatch(features=rng.standard_normal((2 * P * K, 3)),
                                       identity=idents, modality=mods, P=P, K=K)):
                single = {kind: triplet_pools(batch, kind) for kind in kinds}
                assert all(pools.shape == (2, 2 * P * K, 2 * P * K) for pools in single.values())
                np.testing.assert_array_equal(triplet_pools(batch, "cross", "intra"),
                                              np.concatenate([single["cross"], single["intra"]]))
                np.testing.assert_array_equal(triplet_pools(batch, "intra", *kinds),
                                              np.concatenate([single[k] for k in ("intra",) + kinds]))
        with pytest.raises(ValueError, match="triplet_pools: unknown kind 'dual'"):
            triplet_pools(batch, "cross", "dual")

    @pytest.mark.parametrize("mfi", [True, False])
    def test_total_loss(self, mfi):
        rng = np.random.default_rng(71)
        bundle, labels = loss_bundles(rng, mfi)
        cfg = LossConfig(rho=RHO, lambda1=0.1, lambda2=2.0)
        targets = loss_targets(labels, 3, 2)
        fields = ("embedding", "logits", "backbone_logits") if mfi else ("embedding", "logits")
        for field in fields:
            original = getattr(bundle, field)
            for v in perturbations(original, rng):
                setattr(bundle, field, v)
                forward, _ = total_loss_forward(bundle, targets, cfg, branch(mfi))
                assert forward == total_loss(bundle, labels, cfg, branch(mfi), 3, 2)[0]
            setattr(bundle, field, original)

    def test_targets_checked(self):
        rng = np.random.default_rng(72)
        bundle, labels = loss_bundles(rng, mfi=False)
        with pytest.raises(ValueError, match="LabeledBatch: identity 1 has 3 V rows"):
            loss_targets(np.concatenate([[0, 0, 1, 1, 2, 1], labels[6:]]), 3, 2)
        targets = loss_targets(np.concatenate([labels[:4], labels[6:10]]), 2, 2)
        with pytest.raises(ValueError, match=r"total_loss: streams of shape \(2, 6\) for 4 visible "
                                             "and 4 thermal labels"):
            total_loss_forward(bundle, targets, LossConfig(rho=RHO), branch(False))


class TestStackedForward:
    """The forward step on a stack of feature matrices, as a finite-difference
    sweep calls it, gives each matrix's own loss, picks and distances bit for
    bit."""

    @staticmethod
    def tied_stack(rng, batch, m):
        """m perturbed copies of the batch's features, some with tied rows."""
        stack = batch.features + 0.1 * rng.standard_normal((m,) + batch.features.shape)
        stack[1, 3] = stack[1, 2]  # two equal rows
        stack[2] = stack[2, 0]  # every row equal: every pick is a tie
        stack[4] = stack[3]  # two equal matrices
        return stack

    @pytest.mark.parametrize("kind", ["batch_hard", "cross", "intra"])
    def test_triplet_loss_is_each_matrix_loss(self, kind):
        rng = np.random.default_rng(73)
        P, K, dim, m = 3, 2, 4, 200
        n = 2 * P * K
        batch = random_pk_batch(rng, P, K, dim)
        pools = triplet_pools(batch, kind)
        stack = self.tied_stack(rng, batch, m)
        losses = triplet_loss(stack, pools, RHO)
        assert losses.shape == (m,)
        assert np.array_equal(losses, [triplet_loss(v, pools, RHO) for v in stack])
        assert np.array_equal(triplet_loss(stack.reshape(8, 25, n, dim), pools, RHO),
                              losses.reshape(8, 25))
        assert type(triplet_loss(stack[0], pools, RHO)) is float

        picks, redone = _certified_picks(stack, pools)
        for k, v in enumerate(stack):
            one_picks, one_redone = _certified_picks(v, pools)
            assert np.array_equal(picks[k], one_picks) and np.array_equal(redone[k], one_redone)
            assert np.array_equal(one_picks, certified_picks_reference(v, pools)[0])
        # a matrix of equal rows ties every pick: the exact path takes the
        # lowest candidate index
        assert redone[2].all()
        assert np.array_equal(picks[2], np.argmax(pools == 0.0, axis=2))

    def test_dual_loss_is_each_matrix_loss(self):
        # certified and exact-path picks alike: matrices 1 and 2 hold tied
        # rows and matrix 5 near-duplicates, which the bound cannot certify
        rng = np.random.default_rng(75)
        P, K, dim, m = 3, 2, 4, 12
        batch = random_pk_batch(rng, P, K, dim)
        offsets = triplet_pools(batch, "cross", "intra")
        stack = self.tied_stack(rng, batch, m)
        stack[5] = near_duplicate_batch(1e-12, 0, P, K, dim).features
        weights = (1.0, 0.1)

        def dual(v):  # (loss, cross loss, intra loss) of the forward step
            loss, (loss_c, loss_i), _ = _hinges_forward(v, offsets, weights, RHO)
            return loss, loss_c, loss_i

        picks, redone = _certified_picks(stack, offsets)
        loss, loss_c, loss_i = dual(stack)
        assert redone[[1, 2, 5]].any(axis=(1, 2)).all() and not redone[0].any()
        for k, v in enumerate(stack):
            one_picks, one_redone = _certified_picks(v, offsets)
            assert np.array_equal(picks[k], one_picks) and np.array_equal(redone[k], one_redone)
            assert (loss[k], loss_c[k], loss_i[k]) == dual(v)
        assert np.array_equal(dual(stack.reshape(3, 4, 2 * P * K, dim))[0], loss.reshape(3, 4))

    @pytest.mark.parametrize("kind", ["batch_hard", "cross", "intra"])
    def test_sweeps_match_the_per_point_loop(self, kind):
        # both stencils, on a sweep of one triplet_loss call per stack
        rng = np.random.default_rng(74)
        batch = random_pk_batch(rng, 3, 2, 5)
        pools = triplet_pools(batch, kind)
        x = batch.features

        def f(v):
            return triplet_loss(v, pools, RHO)

        want = finite_differences_reference(f, x.copy(), range(x.size), TWO_POINT)
        assert np.array_equal(finite_diff_grad(f, x).reshape(-1), want)
        entries = rng.permutation(x.size)[:17]
        want = finite_differences_reference(f, x.copy(), entries, FOUR_POINT)
        assert np.array_equal(finite_diff_entries(f, x, entries), want)


class TestProperties:
    def test_non_negativity(self):
        rng = np.random.default_rng(40)
        for _ in range(20):
            batch = random_pk_batch(rng, 3, 2, 3)
            assert cross_modality_triplet(batch, RHO)[0] >= 0.0
            assert intra_modality_triplet(batch, RHO)[0] >= 0.0

    def test_translation_invariance(self):
        rng = np.random.default_rng(41)
        batch = random_pk_batch(rng, 3, 2, 4)
        shifted = LabeledBatch(features=batch.features + 7.3, identity=batch.identity,
                               modality=batch.modality, P=3, K=2)
        for fn in (cross_modality_triplet, intra_modality_triplet):
            assert abs(fn(batch, RHO)[0] - fn(shifted, RHO)[0]) < 1e-9

    def test_gradient_sparsity(self):
        # rows never mined with an active hinge get zero gradient
        rng = np.random.default_rng(42)
        batch = random_pk_batch(rng, 3, 2, 4)
        loss, grad = cross_modality_triplet(batch, RHO)
        feats, labels = batch.features, batch.identity
        vis = np.flatnonzero(batch.modality == "V")
        thm = np.flatnonzero(batch.modality == "T")
        touched = set()
        for anchors, cands in ((vis, thm), (thm, vis)):
            d = pairwise_distances_reference(feats[anchors], feats[cands])
            for ai, a in enumerate(anchors):
                same = labels[cands] == labels[a]
                hp = int(np.argmax(np.where(same, d[ai], -np.inf)))
                hn = int(np.argmin(np.where(same, np.inf, d[ai])))
                if RHO + d[ai, hp] - d[ai, hn] > 0:
                    touched |= {a, cands[hp], cands[hn]}
        for i in range(feats.shape[0]):
            if i not in touched:
                np.testing.assert_array_equal(grad[i], np.zeros(feats.shape[1]))

    def test_labeled_batch_invariants_rejected(self):
        batch = four_point_batch()
        with pytest.raises(ValueError):
            LabeledBatch(features=batch.features, identity=np.array([1, 1, 1, 1]),
                         modality=batch.modality, P=2, K=1)

    def test_built_batch_is_frozen(self):
        # a stray tag swapped in after the check would be read as thermal
        batch = four_point_batch()
        stray = np.array(["V", "V", "T", "X"])
        with pytest.raises(dataclasses.FrozenInstanceError):
            batch.modality = stray
        np.testing.assert_array_equal(batch.modality, ["V", "V", "T", "T"])
        with pytest.raises(ValueError, match="identity 2 has 0 T rows, expected 1"):
            dataclasses.replace(batch, modality=stray)

    def test_validate_matches_per_identity_reference(self):
        # every rejection, in the reference's order and wording, and a
        # pass, each made when the batch is built
        def case(ident, mod, P=3, K=2, n=None, labels=None):
            n = len(ident) if n is None else n
            ident = np.array(ident) if labels is None else labels
            return dict(features=np.zeros((n, 2)), identity=ident,
                        modality=np.array(list(mod)), P=P, K=K)

        ok_ids, ok_mods = [5, 5, 5, 5, 2, 2, 2, 2, 9, 9, 9, 9], "VVTTVVTTVVTT"
        cases = [
            case(ok_ids, ok_mods),
            case(ok_ids[::-1], ok_mods[::-1]),
            case(ok_ids, ok_mods, P=1, K=6),
            case(ok_ids, ok_mods, P=6, K=0),
            case(ok_ids, ok_mods, n=11),
            case(ok_ids, ok_mods, labels=np.array(ok_ids[:-1])),
            case([5] * 8 + [2] * 4, ok_mods),
            case([5, 5, 5, 5, 2, 2, 2, 2, 9, 9, 9, 1], ok_mods),
            case(ok_ids, "VVTTVVVTVVTT"),
            case(ok_ids, "VVTTVVTTVTTT"),
            case(ok_ids, "VVTTVXTTVVTT"),
            case(ok_ids, "VVTTVVTTVVTX"),
            case(ok_ids, "TTVVVVTTVVTT"),
            case([5, 2, 5, 2, 2, 5, 9, 9, 2, 9, 5, 9], "VVTTVXTTVVTT"),
            case([5, 5, 5, 5, 2, 2, 2, 2, 9, 9, 9, 9], "VVTTVVTTVVTv"),
        ]
        for fields in cases:
            try:
                validate_reference(SimpleNamespace(**fields))
                expected = None
            except ValueError as exc:
                expected = str(exc)
            if expected is None:
                LabeledBatch(**fields)
            else:
                with pytest.raises(ValueError) as err:
                    LabeledBatch(**fields)
                assert str(err.value) == expected

    @pytest.mark.parametrize("P, K", [(1, 2), (0, 3)])
    def test_too_small_batch_rejected(self, P, K):
        with pytest.raises(ValueError, match="need P >= 2"):
            random_pk_batch(np.random.default_rng(0), P, K, 3)


class TestMiningMargins:
    def test_matches_oracle(self):
        rng = np.random.default_rng(60)
        for _ in range(50):
            batch = random_pk_batch(rng, int(rng.integers(2, 5)), int(rng.integers(1, 4)), 3)
            rho = float(rng.uniform(0.1, 1.0))
            assert abs(mining_margins(batch, rho) - mining_margins_oracle(batch, rho)) < 1e-12

    @pytest.mark.parametrize("eps", [0.0, 1e-15, 1e-12, 1e-9])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_near_duplicate_rows_match_oracle(self, eps, seed):
        # nearly tied pools, read on the exact distances: exact copies tie
        batch = near_duplicate_batch(eps, seed)
        margin = mining_margins(batch, RHO)
        assert abs(margin - mining_margins_oracle(batch, RHO)) < 1e-12
        assert margin == 0.0 if eps == 0.0 else margin < 1e-12

    def test_tied_negatives_give_zero(self):
        # t1 and v2 sit at the same distance from v1, so v1's hardest plain
        # negative is a tie
        feats = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 0.0], [-1.0, 0.0]])
        batch = LabeledBatch(features=feats, identity=np.array([1, 2, 1, 2]),
                             modality=np.array(["V", "V", "T", "T"]), P=2, K=1)
        assert mining_margins(batch, RHO) == 0.0


def triplet_losses(batch, rho):
    """Plain, cross and intra (loss, grad) of one batch."""
    return [batch_hard_triplet(batch.features, batch.identity, rho),
            cross_modality_triplet(batch, rho),
            intra_modality_triplet(batch, rho)]


@st.composite
def pk_batches(draw):
    """A Gaussian PK batch and a permutation of its rows."""
    P, K = draw(st.integers(2, 4)), draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    batch = random_pk_batch(rng, P, K, draw(st.integers(1, 5)))
    return batch, np.array(draw(st.permutations(range(2 * P * K))))


class TestMiningInvariants:
    @settings(max_examples=60, deadline=None)
    @given(pk_batches(), st.floats(0.0, 2.0))
    def test_row_permutation_equivariance(self, case, rho):
        batch, perm = case
        permuted = LabeledBatch(features=batch.features[perm], identity=batch.identity[perm],
                                modality=batch.modality[perm], P=batch.P, K=batch.K)
        for (loss, grad), (loss_p, grad_p) in zip(triplet_losses(batch, rho),
                                                  triplet_losses(permuted, rho)):
            assert abs(loss - loss_p) < 1e-12
            np.testing.assert_allclose(grad_p, grad[perm], rtol=0.0, atol=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(pk_batches(), st.floats(0.0, 2.0), st.floats(0.0, 2.0))
    def test_hinge_does_not_decrease_as_rho_grows(self, case, rho_a, rho_b):
        batch, _ = case
        low, high = sorted((rho_a, rho_b))
        for (loss_low, _), (loss_high, _) in zip(triplet_losses(batch, low),
                                                 triplet_losses(batch, high)):
            assert loss_low <= loss_high


class TestTotalLoss:
    def test_composition_identity(self):
        rng = np.random.default_rng(50)
        bundle, labels = loss_bundles(rng, mfi=False)
        for lam2 in (0.0, 0.1, 1.0, 2.0, 5.0):
            cfg = LossConfig(rho=RHO, lambda1=0.1, lambda2=lam2)
            bd, _ = total_loss(bundle, labels, cfg, branch(False), 3, 2)
            assert abs(bd.total - (bd.softmax + lam2 * bd.dual)) < 1e-12
            assert abs(bd.dual - (bd.cross + 0.1 * bd.intra)) < 1e-12

    def test_backbone_term_added_when_enabled(self):
        rng = np.random.default_rng(51)
        bundle, labels = loss_bundles(rng, mfi=True)
        cfg = LossConfig(rho=RHO, lambda2=1.0)
        bd_on, _ = total_loss(bundle, labels, cfg, branch(True, backbone=True), 3, 2)
        bd_off, _ = total_loss(bundle, labels, cfg, branch(True, backbone=False), 3, 2)
        assert bd_on.backbone > 0.0
        assert bd_off.backbone == 0.0
        assert abs(bd_on.total - (bd_off.total + bd_on.backbone)) < 1e-12

    def test_branch_selection(self):
        # encode chooses the embedding: the L2-normalized skip feature with
        # MFI on, the backbone feature with MFI off, each made again here
        # from its batchnorm's input; the loss reads what it was given
        rng = np.random.default_rng(52)
        for mfi in (True, False):
            enc_cfg = EncoderConfig(input_dim=5, num_classes=3, stage_dims=(6, 5), tap_stage=1, d=4,
                                    mfi_enabled=mfi, backbone_loss_enabled=False)
            params = init_encoder(enc_cfg, 52)
            for v in params.values.values():
                v += 0.05 * rng.standard_normal(v.shape)
            layer = "mid" if mfi else "head"
            for mode in ("train", "eval"):
                bundle, cache = encode(params, enc_cfg, rng.standard_normal((2, 6, 5)),
                                       ("visible", "thermal"), mode=mode)
                feature, _, _ = batchnorm_forward(
                    batchnorm_inputs(params, enc_cfg, cache)[f"{layer}.bn"],
                    params.values[f"{layer}.bn.gamma"], params.values[f"{layer}.bn.beta"],
                    params.bn_state[f"{layer}.bn.running_mean"], params.bn_state[f"{layer}.bn.running_var"],
                    eps=enc_cfg.bn_epsilon, train=mode == "train")
                assert np.array_equal(bundle.embedding, l2_normalize_forward(feature)[0]), (mfi, mode)
                assert bundle.embedding.shape[-1] == (enc_cfg.fused_dim if mfi else enc_cfg.d)
                assert (bundle.backbone_logits is None) != mfi
        # with MFI on, the softmax term reads the skip logits; without the
        # backbone loss no gradient reaches the backbone logits
        bundle, labels = loss_bundles(rng, mfi=True)
        cfg = LossConfig(rho=RHO, lambda2=0.0)
        bd, grads = total_loss(bundle, labels, cfg, branch(True, backbone=False), 3, 2)
        assert np.any(grads.d_logits != 0.0)
        assert grads.d_backbone_logits is None

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_loss_rejected(self, bad):
        rng = np.random.default_rng(53)
        bundle, labels = loss_bundles(rng, mfi=True)
        bundle.logits[1, 1, 0] = bad  # thermal row 1
        with np.errstate(invalid="ignore"), \
                pytest.raises(ValueError, match="total_loss: non-finite loss"):
            total_loss(bundle, labels, LossConfig(rho=RHO), branch(True), 3, 2)


class TestHingeScatter:
    """The flat scatter of `_mined_hinge` against two row-wise np.add.at calls."""

    @staticmethod
    def _both(grad, p, n, gp, gn):
        want, got = grad.copy(), grad.copy()
        scatter_pairs_reference(want, p, n, gp, gn)
        _scatter_pairs(got, p, n, gp, gn)
        return want, got

    @pytest.mark.parametrize("rows, dim", [(12, 5), (64, 128)])
    def test_bit_identical_with_repeated_and_shared_rows(self, rows, dim):
        rng = np.random.default_rng(rows * dim)
        for active in (1, rows, 3 * rows):  # 3 * rows draws must repeat targets
            p = rng.integers(0, rows, active)
            n = rng.integers(0, rows, active)
            n[: active // 2 + 1] = p[: active // 2 + 1]  # rows that are both a positive and a negative
            gp, gn = rng.standard_normal((2, active, dim))
            want, got = self._both(rng.standard_normal((rows, dim)), p, n, gp, gn)
            assert np.bincount(np.concatenate([p, n])).max() > 1
            assert np.array_equal(want, got)

    @pytest.mark.parametrize("rows, dim", [(12, 5), (64, 128)])
    def test_empty_active_set_leaves_grad(self, rows, dim):
        grad = np.random.default_rng(0).standard_normal((rows, dim))
        none = np.zeros(0, dtype=np.intp)
        want, got = self._both(grad, none, none, np.zeros((0, dim)), np.zeros((0, dim)))
        assert np.array_equal(got, grad) and np.array_equal(want, got)
