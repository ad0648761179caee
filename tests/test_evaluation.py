import tracemalloc
import warnings

import numpy as np
import pytest

from xmodal import encoder, evaluation
from xmodal.config import ConfigError
from xmodal.data import DataError, Dataset, SynthConfig, generate_synthetic
from xmodal.encoder import EncoderConfig, init_encoder
from xmodal.evaluation import (
    EvalProtocol,
    _encode_features,
    _ranked_blocks,
    average_precision,
    cmc_curve,
    evaluate_features,
    rank_gallery,
    run_protocol,
)
from xmodal.harness import train, TrainConfig
from xmodal.numerics import DIST_BLOCK_BYTES

from helpers import (
    average_precision_oracle,
    cmc_oracle,
    exact_rank_oracle,
    rank_oracle,
    ranked_blocks_reference,
    run_protocol_reference,
)


class TestRankGallery:
    def test_exact_match_first(self):
        gallery = np.eye(5)
        order = rank_gallery(gallery[3], gallery)
        assert order[0] == 3

    def test_tie_break_identity_permutation(self):
        gallery = np.tile(np.array([1.0, 0.0]), (4, 1))
        order = rank_gallery(np.array([0.0, 0.0]), gallery)
        np.testing.assert_array_equal(order, [0, 1, 2, 3])

    def test_matches_sort_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            q = rng.standard_normal(4)
            g = rng.standard_normal((10, 4))
            np.testing.assert_array_equal(rank_gallery(q, g), rank_oracle(q, g))

    def test_empty_gallery(self):
        with pytest.raises(ValueError):
            rank_gallery(np.ones(3), np.zeros((0, 3)))


class TestAveragePrecision:
    def test_perfect(self):
        assert average_precision([1, 0, 0]) == 1.0

    def test_fixture_5_6(self):
        assert abs(average_precision([1, 0, 1, 0]) - 5.0 / 6.0) < 1e-12

    def test_last_position(self):
        assert abs(average_precision([0, 0, 1]) - 1.0 / 3.0) < 1e-12

    def test_no_relevant_rejected(self):
        with pytest.raises(ValueError):
            average_precision([0, 0, 0])

    def test_matches_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            rel = rng.integers(0, 2, size=int(rng.integers(1, 50)))
            if not rel.any():
                rel[0] = 1
            assert abs(average_precision(rel) - average_precision_oracle(rel)) < 1e-12


class TestCMC:
    def test_first_match_at_three(self):
        rates = cmc_curve([[0, 0, 1, 0]], ranks=(1, 5))
        assert rates[1] == 0.0 and rates[5] == 1.0

    def test_all_perfect(self):
        rates = cmc_curve([[1, 0], [1, 1]], ranks=(1, 2))
        assert rates == {1: 1.0, 2: 1.0}

    def test_monotone_and_matches_oracle(self):
        rng = np.random.default_rng(3)
        lists = []
        for _ in range(20):
            rel = rng.integers(0, 2, size=15)
            if not rel.any():
                rel[rng.integers(15)] = 1
            lists.append(rel.tolist())
        ranks = list(range(1, 16))
        rates = cmc_curve(lists, ranks)
        oracle = cmc_oracle(lists, ranks)
        for r in ranks:
            assert abs(rates[r] - oracle[r]) < 1e-12
        values = [rates[r] for r in ranks]
        assert all(a <= b + 1e-15 for a, b in zip(values, values[1:]))
        assert rates[15] == 1.0


class TestEvaluateFeatures:
    def test_one_hot_is_perfect(self):
        feats = np.eye(6)
        labels = np.arange(6)
        res = evaluate_features(feats, labels, feats, labels, ranks=(1,))
        assert res.cmc[1] == 1.0 and res.map_score == 1.0

    def test_rotation_invariance(self):
        rng = np.random.default_rng(4)
        q, g = rng.standard_normal((8, 5)), rng.standard_normal((20, 5))
        ql, gl = rng.integers(0, 4, 8), rng.integers(0, 4, 20)
        rot, _ = np.linalg.qr(rng.standard_normal((5, 5)))
        a = evaluate_features(q, ql, g, gl, ranks=(1, 5))
        b = evaluate_features(q @ rot, ql, g @ rot, gl, ranks=(1, 5))
        assert abs(a.map_score - b.map_score) < 1e-9
        assert a.cmc == b.cmc

    def test_golden_five_identity_fixture(self):
        # hand-placed 1-d features: query i sits at i, gallery holds each
        # identity at i + 0.1 plus one decoy at i + 0.25 of identity (i+1)%5
        queries = np.array([[float(i)] for i in range(5)])
        qlabels = np.arange(5)
        gallery, glabels = [], []
        for i in range(5):
            gallery.append([i + 0.1]); glabels.append(i)
            gallery.append([i + 0.25]); glabels.append((i + 1) % 5)
        res = evaluate_features(queries, qlabels, np.array(gallery), np.array(glabels),
                                ranks=(1, 2))
        # every query's own match at distance 0.1 ranks first. For i >= 1 the
        # second relevant item (decoy from j = i-1) sits at distance 0.75 with
        # exactly one closer non-match -> AP = (1 + 2/3)/2 = 5/6. For i = 0 the
        # label-0 decoy wraps to position 4.25 and ranks last (10th) ->
        # AP = (1 + 2/10)/2 = 3/5. mAP = (3/5 + 4 * 5/6) / 5 = 59/75.
        assert res.cmc[1] == 1.0
        assert abs(res.map_score - 59.0 / 75.0) < 1e-12

    def test_query_without_match_excluded_with_warning(self):
        feats = np.eye(3)
        with pytest.warns(RuntimeWarning):
            res = evaluate_features(feats, np.array([0, 1, 9]), feats[:2], np.array([0, 1]),
                                    ranks=(1,))
        assert res.skipped_queries == 1
        assert res.cmc[1] == 1.0

    def test_no_query_with_a_match_is_a_data_error(self):
        feats = np.eye(3)
        with pytest.raises(DataError, match="every query lacked a gallery match"):
            evaluate_features(feats, np.array([7, 8, 9]), feats, np.array([0, 1, 2]), ranks=(1,))


def ranking_oracle(q, ql, g, gl, ranks):
    """Per-query brute-force sort, AP and CMC; the unmatched queries counted."""
    aps, lists, skipped = [], [], 0
    for f, y in zip(q, ql):
        rel = [bool(gl[i] == y) for i in rank_oracle(f, g)]
        if not any(rel):
            skipped += 1
            continue
        aps.append(average_precision_oracle(rel))
        lists.append(rel)
    return sum(aps) / len(aps), cmc_oracle(lists, ranks), skipped


class TestStreamedRanking:
    RANKS = (1, 2, 5, 10)

    def test_matches_oracle_across_block_boundaries(self):
        rng = np.random.default_rng(11)
        for _ in range(3):
            rows = int(rng.integers(600, 800))
            per_block = DIST_BLOCK_BYTES // (8 * rows)
            nq = 2 * per_block + int(rng.integers(1, per_block))
            dim = int(rng.integers(2, 6))
            g, gl = rng.standard_normal((rows, dim)), rng.integers(0, 40, rows)
            # the last gallery rows copy earlier ones under other labels
            for dst, src in ((rows - 1, 0), (rows - 2, 1), (rows - 3, rows // 2), (rows // 2 + 1, 1)):
                g[dst] = g[src]
                gl[dst] = (gl[src] + 1) % 40
            q = rng.standard_normal((nq, dim))
            # duplicates of gallery rows among the queries tie exactly at zero
            q[: 4] = g[[0, 1, rows // 2, rows - 1]]
            ql = rng.integers(0, 40, nq)
            ql[-1] = 99  # no gallery match
            with pytest.warns(RuntimeWarning, match="1 query"):
                res = evaluate_features(q, ql, g, gl, ranks=self.RANKS)
            want_map, want_cmc, want_skipped = ranking_oracle(q, ql, g, gl, self.RANKS)
            assert res.skipped_queries == want_skipped == 1
            assert abs(res.map_score - want_map) < 1e-12
            for r in self.RANKS:
                assert abs(res.cmc[r] - want_cmc[r]) < 1e-12

    def test_common_translation_keeps_oracle_ranking(self):
        rng = np.random.default_rng(13)
        q, g = rng.standard_normal((150, 16)), rng.standard_normal((300, 16))
        ql, gl = rng.integers(0, 30, 150), rng.integers(0, 30, 300)
        res = evaluate_features(q + 1e6, ql, g + 1e6, gl, ranks=self.RANKS)
        want_map, want_cmc, want_skipped = ranking_oracle(q, ql, g, gl, self.RANKS)
        assert res.skipped_queries == want_skipped
        assert abs(res.map_score - want_map) < 1e-12
        assert res.cmc == pytest.approx(want_cmc, abs=1e-12)

    def test_memory_bounded_without_query_gallery_matrix(self):
        rng = np.random.default_rng(14)
        q, g = rng.standard_normal((4000, 128)), rng.standard_normal((4000, 128))
        labels = np.arange(4000) % 1000
        tracemalloc.start()
        try:
            evaluate_features(q, labels, g, labels, ranks=self.RANKS)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # one 4000 x 4000 float64 matrix alone would take 122 MB
        assert peak < 32 * 2**20, f"peak {peak / 2**20:.1f} MB"

    def test_every_tied_row_keeps_the_lowest_index_first(self):
        # an integer grid centered on 0: the gallery mean is exactly 0 and
        # every squared distance from an integer query is an exact integer,
        # so each integer query row holds ties; Gaussian query rows hold none
        rng = np.random.default_rng(15)
        axis = np.arange(-2.0, 3.0)
        g = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1).reshape(-1, 3)
        g = g[rng.permutation(len(g))]
        gl = rng.integers(0, 5, len(g))
        per_block = DIST_BLOCK_BYTES // (8 * len(g))
        q = rng.integers(-3, 4, (2 * per_block + per_block // 2, 3)).astype(float)
        untied = np.arange(per_block + 1, len(q), 4)  # the first block is all ties
        q[untied] = rng.standard_normal((len(untied), 3))
        ql = rng.integers(0, 5, len(q))
        sq = ((q[:, None, :] - g[None, :, :]) ** 2).sum(axis=2)
        ranked = np.sort(sq, axis=1)
        has_tie = (ranked[:, 1:] == ranked[:, :-1]).any(axis=1)
        assert has_tie.sum() == len(q) - len(untied) and not has_tie[untied].any()

        want = np.array([rank_oracle(f, g) for f in q])
        blocks = list(_ranked_blocks(q, g))
        assert len(blocks) == 3
        np.testing.assert_array_equal(np.concatenate([order for _, order in blocks]), want)
        for f, row in zip(q[::7], want[::7]):
            np.testing.assert_array_equal(rank_gallery(f, g), row)
        res = evaluate_features(q, ql, g, gl, ranks=self.RANKS)
        want_map, want_cmc, want_skipped = ranking_oracle(q, ql, g, gl, self.RANKS)
        assert res.skipped_queries == want_skipped == 0
        assert abs(res.map_score - want_map) < 1e-12
        assert res.cmc == pytest.approx(want_cmc, abs=1e-12)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_features_rejected(self, bad):
        feats, labels = np.eye(3), np.arange(3)
        broken = feats.copy()
        broken[1, 2] = bad
        with pytest.raises(ValueError, match="non-finite query feature"):
            evaluate_features(broken, labels, feats, labels, ranks=(1,))
        with pytest.raises(ValueError, match="non-finite gallery feature"):
            evaluate_features(feats, labels, broken, labels, ranks=(1,))

    def test_overflowing_score_rejected(self):
        # finite features whose cross term overflows: NaN or inf scores have
        # no place in the key order
        g = np.array([[1e200, 0.0], [-1e200, 0.0], [0.0, 1.0]])
        with pytest.raises(ValueError, match="score overflowed"), np.errstate(all="ignore"):
            rank_gallery(np.array([3e200, 0.0]), g)

    def test_empty_gallery_and_no_queries_rejected(self):
        feats, labels = np.eye(3), np.arange(3)
        with pytest.raises(ValueError, match="empty gallery"):
            evaluate_features(feats, labels, np.zeros((0, 3)), np.zeros(0, int), ranks=(1,))
        with pytest.raises(ValueError, match="no queries"):
            evaluate_features(np.zeros((0, 3)), np.zeros(0, int), feats, labels, ranks=(1,))


def ranked_and_redone(q, g):
    """_ranked_blocks' orders, stacked, and how many rows it ranked again by
    a stable argsort (its only np.argsort call)."""
    redone = []
    argsort = np.argsort

    def spy(a, *args, **kwargs):
        redone.append(len(a))
        return argsort(a, *args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np, "argsort", spy)
        order = np.concatenate([order for _, order in _ranked_blocks(q, g)])
    return order, sum(redone)


def reference_order(q, g):
    return np.concatenate([order for _, order in ranked_blocks_reference(q, g)])


class TestKeyRanking:
    """The packed-key sort against the float argsorts it replaced, bit for bit."""

    @pytest.mark.parametrize("size", [1, 2, 3, 4, 5, 16, 17, 1024, 1025])
    def test_matches_the_reference_at_the_bits_boundary(self, size):
        # bits = (size - 1).bit_length() steps up just past each power of two
        rng = np.random.default_rng(size)
        g = rng.standard_normal((size, 8))
        q = rng.standard_normal((DIST_BLOCK_BYTES // (8 * size) + 3, 8))
        q[:2] = g[[0, -1]]
        for gallery in (g, g[rng.integers(0, size, size)]):  # the second draws duplicates
            order, redone = ranked_and_redone(q, gallery)
            np.testing.assert_array_equal(order, reference_order(q, gallery))
            assert redone == 0

    def test_negative_scores_match_the_reference(self):
        # queries offset from the gallery: the cross term outweighs ||g||^2
        rng = np.random.default_rng(21)
        g = rng.standard_normal((300, 16)) + 1e3
        q = rng.standard_normal((100, 16)) + 1e3 + 4.0
        centered = g - g.mean(axis=0)
        scores = (centered ** 2).sum(axis=1) - 2.0 * (q - g.mean(axis=0)) @ centered.T
        assert ((scores < 0).any(axis=1) & (scores > 0).any(axis=1)).sum() > 50
        order, redone = ranked_and_redone(q, g)
        np.testing.assert_array_equal(order, reference_order(q, g))
        assert redone == 0

    def test_duplicate_gallery_rows_tie_by_index_without_the_fallback(self):
        rng = np.random.default_rng(22)
        base = rng.standard_normal((40, 12))
        source = rng.integers(0, 40, 600)
        g = base[source]
        q = rng.standard_normal((90, 12))
        q[:5] = g[:5]
        order, redone = ranked_and_redone(q, g)
        np.testing.assert_array_equal(order, reference_order(q, g))
        assert redone == 0
        # the copies of a row form one run, in ascending index order
        ranked_source = source[order]
        same = ranked_source[:, 1:] == ranked_source[:, :-1]
        assert same.sum() == len(q) * (len(g) - np.unique(source).size)
        assert (np.diff(order, axis=1)[same] > 0).all()

    def test_unequal_scores_in_one_key_bucket_take_the_fallback(self):
        # copies perturbed by about 1e-15 relative score a few units in the
        # last place from their originals: inside one 2**7-unit key bucket
        rng = np.random.default_rng(23)
        base = rng.standard_normal((64, 16))
        base /= np.linalg.norm(base, axis=1, keepdims=True)
        g = np.concatenate([base, base * (1.0 + 1e-15 * rng.standard_normal(base.shape))])
        q = base[rng.integers(0, 64, 60)] + 0.1 * rng.standard_normal((60, 16))
        order, redone = ranked_and_redone(q, g)
        np.testing.assert_array_equal(order, reference_order(q, g))
        assert redone > 0

    def test_gaussian_gallery_takes_no_fallback(self):
        rng = np.random.default_rng(24)
        q, g = rng.standard_normal((400, 32)), rng.standard_normal((1200, 32))
        order, redone = ranked_and_redone(q, g)
        assert redone == 0
        np.testing.assert_array_equal(order, reference_order(q, g))

    def test_a_zero_score_is_never_negative_zero(self):
        # what lets equal scores share their keys' high bits: every sq_norms
        # entry is a sum of squares, so >= +0.0, and a zero sum x + y with
        # y >= +0.0 is +0.0 whatever the sign of x
        x = np.array([-0.0, 0.0, -1.5, -5e-324])
        y = np.array([0.0, 0.0, 1.5, 5e-324])
        assert (x + y == 0.0).all() and not np.signbit(x + y).any()
        z = np.full((2, 3), -0.0)
        assert not np.signbit(np.einsum("ij,ij->i", z, z)).any()

    @pytest.mark.parametrize("perm", [(0, 1, 2), (1, 0, 2), (2, 1, 0), (1, 2, 0)])
    def test_zero_scores_tie_by_index(self, perm):
        # the gallery mean is 0. Against query (0.5, 3), row (1, 0) scores
        # 1 - 2 * 0.5 = 0 by cancellation, row (0, 0) a GEMM against a -0.0
        # column plus 0, and row (-1, 0) scores 2
        rows = np.array([[1.0, 0.0], [0.0, 0.0], [-1.0, 0.0]])
        g = rows[list(perm)]
        q = np.array([[0.5, 3.0]])
        order, redone = ranked_and_redone(q, g)
        zeros = sorted([perm.index(0), perm.index(1)])
        np.testing.assert_array_equal(order, [zeros + [perm.index(2)]])
        np.testing.assert_array_equal(order, reference_order(q, g))
        assert redone == 0


def duplicate_gallery(case, rng):
    """(queries, gallery) for one way a gallery can hold duplicate rows. Each
    gallery has 402 or 403 rows: OpenBLAS rounds some equal columns of a
    GEMM that wide differently, so a twin ranked by its own column would
    not tie."""
    base = rng.standard_normal((201, 6))
    if case == "every row repeats":
        g = np.repeat(base[:134], 3, axis=0)[rng.permutation(402)]
    elif case == "signed zeros":
        base[:, ::2] = 0.0
        signed = base.copy()
        signed[:, ::2] = -0.0
        g = np.concatenate([base, signed])[rng.permutation(402)]
    elif case == "twins across query blocks":
        g = base[rng.integers(0, 30, 403)]
    else:  # "later twin sorts first": descending byte order, and the twin has +0.0 for -0.0
        base[:, 0] = 0.0
        base = base[np.argsort(base.view(np.dtype((np.void, 48))).reshape(-1))[::-1]]
        signed = base.copy()
        signed[:, 0] = -0.0
        g = np.concatenate([signed, base])
    per_block = DIST_BLOCK_BYTES // (8 * len(g))
    q = rng.standard_normal((2 * per_block + 5, 6))
    q[::per_block // 2] = g[rng.integers(0, len(g), len(q[::per_block // 2]))]
    return q, g


DUPLICATE_CASES = ["every row repeats", "signed zeros", "twins across query blocks",
                   "later twin sorts first"]


class TestDuplicateGallery:
    """Each duplicate row gets its first occurrence's GEMM column."""

    @pytest.mark.parametrize("case", DUPLICATE_CASES)
    def test_twins_tie_by_index_as_the_reference_ranks(self, case):
        q, g = duplicate_gallery(case, np.random.default_rng(41))
        _, group = np.unique(g, axis=0, return_inverse=True)  # -0.0 == +0.0
        group = group.reshape(-1)
        assert np.unique(group).size < len(g)
        blocks = list(_ranked_blocks(q, g))
        assert len(blocks) == 3
        order = np.concatenate([order for _, order in blocks])
        np.testing.assert_array_equal(order, reference_order(q, g))
        # the copies of a row form one run, in ascending index order
        ranked = group[order]
        same = ranked[:, 1:] == ranked[:, :-1]
        assert same.sum() == len(q) * (len(g) - np.unique(group).size)
        assert (np.diff(order, axis=1)[same] > 0).all()

    @pytest.mark.parametrize("case", DUPLICATE_CASES)
    def test_evaluate_features_on_duplicates(self, case):
        rng = np.random.default_rng(42)
        q, g = duplicate_gallery(case, rng)
        gl, ql = rng.integers(0, 8, len(g)), rng.integers(0, 8, len(q))
        ql[[0, -1]] = 98, 99  # no gallery match
        ranks = (1, 5, 10)
        with pytest.warns(RuntimeWarning) as caught:
            res = evaluate_features(q, ql, g, gl, ranks=ranks)
        assert [str(w.message) for w in caught] == [
            "evaluation: 2 query(ies) without a gallery match excluded"]
        want_map, want_cmc, want_skipped = ranking_oracle(q, ql, g, gl, ranks)
        assert res.skipped_queries == want_skipped == 2
        assert abs(res.map_score - want_map) < 1e-12
        assert res.cmc == pytest.approx(want_cmc, abs=1e-12)
        with pytest.raises(DataError, match="^evaluation: every query lacked a gallery match$"):
            evaluate_features(q, np.full(len(q), 99), g, gl, ranks=ranks)


class TestExactOrder:
    """GEMM orders against exact rational distances on near-duplicates."""

    @pytest.mark.parametrize("eps", [1e-9, 1e-12])
    def test_near_duplicates_rank_in_exact_order(self, eps):
        rng = np.random.default_rng(43)
        base = rng.standard_normal((40, 16))
        base /= np.linalg.norm(base, axis=1, keepdims=True)
        g = np.concatenate([base, base + eps * rng.standard_normal(base.shape)])
        q = base[rng.integers(0, 40, 20)] + 0.1 * rng.standard_normal((20, 16))
        want = np.array([exact_rank_oracle(f, g) for f in q])
        order = np.concatenate([order for _, order in _ranked_blocks(q, g)])
        np.testing.assert_array_equal(order, want)
        np.testing.assert_array_equal(rank_gallery(q[0], g), want[0])

    def test_the_oracle_is_exact_where_floats_are_not(self):
        # squared distances 1 + 2**-104, 1 + 2**-106 and 1 from the query:
        # float sums round all three to 1.0
        g = np.array([[1.0 + 2.0 ** -52, 1.0], [1.0 - 2.0 ** -53, 1.0], [1.0, 1.0]])
        q = np.array([1.0, 0.0])
        assert rank_oracle(q, g) == [0, 1, 2]
        assert exact_rank_oracle(q, g) == [2, 1, 0]


def two_stream_model(fusion, mfi):
    cfg = EncoderConfig(input_dim=12, num_classes=7, stage_dims=(40, 24), tap_stage=1,
                        d=48, fusion=fusion, mfi_enabled=mfi)
    params = init_encoder(cfg, 3)
    rng = np.random.default_rng(5)
    for v in params.bn_state.values():
        v += rng.uniform(0.1, 1.0, v.shape)  # running stats away from (0, 1)
    return cfg, params


def modality_dataset(rows, dim, rng):
    """`rows` visible rows interleaved with as many thermal ones."""
    return Dataset(features=rng.standard_normal((2 * rows, dim)),
                   identity=rng.integers(0, 50, 2 * rows),
                   modality=np.tile(np.array(["V", "T"]), rows),
                   sample_id=np.arange(2 * rows))


class TestBlockedEncode:
    @pytest.mark.parametrize("fusion", ["cat", "sum"])
    @pytest.mark.parametrize("mfi", [True, False])
    def test_equals_one_encode_call_bit_for_bit(self, fusion, mfi, monkeypatch):
        cfg, params = two_stream_model(fusion, mfi)
        out_dim = cfg.fused_dim if mfi else cfg.d
        block = DIST_BLOCK_BYTES // (8 * max(cfg.input_dim, *cfg.stage_dims, out_dim, cfg.num_classes))
        sizes = []

        def spy(p, c, x, *args, **kwargs):
            sizes.append(len(x))
            return encoder.encode(p, c, x, *args, **kwargs)

        monkeypatch.setattr(evaluation, "encode", spy)
        rng = np.random.default_rng(6)
        for rows in (1, block - 1, block, block + 1, 3 * block + 7):
            ds = modality_dataset(rows, cfg.input_dim, rng)
            sizes.clear()
            feats, labels = _encode_features(ds, params, cfg, "V")
            bundle, _ = encoder.encode(params, cfg, ds.features[::2], "visible", mode="eval")
            want = encoder.test_feature(bundle, cfg)
            assert feats.shape == want.shape == (rows, out_dim)
            np.testing.assert_array_equal(feats.view(np.int64), want.view(np.int64))
            np.testing.assert_array_equal(labels, ds.identity[::2])
            # no block over the byte bound but for one merged row, and no
            # one-row block but a one-row modality
            assert sum(sizes) == rows and max(sizes) <= block + 1
            assert min(sizes) >= min(rows, 2)
        feats, _ = _encode_features(ds, params, cfg, "T")
        bundle, _ = encoder.encode(params, cfg, ds.features[1::2], "thermal", mode="eval")
        np.testing.assert_array_equal(feats.view(np.int64), encoder.test_feature(bundle, cfg).view(np.int64))

    def test_memory_bounded_by_the_block(self):
        cfg = EncoderConfig(input_dim=32, num_classes=60, stage_dims=(64, 64, 64), tap_stage=2,
                            d=64, fusion="cat")
        params = init_encoder(cfg, 0)
        ds = modality_dataset(8000, cfg.input_dim, np.random.default_rng(7))
        tracemalloc.start()
        try:
            feats, _ = _encode_features(ds, params, cfg, "V")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # one encode call over all 8000 rows peaks near 300 times the block
        assert peak < 16 * DIST_BLOCK_BYTES + feats.nbytes, f"peak {peak / 2**20:.1f} MB"


class TestRunProtocol:
    def _setup(self):
        cfg = SynthConfig(num_identities=8, per_identity_per_modality=4, input_dim=6,
                          cluster_std=0.1, noise_std=0.0, seed=0)
        ds = generate_synthetic(cfg)
        enc = EncoderConfig(input_dim=6, num_classes=8, stage_dims=(8, 8), tap_stage=1,
                            d=5, fusion="cat")
        params = init_encoder(enc, 0)
        return ds, params, enc

    def test_single_trial_equals_direct(self):
        ds, params, enc = self._setup()
        p1 = EvalProtocol(query_modality="V", gallery_modality="T", trials=1, seed=0)
        p3 = EvalProtocol(query_modality="V", gallery_modality="T", trials=3, seed=0)
        r1 = run_protocol(ds, params, enc, p1)
        r3 = run_protocol(ds, params, enc, p3)
        # without single-shot every trial sees the full gallery
        assert abs(r1.map_score - r3.map_score) < 1e-12
        assert r1.cmc == r3.cmc

    def test_single_shot_deterministic(self):
        ds, params, enc = self._setup()
        proto = EvalProtocol(query_modality="T", gallery_modality="V", trials=10,
                             single_shot=True, seed=42)
        a = run_protocol(ds, params, enc, proto)
        b = run_protocol(ds, params, enc, proto)
        assert a.map_score == b.map_score
        assert a.cmc == b.cmc

    def test_same_modality_rejected(self):
        with pytest.raises(ConfigError):
            EvalProtocol(query_modality="V", gallery_modality="V")

    @pytest.mark.parametrize("single_shot, trials, calls", [
        (False, 1, 1), (False, 5, 1), (True, 1, 1), (True, 10, 10)])
    def test_multi_shot_gallery_scored_once(self, monkeypatch, single_shot, trials, calls):
        ds, params, enc = self._setup()
        galleries = []

        def spy(q, ql, g, gl, ranks):
            galleries.append(len(g))
            return evaluate_features(q, ql, g, gl, ranks)

        monkeypatch.setattr(evaluation, "evaluate_features", spy)
        run_protocol(ds, params, enc, EvalProtocol(trials=trials, single_shot=single_shot))
        # 8 identities with 4 thermal rows each; single-shot keeps one of each
        assert galleries == [8 if single_shot else 32] * calls

    @pytest.mark.parametrize("query, gallery", [("V", "T"), ("T", "V")])
    @pytest.mark.parametrize("single_shot, trials", [(False, 1), (False, 3), (False, 7), (True, 10)])
    def test_equals_a_trial_by_trial_loop(self, query, gallery, single_shot, trials):
        cfg, model = two_stream_model("cat", True)
        # uneven identity groups, and queries without a gallery match
        ragged = modality_dataset(90, cfg.input_dim, np.random.default_rng(11))
        for ds, params, enc in (self._setup(), (ragged, model, cfg)):
            for seed in (0, 3):
                proto = EvalProtocol(query_modality=query, gallery_modality=gallery, trials=trials,
                                     single_shot=single_shot, seed=seed)
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", RuntimeWarning)
                    got = run_protocol(ds, params, enc, proto)
                    cmc, map_score, skipped = run_protocol_reference(ds, params, enc, proto)
                assert got.cmc == cmc and got.map_score == map_score
                assert got.skipped_queries == skipped
