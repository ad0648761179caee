import hashlib
import re

import numpy as np
import pytest

from xmodal.data import (
    DataError,
    Dataset,
    SynthConfig,
    generate_synthetic,
    load_dataset,
    random_rotation,
    sample_pk_batch,
    save_dataset,
    split_identity_disjoint,
)

from helpers import sample_pk_batch_reference, validate_reference

COLUMNS = ("features", "identity", "modality", "sample_id")


def small_synth(**kw):
    base = dict(num_identities=6, per_identity_per_modality=4, input_dim=3,
                cluster_std=0.2, noise_std=0.05, seed=1)
    base.update(kw)
    return SynthConfig(**base)


def modality_transform(cfg):
    """The rotation and offset `generate_synthetic` draws first from its seed."""
    rng = np.random.default_rng(cfg.seed)
    rotation = random_rotation(cfg.input_dim, rng)
    offset = rng.standard_normal(cfg.input_dim)
    return rotation, offset / np.linalg.norm(offset)


def rows_of(ds, ident, modality):
    return ds.features[(ds.identity == ident) & (ds.modality == modality)]


def assert_same_rows(a, b):
    for column in COLUMNS:
        got, want = getattr(a, column), getattr(b, column)
        assert got.dtype == want.dtype, column
        np.testing.assert_array_equal(got, want)


class TestGenerate:
    def test_identity_transform_zero_noise_matches_modalities(self):
        # the rotation, then the offset, are the seed's first draws
        cfg = small_synth(cluster_std=0.0, noise_std=0.0)
        ds = generate_synthetic(cfg)
        rotation, offset = modality_transform(cfg)
        assert ds.identities() == list(range(6))
        for ident in ds.identities():
            vis = rows_of(ds, ident, "V")
            assert vis.shape == (4, 3)
            assert (vis == vis[0]).all()
            thermal = rows_of(ds, ident, "T")
            np.testing.assert_array_equal(thermal, np.broadcast_to(rotation @ vis[0] + offset, (4, 3)))

    def test_same_seed_bit_identical(self):
        assert_same_rows(generate_synthetic(small_synth()), generate_synthetic(small_synth()))

    # sha256 of the saved file, as generated before the dataset was held as
    # arrays: fixes the RNG draw order, the row order and the file format
    @pytest.mark.parametrize("seed, digest", [
        (1, "92b14ff13296976180fb0e14eb51c1088e91712b7f91ad7a389102f2ec46b844"),
        (2, "abe2e0897193bdb265fbdc837df42073b2eb2b92cc43714e2663d65e38a2274e"),
    ])
    def test_saved_bytes_are_pinned(self, seed, digest, tmp_path):
        path = tmp_path / "ds.txt"
        save_dataset(generate_synthetic(small_synth(seed=seed)), path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    def test_row_layout(self):
        ds = generate_synthetic(small_synth(num_identities=3, per_identity_per_modality=2))
        assert len(ds) == 12 and ds.input_dim == 3
        assert ds.identity.tolist() == [0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2]
        assert ds.modality.tolist() == ["V", "V", "T", "T"] * 3
        assert ds.sample_id.tolist() == list(range(12))

    def test_sample_views_follow_the_arrays(self):
        ds = generate_synthetic(small_synth())
        for view, rows in ((ds.samples, np.arange(len(ds))),
                           (ds.by_modality("T"), np.flatnonzero(ds.modality == "T"))):
            assert len(view) == len(rows)
            for s, i in zip(view, rows):
                np.testing.assert_array_equal(s.feature, ds.features[i])
                assert (s.identity, s.modality, s.sample_id) == (
                    ds.identity[i], ds.modality[i], ds.sample_id[i])

    def test_law_of_large_numbers(self):
        cfg = SynthConfig(num_identities=50, per_identity_per_modality=20, input_dim=8,
                          cluster_std=0.3, noise_std=0.0, seed=3)
        ds = generate_synthetic(cfg)
        assert len(ds) == 2000
        rotation, offset = modality_transform(cfg)
        # both means estimate one center, the thermal one moved by the transform
        # (a rotation keeps the spread), so their gap is within 2x the bound
        bound = 3 * cfg.cluster_std / np.sqrt(20)
        within = 0
        total = 0
        for ident in ds.identities():
            vis_mean = rows_of(ds, ident, "V").mean(axis=0)
            thm_mean = rows_of(ds, ident, "T").mean(axis=0)
            within += int(np.sum(np.abs(rotation @ vis_mean + offset - thm_mean) < 2 * bound))
            total += 8
        assert within / total >= 0.95

    def test_rotation_is_orthogonal(self):
        q = random_rotation(5, np.random.default_rng(0))
        np.testing.assert_allclose(q @ q.T, np.eye(5), atol=1e-12)
        assert np.linalg.det(q) > 0


class TestFileFormat:
    def test_round_trip(self, tmp_path):
        ds = generate_synthetic(small_synth())
        path = tmp_path / "ds.txt"
        save_dataset(ds, path)
        assert_same_rows(load_dataset(path), ds)

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "ds.txt"
        path.write_text("# xmodal-dataset v1 dim=2\n\n5,1,T,1.5,-2.0\n  \n3,0,V,0.25,4e-3\n\n")
        ds = load_dataset(path)
        np.testing.assert_array_equal(ds.features, [[1.5, -2.0], [0.25, 4e-3]])
        assert ds.identity.tolist() == [1, 0]
        assert ds.modality.tolist() == ["T", "V"]
        assert ds.sample_id.tolist() == [5, 3]

    @pytest.mark.parametrize("dim", ["0", "-1"])
    def test_dimension_below_one_rejected_at_header(self, dim, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text(f"# xmodal-dataset v1 dim={dim}\n0,0,V,1.0\n")
        with pytest.raises(DataError, match=f":1: dimension must be >= 1, got {dim}$"):
            load_dataset(path)

    def test_huge_dimension_fails_on_field_count(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("# xmodal-dataset v1 dim=1000000000000\n0,0,V,1.0\n")
        with pytest.raises(DataError, match=":2: expected 1000000000003 fields, got 4"):
            load_dataset(path)

    @pytest.mark.parametrize("value, message", [
        ("abc", "unparseable feature value"),
        ("", "unparseable feature value"),
        ("nan", "non-finite feature value"),
        ("-inf", "non-finite feature value"),
        ("1e400", "non-finite feature value"),
    ])
    def test_bad_value_on_a_later_line_names_it(self, value, message, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("# xmodal-dataset v1 dim=2\n0,0,V,1.0,2.0\n1,0,T,3.0,4.0\n\n"
                        f"2,1,V,5.0,{value}\n3,1,T,7.0,8.0\n")
        with pytest.raises(DataError, match=f":5: {message}$"):
            load_dataset(path)

    @pytest.mark.parametrize("ids", ["9223372036854775808,0", "1,9223372036854775808",
                                     "-9223372036854775809,0"])
    def test_ids_outside_64_bits_name_line(self, ids, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text(f"# xmodal-dataset v1 dim=1\n0,0,V,1.0\n{ids},T,2.0\n")
        with pytest.raises(DataError, match=":3: sample_id or identity outside the 64-bit range"):
            load_dataset(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("")
        with pytest.raises(DataError):
            load_dataset(path)

    def test_wrong_field_count_names_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("# xmodal-dataset v1 dim=4\n0,0,V,1.0,2.0,3.0\n")
        with pytest.raises(DataError, match=":2:"):
            load_dataset(path)

    def test_unknown_modality(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("# xmodal-dataset v1 dim=1\n0,0,X,1.0\n")
        with pytest.raises(DataError, match="modality"):
            load_dataset(path)

    def test_stray_modality_tag_rejected_in_code(self):
        # a Dataset built in code checks its tags as load_dataset does: a row
        # tagged neither V nor T would otherwise join the visible pools
        modality = np.tile(np.array(list("VXTTVV")), 4)
        identity = np.repeat(np.arange(4), 6)
        with pytest.raises(ValueError, match="Dataset: row 1 has modality tag 'X', expected 'V' or 'T'"):
            Dataset(features=np.zeros((24, 2)), identity=identity, modality=modality,
                    sample_id=np.arange(24))

    def test_duplicate_sample_id_names_line(self, tmp_path):
        path = tmp_path / "dup.txt"
        path.write_text("# xmodal-dataset v1 dim=1\n0,0,V,1.0\n1,0,T,2.0\n0,1,V,3.0\n")
        with pytest.raises(DataError, match=r":4: duplicate sample_id 0 \(first on line 2\)"):
            load_dataset(path)

    def test_missing_header(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0,0,V,1.0\n")
        with pytest.raises(DataError, match="header"):
            load_dataset(path)

    # the format is UTF-8 text: other bytes are a DataError naming the file
    @pytest.mark.parametrize("content", [b"\xff\xfe", b"# xmodal-dataset v1 dim=1\n\xff,0,V,1.0\n"],
                             ids=["not-utf8", "row-not-utf8"])
    def test_not_utf8_names_the_file(self, content, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_bytes(content)
        with pytest.raises(DataError, match=f"^cannot read {re.escape(str(path))}: .*can't decode byte 0xff"):
            load_dataset(path)


class TestSplit:
    def _dataset(self, n_idents):
        identity = np.repeat(np.arange(n_idents), 2)
        return Dataset(features=identity[:, None].astype(np.float64), identity=identity,
                       modality=np.tile(np.array(["V", "T"]), n_idents),
                       sample_id=np.arange(2 * n_idents))

    def test_regdb_sizing(self):
        train, test = split_identity_disjoint(self._dataset(412), 0.5, seed=0)
        assert len(train.identities()) == 206
        assert len(test.identities()) == 206

    def test_disjoint(self):
        train, test = split_identity_disjoint(self._dataset(20), 0.7, seed=1)
        assert not set(train.identities()) & set(test.identities())

    def test_deterministic(self):
        a = split_identity_disjoint(self._dataset(20), 0.5, seed=5)[0]
        b = split_identity_disjoint(self._dataset(20), 0.5, seed=5)[0]
        assert a.identities() == b.identities()

    def test_bad_fraction(self):
        with pytest.raises(ValueError):
            split_identity_disjoint(self._dataset(4), 1.0, seed=0)

    # split_hash values as computed before the dataset was held as arrays
    @pytest.mark.parametrize("seed, hashes", [(0, ("c25f0797fcd2ff6b", "2c936161cfa3dc70")),
                                              (3, ("abb086e1d7d3f65c", "c15592937d0abcf3"))])
    def test_keeps_row_order_and_split_hash(self, seed, hashes):
        from xmodal.harness import split_hash

        base = generate_synthetic(small_synth(num_identities=10))
        assert tuple(split_hash(part) for part in split_identity_disjoint(base, 0.5, seed)) == hashes
        # rows shuffled, so row order differs from sample-id order
        order = np.random.default_rng(seed).permutation(len(base))
        ds = Dataset(**{column: getattr(base, column)[order] for column in COLUMNS})
        parts = split_identity_disjoint(ds, 0.5, seed)
        assert tuple(split_hash(part) for part in parts) == hashes
        for part in parts:
            keep = set(part.identities())
            rows = [i for i in range(len(ds)) if ds.identity[i] in keep]
            assert_same_rows(part, Dataset(**{column: getattr(ds, column)[rows]
                                               for column in COLUMNS}))


class TestPKSampler:
    def test_reference_batch_shape(self):
        ds = generate_synthetic(small_synth(num_identities=10, per_identity_per_modality=6))
        batch = sample_pk_batch(ds, 8, 4, np.random.default_rng(0))
        assert batch.features.shape[0] == 64
        validate_reference(batch)  # sample_pk_batch's own check ran when it built the batch

    def test_replacement_when_pool_small(self):
        ds = generate_synthetic(small_synth(per_identity_per_modality=2))
        batch = sample_pk_batch(ds, 3, 4, np.random.default_rng(0))
        validate_reference(batch)
        # 4 rows from a 2-sample pool must contain duplicates
        vis = batch.features[(batch.identity == batch.identity[0]) & (batch.modality == "V")]
        assert np.unique(vis, axis=0).shape[0] <= 2

    def test_too_few_identities(self):
        ds = generate_synthetic(small_synth(num_identities=3))
        with pytest.raises(ValueError):
            sample_pk_batch(ds, 4, 2, np.random.default_rng(0))

    def test_property_sweep(self):
        ds = generate_synthetic(small_synth(num_identities=12, per_identity_per_modality=5))
        rng = np.random.default_rng(7)
        for _ in range(300):
            validate_reference(sample_pk_batch(ds, 4, 3, rng))

    def test_identity_coverage(self):
        ds = generate_synthetic(small_synth(num_identities=20, per_identity_per_modality=3))
        rng = np.random.default_rng(8)
        seen = set()
        for _ in range(1000):
            seen |= set(sample_pk_batch(ds, 8, 2, rng).identity.tolist())
        assert seen == set(range(20))

    def test_rows_are_the_visible_half_then_the_thermal_half(self):
        # both halves list the drawn identities in the same order, K rows
        # each, and every row is a dataset row of its identity and modality
        ds = generate_synthetic(small_synth(num_identities=10, per_identity_per_modality=3))
        rng = np.random.default_rng(9)
        for P, K in ((2, 1), (4, 3), (5, 4)):
            batch = sample_pk_batch(ds, P, K, rng)
            n = P * K
            assert (batch.modality[:n] == "V").all() and (batch.modality[n:] == "T").all()
            np.testing.assert_array_equal(batch.identity[:n], batch.identity[n:])
            np.testing.assert_array_equal(batch.identity[:n], np.repeat(batch.identity[:n:K], K))
            for feature, ident, modality in zip(batch.features, batch.identity, batch.modality):
                source = (ds.identity == ident) & (ds.modality == modality)
                assert (ds.features[source] == feature).all(axis=1).any()

    def test_draws_are_uniform(self):
        # unequal pools, some smaller than K, and an identity that is never
        # eligible; each row's one feature is its row index
        sizes = {0: (1, 4), 1: (2, 3), 2: (3, 7), 3: (5, 2), 4: (8, 1), 5: (4, 6), 6: (3, 3),
                 7: (2, 0)}
        labels = [(i, mod) for i, pair in sizes.items() for mod, n in zip("VT", pair)
                  for _ in range(n)]
        ident, modality = (np.array(column) for column in zip(*labels))
        order = np.random.default_rng(1).permutation(len(labels))
        ident, modality, n = ident[order], modality[order], len(labels)
        ds = Dataset(features=np.arange(n, dtype=np.float64)[:, None], identity=ident,
                     modality=modality, sample_id=np.arange(n))
        P, K, batches, eligible = 3, 3, 20_000, len(sizes) - 1
        rng = np.random.default_rng(24)
        rows = np.empty((batches, 2, P, K), dtype=np.intp)  # the layout's (modality, slot, pick)
        for b in range(batches):
            rows[b] = sample_pk_batch(ds, P, K, rng).features[:, 0].reshape(2, P, K)
        chosen = ident[rows[:, 0, :, 0]]  # (batch, slot)
        np.testing.assert_array_equal(ident[rows], np.broadcast_to(chosen[:, None, :, None], rows.shape))
        assert (modality[rows] == np.array(["V", "T"])[:, None, None]).all()
        # an identity is in a batch with probability q = P/E
        q = P / eligible
        counts = np.bincount(chosen.ravel(), minlength=len(sizes))
        assert counts[7] == 0
        assert (abs(counts[:7] - batches * q) < 5 * np.sqrt(batches * q * (1 - q))).all()
        # a row of a pool of s rows: picked once with probability K/s when
        # s >= K, else Binomial(K, 1/s) times, in each batch that has its identity
        s = np.array([sizes[i][m == "T"] for i, m in zip(ident, modality)], dtype=np.float64)
        second = np.where(s >= K, K / s, K / s * (1 - 1 / s) + (K / s) ** 2)  # E[picks^2]
        sd = np.sqrt(batches * (q * second - (q * K / s) ** 2))
        picks = np.bincount(rows.ravel(), minlength=n)
        assert (abs(picks - batches * q * K / s) < 5 * sd)[ident != 7].all()
        # no pick repeats within a pool of at least K rows; one of exactly K gives all
        ordered = np.sort(rows, axis=-1)
        full = s[rows[..., 0]] >= K
        assert not (np.diff(ordered, axis=-1) == 0)[full].any()
        for i, pair in sizes.items():
            for m, mod in enumerate("VT"):
                if pair[m] == K:
                    pool = np.flatnonzero((ident == i) & (modality == mod))
                    got = ordered[:, m][chosen == i]
                    assert len(got) > 0 and (got == pool).all()

    def test_matches_row_by_row_reference(self):
        # shuffled rows, sparse sample ids, one identity with no thermal rows
        # (never eligible), and pools of 1 and 2 rows, which K=3 draws with
        # replacement; K=5 exceeds every pool, so every pool draws with replacement
        base = generate_synthetic(small_synth(num_identities=9, per_identity_per_modality=4))
        order = np.random.default_rng(3).permutation(len(base))
        rows, sample_ids = [], []
        for rank, i in enumerate(order):
            ident, modality = base.identity[i], base.modality[i]
            if ident == 0 and modality == "T":
                continue
            if ident in (1, 2) and base.sample_id[i] % 4 >= ident:
                continue
            rows.append(i)
            sample_ids.append(7 * rank + 5)
        ds = Dataset(features=base.features[rows], identity=base.identity[rows],
                     modality=base.modality[rows], sample_id=np.array(sample_ids))
        for K in (1, 3, 4, 5):
            rng, ref_rng = np.random.default_rng(K), np.random.default_rng(K)
            for _ in range(200):
                batch = sample_pk_batch(ds, 5, K, rng)
                ref = sample_pk_batch_reference(ds, 5, K, ref_rng)
                for got, want in ((batch.features, ref.features), (batch.identity, ref.identity),
                                  (batch.modality, ref.modality)):
                    assert got.dtype == want.dtype
                    np.testing.assert_array_equal(got, want)
            assert rng.bit_generator.state == ref_rng.bit_generator.state
