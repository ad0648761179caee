import numpy as np
import pytest

from xmodal.data import (
    DataError,
    Dataset,
    Sample,
    SynthConfig,
    generate_synthetic,
    load_dataset,
    random_rotation,
    sample_pk_batch,
    save_dataset,
    split_identity_disjoint,
)

from helpers import sample_pk_batch_reference


def small_synth(**kw):
    base = dict(num_identities=6, per_identity_per_modality=4, input_dim=3,
                cluster_std=0.2, noise_std=0.05, seed=1)
    base.update(kw)
    return SynthConfig(**base)


class TestGenerate:
    def test_identity_transform_zero_noise_matches_modalities(self):
        cfg = small_synth(cluster_std=0.0, noise_std=0.0,
                          modality_transform=np.eye(3), modality_offset=np.zeros(3))
        ds = generate_synthetic(cfg)
        for ident, (vis, thm) in ds.identity_index.items():
            np.testing.assert_array_equal(ds.feature_matrix(vis), ds.feature_matrix(thm))

    def test_same_seed_bit_identical(self):
        a, b = generate_synthetic(small_synth()), generate_synthetic(small_synth())
        for sa, sb in zip(a.samples, b.samples):
            np.testing.assert_array_equal(sa.feature, sb.feature)
            assert (sa.identity, sa.modality, sa.sample_id) == (sb.identity, sb.modality, sb.sample_id)

    def test_law_of_large_numbers(self):
        cfg = SynthConfig(num_identities=50, per_identity_per_modality=20, input_dim=8,
                          cluster_std=0.3, noise_std=0.0,
                          modality_transform=np.eye(8), modality_offset=np.zeros(8), seed=3)
        ds = generate_synthetic(cfg)
        assert len(ds.samples) == 2000
        # recover each center from the thermal mean (identity transform, no noise)
        bound = 3 * cfg.cluster_std / np.sqrt(20)
        within = 0
        total = 0
        for ident, (vis, thm) in ds.identity_index.items():
            vis_mean = ds.feature_matrix(vis).mean(axis=0)
            thm_mean = ds.feature_matrix(thm).mean(axis=0)
            # both means estimate the same center; their gap is within 2x the bound
            within += int(np.sum(np.abs(vis_mean - thm_mean) < 2 * bound))
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
        loaded = load_dataset(path)
        assert len(loaded.samples) == len(ds.samples)
        for a, b in zip(ds.samples, loaded.samples):
            np.testing.assert_array_equal(a.feature, b.feature)
            assert (a.identity, a.modality, a.sample_id) == (b.identity, b.modality, b.sample_id)

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


class TestSplit:
    def _dataset(self, n_idents):
        samples = []
        for i in range(n_idents):
            samples.append(Sample(np.array([float(i)]), i, "V", 2 * i))
            samples.append(Sample(np.array([float(i)]), i, "T", 2 * i + 1))
        return Dataset(samples)

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


class TestPKSampler:
    def test_reference_batch_shape(self):
        ds = generate_synthetic(small_synth(num_identities=10, per_identity_per_modality=6))
        batch = sample_pk_batch(ds, 8, 4, np.random.default_rng(0))
        assert batch.features.shape[0] == 64
        batch.validate()

    def test_replacement_when_pool_small(self):
        ds = generate_synthetic(small_synth(per_identity_per_modality=2))
        batch = sample_pk_batch(ds, 3, 4, np.random.default_rng(0))
        batch.validate()
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
            sample_pk_batch(ds, 4, 3, rng).validate()

    def test_identity_coverage(self):
        ds = generate_synthetic(small_synth(num_identities=20, per_identity_per_modality=3))
        rng = np.random.default_rng(8)
        seen = set()
        for _ in range(1000):
            seen |= set(sample_pk_batch(ds, 8, 2, rng).identity.tolist())
        assert seen == set(range(20))

    def test_matches_row_by_row_reference(self):
        # shuffled rows, sparse sample ids, one identity with no thermal rows
        # (never eligible), and pools of 1 and 2 rows, which K=3 draws with
        # replacement
        base = generate_synthetic(small_synth(num_identities=9, per_identity_per_modality=4))
        order = np.random.default_rng(3).permutation(len(base.samples))
        samples = []
        for rank, i in enumerate(order):
            s = base.samples[i]
            if s.identity == 0 and s.modality == "T":
                continue
            if s.identity in (1, 2) and s.sample_id % 4 >= s.identity:
                continue
            samples.append(Sample(s.feature, s.identity, s.modality, 7 * rank + 5))
        ds = Dataset(samples)
        for K in (1, 3, 4):
            rng, ref_rng = np.random.default_rng(K), np.random.default_rng(K)
            for _ in range(200):
                batch = sample_pk_batch(ds, 5, K, rng)
                ref = sample_pk_batch_reference(ds, 5, K, ref_rng)
                for got, want in ((batch.features, ref.features), (batch.identity, ref.identity),
                                  (batch.modality, ref.modality)):
                    assert got.dtype == want.dtype
                    np.testing.assert_array_equal(got, want)
            assert rng.bit_generator.state == ref_rng.bit_generator.state
