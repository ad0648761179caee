"""Training harness, checkpoint, ablation and gradcheck tests; the CLI's are in test_cli.py."""

import copy
import json
import math
import tracemalloc
import warnings
import zlib
from dataclasses import asdict, replace

import numpy as np
import pytest

from xmodal import cli, encoder, harness, losses
from xmodal.config import build_config, json_text
from xmodal.data import (
    SynthConfig,
    batches_per_epoch,
    generate_synthetic,
    sample_pk_batch,
    split_identity_disjoint,
)
from xmodal.encoder import MODALITIES, EncoderConfig, init_encoder
from xmodal.evaluation import EvalProtocol
from xmodal.harness import (
    ABLATION_ARMS,
    ConfigError,
    TrainConfig,
    arm_config,
    evaluate,
    gradcheck,
    gradcheck_text,
    load_checkpoint,
    run_ablation,
    save_checkpoint,
    split_hash,
    train,
)
from xmodal.losses import LabeledBatch, LossConfig, THERMAL, VISIBLE
from xmodal.numerics import DIST_BLOCK_BYTES, batchnorm_backward, dense_backward, l2_normalize_backward

from helpers import (
    adam_step_via_reference,
    certified_picks_reference,
    check_full_model_reference,
    check_triplet_reference,
    class_labels_reference,
    pair_distances_reference,
    running_stats_reference,
    sample_pk_batch_reference,
    train_step_reference,
    validate_reference,
)


def tiny_dataset(seed=0, num_identities=6, per=3, dim=6):
    cfg = SynthConfig(num_identities=num_identities, per_identity_per_modality=per,
                      input_dim=dim, cluster_std=0.3, noise_std=0.1, seed=seed)
    return generate_synthetic(cfg)


def tiny_config(**overrides):
    enc = EncoderConfig(input_dim=6, num_classes=0, stage_dims=(8, 8), tap_stage=1, d=5)
    defaults = dict(encoder=enc, loss=LossConfig(), P=3, K=2, epochs=2,
                    freeze_stage_epochs=1, learning_rate=1e-3,
                    lr_decay_factor=0.1, lr_decay_epoch=1, seed=0)
    defaults.update(overrides)
    return TrainConfig(**defaults)


# ---------------------------------------------------------------------------
# TrainConfig
# ---------------------------------------------------------------------------

class TestTrainConfig:
    # the encoder's stage_dims is built as a tuple, which JSON writes as a list
    @pytest.mark.parametrize("cfg", [tiny_config(), tiny_config().encoder], ids=["train", "encoder"])
    def test_round_trip_through_dict(self, cfg):
        restored = build_config(type(cfg), json.loads(json_text(asdict(cfg))))
        assert asdict(restored) == asdict(cfg)
        assert restored == cfg

    @pytest.mark.parametrize("doc, train_fraction", [({}, 0.5), ({"train_fraction": 0.25}, 0.25)])
    def test_synth_config_takes_a_train_fraction(self, doc, train_fraction):
        assert build_config(SynthConfig, doc, train_fraction=0.5) == (SynthConfig(), train_fraction)

    def test_unknown_key_rejected(self):
        d = asdict(tiny_config())
        d["momentum"] = 0.9
        with pytest.raises(ConfigError, match="unknown keys"):
            build_config(TrainConfig, d)

    def test_unknown_loss_key_rejected(self):
        d = asdict(tiny_config())
        d["loss"]["margin"] = 0.3
        with pytest.raises(ConfigError, match="unknown keys"):
            build_config(TrainConfig, d)

    def test_missing_encoder_section_rejected(self):
        d = asdict(tiny_config())
        del d["encoder"]
        with pytest.raises(ConfigError, match="encoder"):
            build_config(TrainConfig, d)

    @pytest.mark.parametrize("overrides", [
        {"epochs": 0},
        {"learning_rate": -1e-3},
        {"lr_decay_factor": 0.0},
        {"lr_decay_factor": 1.5},
        {"epochs": 2, "freeze_stage_epochs": 2},
        {"P": 1},
        {"K": 0},
        {"freeze_stage_epochs": -1},
        {"lr_decay_epoch": -1},
    ])
    def test_construction_rejects_bad_values(self, overrides):
        with pytest.raises(ConfigError, match=list(overrides)[-1]):
            tiny_config(**overrides)

    def test_zero_learning_rate_is_allowed(self):
        assert tiny_config(learning_rate=0.0).learning_rate == 0.0

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field, build", [
        ("rho", lambda v: LossConfig(rho=v)),
        ("lambda1", lambda v: LossConfig(lambda1=v)),
        ("lambda2", lambda v: LossConfig(lambda2=v)),
        ("bn_epsilon", lambda v: replace(tiny_config().encoder, bn_epsilon=v)),
        ("cluster_std", lambda v: SynthConfig(cluster_std=v)),
        ("noise_std", lambda v: SynthConfig(noise_std=v)),
        ("learning_rate", lambda v: tiny_config(learning_rate=v)),
    ])
    def test_config_built_in_code_rejects_a_non_finite_field(self, field, build, value):
        # NaN passes every range comparison, and +inf most of them
        with pytest.raises(ConfigError, match=f": {field} must be a finite number"):
            build(value)


# ---------------------------------------------------------------------------
# train()
# ---------------------------------------------------------------------------

class TestTrain:
    def test_zero_learning_rate_is_a_null_update(self):
        ds = tiny_dataset()
        cfg = tiny_config(learning_rate=0.0)
        params, enc_cfg, report = train(ds, cfg)
        init = init_encoder(enc_cfg, cfg.seed)
        for name, v in params.values.items():
            assert np.array_equal(v, init.values[name]), name
        assert len(report.epoch_records) == cfg.epochs

    def test_training_moves_unfrozen_parameters(self):
        ds = tiny_dataset()
        cfg = tiny_config()
        params, enc_cfg, _ = train(ds, cfg)
        init = init_encoder(enc_cfg, cfg.seed)
        moved = [n for n, v in params.values.items()
                 if not np.array_equal(v, init.values[n])]
        assert any(n.startswith("head.") for n in moved)
        # stages unfreeze after epoch 1, so they move too by the end
        assert any(n.startswith("visible.") for n in moved)

    def test_num_classes_inferred_from_training_identities(self):
        ds = tiny_dataset(num_identities=7)
        _, enc_cfg, _ = train(ds, tiny_config())
        assert enc_cfg.num_classes == 7

    def test_num_classes_mismatch_rejected(self):
        ds = tiny_dataset(num_identities=6)
        enc = EncoderConfig(input_dim=6, num_classes=9, stage_dims=(8,), tap_stage=1, d=5)
        with pytest.raises(ConfigError, match="num_classes"):
            train(ds, tiny_config(encoder=enc))

    def test_input_dim_mismatch_rejected(self):
        ds = tiny_dataset(dim=4)
        with pytest.raises(ConfigError, match="input_dim"):
            train(ds, tiny_config())

    def test_lr_schedule_recorded_per_epoch(self):
        ds = tiny_dataset()
        cfg = tiny_config(epochs=4, lr_decay_epoch=2, freeze_stage_epochs=1,
                          learning_rate=1e-3, lr_decay_factor=0.1)
        _, _, report = train(ds, cfg)
        lrs = [rec["lr"] for rec in report.epoch_records]
        assert lrs == [1e-3, 1e-3, 1e-4, 1e-4]

    def test_epoch_records_carry_all_loss_components(self):
        ds = tiny_dataset()
        _, _, report = train(ds, tiny_config())
        expected = {"epoch", "lr", "L_softmax", "L_backbone",
                    "L_c_tri", "L_i_tri", "L_d_tri", "L_all"}
        for rec in report.epoch_records:
            assert expected <= set(rec)
            assert np.isfinite(rec["L_all"])

    def test_identical_runs_produce_byte_identical_reports(self):
        ds = tiny_dataset()
        _, _, r1 = train(ds, tiny_config())
        _, _, r2 = train(ds, tiny_config())
        assert r1.to_json() == r2.to_json()

    def test_identical_runs_produce_identical_parameters(self):
        ds = tiny_dataset()
        p1, _, _ = train(ds, tiny_config())
        p2, _, _ = train(ds, tiny_config())
        for name, v in p1.values.items():
            assert np.array_equal(v, p2.values[name]), name

    def test_reference_kernels_give_byte_identical_training(self, monkeypatch):
        # 24 rows of 128 metric features
        ds = tiny_dataset(num_identities=8, per=3)
        enc = EncoderConfig(input_dim=6, num_classes=0, stage_dims=(8, 8), tap_stage=1, d=64)
        cfg = tiny_config(encoder=enc, P=4, K=3, epochs=3)
        p1, _, r1 = train(ds, cfg)
        batches, steps = [], []  # each sampled batch; each step's (rows, class labels)
        train_step = harness._train_step

        def sampler(*args):
            batches.append(sample_pk_batch_reference(*args))
            return batches[-1]

        def step(params, enc_cfg, loss_cfg, x, targets, out=None):
            steps.append((x, targets.labels))
            return train_step(params, enc_cfg, loss_cfg, x, targets, out=out)

        with monkeypatch.context() as m:
            m.setattr(harness, "sample_pk_batch", sampler)
            m.setattr(harness, "_train_step", step)
            m.setattr(harness, "adam_step", adam_step_via_reference)
            m.setattr(losses, "pair_distances", pair_distances_reference)
            m.setattr(losses, "_certified_picks", certified_picks_reference)
            m.setattr(LabeledBatch, "__post_init__", validate_reference)
            p2, _, r2 = train(ds, cfg)
        assert r1.to_json() == r2.to_json()
        idents = np.unique(ds.identity)
        assert len(steps) == len(batches) == cfg.epochs * batches_per_epoch(ds, cfg.P, cfg.K)
        for batch, (x, labels) in zip(batches, steps):
            assert x is batch.features
            assert np.array_equal(labels, class_labels_reference(batch.identity, idents))
        for section in ("values", "bn_state"):
            a, b = getattr(p1, section), getattr(p2, section)
            assert set(a) == set(b)
            for name in a:
                assert np.array_equal(a[name], b[name]), (section, name)

    def test_frozen_epochs_keep_the_stream_stages_and_zero_their_gradient(self, monkeypatch):
        ds = tiny_dataset()
        cfg = tiny_config(epochs=4, freeze_stage_epochs=2, lr_decay_epoch=4)
        calls = []  # (stream parameters, stream gradients) as each Adam step receives them
        adam_step = harness.adam_step

        def spy(theta, grad, state):
            stream = [n for n in state.slices if n.partition(".")[0] in MODALITIES]
            params, grads = state.views(theta), state.views(grad)
            calls.append(({n: params[n].copy() for n in stream}, {n: grads[n].copy() for n in stream}))
            adam_step(theta, grad, state)

        monkeypatch.setattr(harness, "adam_step", spy)
        params, enc_cfg, _ = train(ds, cfg)
        init = init_encoder(enc_cfg, cfg.seed).values
        frozen = cfg.freeze_stage_epochs * batches_per_epoch(ds, cfg.P, cfg.K)
        assert 0 < frozen < len(calls)
        # the step after the last frozen one still starts from the initial stages
        for step, (values, _) in enumerate(calls[:frozen + 1]):
            for name, v in values.items():
                assert np.array_equal(v, init[name]), (step, name)
        for step, (_, grads) in enumerate(calls):
            assert any(g.any() for g in grads.values()) == (step >= frozen), step
        for name in calls[0][0]:
            assert not np.array_equal(params.values[name], init[name]), name

    @pytest.mark.parametrize("mfi", [True, False])
    def test_init_encoder_lists_the_stream_arrays_first(self, mfi):
        # train freezes the stream stages as one leading span of the flat vector
        cfg = EncoderConfig(input_dim=6, num_classes=4, stage_dims=(8, 7, 5), tap_stage=2, d=5,
                            mfi_enabled=mfi)
        stream = [name.partition(".")[0] in MODALITIES for name in init_encoder(cfg, 0).values]
        assert stream == sorted(stream, reverse=True)  # every stream array before any shared one
        assert sum(stream) == 2 * len(cfg.stage_dims) * 2 and not all(stream)

    @pytest.mark.parametrize("mfi", [True, False])
    def test_train_step_moves_the_running_stats_as_an_in_place_update(self, mfi):
        # batchnorm returns its batch statistics; the train step folds them
        # into the running stats as a layer updating them in place would
        rng = np.random.default_rng(41)
        cfg, params, loss_cfg, _, labels, P, K = harness._full_model_setup(rng, mfi)
        for v in params.bn_state.values():
            v[...] = 0.5 + rng.random(v.shape)
        n = P * K
        targets = losses.loss_targets(labels, P, K)
        for _ in range(3):
            x = rng.standard_normal((2 * n, cfg.input_dim))
            want = running_stats_reference(params, cfg, x[:n], x[n:])
            harness._train_step(params, cfg, loss_cfg, x, targets)
            assert set(params.bn_state) == set(want)
            for name, v in want.items():
                assert np.array_equal(params.bn_state[name], v), name

    @pytest.mark.parametrize("mfi, fusion, backbone", [
        (True, "cat", True), (True, "sum", True), (True, "cat", False), (True, "sum", False),
        (False, "cat", True), (False, "sum", True)])
    def test_stacked_step_equals_the_step_stream_by_stream(self, mfi, fusion, backbone):
        # one encode and one backward of the (2, n, D) stream stack against
        # two one-stream encodes and backward calls: the breakdown, every
        # gradient and the running stats, bit for bit, over three steps
        rng = np.random.default_rng([43, mfi, backbone, zlib.crc32(fusion.encode())])
        cfg, params, loss_cfg, _, labels, P, K = harness._full_model_setup(
            rng, mfi, fusion=fusion, stage_dims=(6, 5, 5))
        cfg = replace(cfg, backbone_loss_enabled=backbone)
        reference = copy.deepcopy(params)
        targets = losses.loss_targets(labels, P, K)
        for _ in range(3):
            x = rng.standard_normal((2 * P * K, cfg.input_dim))
            got, grads = harness._train_step(params, cfg, loss_cfg, x, targets)
            want, want_grads = train_step_reference(reference, cfg, loss_cfg, x, targets)
            assert got == want
            assert set(grads) == set(want_grads) == set(params.values)
            for name, g in want_grads.items():
                assert np.array_equal(grads[name], g), name
            for name, v in reference.bn_state.items():
                assert np.array_equal(params.bn_state[name], v), name

    def test_train_steps_on_views_of_the_flat_vector(self, monkeypatch):
        # each stream pair's stack, which the stacked step encodes with, is
        # a view of the parameters that Adam moves, not a copy
        seen = []
        train_step = harness._train_step

        def step(params, *args, **kwargs):
            for key, stack in params.stream_stacks.items():
                for k, mod in enumerate(MODALITIES):
                    one = params.values[f"{mod}.{key}"]
                    assert np.shares_memory(stack, one) and np.array_equal(stack[k].reshape(one.shape), one)
            seen.append(sorted(params.stream_stacks))
            return train_step(params, *args, **kwargs)

        monkeypatch.setattr(harness, "_train_step", step)
        params, _, _ = train(tiny_dataset(), tiny_config())
        assert seen and seen[0] == ["stage1.W", "stage1.b", "stage2.W", "stage2.b"]
        assert params.stream_stacks is None

    def test_every_sampled_batch_has_the_run_pools(self):
        # train builds the pools once per run from (P, K); they must be the
        # pools of each batch sample_pk_batch draws, also when a pool is
        # smaller than K and is sampled with replacement
        ds = tiny_dataset(num_identities=7, per=2)
        rng = np.random.default_rng(3)
        idents = np.unique(ds.identity)
        for P, K in ((2, 1), (3, 2), (7, 3)):
            layout = np.tile(np.repeat(np.arange(P), K), 2)
            want = losses.loss_targets(layout, P, K).offsets
            for _ in range(20):
                labels = np.searchsorted(idents, sample_pk_batch(ds, P, K, rng).identity)
                assert np.array_equal(losses.loss_targets(labels, P, K).offsets, want)

    def test_reference_run_certifies_every_pick(self, monkeypatch):
        # acceptance criterion 6's configuration and corpus, two epochs:
        # no hardest pick needs the exact distances
        redone = []

        def counted(features, offsets):
            picks, mask = certified_picks(features, offsets)
            redone.append(int(mask.sum()))
            return picks, mask

        certified_picks = losses._certified_picks
        monkeypatch.setattr(losses, "_certified_picks", counted)
        enc = EncoderConfig(input_dim=32, num_classes=0, stage_dims=(64, 64, 64),
                            tap_stage=2, d=64, fusion="cat")
        cfg = TrainConfig(encoder=enc, loss=LossConfig(rho=0.5, lambda1=0.1, lambda2=2.0),
                          P=8, K=4, epochs=2, freeze_stage_epochs=1, learning_rate=1e-3, seed=0)
        synth = SynthConfig(num_identities=50, per_identity_per_modality=20, input_dim=32,
                            cluster_std=0.3, noise_std=0.1, seed=0)
        train_ds, _ = split_identity_disjoint(generate_synthetic(synth), 0.5, 0)
        train(train_ds, cfg)
        assert len(redone) == 2 * 16 and sum(redone) == 0

    @pytest.mark.parametrize("backbone", [True, False])
    def test_encoder_flag_switches_the_backbone_loss(self, backbone):
        enc = EncoderConfig(input_dim=6, num_classes=0, stage_dims=(8, 8), tap_stage=1, d=5,
                            mfi_enabled=True, backbone_loss_enabled=backbone)
        _, _, report = train(tiny_dataset(), tiny_config(encoder=enc))
        for rec in report.epoch_records:
            assert rec["L_backbone"] > 0.0 if backbone else rec["L_backbone"] == 0.0

    def test_loss_decreases_over_training(self):
        ds = tiny_dataset(num_identities=8, per=4)
        cfg = tiny_config(epochs=8, freeze_stage_epochs=1, lr_decay_epoch=6,
                          learning_rate=1e-3)
        _, _, report = train(ds, cfg)
        first = report.epoch_records[0]["L_all"]
        last = report.epoch_records[-1]["L_all"]
        assert last < first

    def test_report_text_mentions_seed_and_epochs(self):
        ds = tiny_dataset()
        _, _, report = train(ds, tiny_config(seed=3))
        text = report.to_text()
        assert "seed: 3" in text
        assert "L_all" in text


# ---------------------------------------------------------------------------
# evaluate()
# ---------------------------------------------------------------------------

class TestEvaluate:
    def test_metrics_fragment_shape(self):
        ds = tiny_dataset()
        train_ds, test_ds = split_identity_disjoint(ds, 0.5, seed=0)
        params, enc_cfg, _ = train(train_ds, tiny_config())
        protocol = EvalProtocol(query_modality=VISIBLE, gallery_modality=THERMAL,
                                trials=2, single_shot=True, ranks_reported=(1, 2), seed=0)
        frag = evaluate(params, enc_cfg, test_ds, protocol)
        assert set(frag) == {"protocol", "cmc", "map", "trials", "seed", "skipped_queries"}
        assert set(frag["cmc"]) == {"1", "2"}
        assert 0.0 <= frag["map"] <= 1.0
        assert frag["trials"] == 2


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------

class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        ds = tiny_dataset()
        params, enc_cfg, _ = train(ds, tiny_config())
        path = tmp_path / "model.ckpt"
        save_checkpoint(params, enc_cfg, path)
        loaded, loaded_cfg = load_checkpoint(path)
        assert loaded_cfg == enc_cfg
        for name, v in params.values.items():
            assert np.array_equal(loaded.values[name], v), name
        for name, v in params.bn_state.items():
            assert np.array_equal(loaded.bn_state[name], v), name

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_text("not-a-checkpoint\n{}\n")
        with pytest.raises(ConfigError, match="header"):
            load_checkpoint(path)

    def test_missing_file_raises_config_error(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_checkpoint(tmp_path / "absent.ckpt")

    def test_parameter_name_mismatch_rejected(self, tmp_path):
        ds = tiny_dataset()
        params, enc_cfg, _ = train(ds, tiny_config())
        path = tmp_path / "model.ckpt"
        save_checkpoint(params, enc_cfg, path)
        lines = path.read_text().splitlines()
        doc = json.loads("\n".join(lines[1:]))
        doc["params"]["rogue.W"] = doc["params"].pop("head.fc.W")
        path.write_text(lines[0] + "\n" + json.dumps(doc) + "\n")
        with pytest.raises(ConfigError, match="parameter names"):
            load_checkpoint(path)


# ---------------------------------------------------------------------------
# Ablation
# ---------------------------------------------------------------------------

class TestAblation:
    def test_arm_flag_algebra(self):
        base = tiny_config(loss=LossConfig(lambda2=2.0))
        expected = {
            "baseline": (False, 0.0),
            "DMTL": (False, 2.0),
            "MFI": (True, 0.0),
            "EDFL": (True, 2.0),
        }
        for arm, (mfi, lambda2) in expected.items():
            cfg = arm_config(base, arm)
            assert cfg.encoder.mfi_enabled is mfi, arm
            assert cfg.loss.lambda2 == lambda2, arm

    def test_unknown_arm_rejected(self):
        with pytest.raises(ConfigError, match="unknown ablation arm"):
            arm_config(tiny_config(), "DoubleTriplet")

    def test_split_hash_is_stable_and_split_sensitive(self):
        ds = tiny_dataset()
        a, b = split_identity_disjoint(ds, 0.5, seed=0)
        a2, _ = split_identity_disjoint(ds, 0.5, seed=0)
        assert split_hash(a) == split_hash(a2)
        assert split_hash(a) != split_hash(b)
        others = {split_hash(split_identity_disjoint(ds, 0.5, seed=s)[0])
                  for s in range(1, 10)}
        assert others != {split_hash(a)}

    def test_run_ablation_table_structure(self):
        synth = SynthConfig(num_identities=6, per_identity_per_modality=3,
                            input_dim=6, cluster_std=0.3, noise_std=0.1, seed=0)
        table = run_ablation(synth, tiny_config(), seeds=[0, 1])
        assert set(table["arms"]) == set(ABLATION_ARMS)
        for rec in table["arms"].values():
            assert 0.0 <= rec["mean_rank1"] <= 1.0
            assert 0.0 <= rec["mean_map"] <= 1.0
        assert table["seeds"] == [0, 1]
        assert [rec["seed"] for rec in table["per_seed"]] == [0, 1]
        seed0_train = split_identity_disjoint(generate_synthetic(synth), 0.5, seed=0)[0]
        assert table["per_seed"][0]["split_hash"] == split_hash(seed0_train)
        # each arm's lists and means are read off the per-seed records, in seed order
        for arm in ABLATION_ARMS:
            rec = table["arms"][arm]
            assert rec["per_seed_rank1"] == [s["arms"][arm]["rank1"] for s in table["per_seed"]]
            assert rec["per_seed_map"] == [s["arms"][arm]["map"] for s in table["per_seed"]]
            assert rec["mean_rank1"] == float(np.mean(rec["per_seed_rank1"]))
            assert rec["mean_map"] == float(np.mean(rec["per_seed_map"]))
        assert all(set(s["arms"]) == set(ABLATION_ARMS) for s in table["per_seed"])
        text = harness.ablation_text(table)
        for arm in ABLATION_ARMS:
            assert arm in text

    def test_run_ablation_requires_seeds(self):
        synth = SynthConfig(num_identities=6, per_identity_per_modality=3,
                            input_dim=6, seed=0)
        with pytest.raises(ConfigError, match="seed"):
            run_ablation(synth, tiny_config(), seeds=[])


# ---------------------------------------------------------------------------
# Gradcheck harness behaviour (full sweep lives in the acceptance suite)
# ---------------------------------------------------------------------------

def recorded_estimates(monkeypatch):
    """The list that every later `finite_diff_grad` and `finite_diff_entries`
    call made through `harness` appends its estimates to, in call order."""
    estimates = []
    for fn in ("finite_diff_grad", "finite_diff_entries"):
        def recorded(*args, fn=getattr(harness, fn)):
            estimates.append(fn(*args))
            return estimates[-1].copy()  # the caller overwrites re-estimated entries
        monkeypatch.setattr(harness, fn, recorded)
    return estimates


def failing_components(monkeypatch):
    """Names of the components a short gradcheck run (seed 0) reports as FAIL."""
    monkeypatch.setattr(harness, "FULL_MODEL_TRIALS", 1)
    report, ok = gradcheck(trials=3, seed=0)
    assert not ok
    assert "FAIL" in gradcheck_text(report)
    return {name for name, rec in report.items() if not rec["ok"]}


def nan_dense_dw(cache, g):
    dx, dw, db = dense_backward(cache, g)
    dw[0] = np.nan
    return dx, dw, db


def nan_stage_grad(params, cfg, cache, grads, out=None):
    out = encoder.encode_backward(params, cfg, cache, grads, out=out)
    out["visible.stage1.W"][0] = np.nan
    return out


class TestGradcheck:
    def test_smoke_on_fast_components(self, monkeypatch):
        fast = {k: v for k, v in harness.GRADCHECK_COMPONENTS.items()
                if not k.startswith("full_model")}
        monkeypatch.setattr(harness, "GRADCHECK_COMPONENTS", fast)
        report, ok = gradcheck(trials=3, seed=0)
        assert ok
        assert set(report) == set(fast)
        for rec in report.values():
            assert rec["ok"]
            assert rec["max_relative_error"] < 1e-4
            assert rec["trials"] == 3

    def test_detects_a_wrong_gradient(self, monkeypatch):
        monkeypatch.setattr(harness, "GRADCHECK_COMPONENTS",
                            {"broken": lambda rng: 0.5})
        report, ok = gradcheck(trials=1, seed=0)
        assert not ok
        assert not report["broken"]["ok"]
        assert "FAIL" in gradcheck_text(report)

    @pytest.mark.parametrize("name, poisoned, failing", [
        ("dense_backward", nan_dense_dw, {"dense"}),
        ("encode_backward", nan_stage_grad, {"full_model_mfi", "full_model_backbone"}),
    ], ids=["dense", "full_model"])
    def test_a_nan_gradient_fails(self, name, poisoned, failing, monkeypatch, capsys):
        # Python's max drops NaN (max(0.0, nan) is 0.0), so a NaN entry must
        # read as an infinite error, not vanish from the fold
        monkeypatch.setattr(harness, name, poisoned)
        assert failing_components(monkeypatch) == failing
        assert cli.main(["gradcheck", "--trials", "3"]) == 3
        out = capsys.readouterr().out
        assert {line.split()[0] for line in out.splitlines() if line.endswith("FAIL")} == failing
        assert all(f"{'inf':>12}" in line for line in out.splitlines() if line.endswith("FAIL"))

    def test_report_is_deterministic_for_a_seed(self, monkeypatch):
        fast = {"dense": harness.GRADCHECK_COMPONENTS["dense"]}
        monkeypatch.setattr(harness, "GRADCHECK_COMPONENTS", fast)
        r1, _ = gradcheck(trials=4, seed=7)
        r2, _ = gradcheck(trials=4, seed=7)
        assert r1 == r2

    @staticmethod
    def _mined_triplet_batches(monkeypatch, seed=7, instances=100):
        """The batches `mining_margins` reads while `instances` triplet
        instances of each kind are drawn, in call order."""
        margins, margin = [], losses.mining_margins

        def counted(batch, rho):
            margins.append(batch)
            return margin(batch, rho)

        monkeypatch.setattr(losses, "mining_margins", counted)
        for kind, name in (("batch_hard", "batch_hard_triplet"), ("cross", "cross_modality_triplet"),
                           ("intra", "intra_modality_triplet")):
            rng = np.random.default_rng([seed, zlib.crc32(name.encode())])
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                for _ in range(instances):
                    harness._check_triplet(rng, kind)
        return margins

    def test_triplet_batches_follow_the_sampler_layout(self, monkeypatch):
        # the visible half, then the thermal half, with the same identity
        # slots in the same order in both, as sample_pk_batch lays them out
        for batch in self._mined_triplet_batches(monkeypatch):
            pk = batch.P * batch.K
            assert np.array_equal(batch.identity[:pk], batch.identity[pk:])
            assert np.array_equal(batch.identity[:pk], np.repeat(np.arange(batch.P), batch.K))
            assert batch.modality.tolist() == [VISIBLE] * pk + [THERMAL] * pk

    def test_triplet_instances_check_each_batch_once(self, monkeypatch):
        # each batch is checked when it is built, and only then: one check
        # per mining_margins call, on the same batch
        checks, check = [], LabeledBatch.__post_init__

        def counted(batch):
            checks.append(batch)
            check(batch)

        monkeypatch.setattr(LabeledBatch, "__post_init__", counted)
        margins = self._mined_triplet_batches(monkeypatch)
        assert len(checks) == len(margins) >= 300
        assert all(c is m for c, m in zip(checks, margins))

    @pytest.mark.parametrize("seed", [207, 505, 906])
    def test_full_model_instances_avoid_relu_kinks(self, seed):
        # these streams draw instances with a ReLU input within a
        # finite-difference step of zero, which the kink guard must reject
        for name in ("full_model_mfi", "full_model_backbone"):
            rng = np.random.default_rng([seed, zlib.crc32(name.encode())])
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                for _ in range(harness.FULL_MODEL_TRIALS):
                    assert harness.GRADCHECK_COMPONENTS[name](rng) < 1e-4, name


    def test_full_model_backbone_seed_27_passes(self):
        # a correct gradient whose two-point estimate on one small entry
        # carries 6.7e-4 relative truncation error; the four-point stencil
        # re-estimates it
        name = "full_model_backbone"
        rng = np.random.default_rng([27, zlib.crc32(name.encode())])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            for _ in range(harness.FULL_MODEL_TRIALS):
                assert harness.GRADCHECK_COMPONENTS[name](rng) < 1e-4

    @pytest.mark.parametrize("fusion", ["cat", "sum"])
    def test_full_model_with_an_inner_skip_tap(self, fusion):
        # the tap is stage 2 of 3, as in the reference model; the last stage
        # is as wide as the tap, so a skip gradient added at the wrong stage
        # still fits the shapes and must be caught by the values
        rng = np.random.default_rng([11, zlib.crc32(fusion.encode())])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            worst = harness._check_full_model(rng, True, fusion=fusion, stage_dims=(6, 5, 5))
        assert worst < harness.GRADCHECK_THRESHOLD

    @pytest.mark.parametrize("fusion", ["cat", "sum"])
    def test_directional_check_at_the_reference_model(self, fusion):
        # 34 418 parameters, tapped at stage 2 of 3: too many for the
        # per-entry sweep, so the check runs along random unit directions
        rng = np.random.default_rng([3, zlib.crc32(fusion.encode())])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            for _ in range(2):
                assert harness._check_directional(rng, fusion) < harness.GRADCHECK_THRESHOLD

    def test_detects_a_skip_gradient_added_at_the_last_stage(self, monkeypatch):
        # the inner tap's stage is as wide as the last, so the misplaced
        # gradient fits the shapes; the per-entry check of the inner-tap model
        # and the directional check of the reference model catch the values
        def misplaced(params, cfg, cache, grads, out=None):
            assert cache[0] == MODALITIES  # the train step's one backward call, of both streams
            last = replace(cfg, tap_stage=len(cfg.stage_dims))
            return encoder.encode_backward(params, last, cache, grads, out=out)

        monkeypatch.setattr(harness, "encode_backward", misplaced)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            for fusion in ("cat", "sum"):
                rng = np.random.default_rng([3, zlib.crc32(fusion.encode())])
                assert harness._check_directional(rng, fusion) > 0.1
                rng = np.random.default_rng([11, zlib.crc32(fusion.encode())])
                inner = harness._check_full_model(rng, True, fusion=fusion, stage_dims=(6, 5, 5))
                assert inner > harness.GRADCHECK_THRESHOLD

    @pytest.mark.parametrize("trials", [0, -3])
    def test_trials_below_one_rejected(self, trials):
        with pytest.raises(ConfigError, match="trials must be >= 1"):
            gradcheck(trials=trials, seed=0)

    def test_detects_a_batchnorm_dx_off_by_a_thousandth(self, monkeypatch):
        # the layer check calls it on one matrix, the train step on the
        # streams' (2, n, d) stack
        ndims = set()

        def skewed(cache, g):
            ndims.add(np.ndim(g))
            dx, dgamma, dbeta = batchnorm_backward(cache, g)
            return dx * (1.0 + 1e-3), dgamma, dbeta

        monkeypatch.setattr(harness, "batchnorm_backward", skewed)
        monkeypatch.setattr(encoder, "batchnorm_backward", skewed)
        assert failing_components(monkeypatch) == {"batchnorm", "full_model_mfi",
                                                   "full_model_backbone"}
        assert ndims == {2, 3}

    def test_detects_a_mined_hinge_scatter_off_by_a_thousandth(self, monkeypatch):
        class ScaledScatter:
            """numpy as losses sees it, except that add.at scatters 1 + 1e-3 times its values."""

            class add:
                @staticmethod
                def at(a, indices, b):
                    np.add.at(a, indices, b * (1.0 + 1e-3))

            def __getattr__(self, name):
                return getattr(np, name)

        monkeypatch.setattr(losses, "np", ScaledScatter())
        assert failing_components(monkeypatch) == {
            "batch_hard_triplet", "cross_modality_triplet", "intra_modality_triplet",
            "full_model_mfi", "full_model_backbone"}

    def test_detects_a_hinge_backward_off_by_a_thousandth(self, monkeypatch):
        # the triplet sweeps evaluate stacks of points; the analytic side
        # still runs one matrix at a time and must still be checked
        def skewed(features, mined, hinge_backward=losses._hinge_backward):
            return hinge_backward(features, mined) * (1.0 + 1e-3)

        monkeypatch.setattr(losses, "_hinge_backward", skewed)
        assert failing_components(monkeypatch) == {
            "batch_hard_triplet", "cross_modality_triplet", "intra_modality_triplet",
            "full_model_mfi", "full_model_backbone"}

    def test_detects_an_l2_normalize_dx_off_by_a_thousandth(self, monkeypatch):
        def skewed(cache, g):
            return l2_normalize_backward(cache, g) * (1.0 + 1e-3)

        monkeypatch.setattr(harness, "l2_normalize_backward", skewed)
        monkeypatch.setattr(encoder, "l2_normalize_backward", skewed)
        assert failing_components(monkeypatch) == {"l2_normalize", "full_model_mfi",
                                                   "full_model_backbone"}

    def test_detects_a_train_step_that_drops_the_thermal_gradient(self, monkeypatch):
        # train and the full-model instances run one step: broken, its one
        # backward call gets no thermal upstream gradient, which leaves the
        # thermal stream untrained, and gradcheck fails
        def visible_only(params, cfg, cache, grads, out=None):
            assert cache[0] == MODALITIES
            dropped = {}
            for field, g in vars(grads).items():
                if g is not None:
                    g = g.copy()
                    g[1] = 0.0  # the thermal matrix of the (2, n, ·) stack
                dropped[field] = g
            return encoder.encode_backward(params, cfg, cache, losses.BundleGrads(**dropped), out=out)

        def broken_step(*args, step=harness._train_step, **kwargs):
            with monkeypatch.context() as m:
                m.setattr(harness, "encode_backward", visible_only)
                return step(*args, **kwargs)

        monkeypatch.setattr(harness, "_train_step", broken_step)
        params, enc_cfg, _ = train(tiny_dataset(), tiny_config())
        init = init_encoder(enc_cfg, 0)
        for name, v in params.values.items():
            assert np.array_equal(v, init.values[name]) == name.startswith("thermal."), name
        assert failing_components(monkeypatch) == {"full_model_mfi", "full_model_backbone"}


class TestLossOnlySweep:
    """The full-model sweep evaluates `_loss_sweep`'s forward steps on a
    stack of points per call, not `_train_step` point by point."""

    @pytest.mark.parametrize("mfi", [True, False])
    def test_loss_matches_train_step_and_leaves_params(self, mfi):
        # every parameter name, as one stack of its value and of copies with
        # the first or last entry moved
        rng = np.random.default_rng(61)
        cfg, params, loss_cfg, x, labels, P, K = harness._full_model_setup(rng, mfi)
        values = {k: v.copy() for k, v in params.values.items()}
        bn_state = {k: v.copy() for k, v in params.bn_state.items()}
        targets = losses.loss_targets(labels, P, K)
        loss = harness._loss_sweep(params, cfg, loss_cfg, x, targets)
        prefixes = set()
        for name in sorted(params.values):
            prefixes.add(name.partition(".")[0])
            value = params.values[name]
            points = [value.copy()]
            for entry in (0, value.size - 1):
                for step in (1e-5, -1e-5):
                    points.append(value.copy())
                    points[-1].reshape(-1)[entry] += step
            got = loss({name: harness._stacked(np.array(points), value)})
            assert got.shape == (len(points),)
            for k, v in enumerate(points):
                trial = copy.deepcopy(params)
                trial.values[name] = v
                want = harness._train_step(trial, cfg, loss_cfg, x, targets)[0].total
                assert got[k] == want, (name, k)
        assert prefixes == ({"visible", "thermal", "head", "mid"} if mfi
                            else {"visible", "thermal", "head"})
        for name in params.values:
            np.testing.assert_array_equal(params.values[name], values[name])
        for name in params.bn_state:
            np.testing.assert_array_equal(params.bn_state[name], bn_state[name])

    def test_a_large_stack_is_evaluated_in_parts(self):
        # 200 points of a shared array would hold about 4 MB of both streams'
        # intermediates at once; in parts the peak stays near one part's
        rng = np.random.default_rng(62)
        cfg, params, loss_cfg, x, labels, P, K = harness._full_model_setup(rng, True)
        loss = harness._loss_sweep(params, cfg, loss_cfg, x, losses.loss_targets(labels, P, K))
        value = params.values["head.fc.W"]
        points = value + 1e-6 * rng.standard_normal((200,) + value.shape)
        tracemalloc.start()
        try:
            got = loss({"head.fc.W": points})
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * DIST_BLOCK_BYTES
        for k in range(200):
            assert got[k] == loss({"head.fc.W": points[k:k + 1]})[0], k

    # (seed, component, instances): seed 27's second backbone instance takes
    # the four-point re-estimate
    @pytest.mark.parametrize("seed, name, instances", [
        (27, "full_model_backbone", 2), (0, "full_model_mfi", 1),
        (207, "full_model_mfi", 1), (505, "full_model_backbone", 1)])
    def test_same_estimates_as_copying_sweep(self, seed, name, instances, monkeypatch):
        # the worst error alone hides small changes: it is often set by
        # round-off on entries whose gradient is zero, so every
        # finite-difference estimate is compared as well
        estimates = recorded_estimates(monkeypatch)
        mfi = name == "full_model_mfi"
        stream = [seed, zlib.crc32(name.encode())]
        rng, ref_rng = np.random.default_rng(stream), np.random.default_rng(stream)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            for _ in range(instances):
                worst = harness._check_full_model(rng, mfi)
                ours, estimates[:] = estimates[:], []
                assert worst == check_full_model_reference(ref_rng, mfi)
                assert len(ours) == len(estimates) > 0
                assert all(np.array_equal(a, b) for a, b in zip(ours, estimates))
                estimates.clear()

    @pytest.mark.parametrize("fusion", ["cat", "sum"])
    def test_inner_tap_sweep_matches_per_point_sweep(self, fusion, monkeypatch):
        # the inner-tap model of test_full_model_with_an_inner_skip_tap
        estimates = recorded_estimates(monkeypatch)
        stream = [11, zlib.crc32(fusion.encode())]
        rng, ref_rng = np.random.default_rng(stream), np.random.default_rng(stream)
        setup = {"fusion": fusion, "stage_dims": (6, 5, 5)}
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            worst = harness._check_full_model(rng, True, **setup)
            ours, estimates[:] = estimates[:], []
            assert worst == check_full_model_reference(ref_rng, True, **setup)
        assert len(ours) == len(estimates) > 0
        assert all(np.array_equal(a, b) for a, b in zip(ours, estimates))

    @pytest.mark.parametrize("kind", ["batch_hard", "cross", "intra"])
    def test_stacked_triplet_sweep_matches_per_point_sweep(self, kind, monkeypatch):
        # each triplet sweep is one call of triplet_loss on a stack of
        # perturbed feature matrices; a sweep of one matrix per call must
        # give every estimate bit for bit
        estimates = recorded_estimates(monkeypatch)
        name = {"batch_hard": "batch_hard_triplet", "cross": "cross_modality_triplet",
                "intra": "intra_modality_triplet"}[kind]
        stream = [0, zlib.crc32(name.encode())]
        rng, ref_rng = np.random.default_rng(stream), np.random.default_rng(stream)
        for _ in range(20):
            worst = harness._check_triplet(rng, kind)
            ref_worst, ref_estimates = check_triplet_reference(ref_rng, kind)
            assert worst == ref_worst
            assert len(estimates) == len(ref_estimates)
            assert all(np.array_equal(a, b) for a, b in zip(estimates, ref_estimates))
            estimates.clear()
