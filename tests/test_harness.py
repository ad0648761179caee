"""Training harness, checkpoint, ablation, gradcheck, and CLI tests."""

import copy
import hashlib
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
    save_dataset,
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

CHECKPOINT_FAULTS = {  # name -> (edit of the checkpoint document, key the error names)
    "missing_bn_state": (lambda doc: doc.pop("bn_state"), "'bn_state'"),
    "truncated_values": (lambda doc: doc["params"]["head.fc.W"]["values"].pop(),
                         "params.head.fc.W"),
    "nan_weight": (lambda doc: doc["params"]["visible.stage1.W"]["values"].__setitem__(
        3, float("nan")), "params.visible.stage1.W"),
    # JSON reads 8.0 as a float, which reshape does not take
    "float_shape": (lambda doc: doc["params"]["head.fc.W"].__setitem__(
        "shape", [float(v) for v in doc["params"]["head.fc.W"]["shape"]]), "params.head.fc.W"),
    # numpy would parse "0.18" and read true as 1.0
    "string_values": (lambda doc: doc["params"]["head.fc.W"].__setitem__(
        "values", [True] + [str(v) for v in doc["params"]["head.fc.W"]["values"][1:]]),
        "params.head.fc.W"),
    "bool_value": (lambda doc: doc["params"]["thermal.stage1.b"]["values"].__setitem__(0, False),
                   "params.thermal.stage1.b"),
    "nan_encoder_config": (lambda doc: doc["encoder_config"].__setitem__("bn_epsilon", math.nan),
                           "EncoderConfig: bn_epsilon must be a finite number, got NaN"),
    # a running variance is never negative: a corrupt file, not a diverged run
    "negative_mid_running_var": (lambda doc: doc["bn_state"]["mid.bn.running_var"]["values"].__setitem__(
        0, -1.0), "bn_state.mid.bn.running_var"),
    "negative_head_running_var": (lambda doc: doc["bn_state"]["head.bn.running_var"]["values"].__setitem__(
        2, -1e-300), "bn_state.head.bn.running_var"),
    # JSON reads 10**400 as an int, which no float64 holds
    "huge_int_value": (lambda doc: doc["params"]["head.fc.W"]["values"].__setitem__(0, 10 ** 400),
                       "params.head.fc.W"),
    # shapes no array can take: checked against the config before any array is made
    "too_big_encoder_config": (lambda doc: doc["encoder_config"].update(
        input_dim=10 ** 10, stage_dims=[10 ** 10, 8]),
        "params.visible.stage1.W: shape [6, 8], the encoder config needs [10000000000, 10000000000]"),
}


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

    @pytest.mark.parametrize("fault", sorted(CHECKPOINT_FAULTS))
    def test_faulty_checkpoint_rejected_at_load(self, tmp_path, capsys, fault):
        edit, key = CHECKPOINT_FAULTS[fault]
        data, ckpt = tmp_path / "data.txt", tmp_path / "model.ckpt"
        save_dataset(tiny_dataset(), data)
        enc = EncoderConfig(input_dim=6, num_classes=6, stage_dims=(8, 8), tap_stage=1, d=5)
        save_checkpoint(init_encoder(enc, 0), enc, ckpt)
        header, body = ckpt.read_text().split("\n", 1)
        doc = json.loads(body)
        edit(doc)
        ckpt.write_text(header + "\n" + json.dumps(doc) + "\n")
        assert cli.main(["eval", "--checkpoint", str(ckpt), "--data", str(data)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and str(ckpt) in err and key in err, err


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
        table = run_ablation(synth, tiny_config(), seeds=[0])
        assert set(table["arms"]) == set(ABLATION_ARMS)
        for rec in table["arms"].values():
            assert 0.0 <= rec["mean_rank1"] <= 1.0
            assert 0.0 <= rec["mean_map"] <= 1.0
            assert len(rec["per_seed_rank1"]) == 1
        assert table["seeds"] == [0]
        assert table["per_seed"][0]["split_hash"] == table["per_seed"][0]["split_hash"]
        assert set(table["per_seed"][0]["arms"]) == set(ABLATION_ARMS)
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


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def write_json(path, doc):
    path.write_text(json.dumps(doc) + "\n")


# sha256 of `xmodal train`'s checkpoint and report for the tiny configuration
# of the CI step "Installed command", with one encoder key set by arm: the
# skip-branch arm, the backbone arm, the skip-branch arm without the backbone
# loss, and the skip-branch arm fused by sum. A change that moves trained bits
# updates them on purpose and says so in CHANGES.md.
TRAINED_DIGESTS = {
    True: ({"mfi_enabled": True},
           "8c1fb117fc87169a362a23532bd8cbb10c86a33b96f72cd2e3aea254ded28e6c",
           "8b139aef30d7f2fe5f6440efb51568751f3ba8b208929270c42acbdfe13e75dc"),
    False: ({"mfi_enabled": False},
            "0204ba114fa4e74253cee1f0ceb1547a8570a15cf6eec95cf0185a931291ec49",
            "38d5b5d9ea893458b230fc49c89ab7ee88bbf83425ed38a718b91bf7e92f8e00"),
    "no_backbone_loss": ({"backbone_loss_enabled": False},
                         "57010e00c0ebb749e5498006715a5099931c86883a26e589ed6aac64f6032bd7",
                         "20188b4c144edfe363184403df528f7496b843ab4986180393e4f61ad3144d24"),
    "sum": ({"fusion": "sum"},
            "ea78d2c6207995fd58ba7450dc44a2be8702d82ac4c469604542cdc5c0fdb1cd",
            "97b8edc1ad00d35aeb11d1d70ec070fbc3ce525a1d9be2edad4b77a83aee594f"),
}


@pytest.mark.parametrize("arm", TRAINED_DIGESTS)
def test_trained_bytes_are_pinned(tmp_path, arm):
    synth, config = tmp_path / "synth.json", tmp_path / "train.json"
    data, ckpt, report = tmp_path / "data.txt", tmp_path / "model.ckpt", tmp_path / "report.json"
    keys, *want = TRAINED_DIGESTS[arm]
    write_json(synth, {"num_identities": 6, "per_identity_per_modality": 3, "input_dim": 6, "seed": 0})
    write_json(config, {"encoder": {"input_dim": 6, "num_classes": 0, "stage_dims": [8, 8],
                                    "tap_stage": 1, "d": 5, **keys},
                        "P": 3, "K": 2, "epochs": 2, "freeze_stage_epochs": 1, "lr_decay_epoch": 1,
                        "seed": 0})
    assert cli.main(["synth", "--config", str(synth), "--out", str(data)]) == 0
    assert cli.main(["train", "--data", str(data), "--config", str(config), "--out", str(ckpt),
                     "--report", str(report)]) == 0
    digests = [hashlib.sha256(path.read_bytes()).hexdigest() for path in (ckpt, report)]
    assert digests == want


@pytest.fixture
def workdir(tmp_path):
    synth = tmp_path / "synth.json"
    write_json(synth, {"num_identities": 6, "per_identity_per_modality": 3,
                       "input_dim": 6, "cluster_std": 0.3, "noise_std": 0.1,
                       "seed": 0})
    traincfg = tmp_path / "train.json"
    write_json(traincfg, {
        "encoder": {"input_dim": 6, "num_classes": 0, "stage_dims": [8, 8],
                    "tap_stage": 1, "d": 5},
        "loss": {"rho": 0.5, "lambda1": 0.1, "lambda2": 2.0},
        "P": 3, "K": 2, "epochs": 2, "freeze_stage_epochs": 1,
        "learning_rate": 1e-3, "lr_decay_epoch": 1, "seed": 0,
    })
    return tmp_path


class TestCli:
    def test_synth_train_eval_pipeline(self, workdir, capsys):
        data = workdir / "data.txt"
        ckpt = workdir / "model.ckpt"
        report = workdir / "train_report.json"
        assert cli.main(["synth", "--config", str(workdir / "synth.json"),
                         "--out", str(data)]) == 0
        assert data.exists()
        assert cli.main(["train", "--data", str(data),
                         "--config", str(workdir / "train.json"),
                         "--out", str(ckpt), "--report", str(report)]) == 0
        assert ckpt.exists()
        doc = json.loads(report.read_text())
        assert len(doc["epochs"]) == 2
        for modality in (VISIBLE, THERMAL):
            code = cli.main(["eval", "--checkpoint", str(ckpt),
                             "--data", str(data),
                             "--query-modality", modality,
                             "--trials", "2", "--single-shot"]) == 0
            assert code
        out = capsys.readouterr().out
        assert '"map"' in out

    def test_eval_report_file_matches_stdout(self, workdir, capsys):
        data = workdir / "data.txt"
        ckpt = workdir / "model.ckpt"
        cli.main(["synth", "--config", str(workdir / "synth.json"), "--out", str(data)])
        cli.main(["train", "--data", str(data), "--config", str(workdir / "train.json"),
                  "--out", str(ckpt)])
        capsys.readouterr()
        report = workdir / "eval.json"
        assert cli.main(["eval", "--checkpoint", str(ckpt), "--data", str(data),
                         "--report", str(report)]) == 0
        assert capsys.readouterr().out == report.read_text()

    def test_ablation_command(self, workdir, capsys):
        report = workdir / "ablation.json"
        synth = workdir / "synth.json"
        doc = json.loads(synth.read_text())
        doc["train_fraction"] = 0.5
        write_json(synth, doc)
        assert cli.main(["ablation", "--data-config", str(synth),
                         "--config", str(workdir / "train.json"),
                         "--seeds", "0", "--report", str(report)]) == 0
        table = json.loads(report.read_text())
        assert set(table["arms"]) == set(ABLATION_ARMS)
        out = capsys.readouterr().out
        assert "EDFL" in out

    def test_gradcheck_command_exit_codes(self, monkeypatch, capsys):
        monkeypatch.setattr(harness, "GRADCHECK_COMPONENTS",
                            {"dense": harness.GRADCHECK_COMPONENTS["dense"]})
        assert cli.main(["gradcheck", "--trials", "2"]) == 0
        monkeypatch.setattr(harness, "GRADCHECK_COMPONENTS",
                            {"broken": lambda rng: 1.0})
        assert cli.main(["gradcheck", "--trials", "1"]) == 3
        out = capsys.readouterr().out
        assert "FAIL" in out

    @pytest.mark.parametrize("trials", ["0", "-3"])
    def test_gradcheck_without_trials_exits_1(self, trials, capsys):
        assert cli.main(["gradcheck", "--trials", trials]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert "trials must be >= 1" in err

    @pytest.mark.parametrize("command", ["gradcheck", "eval", "train", "synth", "ablation"])
    def test_negative_seed_is_named_and_exits_1(self, command, workdir, capsys):
        synth, train_cfg = workdir / "synth.json", workdir / "train.json"
        data, ckpt = workdir / "data.txt", workdir / "model.ckpt"
        assert cli.main(["synth", "--config", str(synth), "--out", str(data)]) == 0
        assert cli.main(["train", "--data", str(data), "--config", str(train_cfg),
                         "--out", str(ckpt)]) == 0
        for path, seed in ((synth, -3), (train_cfg, -1)):
            doc = json.loads(path.read_text())
            doc["seed"] = seed
            write_json(workdir / f"bad_{path.name}", doc)
        capsys.readouterr()
        argv, message = {
            "gradcheck": (["gradcheck", "--seed", "-1"], "gradcheck: seed must be >= 0, got -1"),
            "eval": (["eval", "--checkpoint", str(ckpt), "--data", str(data), "--seed", "-2"],
                     "EvalProtocol: seed must be >= 0, got -2"),
            "train": (["train", "--data", str(data), "--config", str(workdir / "bad_train.json"),
                       "--out", str(workdir / "other.ckpt")],
                      "TrainConfig: seed must be >= 0, got -1"),
            "synth": (["synth", "--config", str(workdir / "bad_synth.json"),
                       "--out", str(workdir / "other.txt")],
                      "SynthConfig: seed must be >= 0, got -3"),
            "ablation": (["ablation", "--data-config", str(synth), "--config", str(train_cfg),
                          "--seeds", "-1"],
                         "run_ablation: seed must be >= 0, got -1"),
        }[command]
        assert cli.main(argv) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"config error: {message}\n"

    def test_ablation_seed_that_is_not_an_integer_is_named(self, workdir, capsys):
        assert cli.main(["ablation", "--data-config", str(workdir / "synth.json"),
                         "--config", str(workdir / "train.json"), "--seeds", "0,x"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "config error: --seeds: 'x' is not an integer\n"

    @pytest.mark.parametrize("flag", ["mfi_enabled", "backbone_loss_enabled"])
    def test_branch_flag_in_the_loss_section_exits_1(self, flag, workdir, capsys):
        # the branch flags belong to the encoder section alone; the config
        # is read before the data, so the absent data file is never opened
        doc = json.loads((workdir / "train.json").read_text())
        doc["loss"][flag] = False
        write_json(workdir / "flagged.json", doc)
        assert cli.main(["train", "--data", str(workdir / "absent.txt"),
                         "--config", str(workdir / "flagged.json"),
                         "--out", str(workdir / "m.ckpt")]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"config error: LossConfig: unknown keys ['{flag}']\n"

    @pytest.mark.parametrize("command, bad, message", [
        ("train", lambda d: {**d, "loss": None}, "TrainConfig: loss must be a JSON object, got null"),
        ("train", lambda d: {**d, "encoder": 5}, "TrainConfig: encoder must be a JSON object, got 5"),
        ("train", lambda d: {**d, "P": "3"}, 'TrainConfig: P must be an integer, got "3"'),
        ("train", lambda d: {**d, "loss": {"rho": "x"}}, 'LossConfig: rho must be a finite number, got "x"'),
        ("train", lambda d: {**d, "learning_rate": math.nan},
         "TrainConfig: learning_rate must be a finite number, got NaN"),
        ("train", lambda d: {**d, "loss": {"rho": math.nan}}, "LossConfig: rho must be a finite number, got NaN"),
        ("train", lambda d: {**d, "loss": {"lambda2": math.inf}},
         "LossConfig: lambda2 must be a finite number, got Infinity"),
        ("train", lambda d: {**d, "encoder": {**d["encoder"], "bn_epsilon": math.nan}},
         "EncoderConfig: bn_epsilon must be a finite number, got NaN"),
        ("train", lambda d: {**d, "lr_decay_factor": 10 ** 400},
         "TrainConfig: lr_decay_factor must be a finite number, got 1" + "0" * 36 + "..."),
        ("train", lambda d: {**d, "encoder": {**d["encoder"], "stage_dims": 8}},
         "EncoderConfig: stage_dims must be a list of integers, got 8"),
        ("train", lambda d: [1, 2], "TrainConfig: expected a JSON object, got [1, 2]"),
        ("synth", lambda d: {**d, "num_identities": "6"},
         'SynthConfig: num_identities must be an integer, got "6"'),
        ("synth", lambda d: [1, 2], "SynthConfig: expected a JSON object, got [1, 2]"),
        ("synth", lambda d: {**d, "cluster_std": math.inf},
         "SynthConfig: cluster_std must be a finite number, got Infinity"),
        ("synth", lambda d: {**d, "noise_std": math.nan},
         "SynthConfig: noise_std must be a finite number, got NaN"),
        ("synth", lambda d: {**d, "train_fraction": "0.5"},
         'SynthConfig: train_fraction must be a finite number, got "0.5"'),
        # sizes past the 2^47-byte user address space: numpy refuses them at
        # once on any machine, so no test run ever fills memory
        ("synth", lambda d: {**d, "num_identities": 10 ** 20},
         "SynthConfig: its sizes cannot be allocated (Maximum allowed dimension exceeded)"),
        ("synth", lambda d: {**d, "input_dim": 10 ** 15},
         "SynthConfig: its sizes cannot be allocated (Unable to allocate 256. PiB for an array "
         "with shape (36, 1000000000000000) and data type float64)"),
        ("train", lambda d: {**d, "encoder": {**d["encoder"], "stage_dims": [10 ** 15], "tap_stage": 1}},
         "EncoderConfig: its sizes cannot be allocated (Unable to allocate 42.6 PiB for an array "
         "with shape (6, 1000000000000000) and data type float64)"),
        ("train", lambda d: {**d, "encoder": {**d["encoder"], "d": 10 ** 15}},
         "EncoderConfig: its sizes cannot be allocated (Unable to allocate 56.8 PiB for an array "
         "with shape (8, 1000000000000000) and data type float64)"),
        ("train", lambda d: {**d, "encoder": {**d["encoder"], "stage_dims": [10 ** 18], "tap_stage": 1}},
         "EncoderConfig: its sizes cannot be allocated (array is too big; `arr.size * arr.dtype.itemsize` "
         "is larger than the maximum possible size.)"),
        ("ablation", lambda d: {**d, "encoder": {**d["encoder"], "stage_dims": [10 ** 15], "tap_stage": 1}},
         "EncoderConfig: its sizes cannot be allocated (Unable to allocate 42.6 PiB for an array "
         "with shape (6, 1000000000000000) and data type float64)"),
    ], ids=["loss-null", "encoder-number", "P-string", "rho-string", "learning_rate-nan", "rho-nan",
            "lambda2-inf", "bn_epsilon-nan", "lr_decay_factor-huge-int", "stage_dims-number",
            "train-array", "num_identities-string", "synth-array", "cluster_std-inf", "noise_std-nan",
            "train_fraction-string", "num_identities-oversized", "input_dim-oversized",
            "stage_dims-oversized", "d-oversized", "stage_dims-past-numpy-limit", "ablation-oversized"])
    def test_config_value_of_the_wrong_type_is_named_and_exits_1(self, command, bad, message,
                                                                 workdir, capsys):
        data = workdir / "data.txt"
        assert cli.main(["synth", "--config", str(workdir / "synth.json"), "--out", str(data)]) == 0
        path = workdir / f"{'train' if command == 'ablation' else command}.json"
        write_json(workdir / "bad.json", bad(json.loads(path.read_text())))
        outputs = [workdir / name for name in ("m.ckpt", "other.txt", "r.json")]
        argv = {"train": ["train", "--data", str(data), "--out", str(outputs[0])],
                "synth": ["synth", "--out", str(outputs[1])],
                "ablation": ["ablation", "--data-config", str(workdir / "synth.json"), "--seeds", "0",
                             "--report", str(outputs[2])]}[command]
        capsys.readouterr()
        assert cli.main(argv + ["--config", str(workdir / "bad.json")]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"config error: {message}\n"
        assert not any(path.exists() for path in outputs)

    def test_usage_error_exits_1(self, capsys):
        assert cli.main(["train", "--data", "x"]) == 1
        assert "usage error" in capsys.readouterr().err

    # JSON text is UTF-8: other bytes are invalid JSON, not a UnicodeDecodeError
    @pytest.mark.parametrize("command, content", [
        ("synth", b"{not json\n"),
        ("synth", b"\xff\xfe{}\n"),
        ("eval", b"xmodal-checkpoint v1\n\xff\n"),
    ], ids=["synth-not-json", "synth-not-utf8", "checkpoint-not-utf8"])
    def test_bad_config_exits_1(self, command, content, workdir, capsys):
        bad = workdir / "bad.json"
        bad.write_bytes(content)
        argv = {"synth": ["synth", "--config", str(bad), "--out", str(workdir / "d.txt")],
                "eval": ["eval", "--checkpoint", str(bad), "--data", str(workdir / "absent.txt")]}[command]
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {bad}: invalid JSON ("), err

    # the dataset format is UTF-8 text: other bytes are a data error, not a UnicodeDecodeError
    @pytest.mark.parametrize("content", [None, b"\xff\xfe", b"# xmodal-dataset v1 dim=1\n\xff,0,V,1.0\n"],
                             ids=["absent", "not-utf8", "row-not-utf8"])
    def test_missing_data_file_exits_2(self, content, workdir, capsys):
        data = workdir / "data.txt"
        if content is not None:
            data.write_bytes(content)
        assert cli.main(["train", "--data", str(data), "--config", str(workdir / "train.json"),
                         "--out", str(workdir / "m.ckpt")]) == 2
        assert capsys.readouterr().err.startswith(f"data error: cannot read {data}: ")
        assert not (workdir / "m.ckpt").exists()

    @pytest.mark.parametrize("content", [b"\xff\xfe", b"# xmodal-dataset v1 dim=6\n\xff,0,V,1,2,3,4,5,6\n"],
                             ids=["not-utf8", "row-not-utf8"])
    def test_eval_data_not_utf8_exits_2(self, content, workdir, capsys):
        data, ckpt, report = workdir / "data.txt", workdir / "model.ckpt", workdir / "r.json"
        assert cli.main(["synth", "--config", str(workdir / "synth.json"), "--out", str(data)]) == 0
        assert cli.main(["train", "--data", str(data), "--config", str(workdir / "train.json"),
                         "--out", str(ckpt)]) == 0
        data.write_bytes(content)
        capsys.readouterr()
        assert cli.main(["eval", "--checkpoint", str(ckpt), "--data", str(data),
                         "--report", str(report)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"data error: cannot read {data}: ") and err.count("\n") == 1, err
        assert not report.exists()

    @pytest.mark.parametrize("dim", ["0", "-1"])
    def test_dimension_below_one_exits_2(self, dim, workdir, capsys):
        data = workdir / "bad.txt"
        fields = ",1.0" * max(int(dim), 0)
        data.write_text(f"# xmodal-dataset v1 dim={dim}\n0,0,V{fields}\n1,0,T{fields}\n")
        assert cli.main(["train", "--data", str(data), "--config", str(workdir / "train.json"),
                         "--out", str(workdir / "m.ckpt")]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"data error: {data}:1: dimension must be >= 1, got {dim}\n"

    @pytest.mark.parametrize("query", [VISIBLE, THERMAL])
    def test_eval_without_thermal_rows_exits_2(self, query, workdir, capsys):
        data, ckpt = workdir / "data.txt", workdir / "model.ckpt"
        assert cli.main(["synth", "--config", str(workdir / "synth.json"), "--out", str(data)]) == 0
        assert cli.main(["train", "--data", str(data), "--config", str(workdir / "train.json"),
                         "--out", str(ckpt)]) == 0
        lines = data.read_text().splitlines(keepends=True)
        visible_only = workdir / "visible.txt"
        visible_only.write_text("".join(line for line in lines if ",T," not in line))
        capsys.readouterr()
        assert cli.main(["eval", "--checkpoint", str(ckpt), "--data", str(visible_only),
                         "--query-modality", query]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "data error: evaluation: the dataset has no samples with modality T\n"

    @pytest.mark.parametrize("query", [VISIBLE, THERMAL])
    def test_eval_without_a_cross_modality_match_exits_2(self, query, workdir, capsys):
        data, ckpt = workdir / "data.txt", workdir / "model.ckpt"
        assert cli.main(["synth", "--config", str(workdir / "synth.json"), "--out", str(data)]) == 0
        assert cli.main(["train", "--data", str(data), "--config", str(workdir / "train.json"),
                         "--out", str(ckpt)]) == 0
        # thermal rows move to identities that no visible row has
        lines = data.read_text().splitlines(keepends=True)
        for i, line in enumerate(lines):
            fields = line.split(",")
            if fields[2:3] == ["T"]:
                fields[1] = str(int(fields[1]) + 1000)
                lines[i] = ",".join(fields)
        unmatched = workdir / "unmatched.txt"
        unmatched.write_text("".join(lines))
        capsys.readouterr()
        assert cli.main(["eval", "--checkpoint", str(ckpt), "--data", str(unmatched),
                         "--query-modality", query]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "data error: evaluation: every query lacked a gallery match\n"

    @pytest.mark.parametrize("command", ["synth", "train", "eval"])
    def test_unwritable_output_path_is_a_usage_error(self, command, workdir, capsys):
        data, ckpt = workdir / "data.txt", workdir / "model.ckpt"
        assert cli.main(["synth", "--config", str(workdir / "synth.json"), "--out", str(data)]) == 0
        assert cli.main(["train", "--data", str(data), "--config", str(workdir / "train.json"),
                         "--out", str(ckpt)]) == 0
        missing = workdir / "missing" / "out.txt"
        argv = {
            "synth": ["synth", "--config", str(workdir / "synth.json"), "--out", str(missing)],
            "train": ["train", "--data", str(data), "--config", str(workdir / "train.json"),
                      "--out", str(missing)],
            "eval": ["eval", "--checkpoint", str(ckpt), "--data", str(data), "--report", str(missing)],
        }[command]
        capsys.readouterr()
        assert cli.main(argv) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"usage error: cannot write {missing}: No such file or directory\n"

    @pytest.mark.parametrize("command, flag, path, reason", [
        ("train", "--out", "missing/dir/m.ckpt", "No such file or directory"),
        ("train", "--report", "missing/dir/r.json", "No such file or directory"),
        ("train", "--out", ".", "Is a directory"),
        ("ablation", "--report", "missing/dir/a.json", "No such file or directory"),
    ])
    def test_unwritable_output_path_is_found_before_the_run(self, command, flag, path, reason,
                                                            workdir, monkeypatch, capsys):
        # a typo in an output path must not cost a whole run, nor leave the
        # other output behind
        def run(*args, **kwargs):
            raise AssertionError(f"{command} ran before its output paths were checked")

        monkeypatch.chdir(workdir)
        assert cli.main(["synth", "--config", "synth.json", "--out", "data.txt"]) == 0
        monkeypatch.setattr(cli, "train", run)
        monkeypatch.setattr(cli, "run_ablation", run)
        outputs = {"--out": "m.ckpt", "--report": "r.json", flag: path}
        argv = {
            "train": ["train", "--data", "data.txt", "--config", "train.json",
                      "--out", outputs["--out"], "--report", outputs["--report"]],
            "ablation": ["ablation", "--data-config", "synth.json", "--config", "train.json",
                         "--seeds", "0", "--report", outputs["--report"]],
        }[command]
        before = sorted(p.name for p in workdir.iterdir())
        capsys.readouterr()
        assert cli.main(argv) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"usage error: cannot write {path}: {reason}\n"
        assert sorted(p.name for p in workdir.iterdir()) == before

    @pytest.mark.parametrize("report", ["m.ckpt", "./m.ckpt"])
    def test_report_over_the_checkpoint_is_found_before_the_run(self, report, workdir,
                                                                monkeypatch, capsys):
        # the report would replace the model it was written after
        def run(*args, **kwargs):
            raise AssertionError("train ran before its output paths were checked")

        monkeypatch.chdir(workdir)
        assert cli.main(["synth", "--config", "synth.json", "--out", "data.txt"]) == 0
        monkeypatch.setattr(cli, "train", run)
        before = sorted(p.name for p in workdir.iterdir())
        capsys.readouterr()
        assert cli.main(["train", "--data", "data.txt", "--config", "train.json",
                         "--out", "m.ckpt", "--report", report]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == ("usage error: --out and --report name one file, m.ckpt: "
                       "the report would replace the model\n")
        assert sorted(p.name for p in workdir.iterdir()) == before

    @pytest.mark.parametrize("num_identities, P", [(1, 3), (6, 8)])
    def test_too_few_identities_for_P_is_named(self, num_identities, P, workdir, capsys):
        synth = workdir / "few.json"
        write_json(synth, {**json.loads((workdir / "synth.json").read_text()),
                           "num_identities": num_identities})
        train_cfg = workdir / "p.json"
        write_json(train_cfg, {**json.loads((workdir / "train.json").read_text()), "P": P})
        data = workdir / "data.txt"
        assert cli.main(["synth", "--config", str(synth), "--out", str(data)]) == 0
        capsys.readouterr()
        assert cli.main(["train", "--data", str(data), "--config", str(train_cfg),
                         "--out", str(workdir / "m.ckpt")]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (f"config error: P {P} exceeds the {num_identities} training identities "
                       "with rows in both modalities\n")
        assert not (workdir / "m.ckpt").exists()

    @pytest.mark.parametrize("K", [13, 100000])
    def test_P_times_K_above_the_row_count_is_named(self, K, workdir, capsys):
        # 36 rows; at K = 100000 the loss's pool masks alone would need 335 GiB
        train_cfg = workdir / "k.json"
        write_json(train_cfg, {**json.loads((workdir / "train.json").read_text()), "K": K})
        data = workdir / "data.txt"
        assert cli.main(["synth", "--config", str(workdir / "synth.json"), "--out", str(data)]) == 0
        capsys.readouterr()
        assert cli.main(["train", "--data", str(data), "--config", str(train_cfg),
                         "--out", str(workdir / "m.ckpt")]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"config error: P 3 times K {K} exceeds the 36 rows of the dataset\n"
        assert not (workdir / "m.ckpt").exists()

    def test_eval_on_data_of_another_dimension_is_named(self, workdir, capsys):
        data, ckpt = workdir / "data.txt", workdir / "model.ckpt"
        assert cli.main(["synth", "--config", str(workdir / "synth.json"), "--out", str(data)]) == 0
        assert cli.main(["train", "--data", str(data), "--config", str(workdir / "train.json"),
                         "--out", str(ckpt)]) == 0
        synth5 = workdir / "synth5.json"
        write_json(synth5, {**json.loads((workdir / "synth.json").read_text()), "input_dim": 5})
        data5 = workdir / "data5.txt"
        assert cli.main(["synth", "--config", str(synth5), "--out", str(data5)]) == 0
        capsys.readouterr()
        assert cli.main(["eval", "--checkpoint", str(ckpt), "--data", str(data5)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "config error: input_dim 6 does not match dataset dim 5\n"

    @pytest.mark.parametrize("key, value, message", [
        ("train_fraction", 1.5, "split: train_fraction must lie in (0, 1)"),
        ("num_identities", 1, "split: need at least 2 identities"),
    ])
    def test_ablation_split_fault_is_named(self, key, value, message, workdir, capsys):
        synth = workdir / "bad_synth.json"
        write_json(synth, {**json.loads((workdir / "synth.json").read_text()), key: value})
        assert cli.main(["ablation", "--data-config", str(synth),
                         "--config", str(workdir / "train.json"), "--seeds", "0"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"config error: {message}\n"

    def test_plain_value_error_propagates(self, workdir, monkeypatch):
        # a ValueError that is no config or data fault is a bug: it must
        # show as a traceback, not as "config error"
        def broken(dataset, config):
            raise ValueError("a bug in training")

        data = workdir / "data.txt"
        assert cli.main(["synth", "--config", str(workdir / "synth.json"), "--out", str(data)]) == 0
        monkeypatch.setattr(cli, "train", broken)
        with pytest.raises(ValueError, match="a bug in training"):
            cli.main(["train", "--data", str(data), "--config", str(workdir / "train.json"),
                      "--out", str(workdir / "m.ckpt")])

    def test_a_diverged_run_exits_4(self, workdir, capsys):
        # a finite but huge learning rate overflows the parameters, so the
        # next loss is NaN: a numeric error that names the cause, not a
        # traceback, and no checkpoint
        data, ckpt = workdir / "data.txt", workdir / "model.ckpt"
        assert cli.main(["synth", "--config", str(workdir / "synth.json"), "--out", str(data)]) == 0
        doc = json.loads((workdir / "train.json").read_text())
        doc["learning_rate"] = 1e300
        write_json(workdir / "huge_lr.json", doc)
        capsys.readouterr()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = cli.main(["train", "--data", str(data), "--config", str(workdir / "huge_lr.json"),
                             "--out", str(ckpt)])
        assert code == 4
        # the numeric error line alone: numpy's overflow warnings stay silent
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        out, err = capsys.readouterr()
        assert out == "" and not ckpt.exists()
        assert err == ("numeric error: total_loss: non-finite loss nan: the run diverged, "
                       "or its inputs are too large for float64\n")

    def test_eval_of_overflowing_weights_exits_4(self, workdir, capsys):
        # finite stage weights scaled by 1e200 overflow the test features
        data, ckpt, huge = workdir / "data.txt", workdir / "model.ckpt", workdir / "huge.ckpt"
        assert cli.main(["synth", "--config", str(workdir / "synth.json"), "--out", str(data)]) == 0
        assert cli.main(["train", "--data", str(data), "--config", str(workdir / "train.json"),
                         "--out", str(ckpt)]) == 0
        params, enc_cfg = load_checkpoint(ckpt)
        for name, v in params.values.items():
            if ".stage" in name:
                v *= 1e200
        save_checkpoint(params, enc_cfg, huge)
        capsys.readouterr()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = cli.main(["eval", "--checkpoint", str(huge), "--data", str(data)])
        assert code == 4
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        out, err = capsys.readouterr()
        assert out == ""
        assert err == ("numeric error: evaluation: non-finite query feature: the run diverged, "
                       "or its inputs are too large for float64\n")

    # the corpus's cross-modality transform is drawn from its seed: no key sets it
    @pytest.mark.parametrize("key, value", [("pixels", 9), ("modality_transform", [[1, 0], [0, 1]]),
                                            ("modality_offset", [0, 0])],
                             ids=["pixels", "modality_transform", "modality_offset"])
    def test_unknown_synth_key_exits_1(self, key, value, workdir, capsys):
        bad = workdir / "synth_bad.json"
        write_json(bad, {"num_identities": 6, key: value})
        assert cli.main(["synth", "--config", str(bad),
                         "--out", str(workdir / "d.txt")]) == 1
        assert capsys.readouterr().err == f"config error: SynthConfig: unknown keys ['{key}']\n"
        assert not (workdir / "d.txt").exists()
