"""Acceptance suite: one test per release criterion.

Each test prints a single `[acceptance] <criterion>: PASS/FAIL` line so the
release gate can be read off the test log directly. Criteria:

  1. gradient fidelity of every backward path (finite differences)
  2. triplet losses match exhaustive enumeration oracles
  3. loss composition identities across a lambda grid
  4. ranking metrics match definition-based oracles
  5. PK sampler contract over 10 000 batches
  6. end-to-end ablation trend on the reference synthetic task
  7. bi-directional evaluation symmetry on modality-symmetric data
  8. byte-identical reports for identical seeded runs
"""

import json
import time
from dataclasses import replace

import numpy as np
import pytest

from helpers import (
    average_precision_oracle,
    batch_hard_oracle,
    cmc_oracle,
    cross_modality_oracle,
    intra_modality_oracle,
    random_pk_batch,
)
from xmodal import cli
from xmodal.data import Dataset, SynthConfig, generate_synthetic, sample_pk_batch
from xmodal.encoder import MODALITIES, EncoderConfig, encode, init_encoder
from xmodal.evaluation import EvalProtocol, average_precision, cmc_curve
from xmodal.harness import (
    TrainConfig,
    evaluate,
    gradcheck,
    load_checkpoint,
    run_ablation,
    save_checkpoint,
)
from xmodal.losses import (
    LabeledBatch,
    LossConfig,
    THERMAL,
    VISIBLE,
    batch_hard_triplet,
    cross_modality_triplet,
    dual_modality_triplet,
    intra_modality_triplet,
    total_loss,
)

EXACT = 1e-12

# Reference configuration for the end-to-end trend criterion. The rank-1
# margin floor below was calibrated once on this exact configuration and is
# frozen as a regression bound; do not retune it to make a red run green.
REFERENCE_SYNTH = dict(num_identities=50, per_identity_per_modality=20,
                       input_dim=32, cluster_std=0.3, noise_std=0.1)
REFERENCE_SEEDS = (0, 1, 2, 3, 4)
RANK1_MARGIN_FLOOR = 0.10  # calibrated EDFL - baseline mean rank-1 margin


def reference_train_config():
    enc = EncoderConfig(input_dim=32, num_classes=0, stage_dims=(64, 64, 64),
                        tap_stage=2, d=64, fusion="cat")
    loss = LossConfig(rho=0.5, lambda1=0.1, lambda2=2.0)
    return TrainConfig(encoder=enc, loss=loss, P=8, K=4, epochs=20,
                       freeze_stage_epochs=2, learning_rate=1e-3,
                       lr_decay_factor=0.1, lr_decay_epoch=10, seed=0)


def report_line(criterion, ok, detail):
    print(f"[acceptance] {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{criterion}: {detail}"


# ---------------------------------------------------------------------------
# 1. Gradient fidelity
# ---------------------------------------------------------------------------

def test_criterion_1_gradient_fidelity():
    start = time.perf_counter()
    report, all_ok = gradcheck(trials=100, seed=0)
    elapsed = time.perf_counter() - start
    worst = max(rec["max_relative_error"] for rec in report.values())
    ok = all_ok and worst < 1e-4 and elapsed < 60.0
    report_line("1 gradient fidelity", ok,
                f"worst rel err {worst:.3e} over {len(report)} components, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 2. Triplet-loss oracle equivalence
# ---------------------------------------------------------------------------

def test_criterion_2_triplet_oracle_equivalence():
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(200):
        P = int(rng.integers(2, 5))
        K = int(rng.integers(1, 4))
        batch = random_pk_batch(rng, P, K, dim=int(rng.integers(2, 6)))
        rho = float(rng.uniform(0.1, 1.0))
        pairs = [
            (batch_hard_triplet(batch.features, batch.identity, rho)[0],
             batch_hard_oracle(batch.features, batch.identity, rho)),
            (cross_modality_triplet(batch, rho)[0], cross_modality_oracle(batch, rho)),
            (intra_modality_triplet(batch, rho)[0], intra_modality_oracle(batch, rho)),
        ]
        worst = max(worst, max(abs(a - b) for a, b in pairs))

    # hand-worked fixture: colinear points v1=0, t1=1, v2=2, t2=3, rho = 0.5.
    # Cross mining gives hinge 0.5 for two anchors and 0 for the other two,
    # so L_c = 1.0; every intra hinge is 0.5 + ~0 - 2 < 0, so L_i = 0.
    feats = np.array([[0.0, 0.0], [2.0, 0.0], [1.0, 0.0], [3.0, 0.0]])
    fixture = LabeledBatch(features=feats, identity=np.array([1, 2, 1, 2]),
                           modality=np.array([VISIBLE, VISIBLE, THERMAL, THERMAL]),
                           P=2, K=1)
    l_c = cross_modality_triplet(fixture, 0.5)[0]
    l_i = intra_modality_triplet(fixture, 0.5)[0]
    fixture_ok = abs(l_c - 1.0) < 1e-6 and l_i == 0.0

    ok = worst <= EXACT and fixture_ok
    report_line("2 triplet oracle equivalence", ok,
                f"200 batches, worst |diff| {worst:.2e}; fixture L_c={l_c:.6f} L_i={l_i}")


# ---------------------------------------------------------------------------
# 3. Composition identities
# ---------------------------------------------------------------------------

def test_criterion_3_composition_identities():
    rng = np.random.default_rng(3)
    grid = (0.0, 0.1, 1.0, 2.0, 5.0)
    P, K = 3, 2
    enc_cfg = EncoderConfig(input_dim=6, num_classes=P, stage_dims=(8, 7),
                            tap_stage=1, d=5)
    params = init_encoder(enc_cfg, 0)
    x = rng.standard_normal((2 * P * K, 6))
    labels = np.tile(np.repeat(np.arange(P), K), 2)
    bundle, _ = encode(params, enc_cfg, x.reshape(2, P * K, 6), MODALITIES, mode="train")
    batch = random_pk_batch(rng, P, K, dim=4)

    worst = 0.0
    for lambda1 in grid:
        for lambda2 in grid:
            for mfi in (True, False):
                cfg = LossConfig(rho=0.5, lambda1=lambda1, lambda2=lambda2)
                branch = replace(enc_cfg, mfi_enabled=mfi, backbone_loss_enabled=True)
                l_d, _, l_c, l_i = dual_modality_triplet(batch, cfg)
                worst = max(worst, abs(l_d - (l_c + lambda1 * l_i)))
                bd, _ = total_loss(bundle, labels, cfg, branch, P, K)
                d = bd.as_dict()
                worst = max(worst, abs(d["L_d_tri"] - (d["L_c_tri"] + lambda1 * d["L_i_tri"])))
                worst = max(worst, abs(d["L_all"] - (d["L_softmax"] + d["L_backbone"]
                                                     + lambda2 * d["L_d_tri"])))
    ok = worst <= EXACT
    report_line("3 composition identities", ok,
                f"lambda grid {grid}, worst |diff| {worst:.2e}")


# ---------------------------------------------------------------------------
# 4. Ranking-metric oracles
# ---------------------------------------------------------------------------

def test_criterion_4_ranking_metric_oracles():
    worst = 0.0
    for seed in range(100):
        rng = np.random.default_rng([4, seed])
        n = int(rng.integers(2, 51))
        rel = rng.random(n) < 0.4
        if not rel.any():
            rel[int(rng.integers(n))] = True
        worst = max(worst, abs(average_precision(rel) - average_precision_oracle(rel)))
        lists = [rel]
        for _ in range(int(rng.integers(1, 5))):
            extra = rng.random(n) < 0.4
            if not extra.any():
                extra[int(rng.integers(n))] = True
            lists.append(extra)
        ranks = sorted(set(int(r) for r in rng.integers(1, n + 1, size=3)))
        got = cmc_curve(lists, ranks)
        want = cmc_oracle([list(map(bool, l)) for l in lists], ranks)
        worst = max(worst, max(abs(got[r] - want[r]) for r in ranks))

    # perfect one-hot embeddings: every query's match ranks first
    eye = np.eye(8)
    perfect = [(np.argsort(np.linalg.norm(eye - q, axis=1), kind="stable") == i)
               for i, q in enumerate(eye)]
    perfect_ok = (cmc_curve(perfect, (1,))[1] == 1.0
                  and all(average_precision(p) == 1.0 for p in perfect))
    fixture_ap = average_precision([1, 0, 1, 0])
    fixture_ok = abs(fixture_ap - 5.0 / 6.0) <= EXACT

    ok = worst <= EXACT and perfect_ok and fixture_ok
    report_line("4 ranking metric oracles", ok,
                f"100 seeds, worst |diff| {worst:.2e}; AP([1,0,1,0])={fixture_ap:.6f}")


# ---------------------------------------------------------------------------
# 5. Sampler contract
# ---------------------------------------------------------------------------

def test_criterion_5_sampler_contract():
    cfg = SynthConfig(num_identities=12, per_identity_per_modality=3,
                      input_dim=4, seed=5)
    dataset = generate_synthetic(cfg)
    rng = np.random.default_rng(5)
    checked = 0
    for _ in range(10_000):
        P = int(rng.integers(2, 7))
        K = int(rng.integers(1, 5))  # K up to 4 > pool of 3 exercises replacement
        batch = sample_pk_batch(dataset, P, K, rng)
        assert batch.features.shape[0] == 2 * P * K
        idents = np.unique(batch.identity)
        assert idents.size == P
        for ident in idents:
            for mod in (VISIBLE, THERMAL):
                rows = np.sum((batch.identity == ident) & (batch.modality == mod))
                assert rows == K, (ident, mod, rows)
        checked += 1
    batch = sample_pk_batch(dataset, 8, 4, rng)
    ok = checked == 10_000 and batch.features.shape[0] == 64
    report_line("5 sampler contract", ok,
                f"{checked} batches; P=8 K=4 batch has {batch.features.shape[0]} rows")


# ---------------------------------------------------------------------------
# 6. End-to-end ablation trend
# ---------------------------------------------------------------------------

def test_criterion_6_ablation_trend():
    synth = SynthConfig(**REFERENCE_SYNTH)
    start = time.perf_counter()
    table = run_ablation(synth, reference_train_config(), seeds=REFERENCE_SEEDS,
                         train_fraction=0.5)
    elapsed = time.perf_counter() - start
    r1 = {arm: table["arms"][arm]["mean_rank1"] for arm in table["arms"]}
    n_runs = 4 * len(REFERENCE_SEEDS)
    trend_ok = (r1["EDFL"] >= max(r1["DMTL"], r1["MFI"])
                and min(r1["DMTL"], r1["MFI"]) > r1["baseline"])
    margin = r1["EDFL"] - r1["baseline"]
    time_ok = elapsed < 20 * 60 and elapsed / n_runs < 60.0
    ok = trend_ok and margin >= RANK1_MARGIN_FLOOR and time_ok
    report_line(
        "6 ablation trend", ok,
        f"rank-1 baseline={r1['baseline']:.3f} DMTL={r1['DMTL']:.3f} "
        f"MFI={r1['MFI']:.3f} EDFL={r1['EDFL']:.3f}, margin {margin:.3f} "
        f">= {RANK1_MARGIN_FLOOR}, {elapsed:.0f}s for {n_runs} runs")


# ---------------------------------------------------------------------------
# 7. Bi-directional evaluation symmetry
# ---------------------------------------------------------------------------

def test_criterion_7_bidirectional_symmetry(tmp_path):
    # modality-symmetric corpus: each thermal sample mirrors a visible sample
    rng = np.random.default_rng(7)
    feats = []
    for ident in range(10):
        center = rng.standard_normal(16)
        for _ in range(4):
            feats.append(center + 0.2 * rng.standard_normal(16))
    dataset = Dataset(features=np.repeat(np.array(feats), 2, axis=0),
                      identity=np.repeat(np.arange(10), 8),
                      modality=np.tile(np.array([VISIBLE, THERMAL]), 40),
                      sample_id=np.arange(80))

    # tie the thermal stream to the visible one so the encoder itself is
    # modality-symmetric as well
    enc_cfg = EncoderConfig(input_dim=16, num_classes=10, stage_dims=(12, 10),
                            tap_stage=1, d=8)
    params = init_encoder(enc_cfg, 0)
    for name in list(params.values):
        if name.startswith("visible."):
            params.values["thermal." + name[len("visible."):]] = params.values[name].copy()
    path = tmp_path / "symmetric.ckpt"
    save_checkpoint(params, enc_cfg, path)
    params, enc_cfg = load_checkpoint(path)

    frags = {}
    for query, gallery in ((VISIBLE, THERMAL), (THERMAL, VISIBLE)):
        protocol = EvalProtocol(query_modality=query, gallery_modality=gallery,
                                trials=1, single_shot=False,
                                ranks_reported=(1, 5, 10), seed=0)
        frags[query] = evaluate(params, enc_cfg, dataset, protocol)
    vt, tv = frags[VISIBLE], frags[THERMAL]
    diffs = [abs(vt["map"] - tv["map"])]
    diffs += [abs(vt["cmc"][r] - tv["cmc"][r]) for r in vt["cmc"]]
    worst = max(diffs)
    ok = worst <= EXACT and vt["protocol"] != tv["protocol"]
    report_line("7 bi-directional symmetry", ok,
                f"{vt['protocol']} vs {tv['protocol']}, worst |diff| {worst:.2e}")


# ---------------------------------------------------------------------------
# 8. Determinism
# ---------------------------------------------------------------------------

def test_criterion_8_determinism(tmp_path):
    synth = tmp_path / "synth.json"
    synth.write_text(json.dumps({"num_identities": 8, "per_identity_per_modality": 4,
                                 "input_dim": 8, "seed": 0}) + "\n")
    traincfg = tmp_path / "train.json"
    traincfg.write_text(json.dumps({
        "encoder": {"input_dim": 8, "num_classes": 0, "stage_dims": [10, 8],
                    "tap_stage": 1, "d": 6},
        "P": 3, "K": 2, "epochs": 3, "freeze_stage_epochs": 1,
        "learning_rate": 1e-3, "lr_decay_epoch": 2, "seed": 0,
    }) + "\n")
    data = tmp_path / "data.txt"
    assert cli.main(["synth", "--config", str(synth), "--out", str(data)]) == 0

    outputs = []
    for run in ("a", "b"):
        ckpt = tmp_path / f"model_{run}.ckpt"
        train_report = tmp_path / f"train_{run}.json"
        eval_report = tmp_path / f"eval_{run}.json"
        assert cli.main(["train", "--data", str(data), "--config", str(traincfg),
                         "--out", str(ckpt), "--report", str(train_report)]) == 0
        assert cli.main(["eval", "--checkpoint", str(ckpt), "--data", str(data),
                         "--trials", "3", "--single-shot", "--seed", "1",
                         "--report", str(eval_report)]) == 0
        outputs.append((train_report.read_bytes(), eval_report.read_bytes(),
                        ckpt.read_bytes()))
    ok = outputs[0] == outputs[1]
    report_line("8 determinism", ok,
                "train report, eval report, and checkpoint byte-identical across runs")
