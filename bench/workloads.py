"""The benchmark's three workloads: train_ref, eval_gallery and gradcheck.

Each workload builds its inputs from the workload seed in `setup`, then
runs identical rounds: one round is one EDFL training run, one `xmodal
eval`-style pass over a checkpoint in both query directions, or one
`harness.gradcheck` call. Because every round sees the same inputs, its
work counts repeat exactly and its outputs must repeat bit for bit.

`units` of a round are what the throughput metric counts: train steps,
ranked queries, or verified gradcheck instances. `mark_clock` names the
functions whose calls bound one timed unit for the latency percentiles
(a train step, a query batch in one direction, a whole gradcheck call),
and the calls at which the host clock recalibrates (see hostclock.py).
"""

import os
from dataclasses import dataclass

import numpy as np

from xmodal import data, encoder, harness
from xmodal.data import SynthConfig
from xmodal.encoder import EncoderConfig
from xmodal.evaluation import EvalProtocol
from xmodal.harness import TrainConfig
from xmodal.losses import THERMAL, VISIBLE, LossConfig

RANKS = (1, 10, 20)
# Held-out V->T floors for one reference training run, at twice chance for
# rank-1 (25 test identities). Over seeds 0-39 the lowest values seen were
# rank-1 0.144 and mAP 0.209.
RANK1_FLOOR = 0.08
MAP_FLOOR = 0.12
ORACLE_TOL = 1e-12


@dataclass(frozen=True)
class Sizes:
    train_identities: int = 50
    train_per_modality: int = 20
    train_epochs: int = 20
    eval_identities: int = 120
    eval_per_modality: int = 20
    gradcheck_trials: int = 100  # the `xmodal gradcheck` default


FULL = Sizes()
TOY = Sizes(train_identities=20, train_per_modality=6, train_epochs=3,
            eval_identities=20, eval_per_modality=5, gradcheck_trials=2)


def reference_config(seed, epochs, freeze_stage_epochs=2):
    """Acceptance criterion 6's EDFL training configuration."""
    enc = EncoderConfig(input_dim=32, num_classes=0, stage_dims=(64, 64, 64),
                        tap_stage=2, d=64, fusion="cat")
    loss = LossConfig(rho=0.5, lambda1=0.1, lambda2=2.0)
    return TrainConfig(encoder=enc, loss=loss, P=8, K=4, epochs=epochs,
                       freeze_stage_epochs=freeze_stage_epochs, learning_rate=1e-3,
                       lr_decay_factor=0.1, lr_decay_epoch=10, seed=seed)


def corpus(num_identities, per_modality, seed):
    """Reference synthetic corpus, split half/half into disjoint identities."""
    synth = SynthConfig(num_identities=num_identities, per_identity_per_modality=per_modality,
                        input_dim=32, cluster_std=0.3, noise_std=0.1, seed=seed)
    return data.split_identity_disjoint(data.generate_synthetic(synth), 0.5, seed)


def protocol(query, seed):
    gallery = THERMAL if query == VISIBLE else VISIBLE
    return EvalProtocol(query_modality=query, gallery_modality=gallery, trials=1,
                        single_shot=False, ranks_reported=RANKS, seed=seed)


class TrainRef:
    """One reference EDFL training run per round: batch-hard DMTL over PK batches."""

    name = "train_ref"
    unit = "train steps"
    host_scaled = True

    def __init__(self, seed, sizes, workdir):
        self.seed, self.sizes, self.workdir = seed, sizes, workdir
        self.config = reference_config(seed, sizes.train_epochs)

    def setup(self):
        train_ds, self.test_ds = corpus(self.sizes.train_identities,
                                        self.sizes.train_per_modality, self.seed)
        path = os.path.join(self.workdir, "train.txt")
        data.save_dataset(train_ds, path)
        self.train_ds = data.load_dataset(path)
        harness.train(self.train_ds, reference_config(self.seed, epochs=2, freeze_stage_epochs=1))

    def round(self):
        params, enc_cfg, report = harness.train(self.train_ds, self.config)
        steps = self.config.epochs * data.batches_per_epoch(self.train_ds, self.config.P, self.config.K)
        return steps, (params, enc_cfg, report)

    def mark_clock(self, clock):
        clock.mark(vars(harness), "sample_pk_batch", begin=True)
        clock.mark(vars(harness), "adam_step", finish=True)

    def digest(self, output):
        _, _, report = output
        return report.to_json()

    def check(self, output):
        params, enc_cfg, report = output
        losses = [rec["L_all"] for rec in report.epoch_records]
        finite = len(losses) == self.config.epochs and bool(np.all(np.isfinite(losses)))
        metrics = harness.evaluate(params, enc_cfg, self.test_ds, protocol(VISIBLE, self.seed))
        learned = metrics["cmc"]["1"] >= RANK1_FLOOR and metrics["map"] >= MAP_FLOOR
        return {"finite_loss": finite, "heldout_floor": learned}


class EvalGallery:
    """`xmodal eval` on a trained checkpoint, multi-shot, both directions."""

    name = "eval_gallery"
    unit = "queries"
    # Wall time: the 1.5 GB distance tensor pages in at one of two speeds,
    # which the host clock's kernel does not follow. Scaled by it, ten runs
    # spread by 0.17-0.21 of the median; on wall time the same runs spread
    # by 0.10-0.11.
    host_scaled = False

    def __init__(self, seed, sizes, workdir):
        self.seed, self.sizes, self.workdir = seed, sizes, workdir
        self.data_path = os.path.join(workdir, "test.txt")
        self.ckpt_path = os.path.join(workdir, "model.ckpt")
        self.oracle = None

    def setup(self):
        train_ds, test_ds = corpus(self.sizes.eval_identities, self.sizes.eval_per_modality, self.seed)
        params, enc_cfg, _ = harness.train(
            train_ds, reference_config(self.seed, epochs=2, freeze_stage_epochs=1))
        data.save_dataset(test_ds, self.data_path)
        harness.save_checkpoint(params, enc_cfg, self.ckpt_path)

    def round(self):
        params, enc_cfg = harness.load_checkpoint(self.ckpt_path)
        test_ds = data.load_dataset(self.data_path)
        fragments = {q: harness.evaluate(params, enc_cfg, test_ds, protocol(q, self.seed))
                     for q in (VISIBLE, THERMAL)}
        return len(test_ds.samples), fragments

    def mark_clock(self, clock):
        clock.mark(vars(harness), "evaluate", begin=True, finish=True)
        clock.mark(vars(harness), "adam_step")  # only set-up trains

    def digest(self, output):
        return repr(sorted(output.items()))

    def check(self, output):
        if self.oracle is None:
            self.oracle = self._oracle()
        result = {}
        for q, frag in output.items():
            want = self.oracle[q]
            same = abs(frag["map"] - want["map"]) <= ORACLE_TOL and all(
                abs(frag["cmc"][str(r)] - want["cmc"][r]) <= ORACLE_TOL for r in RANKS)
            result[f"oracle_{q}"] = same and frag["skipped_queries"] == want["skipped"]
        return result

    def _oracle(self):
        """Per-query Euclidean sort and definition-based AP over every query."""
        params, enc_cfg = harness.load_checkpoint(self.ckpt_path)
        test_ds = data.load_dataset(self.data_path)
        feats, labels = {}, {}
        for tag, stream in ((VISIBLE, "visible"), (THERMAL, "thermal")):
            rows = test_ds.by_modality(tag)
            x = np.stack([s.feature for s in rows])
            bundle, _ = encoder.encode(params, enc_cfg, x, stream, mode="eval")
            feats[tag] = encoder.test_feature(bundle, enc_cfg)
            labels[tag] = np.array([s.identity for s in rows])
        out = {}
        for q, g in ((VISIBLE, THERMAL), (THERMAL, VISIBLE)):
            aps, first_hits, skipped = [], [], 0
            for f, y in zip(feats[q], labels[q]):
                dist = np.sqrt(((feats[g] - f) ** 2).sum(axis=1))
                rel = labels[g][np.argsort(dist, kind="stable")] == y
                positions = np.flatnonzero(rel) + 1
                if positions.size == 0:
                    skipped += 1
                    continue
                first_hits.append(positions[0])
                aps.append(sum(i / p for i, p in enumerate(positions, start=1)) / positions.size)
            first_hits = np.array(first_hits)
            out[q] = {"map": sum(aps) / len(aps), "skipped": skipped,
                      "cmc": {r: np.count_nonzero(first_hits <= r) / first_hits.size for r in RANKS}}
        return out


class Gradcheck:
    """`harness.gradcheck` over all ten components, as `xmodal gradcheck` runs it."""

    name = "gradcheck"
    unit = "gradcheck instances"
    host_scaled = True

    def __init__(self, seed, sizes, workdir):
        self.seed, self.sizes = seed, sizes

    def setup(self):
        # one instance of each component warms every code path
        for i, check in enumerate(harness.GRADCHECK_COMPONENTS.values()):
            check(np.random.default_rng([self.seed, i]))

    def round(self):
        report, ok = harness.gradcheck(trials=self.sizes.gradcheck_trials, seed=self.seed)
        return sum(rec["trials"] for rec in report.values()), (report, ok)

    def mark_clock(self, clock):
        # The unit is the whole call, the wait a user of `xmodal gradcheck`
        # sees. Its instances (1 ms to 1.4 s) and component sweeps are too
        # mixed: the median falls between cost clusters, and moves with the
        # seed's instance sizes. The clock still cuts after every instance
        # and every finite-difference sweep, the longest stretches inside one.
        clock.mark(vars(harness), "gradcheck", begin=True, finish=True)
        clock.mark(vars(harness), "finite_diff_grad")
        for name in harness.GRADCHECK_COMPONENTS:
            clock.mark(harness.GRADCHECK_COMPONENTS, name)

    def digest(self, output):
        return repr(output)

    def check(self, output):
        report, ok = output
        return {"all_ok": bool(ok) and len(report) == len(harness.GRADCHECK_COMPONENTS)}


WORKLOADS = {w.name: w for w in (TrainRef, EvalGallery, Gradcheck)}
