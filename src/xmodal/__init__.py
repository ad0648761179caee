"""xmodal: cross-modality retrieval toolkit.

A two-stream dense encoder with mid-level skip fusion, dual-modality
batch-hard triplet losses, identity-balanced PK batch sampling, and
CMC/mAP retrieval evaluation, all in double-precision numpy with
finite-difference and brute-force verification built in.
"""

from .data import Dataset, Sample, SynthConfig, generate_synthetic, load_dataset, sample_pk_batch, save_dataset, split_identity_disjoint
from .encoder import EncoderConfig, EncoderParams, FeatureBundle, encode, encode_backward, fuse, init_encoder, param_shapes, test_feature
from .evaluation import EvalProtocol, RankingResult, average_precision, cmc_curve, evaluate, rank_gallery
from .harness import RunReport, TrainConfig, gradcheck, load_checkpoint, run_ablation, save_checkpoint, train
from .losses import (
    LabeledBatch,
    LossConfig,
    batch_hard_triplet,
    cross_modality_triplet,
    dual_modality_triplet,
    intra_modality_triplet,
    total_loss,
)
from .numerics import AdamState, adam_step, finite_diff_grad, softmax_cross_entropy

__version__ = "0.1.0"
