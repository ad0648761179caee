"""Dataset representation, text file format, synthetic corpus, and PK sampling.

Dataset text format (UTF-8):
    # xmodal-dataset v1 dim=<D>
    sample_id,identity,modality,f1,...,fD
with modality in {V, T}.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .config import ConfigError, allocating
from .losses import LabeledBatch, THERMAL, VISIBLE, pk_layout

HEADER_PREFIX = "# xmodal-dataset v1 dim="


class DataError(Exception):
    """Malformed or inconsistent dataset input."""


class Sample(NamedTuple):
    """One row of a `Dataset`, as its `samples` and `by_modality` views give it."""
    feature: np.ndarray
    identity: int
    modality: str
    sample_id: int


@dataclass(eq=False)
class Dataset:
    """N rows as arrays: `features` (N, D) and `identity`, `modality`,
    `sample_id` (N,). Built once for PK sampling, in O(N): `eligible`, the sorted
    identities with rows in both modalities; `pool_rows`, the rows by identity, visible
    first, in row order; and where each one's visible and thermal pools lie in it,
    the (E, 2) `pool_start` and `pool_size`."""
    features: np.ndarray
    identity: np.ndarray
    modality: np.ndarray
    sample_id: np.ndarray

    def __post_init__(self):
        labels = (self.identity, self.modality, self.sample_id)
        if self.features.ndim != 2 or any(v.shape != (len(self),) for v in labels):
            raise ValueError("Dataset: features must be (N, D) and each label vector (N,)")
        thermal = self.modality == THERMAL
        stray = ~(thermal | (self.modality == VISIBLE))
        if stray.any():
            row = int(np.argmax(stray))
            raise ValueError(f"Dataset: row {row} has modality tag {str(self.modality[row])!r}, "
                             f"expected {VISIBLE!r} or {THERMAL!r}")
        # one stable sort: rows grouped by identity, visible before thermal,
        # in row order within each group
        order = np.lexsort((thermal, self.identity))
        ident, therm = self.identity[order], thermal[order]
        starts = np.flatnonzero(np.r_[True, (ident[1:] != ident[:-1]) | (therm[1:] != therm[:-1])])
        # an identity with both modalities has a visible group, then a thermal one
        pairs = np.flatnonzero(ident[starts[1:]] == ident[starts[:-1]])
        self.eligible = ident[starts[pairs]]
        self.pool_rows, groups = order, np.stack([pairs, pairs + 1], axis=1)
        self.pool_start, self.pool_size = starts[groups], np.diff(np.r_[starts, len(order)])[groups]

    def __len__(self):
        return len(self.features)

    @property
    def input_dim(self):
        return self.features.shape[1]

    def identities(self):
        return np.unique(self.identity).tolist()

    @property
    def samples(self):
        """The rows as `Sample`s, built on each access; the package reads the arrays."""
        return [Sample(*row) for row in zip(self.features, self.identity.tolist(),
                                            self.modality.tolist(), self.sample_id.tolist())]

    def by_modality(self, modality):
        return [s for s in self.samples if s.modality == modality]


@dataclass(frozen=True)
class SynthConfig:
    num_identities: int = 50
    per_identity_per_modality: int = 20
    input_dim: int = 32
    cluster_std: float = 0.3
    noise_std: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if self.num_identities < 1 or self.per_identity_per_modality < 1 or self.input_dim < 1:
            raise ConfigError("SynthConfig: counts and dims must be positive")
        for name in ("cluster_std", "noise_std"):
            if not 0.0 <= getattr(self, name) < math.inf:
                raise ConfigError(f"SynthConfig: {name} must be a finite number >= 0, "
                                   f"got {getattr(self, name)}")
        if self.seed < 0:
            raise ConfigError(f"SynthConfig: seed must be >= 0, got {self.seed}")


def random_rotation(dim, rng):
    """Haar-ish random rotation via QR of a Gaussian matrix."""
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)))
    q *= np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def generate_synthetic(config):
    """Clustered two-modality corpus with a fixed cross-modality discrepancy.

    Per identity one center is drawn; visible samples scatter around it,
    thermal samples scatter around the transformed center: a seeded random
    rotation, drawn first, then an offset of norm 1.
    """
    rng = np.random.default_rng(config.seed)
    dim = config.input_dim
    n_ids, k = config.num_identities, config.per_identity_per_modality
    with allocating("SynthConfig"):
        features = np.empty((n_ids * 2 * k, dim))
        transform = random_rotation(dim, rng)
    offset = rng.standard_normal(dim)
    offset /= np.linalg.norm(offset)

    for ident in range(n_ids):
        center = rng.standard_normal(dim)
        thermal_center = transform @ center + offset
        rows = features[ident * 2 * k:(ident + 1) * 2 * k]
        rows[:k] = center + config.cluster_std * rng.standard_normal((k, dim))
        rows[k:] = (thermal_center
                    + config.cluster_std * rng.standard_normal((k, dim))
                    + config.noise_std * rng.standard_normal((k, dim)))
    return Dataset(features=features, identity=np.repeat(np.arange(n_ids), 2 * k),
                   modality=np.tile(np.repeat(np.array([VISIBLE, THERMAL]), k), n_ids),
                   sample_id=np.arange(len(features)))


def save_dataset(dataset, path):
    rows = zip(dataset.sample_id.tolist(), dataset.identity.tolist(),
               dataset.modality.tolist(), dataset.features.tolist())
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{HEADER_PREFIX}{dataset.input_dim}\n")
        for sid, ident, modality, values in rows:
            fh.write(f"{sid},{ident},{modality},{','.join(map(repr, values))}\n")


def load_dataset(path):
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:  # the format is UTF-8 text
        raise DataError(f"cannot read {path}: {exc}") from None
    commas, lines = text.count(","), text.splitlines()
    del text  # one copy of the file at a time
    if not lines:
        raise DataError(f"{path}: empty dataset file")
    if not lines[0].startswith(HEADER_PREFIX):
        raise DataError(f"{path}:1: missing '{HEADER_PREFIX}<D>' header")
    try:
        dim = int(lines[0][len(HEADER_PREFIX):])
    except ValueError:
        raise DataError(f"{path}:1: unparseable dimension in header") from None
    if dim < 1:
        raise DataError(f"{path}:1: dimension must be >= 1, got {dim}")
    # a row holds dim + 2 commas, so the file's commas bound the row count
    features = np.empty((min(len(lines) - 1, commas // (dim + 2)), dim))
    labels = []  # (identity, modality, sample_id) per row
    first_line = {}  # sample_id -> line that defined it
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != 3 + dim:
            raise DataError(f"{path}:{lineno}: expected {3 + dim} fields, got {len(parts)}")
        try:
            sid = int(parts[0])
            ident = int(parts[1])
        except ValueError:
            raise DataError(f"{path}:{lineno}: bad sample_id or identity") from None
        if not (-2 ** 63 <= sid < 2 ** 63 and ident < 2 ** 63):
            raise DataError(f"{path}:{lineno}: sample_id or identity outside the 64-bit range")
        modality = parts[2]
        if modality not in (VISIBLE, THERMAL):
            raise DataError(f"{path}:{lineno}: unknown modality tag {modality!r}")
        row = features[len(labels)]
        try:
            row[:] = np.array(parts[3:], dtype=np.float64)
        except ValueError:
            raise DataError(f"{path}:{lineno}: unparseable feature value") from None
        if ident < 0:
            raise DataError(f"{path}:{lineno}: identity must be >= 0")
        if sid in first_line:
            raise DataError(f"{path}:{lineno}: duplicate sample_id {sid} (first on line {first_line[sid]})")
        first_line[sid] = lineno
        if not np.isfinite(row).all():
            raise DataError(f"{path}:{lineno}: non-finite feature value")
        labels.append((ident, modality, sid))
    if not labels:
        raise DataError(f"{path}: dataset contains no samples")
    return Dataset(features[:len(labels)], *(np.array(column) for column in zip(*labels)))


def split_identity_disjoint(dataset, train_fraction, seed):
    """Partition by identity; no identity appears in both splits."""
    if not 0.0 < train_fraction < 1.0:
        raise ConfigError("split: train_fraction must lie in (0, 1)")
    idents = dataset.identities()
    if len(idents) < 2:
        raise ConfigError("split: need at least 2 identities")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(len(idents))
    n_train = int(round(train_fraction * len(idents)))
    n_train = min(max(n_train, 1), len(idents) - 1)
    in_train = np.isin(dataset.identity, np.array(idents)[perm[:n_train]])
    return _subset(dataset, in_train), _subset(dataset, ~in_train)


def _subset(dataset, rows):
    return Dataset(dataset.features[rows], dataset.identity[rows], dataset.modality[rows],
                   dataset.sample_id[rows])


def sample_pk_batch(dataset, P, K, rng):
    """Draw P identities, then K rows per identity per modality, as a
    `LabeledBatch` in `pk_layout`'s row order, checked when it is built.

    One fixed draw, no Python loop: slot p gets the p-th of a stable argsort of `rng.random(E)`
    over the E eligible identities; a pool takes the first K of a stable argsort of its
    row of one `rng.random((P, 2, W))`, W the largest chosen pool, +inf past its end, or if
    smaller than K, K picks with replacement from one `rng.integers` in (slot, modality) order.
    """
    eligible = dataset.eligible
    if len(eligible) < P:
        raise ValueError(f"sample_pk_batch: only {len(eligible)} identities with both modalities, need {P}")
    chosen = np.argsort(rng.random(len(eligible)), kind="stable")[:P]
    start, size = dataset.pool_start[chosen], dataset.pool_size[chosen]  # (P, 2)
    keys = rng.random((P, 2, size.max()))
    keys[np.arange(keys.shape[-1]) >= size[..., None]] = np.inf
    picks = np.empty((P, 2, K), dtype=np.intp)  # W < K only if every pool is small
    picks[..., :min(K, keys.shape[-1])] = np.argsort(keys, axis=-1, kind="stable")[..., :K]
    small = size < K
    if small.any():
        picks[small] = rng.integers(size[small][:, None], size=(np.count_nonzero(small), K))
    rows = dataset.pool_rows[(start[..., None] + picks).transpose(1, 0, 2)]  # (modality, slot, pick)
    slot, modality = pk_layout(P, K)
    return LabeledBatch(features=dataset.features[rows.reshape(-1)],
                        identity=eligible[chosen][slot], modality=modality, P=P, K=K)


def batches_per_epoch(dataset, P, K):
    return max(1, -(-len(dataset) // (2 * P * K)))
