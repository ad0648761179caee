"""Dataset representation, text file format, synthetic corpus, and PK sampling.

Dataset text format (UTF-8):
    # xmodal-dataset v1 dim=<D>
    sample_id,identity,modality,f1,...,fD
with modality in {V, T}.
"""

from dataclasses import dataclass, field

import numpy as np

from .losses import LabeledBatch, THERMAL, VISIBLE

HEADER_PREFIX = "# xmodal-dataset v1 dim="


class DataError(Exception):
    """Malformed or inconsistent dataset input."""


@dataclass(frozen=True)
class Sample:
    feature: np.ndarray
    identity: int
    modality: str
    sample_id: int


@dataclass
class Dataset:
    samples: list
    identity_index: dict = field(default_factory=dict)

    def __post_init__(self):
        if not self.identity_index:
            self.identity_index = build_identity_index(self.samples)

    @property
    def input_dim(self):
        return self.samples[0].feature.shape[0]

    def identities(self):
        return sorted(self.identity_index)

    def by_sample_id(self):
        if not hasattr(self, "_by_id"):
            self._by_id = {s.sample_id: s for s in self.samples}
        return self._by_id

    def feature_matrix(self, sample_ids):
        by_id = self.by_sample_id()
        return np.stack([by_id[i].feature for i in sample_ids])

    def pk_index(self):
        """What PK sampling reads, built once: the (N, D) feature matrix, the
        sorted identities that have rows in both modalities, and for each of
        them its (visible, thermal) row indices into the matrix."""
        if not hasattr(self, "_pk_index"):
            row = {s.sample_id: i for i, s in enumerate(self.samples)}
            eligible = sorted(i for i, (vis, thm) in self.identity_index.items() if vis and thm)
            pools = [tuple(np.array([row[sid] for sid in ids], dtype=np.intp)
                           for ids in self.identity_index[i])
                     for i in eligible]
            features = np.stack([s.feature for s in self.samples])
            self._pk_index = (features, np.array(eligible), pools)
        return self._pk_index

    def by_modality(self, modality):
        return [s for s in self.samples if s.modality == modality]


def build_identity_index(samples):
    index = {}
    for s in samples:
        vis, thm = index.setdefault(s.identity, ([], []))
        (vis if s.modality == VISIBLE else thm).append(s.sample_id)
    return index


@dataclass
class SynthConfig:
    num_identities: int = 50
    per_identity_per_modality: int = 20
    input_dim: int = 32
    cluster_std: float = 0.3
    noise_std: float = 0.1
    modality_transform: np.ndarray | None = None  # (dim, dim)
    modality_offset: np.ndarray | None = None
    seed: int = 0

    def validate(self):
        if self.num_identities < 1 or self.per_identity_per_modality < 1 or self.input_dim < 1:
            raise ValueError("SynthConfig: counts and dims must be positive")
        if self.cluster_std < 0.0 or self.noise_std < 0.0:
            raise ValueError("SynthConfig: stds must be >= 0")
        if self.seed < 0:
            raise ValueError(f"SynthConfig: seed must be >= 0, got {self.seed}")


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
    thermal samples scatter around the transformed (rotated + offset) center.
    The default transform is a seeded random rotation with an offset of norm 1.
    """
    config.validate()
    rng = np.random.default_rng(config.seed)
    dim = config.input_dim
    transform = config.modality_transform
    offset = config.modality_offset
    if transform is None:
        transform = random_rotation(dim, rng)
    if offset is None:
        offset = rng.standard_normal(dim)
        offset /= np.linalg.norm(offset)
    transform = np.asarray(transform, dtype=np.float64)
    offset = np.asarray(offset, dtype=np.float64)
    if transform.shape != (dim, dim) or offset.shape != (dim,):
        raise ValueError("SynthConfig: transform/offset dims do not match input_dim")

    samples = []
    sid = 0
    k = config.per_identity_per_modality
    for ident in range(config.num_identities):
        center = rng.standard_normal(dim)
        thermal_center = transform @ center + offset
        vis = center + config.cluster_std * rng.standard_normal((k, dim))
        thm = (thermal_center
               + config.cluster_std * rng.standard_normal((k, dim))
               + config.noise_std * rng.standard_normal((k, dim)))
        for row in vis:
            samples.append(Sample(row, ident, VISIBLE, sid))
            sid += 1
        for row in thm:
            samples.append(Sample(row, ident, THERMAL, sid))
            sid += 1
    return Dataset(samples)


def save_dataset(dataset, path):
    dim = dataset.input_dim
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{HEADER_PREFIX}{dim}\n")
        for s in dataset.samples:
            values = ",".join(repr(float(v)) for v in s.feature)
            fh.write(f"{s.sample_id},{s.identity},{s.modality},{values}\n")


def load_dataset(path):
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from None
    if not lines:
        raise DataError(f"{path}: empty dataset file")
    if not lines[0].startswith(HEADER_PREFIX):
        raise DataError(f"{path}:1: missing '{HEADER_PREFIX}<D>' header")
    try:
        dim = int(lines[0][len(HEADER_PREFIX):])
    except ValueError:
        raise DataError(f"{path}:1: unparseable dimension in header") from None
    samples = []
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
        modality = parts[2]
        if modality not in (VISIBLE, THERMAL):
            raise DataError(f"{path}:{lineno}: unknown modality tag {modality!r}")
        try:
            feature = np.array([float(v) for v in parts[3:]], dtype=np.float64)
        except ValueError:
            raise DataError(f"{path}:{lineno}: unparseable feature value") from None
        if ident < 0:
            raise DataError(f"{path}:{lineno}: identity must be >= 0")
        if sid in first_line:
            raise DataError(f"{path}:{lineno}: duplicate sample_id {sid} (first on line {first_line[sid]})")
        first_line[sid] = lineno
        if not np.all(np.isfinite(feature)):
            raise DataError(f"{path}:{lineno}: non-finite feature value")
        samples.append(Sample(feature, ident, modality, sid))
    if not samples:
        raise DataError(f"{path}: dataset contains no samples")
    return Dataset(samples)


def split_identity_disjoint(dataset, train_fraction, seed):
    """Partition by identity; no identity appears in both splits."""
    if not 0.0 < train_fraction < 1.0:
        raise ValueError("split: train_fraction must lie in (0, 1)")
    idents = dataset.identities()
    if len(idents) < 2:
        raise ValueError("split: need at least 2 identities")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(len(idents))
    n_train = int(round(train_fraction * len(idents)))
    n_train = min(max(n_train, 1), len(idents) - 1)
    train_ids = {idents[i] for i in perm[:n_train]}
    train = [s for s in dataset.samples if s.identity in train_ids]
    test = [s for s in dataset.samples if s.identity not in train_ids]
    return Dataset(train), Dataset(test)


def sample_pk_batch(dataset, P, K, rng):
    """Draw P identities, then K rows per identity per modality.

    Draws are without replacement unless an identity's modality pool is
    smaller than K, in which case that pool is sampled with replacement.
    Rows come visible then thermal for each drawn identity in turn.
    """
    features, eligible, pools = dataset.pk_index()
    if len(eligible) < P:
        raise ValueError(f"sample_pk_batch: only {len(eligible)} identities with both modalities, need {P}")
    chosen = rng.choice(len(eligible), size=P, replace=False)
    rows = []
    for ci in chosen:
        for pool in pools[ci]:
            picks = rng.choice(len(pool), size=K, replace=len(pool) < K)
            rows.append(pool[picks])
    return LabeledBatch(
        features=features[np.concatenate(rows)],
        identity=np.repeat(eligible[chosen], 2 * K),
        modality=np.tile(np.repeat(np.array([VISIBLE, THERMAL]), K), P),
        P=P,
        K=K,
    )


def batches_per_epoch(dataset, P, K):
    return max(1, -(-len(dataset.samples) // (2 * P * K)))
