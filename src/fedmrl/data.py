"""Datasets, non-IID partitioners, and per-client train/test splitting.

A partition first assigns every sample index to exactly one client, then
each client's pool is split 8:2 into local train and test sets.  Both
partitioners and the split are driven by the seed their ClassCountSpec,
DirichletSpec or plan carries, so a partition is reproducible from its
inputs alone.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .numerics import _labels, derive_rng

# Substream tags so partitioning and splitting never share a stream.
_PARTITION_STREAM = 1
_SPLIT_STREAM = 2

_DIRICHLET_MAX_RETRIES = 100
# The fewest samples a client's pool may hold to be split into train and test.
_MIN_SPLIT_SAMPLES = 5
# The share of a client's pool that split_train_test holds out for testing.
_TEST_FRACTION = 0.2


class PartitionError(ValueError):
    """A partition request cannot be satisfied for this dataset."""


class CsvFormatError(ValueError):
    """A dataset CSV file does not match the expected schema."""


@dataclass
class LabeledDataset:
    """Feature matrix (n, dim) with integer labels (n,) in [0, classes)."""

    features: np.ndarray
    labels: np.ndarray
    classes: int

    def __post_init__(self):
        self.features = np.ascontiguousarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64).reshape(-1)
        if self.features.ndim != 2:
            raise ValueError(f"features must be 2-D, got shape {self.features.shape}")
        if self.features.shape[0] != self.labels.shape[0]:
            raise ValueError(
                f"{self.features.shape[0]} feature rows but {self.labels.shape[0]} labels"
            )
        if self.classes < 2:
            raise ValueError(f"need at least 2 classes, got {self.classes}")
        _labels(self.labels, len(self.labels), self.classes)

    def __len__(self) -> int:
        return self.labels.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]


@dataclass(frozen=True)
class ClassCountSpec:
    """Each client holds samples from exactly classes_per_client distinct labels."""

    classes_per_client: int
    seed: int


@dataclass(frozen=True)
class DirichletSpec:
    """Per-class sample proportions across clients drawn from Dirichlet(alpha)."""

    alpha: float
    seed: int

    def __post_init__(self):
        if not self.alpha > 0:
            raise ValueError(f"alpha must be positive, got {self.alpha}")


@dataclass
class ClientIndices:
    """Disjoint train and test index arrays for one client."""

    train: np.ndarray
    test: np.ndarray

    @property
    def pool(self) -> np.ndarray:
        return np.concatenate([self.train, self.test])


@dataclass
class PartitionPlan:
    """Per-client index assignment over a dataset of n_samples rows.

    Before split_train_test all indices sit in train and test arrays are
    empty; afterwards each client is split 8:2 (test size is
    max(1, floor(0.2 * pool))).
    """

    clients: list[ClientIndices]
    n_samples: int
    seed: int
    split: bool = False

    def fingerprint(self) -> str:
        """SHA-256 over the exact index assignment, for comparability checks."""
        digest = hashlib.sha256()
        digest.update(f"{self.n_samples}:{len(self.clients)}:{int(self.split)}".encode())
        for client in self.clients:
            digest.update(b"T")
            digest.update(np.asarray(client.train, dtype=np.int64).tobytes())
            digest.update(b"E")
            digest.update(np.asarray(client.test, dtype=np.int64).tobytes())
        return digest.hexdigest()


def gen_synthetic(
    classes: int,
    dim: int,
    per_class: int,
    spread: float,
    rng: np.random.Generator,
) -> LabeledDataset:
    """Gaussian cluster per class: mean drawn once per class, isotropic noise.

    Class means are standard-normal scaled by 3 so clusters are separable
    at spread 1 and increasingly confusable as spread grows.
    """
    _check_synthetic(classes, dim, per_class, spread)
    means = 3.0 * rng.normal(size=(classes, dim))
    features = np.empty((classes * per_class, dim))
    labels = np.empty(classes * per_class, dtype=np.int64)
    for c in range(classes):
        block = slice(c * per_class, (c + 1) * per_class)
        features[block] = means[c] + spread * rng.normal(size=(per_class, dim))
        labels[block] = c
    return LabeledDataset(features, labels, classes)


def _check_synthetic(classes: int, dim: int, per_class: int, spread: float) -> None:
    """gen_synthetic's checks of its arguments."""
    if classes < 2 or dim < 1 or per_class < 1:
        raise ValueError(
            f"need classes >= 2, input_dim >= 1 and per_class >= 1, got {classes}, {dim} and {per_class}"
        )
    if not spread > 0:
        raise ValueError(f"spread must be positive, got {spread}")


def standardize_features(dataset: LabeledDataset) -> LabeledDataset:
    """Per-column zero mean, unit variance; constant columns stay at zero."""
    mean = dataset.features.mean(axis=0)
    std = dataset.features.std(axis=0)
    std[std == 0.0] = 1.0
    return LabeledDataset((dataset.features - mean) / std, dataset.labels.copy(), dataset.classes)


def _indices_by_class(dataset: LabeledDataset) -> list[np.ndarray]:
    return [np.flatnonzero(dataset.labels == c) for c in range(dataset.classes)]


def partition_class_count(
    dataset: LabeledDataset, n_clients: int, spec: ClassCountSpec
) -> PartitionPlan:
    """Assign each client exactly spec.classes_per_client distinct labels.

    Labels are dealt round-robin from a shuffled order, so whenever
    n_clients * classes_per_client covers the class count every class is
    held by someone and the plan's indices union to the whole dataset.
    With too few slots to cover all classes, the undealt classes are
    simply left out of the plan.  Each class's samples are split evenly
    among its holders (remainder to the earlier holders in deal order).
    """
    if n_clients < 1:
        raise PartitionError(f"need at least one client, got {n_clients}")
    per_client = spec.classes_per_client
    if per_client < 1 or per_client > dataset.classes:
        raise PartitionError(
            f"classes_per_client must lie in [1, {dataset.classes}], got {per_client}"
        )
    by_class = _indices_by_class(dataset)
    present = [c for c in range(dataset.classes) if by_class[c].size]
    if len(present) < per_client:
        raise PartitionError(
            f"only {len(present)} classes have samples, cannot give each client {per_client}"
        )
    rng = derive_rng(spec.seed, _PARTITION_STREAM)

    # Deal shuffled labels round-robin so every present class is covered
    # before any label repeats, then top clients up with distinct extras.
    order = [present[i] for i in rng.permutation(len(present))]
    assigned: list[set[int]] = [set() for _ in range(n_clients)]
    cursor = 0
    for slot in range(per_client):
        for client in range(n_clients):
            # The client holds slot < len(order) labels, so a free one is found.
            for probe in range(len(order)):
                label = order[(cursor + probe) % len(order)]
                if label not in assigned[client]:
                    assigned[client].add(label)
                    cursor = cursor + probe + 1
                    break

    holders: dict[int, list[int]] = {c: [] for c in present}
    for client, labels in enumerate(assigned):
        for label in sorted(labels):
            holders[label].append(client)

    pools: list[list[np.ndarray]] = [[] for _ in range(n_clients)]
    for label in present:
        owners = holders[label]
        if not owners:
            continue
        samples = by_class[label][rng.permutation(by_class[label].size)]
        shares = np.array_split(samples, len(owners))
        for client, share in zip(owners, shares):
            if share.size == 0:
                raise PartitionError(
                    f"class {label} has too few samples for its {len(owners)} holders"
                )
            pools[client].append(share)

    # Every client holds a non-empty share of each of its classes.
    clients = [ClientIndices(train=np.sort(np.concatenate(pool)), test=np.empty(0, dtype=np.int64))
               for pool in pools]
    return PartitionPlan(clients=clients, n_samples=len(dataset), seed=spec.seed)


def partition_dirichlet(
    dataset: LabeledDataset, n_clients: int, spec: DirichletSpec
) -> PartitionPlan:
    """Dirichlet(alpha) label-skew partition with exact per-class totals.

    For each class a proportion vector over clients is drawn and converted
    to integer counts by largest-remainder rounding, so the counts sum to
    the class total exactly.  A draw leaving any client fewer than
    _MIN_SPLIT_SAMPLES samples, too few for split_train_test, is retried
    with fresh randomness, up to 100 attempts.  A dataset too small for
    any draw to succeed is rejected before the first.
    """
    if n_clients < 1:
        raise PartitionError(f"need at least one client, got {n_clients}")
    if len(dataset) < _MIN_SPLIT_SAMPLES * n_clients:
        raise PartitionError(
            f"{len(dataset)} samples cannot give {n_clients} clients "
            f"{_MIN_SPLIT_SAMPLES} each"
        )
    by_class = [samples for samples in _indices_by_class(dataset) if samples.size]
    rng = derive_rng(spec.seed, _PARTITION_STREAM)

    for _ in range(_DIRICHLET_MAX_RETRIES):
        # Each class's count per client and its samples in a seeded order, which
        # deals the first counts[0] to client 0, the next counts[1] to client 1, ...
        counts, shuffled = [], []
        for samples in by_class:
            proportions = rng.dirichlet(np.full(n_clients, spec.alpha))
            counts.append(_largest_remainder_counts(proportions, samples.size))
            shuffled.append(samples[rng.permutation(samples.size)])
        totals = np.sum(counts, axis=0)
        if (totals >= _MIN_SPLIT_SAMPLES).all():
            owners = np.concatenate([np.repeat(np.arange(n_clients), c) for c in counts])
            pools = _sorted_runs(np.concatenate(shuffled), owners, totals)
            clients = [ClientIndices(train=pool, test=np.empty(0, dtype=np.int64))
                       for pool in pools]
            return PartitionPlan(clients=clients, n_samples=len(dataset), seed=spec.seed)
    raise PartitionError(
        f"no draw within {_DIRICHLET_MAX_RETRIES} attempts left every client at least "
        f"{_MIN_SPLIT_SAMPLES} samples "
        f"(alpha={spec.alpha}, clients={n_clients})"
    )


def _largest_remainder_counts(proportions: np.ndarray, total: int) -> np.ndarray:
    """Integer counts summing to total, closest to proportions * total."""
    raw = proportions * total
    counts = np.floor(raw).astype(np.int64)
    short = total - counts.sum()
    if short:
        order = np.argsort(raw - counts)[::-1]
        counts[order[:short]] += 1
    return counts


def _sorted_runs(values: np.ndarray, groups: np.ndarray, sizes) -> list[np.ndarray]:
    """The integer values of each group 0, 1, ... in ascending order, group g holding
    sizes[g] of them: one np.sort of group * span + value for every group's."""
    low = values.min(initial=0)
    span = values.max(initial=0) - low + 1
    keys = np.sort(groups * span + (values - low))
    keys -= np.repeat(np.arange(len(sizes)) * span, sizes) - low
    stops = np.cumsum(sizes).tolist()
    return [keys[a:b] for a, b in zip([0, *stops], stops)]


def split_train_test(plan: PartitionPlan) -> PartitionPlan:
    """Split each client's pool into train and test along a seeded shuffle.

    Test size is max(1, floor(_TEST_FRACTION * pool)), so 10 samples split
    8/2 and 5 samples split 4/1.  Requires every client to hold at least
    _MIN_SPLIT_SAMPLES samples and refuses to split twice.
    """
    if plan.split:
        raise PartitionError("plan is already split into train and test")
    sizes = np.array([client.train.size for client in plan.clients], dtype=np.int64)
    for ident, size in enumerate(sizes.tolist()):
        if size < _MIN_SPLIT_SAMPLES:
            raise PartitionError(
                f"client {ident} holds {size} samples; need at least {_MIN_SPLIT_SAMPLES} to split"
            )
    rng = derive_rng(plan.seed, _SPLIT_STREAM)
    none = np.empty(0, dtype=np.int64)
    # Every pool shuffled by its client's permutation, in one take: a pool's
    # position p is row first + p of their concatenation.
    first = np.repeat(np.cumsum(sizes) - sizes, sizes)
    position = np.concatenate([none, *(rng.permutation(size) for size in sizes.tolist())])
    shuffled = np.concatenate([none, *(client.train for client in plan.clients)])[position + first]
    n_test = np.maximum(1, np.floor(_TEST_FRACTION * sizes).astype(np.int64))
    # Run 2i of the shuffled pools is client i's test part, its first n_test
    # samples, and run 2i + 1 the rest, its train part.
    lengths = np.empty(2 * sizes.size, dtype=np.int64)
    lengths[::2], lengths[1::2] = n_test, sizes - n_test
    parts = _sorted_runs(shuffled, np.repeat(np.arange(lengths.size), lengths), lengths)
    clients = [ClientIndices(train=train, test=test) for test, train in zip(parts[::2], parts[1::2])]
    return PartitionPlan(
        clients=clients, n_samples=plan.n_samples, seed=plan.seed, split=True
    )


def save_csv(dataset: LabeledDataset, path: str | Path) -> None:
    """Write `f0,...,f{D-1},label` rows with a header line; floats use repr."""
    lines = [",".join([f"f{i}" for i in range(dataset.dim)] + ["label"])]
    for row, label in zip(dataset.features, dataset.labels):
        lines.append(",".join([repr(float(v)) for v in row] + [str(int(label))]))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_csv(path: str | Path, classes: int | None = None) -> LabeledDataset:
    """Read a dataset written in the save_csv schema.

    The header row fixes the feature count; every data row must supply
    that many floats plus an integer label.  Malformed rows raise
    CsvFormatError naming the 1-based line number.  classes defaults to
    max(label) + 1.
    """
    text = Path(path).read_text(encoding="utf-8")
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise CsvFormatError(f"{path}: file is empty")
    header = lines[0].split(",")
    if header[-1] != "label" or any(
        name != f"f{i}" for i, name in enumerate(header[:-1])
    ):
        raise CsvFormatError(f"{path}: line 1: header must be f0,...,f{{D-1}},label")
    dim = len(header) - 1
    if dim < 1:
        raise CsvFormatError(f"{path}: line 1: need at least one feature column")
    features = []
    labels = []
    for lineno, line in enumerate(lines[1:], start=2):
        cells = line.split(",")
        if len(cells) != dim + 1:
            raise CsvFormatError(
                f"{path}: line {lineno}: expected {dim + 1} fields, got {len(cells)}"
            )
        try:
            features.append([float(v) for v in cells[:-1]])
        except ValueError as exc:
            raise CsvFormatError(f"{path}: line {lineno}: bad float ({exc})") from None
        try:
            labels.append(int(cells[-1]))
        except ValueError:
            raise CsvFormatError(
                f"{path}: line {lineno}: label {cells[-1]!r} is not an integer"
            ) from None
        if labels[-1] < 0:
            raise CsvFormatError(f"{path}: line {lineno}: label must be non-negative")
    if not features:
        raise CsvFormatError(f"{path}: no data rows")
    inferred = max(labels) + 1
    if classes is None:
        classes = max(inferred, 2)
    elif inferred > classes:
        raise CsvFormatError(f"{path}: labels exceed declared class count {classes}")
    return LabeledDataset(np.array(features), np.array(labels), classes)


def label_proportions(dataset: LabeledDataset, indices: np.ndarray) -> np.ndarray:
    """Fraction of each class among the selected rows (sums to 1)."""
    indices = np.asarray(indices, dtype=np.int64)
    if indices.size == 0:
        raise ValueError("cannot compute proportions of an empty selection")
    counts = np.bincount(dataset.labels[indices], minlength=dataset.classes)
    return counts / counts.sum()
