from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fedmrl.config import load_config, override
from fedmrl.data import (
    ClassCountSpec,
    CsvFormatError,
    DirichletSpec,
    LabeledDataset,
    PartitionError,
    gen_synthetic,
    label_proportions,
    load_csv,
    partition_class_count,
    partition_dirichlet,
    save_csv,
    split_train_test,
    standardize_features,
)
from fedmrl.experiment import build_partition, load_dataset
from fedmrl.numerics import batch_cross_entropy, make_rng


WORKLOADS = Path(__file__).parents[1] / "bench" / "workloads"


def make_dataset(classes=4, dim=3, per_class=25, spread=1.0, seed=0):
    return gen_synthetic(classes, dim, per_class, spread, make_rng(seed))


def client_entropy(dataset, plan):
    """Mean over clients of the label-distribution entropy of each pool."""
    entropies = []
    for client in plan.clients:
        p = label_proportions(dataset, client.pool)
        nz = p[p > 0]
        entropies.append(float(-(nz * np.log(nz)).sum()))
    return float(np.mean(entropies))


def test_dataset_validation():
    with pytest.raises(ValueError):
        LabeledDataset(np.zeros((3, 2)), np.array([0, 1]), 2)
    with pytest.raises(ValueError):
        LabeledDataset(np.zeros((2, 2)), np.array([0, 2]), 2)
    ds = LabeledDataset(np.zeros((2, 2)), np.array([0, 1]), 2)
    assert len(ds) == 2 and ds.dim == 2


def test_gen_synthetic_shapes_and_determinism():
    ds1 = make_dataset(seed=3)
    ds2 = make_dataset(seed=3)
    assert ds1.features.shape == (100, 3)
    assert np.array_equal(np.bincount(ds1.labels), [25, 25, 25, 25])
    assert np.array_equal(ds1.features, ds2.features)
    with pytest.raises(ValueError):
        gen_synthetic(4, 3, 25, 0.0, make_rng(0))


def test_synthetic_clusters_are_linearly_separable():
    # Oracle: a linear softmax classifier fit by plain gradient descent
    # reaches perfect training accuracy on well-separated clusters.
    ds = make_dataset(classes=3, dim=4, per_class=30, spread=0.3, seed=1)
    weight = np.zeros((3, 4))
    for _ in range(200):
        _, dlogits = batch_cross_entropy(ds.features @ weight.T, ds.labels)
        weight = weight - 0.5 * (dlogits / len(ds)).T @ ds.features
    preds = np.argmax(ds.features @ weight.T, axis=1)
    assert np.mean(preds == ds.labels) == 1.0


def test_standardize_features():
    ds = make_dataset(seed=5)
    ds.features[:, 1] = 7.0  # constant column must not divide by zero
    out = standardize_features(ds)
    assert np.allclose(out.features[:, 0].mean(), 0.0, atol=1e-12)
    assert np.allclose(out.features[:, 0].std(), 1.0, atol=1e-12)
    assert np.allclose(out.features[:, 1], 0.0)
    assert np.array_equal(out.labels, ds.labels)


def test_class_count_gives_exact_distinct_classes():
    ds = make_dataset(classes=10, per_class=30)
    plan = partition_class_count(ds, 10, ClassCountSpec(classes_per_client=2, seed=0))
    for client in plan.clients:
        labels = np.unique(ds.labels[client.train])
        assert labels.size == 2


def test_class_count_union_is_whole_dataset_when_feasible():
    ds = make_dataset(classes=6, per_class=20)
    plan = partition_class_count(ds, 4, ClassCountSpec(classes_per_client=2, seed=1))
    merged = np.sort(np.concatenate([c.train for c in plan.clients]))
    assert np.array_equal(merged, np.arange(len(ds)))


def test_class_count_clients_are_disjoint():
    ds = make_dataset(classes=5, per_class=12)
    plan = partition_class_count(ds, 5, ClassCountSpec(classes_per_client=3, seed=2))
    seen = np.concatenate([c.train for c in plan.clients])
    assert seen.size == np.unique(seen).size


def test_class_count_is_deterministic():
    ds = make_dataset(classes=6, per_class=10)
    spec = ClassCountSpec(classes_per_client=2, seed=9)
    p1 = partition_class_count(ds, 3, spec)
    p2 = partition_class_count(ds, 3, spec)
    assert p1.fingerprint() == p2.fingerprint()


def test_class_count_infeasible_cover_leaves_classes_out():
    # 2 clients x 1 class cannot cover 4 classes; the rest stay unassigned.
    ds = make_dataset(classes=4, per_class=10)
    plan = partition_class_count(ds, 2, ClassCountSpec(classes_per_client=1, seed=0))
    covered = np.unique(ds.labels[np.concatenate([c.train for c in plan.clients])])
    assert covered.size == 2


def test_class_count_rejects_bad_requests():
    ds = make_dataset(classes=3, per_class=10)
    with pytest.raises(PartitionError):
        partition_class_count(ds, 2, ClassCountSpec(classes_per_client=4, seed=0))
    with pytest.raises(PartitionError):
        partition_class_count(ds, 0, ClassCountSpec(classes_per_client=1, seed=0))


def test_class_count_errors_when_a_class_is_too_thin():
    # One lonely sample of class 2 cannot feed two holders.
    features = np.zeros((21, 2))
    labels = np.array([0] * 10 + [1] * 10 + [2])
    ds = LabeledDataset(features, labels, 3)
    with pytest.raises(PartitionError):
        partition_class_count(ds, 4, ClassCountSpec(classes_per_client=2, seed=3))


def test_dirichlet_totals_are_exact_and_union_complete():
    ds = make_dataset(classes=5, per_class=40)
    plan = partition_dirichlet(ds, 7, DirichletSpec(alpha=0.5, seed=4))
    merged = np.sort(np.concatenate([c.train for c in plan.clients]))
    assert np.array_equal(merged, np.arange(len(ds)))
    for c in range(5):
        total = sum(int(np.sum(ds.labels[cl.train] == c)) for cl in plan.clients)
        assert total == 40


def test_dirichlet_is_deterministic():
    ds = make_dataset(classes=4, per_class=30)
    spec = DirichletSpec(alpha=0.3, seed=11)
    assert (
        partition_dirichlet(ds, 5, spec).fingerprint()
        == partition_dirichlet(ds, 5, spec).fingerprint()
    )


def test_dirichlet_high_alpha_is_near_uniform_across_20_seeds():
    ds = make_dataset(classes=10, per_class=100, dim=2)
    n_clients = 10
    worst = 0.0
    for seed in range(20):
        plan = partition_dirichlet(ds, n_clients, DirichletSpec(alpha=1000.0, seed=seed))
        for c in range(10):
            counts = np.array(
                [int(np.sum(ds.labels[cl.train] == c)) for cl in plan.clients]
            )
            dev = np.abs(counts / counts.sum() - 1.0 / n_clients).max()
            worst = max(worst, float(dev))
    assert worst <= 0.1


def test_dirichlet_low_alpha_concentrates_labels():
    ds = make_dataset(classes=10, per_class=100, dim=2)
    low, high = [], []
    for seed in range(20):
        low.append(
            client_entropy(ds, partition_dirichlet(ds, 10, DirichletSpec(0.1, seed)))
        )
        high.append(
            client_entropy(ds, partition_dirichlet(ds, 10, DirichletSpec(1000.0, seed)))
        )
    assert np.mean(low) < np.mean(high)


def test_dirichlet_gives_up_after_bounded_retries():
    # 6 classes of 5 samples over 6 clients could split (one class each),
    # but alpha=0.01 piles each class onto one client, so few draws leave
    # every client 5 samples: seed 0 spends all 100 draws, seed 1 splits.
    ds = LabeledDataset(np.zeros((30, 2)), np.repeat(np.arange(6), 5), 6)
    with pytest.raises(PartitionError, match="100 attempts"):
        partition_dirichlet(ds, 6, DirichletSpec(alpha=0.01, seed=0))
    plan = partition_dirichlet(ds, 6, DirichletSpec(alpha=0.01, seed=1))
    assert [c.train.size for c in plan.clients] == [5] * 6


def test_dirichlet_rejects_too_few_samples_before_any_draw():
    # 29 samples cannot give 6 clients 5 each, whatever the draw.
    ds = LabeledDataset(np.zeros((29, 2)), np.arange(29) % 6, 6)
    with pytest.raises(PartitionError, match="29 samples cannot give 6 clients 5 each"):
        partition_dirichlet(ds, 6, DirichletSpec(alpha=1.0, seed=0))


def test_dirichlet_rejects_more_clients_than_samples():
    ds = LabeledDataset(np.zeros((4, 2)), np.array([0, 0, 1, 1]), 2)
    with pytest.raises(PartitionError):
        partition_dirichlet(ds, 5, DirichletSpec(alpha=1.0, seed=0))


def test_split_ratios_and_disjointness():
    ds = make_dataset(classes=2, per_class=10)  # 10 samples per client below
    plan = partition_class_count(ds, 2, ClassCountSpec(classes_per_client=1, seed=0))
    split = split_train_test(plan)
    for client in split.clients:
        assert client.train.size == 8 and client.test.size == 2
        assert np.intersect1d(client.train, client.test).size == 0
    assert split.split


def test_split_five_samples_goes_four_one():
    features = np.zeros((10, 2))
    labels = np.array([0] * 5 + [1] * 5)
    ds = LabeledDataset(features, labels, 2)
    plan = partition_class_count(ds, 2, ClassCountSpec(classes_per_client=1, seed=1))
    split = split_train_test(plan)
    for client in split.clients:
        assert client.train.size == 4 and client.test.size == 1


def test_split_preserves_each_pool_exactly():
    ds = make_dataset(classes=3, per_class=20)
    plan = partition_dirichlet(ds, 3, DirichletSpec(alpha=2.0, seed=6))
    split = split_train_test(plan)
    for before, after in zip(plan.clients, split.clients):
        assert np.array_equal(np.sort(after.pool), np.sort(before.train))


def test_split_guards():
    ds = make_dataset(classes=2, per_class=10)
    plan = partition_class_count(ds, 2, ClassCountSpec(classes_per_client=1, seed=0))
    split = split_train_test(plan)
    with pytest.raises(PartitionError):
        split_train_test(split)
    thin = LabeledDataset(np.zeros((8, 2)), np.array([0, 0, 0, 0, 1, 1, 1, 1]), 2)
    thin_plan = partition_class_count(thin, 2, ClassCountSpec(classes_per_client=1, seed=0))
    with pytest.raises(PartitionError, match="at least 5"):
        split_train_test(thin_plan)


@pytest.mark.parametrize("seed", [8, 30])
def test_dirichlet_redraws_until_every_client_can_be_split(seed):
    # On these seeds the many-dirichlet workload's first draw leaves a
    # client fewer than 5 samples, which split_train_test refuses.
    config = override(load_config(WORKLOADS / "many-dirichlet.cfg"), seed=seed)
    dataset = load_dataset(config)
    plan = partition_dirichlet(dataset, config.n_clients, DirichletSpec(config.alpha, seed))
    assert min(client.train.size for client in plan.clients) >= 5
    assert build_partition(config, dataset).split


def test_split_is_deterministic():
    ds = make_dataset(classes=2, per_class=30)
    plan = partition_dirichlet(ds, 3, DirichletSpec(alpha=1.0, seed=8))
    assert split_train_test(plan).fingerprint() == split_train_test(plan).fingerprint()
    assert split_train_test(plan).fingerprint() != plan.fingerprint()


def test_csv_round_trip_is_exact(tmp_path):
    ds = make_dataset(classes=3, per_class=4)
    path = tmp_path / "data.csv"
    save_csv(ds, path)
    loaded = load_csv(path)
    assert np.array_equal(loaded.features, ds.features)
    assert np.array_equal(loaded.labels, ds.labels)
    assert loaded.classes == 3


def test_csv_errors_carry_line_numbers(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("f0,f1,label\n1.0,2.0,0\n1.0,oops,1\n")
    with pytest.raises(CsvFormatError, match="line 3"):
        load_csv(path)
    path.write_text("f0,f1,label\n1.0,2.0\n")
    with pytest.raises(CsvFormatError, match="line 2"):
        load_csv(path)
    path.write_text("f0,f1,label\n1.0,2.0,zero\n")
    with pytest.raises(CsvFormatError, match="line 2"):
        load_csv(path)
    path.write_text("f0,f2,label\n1.0,2.0,0\n")
    with pytest.raises(CsvFormatError, match="line 1"):
        load_csv(path)
    path.write_text("")
    with pytest.raises(CsvFormatError, match="empty"):
        load_csv(path)


def test_csv_respects_declared_class_count(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("f0,label\n0.5,0\n0.25,1\n")
    assert load_csv(path, classes=5).classes == 5
    with pytest.raises(CsvFormatError, match="exceed"):
        load_csv(path, classes=1)


def test_label_proportions_sum_to_one():
    ds = make_dataset(classes=4, per_class=10)
    p = label_proportions(ds, np.arange(len(ds)))
    assert np.allclose(p, 0.25)
    with pytest.raises(ValueError):
        label_proportions(ds, np.empty(0, dtype=np.int64))


def test_fingerprint_distinguishes_plans():
    ds = make_dataset(classes=4, per_class=20)
    p1 = partition_class_count(ds, 4, ClassCountSpec(classes_per_client=2, seed=0))
    p2 = partition_class_count(ds, 4, ClassCountSpec(classes_per_client=2, seed=1))
    assert p1.fingerprint() != p2.fingerprint()


FIXTURE = Path(__file__).parent / "fixtures" / "tiny.csv"


def test_fixture_tiny_csv_loads():
    """The checked-in two-cluster file: class 0 negative, class 1 positive."""
    ds = load_csv(FIXTURE)
    assert ds.dim == 2 and ds.classes == 2 and len(ds) == 20
    assert (ds.features[ds.labels == 0] < 0).all()
    assert (ds.features[ds.labels == 1] > 0).all()


def test_fixture_tiny_csv_partitions_and_round_trips(tmp_path):
    ds = load_csv(FIXTURE)
    plan = split_train_test(
        partition_class_count(ds, 2, ClassCountSpec(classes_per_client=1, seed=0))
    )
    for shard in plan.clients:
        assert len(shard.train) == 8 and len(shard.test) == 2
        assert np.unique(ds.labels[shard.pool]).size == 1

    save_csv(ds, tmp_path / "copy.csv")
    again = load_csv(tmp_path / "copy.csv")
    assert np.array_equal(again.features, ds.features)
    assert np.array_equal(again.labels, ds.labels)
    assert (tmp_path / "copy.csv").read_bytes() == FIXTURE.read_bytes()


def _assert_disjoint(plan, n_samples):
    seen = np.concatenate([c.pool for c in plan.clients])
    assert seen.size == np.unique(seen).size
    assert ((0 <= seen) & (seen < n_samples)).all()
    assert all(c.pool.size for c in plan.clients)
    return np.sort(seen)


@settings(max_examples=60, deadline=None)
@given(
    classes=st.integers(2, 7),
    per_class=st.integers(8, 15),
    n_clients=st.integers(1, 8),
    per_client=st.integers(1, 7),
    seed=st.integers(0, 10_000),
)
def test_class_count_plans_are_disjoint_and_cover_the_dataset_when_they_can(
    classes, per_class, n_clients, per_client, seed
):
    # Every class has at least as many samples as it can have holders, so
    # every request with per_client <= classes gives a plan.
    assume(per_client <= classes)
    ds = make_dataset(classes=classes, per_class=per_class, seed=seed)
    plan = partition_class_count(ds, n_clients, ClassCountSpec(per_client, seed))
    seen = _assert_disjoint(plan, len(ds))
    for client in plan.clients:
        assert np.unique(ds.labels[client.pool]).size == per_client
    covered = np.unique(ds.labels[seen])
    if n_clients * per_client >= classes:
        assert np.array_equal(seen, np.arange(len(ds)))
    else:  # a class is dealt whole or not at all
        assert covered.size == n_clients * per_client
        assert np.array_equal(seen, np.flatnonzero(np.isin(ds.labels, covered)))


@settings(max_examples=60, deadline=None)
@given(
    classes=st.integers(2, 6),
    per_class=st.integers(1, 20),
    n_clients=st.integers(1, 10),
    alpha=st.sampled_from([0.3, 1.0, 10.0]),
    seed=st.integers(0, 10_000),
)
def test_dirichlet_plans_are_disjoint_and_cover_the_dataset(classes, per_class, n_clients, alpha, seed):
    ds = make_dataset(classes=classes, per_class=per_class, seed=seed)
    assume(len(ds) >= n_clients)
    try:
        plan = partition_dirichlet(ds, n_clients, DirichletSpec(alpha=alpha, seed=seed))
    except PartitionError:  # no draw left every client a sample
        assume(False)
    assert np.array_equal(_assert_disjoint(plan, len(ds)), np.arange(len(ds)))


@pytest.mark.parametrize(
    "make,error,message",
    [
        (lambda tmp: LabeledDataset(np.zeros(4), np.zeros(4), 2), ValueError,
         "features must be 2-D, got shape (4,)"),
        (lambda tmp: LabeledDataset(np.zeros((4, 2)), np.zeros(4), 1), ValueError,
         "need at least 2 classes, got 1"),
        (lambda tmp: partition_class_count(
            LabeledDataset(np.zeros((6, 2)), [0, 1, 0, 1, 0, 1], 4), 2, ClassCountSpec(3, 0)),
         PartitionError, "only 2 classes have samples, cannot give each client 3"),
        (lambda tmp: partition_dirichlet(make_dataset(), 0, DirichletSpec(0.5, 0)),
         PartitionError, "need at least one client, got 0"),
        (lambda tmp: load_csv(_written(tmp, "label\n1\n")), CsvFormatError,
         "{path}: line 1: need at least one feature column"),
        (lambda tmp: load_csv(_written(tmp, "f0,label\n0.5,1\n0.25,-1\n")), CsvFormatError,
         "{path}: line 3: label must be non-negative"),
        (lambda tmp: load_csv(_written(tmp, "f0,f1,label\n")), CsvFormatError,
         "{path}: no data rows"),
    ],
)
def test_a_data_check_raises_its_typed_error(tmp_path, make, error, message):
    with pytest.raises(error) as raised:
        make(tmp_path)
    assert type(raised.value) is error
    assert str(raised.value) == message.format(path=tmp_path / "data.csv")


def _written(tmp_path, text):
    path = tmp_path / "data.csv"
    path.write_text(text, encoding="utf-8")
    return path
