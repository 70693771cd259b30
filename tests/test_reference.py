"""The cohort's local update, every round's accuracies and whole runs against the
reference oracle (reference.py)."""

import copy
import dataclasses
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from fedmrl.core import InferenceVariant, Mode, TrainingDiverged
from fedmrl.data import ClassCountSpec, DirichletSpec, PartitionError, gen_synthetic
from fedmrl.data import partition_class_count, partition_dirichlet, split_train_test
from fedmrl.federation import RunConfig, build_clients, cohort_update, run_rounds, run_training
from fedmrl.metrics import export_reports
from fedmrl.numerics import make_rng

from reference import accuracy_alone, diverged, padded_models, run_alone, train_alone


def _rows(client):
    """The client's rows: each vector of its shared copy, private model and projector."""
    return [*client.global_copy._segments(), *client.local_model._segments(),
            *client.projector._segments()]


def _same(a, b):
    return len(a) == len(b) and all(x.shape == y.shape and x.tobytes() == y.tobytes()
                                    for x, y in zip(a, b))


@settings(max_examples=40, deadline=None)
@given(
    n_clients=st.integers(1, 6),
    alpha=st.sampled_from([0.3, 1.0, 10.0]),
    data_seed=st.integers(0, 50),
    batch_size=st.integers(1, 9),
    epochs=st.integers(1, 2),
    local_hidden=st.lists(
        st.lists(st.integers(1, 9), max_size=1).map(tuple), min_size=1, max_size=4
    ).map(tuple),
    mode=st.sampled_from(list(Mode)),
    loss_weights=st.tuples(st.sampled_from([0.0, 0.7, 1.0]), st.sampled_from([0.0, 1.0, 1.3])),
    lrs=st.tuples(*[st.sampled_from([0.0, 0.01, 0.05, 0.2])] * 3),
    participants=st.data(),
)
def test_a_cohort_trains_each_client_as_the_reference_oracle(
    n_clients, alpha, data_seed, batch_size, epochs, local_hidden, mode, loss_weights, lrs,
    participants,
):
    # Ragged Dirichlet shards, some smaller than a batch, private extractors of
    # one or two depths and mixed widths, every mode, loss weights that take a
    # head out, and a learning rate per group: each client's epoch means,
    # upload, rows and rng are the oracle's on a copy of it, bit for bit, and
    # the clients that do not train keep theirs.
    dataset = gen_synthetic(4, 5, 25, 0.8, make_rng(data_seed))
    try:
        plan = split_train_test(
            partition_dirichlet(dataset, n_clients, DirichletSpec(alpha=alpha, seed=data_seed))
        )
    except PartitionError:
        assume(False)
    cfg = RunConfig(
        n_clients=n_clients, rounds=1, d1=3, d2=6, mode=mode, seed=data_seed,
        lr_global=lrs[0], lr_local=lrs[1], lr_projector=lrs[2],
        m_global=loss_weights[0], m_local=loss_weights[1],
        global_hidden=(6,), local_hidden=local_hidden,
    )
    chosen = participants.draw(
        st.lists(st.integers(0, n_clients - 1), min_size=1, unique=True), label="participants"
    )
    _, clients = build_clients(cfg, dataset, plan)
    twins = copy.deepcopy(clients)
    args = (epochs, batch_size, cfg.lrs, mode, cfg.loss_weights)
    expected = {}
    for ident in chosen:
        twin = twins[ident]
        trained = padded_models(twin)
        with np.errstate(all="ignore"):  # a diverging client runs on to inf or nan
            means = train_alone(trained, twin.train_x, twin.train_y, twin.rng, *args)
        expected[ident] = means, trained

    failed = sorted(i for i in chosen if diverged(expected[i][1], expected[i][0]))
    if failed:  # the cohort raises the lowest failing id's error and changes no row
        with np.errstate(all="ignore"), pytest.raises(TrainingDiverged) as error:
            cohort_update([clients[i] for i in chosen], *args)
        assert error.value.client == failed[0]
        for client, twin in zip(clients, twins):  # the oracle trained clones of the twins
            assert _same(_rows(client), _rows(twin))
        return
    results = cohort_update([clients[i] for i in chosen], *args)
    for ident, (upload, means) in zip(chosen, results):
        want, (g, f, p) = expected[ident]
        assert repr(means) == repr(want)
        if mode is Mode.STANDALONE:
            assert upload is None
        else:
            assert (upload.client_id, upload.n_samples) == (ident, clients[ident].n_samples)
            assert _same(upload.model._segments(), g._segments())
        population = clients[ident].population
        positions = population._room().maps[population.place[ident][0]]
        pad = np.delete(f.extractor._flat, positions)
        assert pad.tobytes() == np.zeros_like(pad).tobytes()
        twins[ident].global_copy, twins[ident].projector = g, p
        twins[ident].local_model = twins[ident].local_model._over(
            (f.extractor._flat[positions], f.header.weight.reshape(-1)))
    for client, twin in zip(clients, twins):
        assert _same(_rows(client), _rows(twin))
        assert client.rng.bit_generator.state == twin.rng.bit_generator.state


@settings(max_examples=40, deadline=None)
@given(
    n_clients=st.integers(2, 8),
    alpha=st.sampled_from([0.3, 1.0, 10.0]),
    data_seed=st.integers(0, 50),
    batch_size=st.integers(1, 9),
    widths=st.tuples(st.integers(1, 9), st.integers(1, 9), st.integers(1, 9)),
    more=st.lists(st.lists(st.integers(1, 9), min_size=1, max_size=2).map(tuple), max_size=2),
    mode=st.sampled_from(list(Mode)),
    variant=st.sampled_from(list(InferenceVariant)),
    participation=st.sampled_from([0.3, 0.6, 1.0]),
    rounds=st.integers(1, 3),
    cuts=st.lists(st.integers(1, 12), min_size=8, max_size=8),
)
def test_every_round_reports_each_clients_accuracy_on_its_own_test_set(
    n_clients, alpha, data_seed, batch_size, widths, more, mode, variant, participation, rounds,
    cuts,
):
    # Ragged Dirichlet shards with test sets of unequal sizes, cut so that
    # they do not sort as the training sets do, private extractors of two
    # depths, every mode and inference variant, and
    # participation below and at 1, over 1-3 rounds of one run_rounds call
    # each (the memo and the workspace carry over): after every round, each
    # client's reported accuracy is the oracle's on its unpadded test set and
    # its current models, bit for bit, whether the client was evaluated in
    # the workspace where it trained, gathered again, or not at all.
    dataset = gen_synthetic(4, 5, 25, 0.8, make_rng(data_seed))
    try:
        plan = split_train_test(
            partition_dirichlet(dataset, n_clients, DirichletSpec(alpha=alpha, seed=data_seed))
        )
    except PartitionError:
        assume(False)
    cfg = RunConfig(
        n_clients=n_clients, rounds=1, d1=3, d2=6, mode=mode, seed=data_seed,
        participation=participation, batch_size=batch_size, inference=variant,
        global_hidden=(6,), local_hidden=((widths[0],), widths[1:], *more),
    )
    served = InferenceVariant.SINGLE_LARGE if mode is Mode.STANDALONE else variant
    server, clients = build_clients(cfg, dataset, plan)
    for client, cut in zip(clients, cuts):
        client.test_x, client.test_y = client.test_x[:cut], client.test_y[:cut]
    for _ in range(rounds):
        (report,) = run_rounds(server, clients, cfg)
        assert report.per_client_accuracy == tuple(
            accuracy_alone(padded_models(c), c.test_x, c.test_y, served) for c in clients)


def _csv(reports) -> bytes:
    """The bytes export_reports writes for reports as CSV."""
    with tempfile.TemporaryDirectory() as folder:
        path = Path(folder) / "reports.csv"
        export_reports(reports, path, "csv")
        return path.read_bytes()


@settings(max_examples=50, deadline=None)
@given(
    n_clients=st.integers(1, 8),
    shards=st.sampled_from([0.3, 1.0, 10.0, 1, 2]),  # a Dirichlet alpha, or classes per client
    data_seed=st.integers(0, 50),
    batch_size=st.integers(1, 9),
    epochs=st.integers(1, 2),
    widths=st.tuples(st.integers(1, 9), st.integers(1, 9), st.integers(1, 9)),
    mode=st.sampled_from(list(Mode)),
    variant=st.sampled_from(list(InferenceVariant)),
    participation=st.sampled_from([0.3, 0.6, 1.0]),
    lrs=st.tuples(*[st.sampled_from([0.01, 0.05, 0.1])] * 3),
    rounds=st.integers(1, 4),
)
@example(n_clients=4, shards=1.0, data_seed=3, batch_size=2, epochs=2, widths=(4, 3, 2),
         mode=Mode.FEDMRL, variant=InferenceVariant.MIX_LARGE, participation=0.6,
         lrs=(1e300,) * 3, rounds=3)  # diverges in round 1, client 0
def test_a_whole_run_writes_the_reference_oracles_csv_bytes(
    n_clients, shards, data_seed, batch_size, epochs, widths, mode, variant, participation, lrs,
    rounds,
):
    # Ragged Dirichlet or class-count shards, private extractors of two
    # depths, every mode and inference variant, participation below and at
    # 1, and 1-4 rounds: run_training's CSV bytes are the oracle's, and so
    # are those of the same run taken one run_rounds call per round.
    dataset = gen_synthetic(4, 5, 25, 0.8, make_rng(data_seed))
    if isinstance(shards, float):
        spec = DirichletSpec(alpha=shards, seed=data_seed)
        partition = partition_dirichlet
    else:
        spec, partition = ClassCountSpec(classes_per_client=shards, seed=data_seed), partition_class_count
    try:
        plan = split_train_test(partition(dataset, n_clients, spec))
    except PartitionError:
        assume(False)
    cfg = RunConfig(
        n_clients=n_clients, rounds=rounds, d1=3, d2=6, mode=mode, seed=data_seed,
        participation=participation, local_epochs=epochs, batch_size=batch_size,
        lr_global=lrs[0], lr_local=lrs[1], lr_projector=lrs[2], inference=variant,
        global_hidden=(6,), local_hidden=((widths[0],), widths[1:]),
    )

    def one_round_per_call():
        server, clients = build_clients(cfg, dataset, plan)
        one = dataclasses.replace(cfg, rounds=1)
        return [dataclasses.replace(run_rounds(server, clients, one)[0], round=r)
                for r in range(1, rounds + 1)]

    runs = (lambda: run_training(cfg, dataset, plan), one_round_per_call)
    try:
        expected = _csv(run_alone(cfg, dataset, plan))
    except TrainingDiverged as diverging:  # both paths fail at its round and client
        for run in runs:
            with pytest.raises(TrainingDiverged) as error:
                run()
            assert (error.value.round, error.value.client) == (diverging.round, diverging.client)
        return
    for run in runs:
        assert _csv(run()) == expected
