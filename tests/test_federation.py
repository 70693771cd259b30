import copy
import dataclasses
import gc
import pickle
import sys
from collections import Counter
from pathlib import Path
from types import BuiltinFunctionType, FunctionType, ModuleType, SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from fedmrl import core, federation, metrics, models, numerics
from fedmrl.config import build_run_config, load_config, override
from fedmrl.core import (
    InferenceVariant,
    LearningRates,
    LossWeights,
    TrainingDiverged,
    infer,
    parameter_vector,
    train_step,
    train_step_single,
)
from fedmrl.data import (
    ClassCountSpec,
    DirichletSpec,
    PartitionError,
    gen_synthetic,
    partition_class_count,
    partition_dirichlet,
    split_train_test,
)
from fedmrl.federation import (
    ClientState,
    Mode,
    RunConfig,
    ServerState,
    Upload,
    aggregate,
    broadcast,
    build_clients,
    cohort_update,
    run_rounds,
    run_training,
    sample_clients,
)
from fedmrl.experiment import build_partition, load_dataset
from fedmrl.metrics import evaluate
from fedmrl.models import ModelConfig, init_model
from fedmrl.numerics import NonFiniteError, ShapeError, make_rng

from reference import padded_models, train_alone

QUICKSTART = Path(__file__).parents[1] / "demos" / "quickstart.cfg"


def small_setup(mode=Mode.FEDMRL, seed=0, n_clients=4, rounds=3, **overrides):
    dataset = gen_synthetic(4, 5, 30, 0.6, make_rng(seed + 7000))
    plan = split_train_test(
        partition_dirichlet(dataset, n_clients, DirichletSpec(alpha=2.0, seed=seed))
    )
    defaults = dict(
        n_clients=n_clients,
        rounds=rounds,
        d1=3,
        d2=6,
        local_epochs=1,
        batch_size=8,
        lr_global=0.03,
        lr_local=0.03,
        lr_projector=0.03,
        mode=mode,
        seed=seed,
        global_hidden=(8,),
        local_hidden=((12,), (10,), (9,)),
    )
    defaults.update(overrides)
    return RunConfig(**defaults), dataset, plan


def constant_upload(template, client_id, n_samples, value):
    """Upload whose every parameter equals a constant, for exactness checks."""
    model = template.clone()
    for array in model.parameter_arrays():
        array[:] = value
    return Upload(client_id=client_id, n_samples=n_samples, model=model)


def test_run_config_validation():
    with pytest.raises(ValueError):
        RunConfig(n_clients=0, rounds=1, d1=2, d2=4)
    with pytest.raises(ValueError):
        RunConfig(n_clients=2, rounds=1, d1=5, d2=4)
    with pytest.raises(ValueError):
        RunConfig(n_clients=2, rounds=1, d1=2, d2=4, participation=0.0)
    with pytest.raises(ValueError):
        RunConfig(n_clients=2, rounds=1, d1=2, d2=4, lr_local=-0.1)


@pytest.mark.parametrize("field, value", [
    ("mode", "standalone"), ("mode", "bogus"),
    ("inference", "single_large"), ("inference", "nonsense"),
])
def test_run_config_rejects_a_mode_or_variant_that_is_not_its_enum(field, value):
    # A string, even an enum's value, would otherwise train and serve as the defaults.
    with pytest.raises(ValueError, match=f"^{field} must be an? "):
        RunConfig(n_clients=2, rounds=1, d1=2, d2=4, **{field: value})


@pytest.mark.parametrize("field, value", [
    ("global_hidden", (0,)), ("global_hidden", (8, -3)),
    ("local_hidden", ((0,),)), ("local_hidden", ((12,), (), (9, -1))),
])
def test_run_config_rejects_a_non_positive_hidden_width(field, value):
    # Checked here, a config file or --sweep fails with one error line;
    # otherwise init_model raises it from build_clients, past the CLI's handler.
    with pytest.raises(ValueError, match=rf"^{field} widths must be positive, got "):
        RunConfig(n_clients=2, rounds=1, d1=2, d2=4, **{field: value})


def test_participant_count_rounds_and_floors_at_one():
    cfg = RunConfig(n_clients=10, rounds=1, d1=2, d2=4, participation=0.25)
    assert cfg.participants == 2
    tiny = RunConfig(n_clients=10, rounds=1, d1=2, d2=4, participation=0.01)
    assert tiny.participants == 1
    full = RunConfig(n_clients=10, rounds=1, d1=2, d2=4)
    assert full.participants == 10


def test_build_clients_requires_split_plan():
    cfg, dataset, _ = small_setup()
    unsplit = partition_class_count(dataset, 4, ClassCountSpec(2, 0))
    with pytest.raises(ValueError, match="split"):
        build_clients(cfg, dataset, unsplit)


@settings(max_examples=30, deadline=None)
@given(
    local_hidden=st.lists(st.sampled_from([(), (4,), (9, 7), (3, 5), (6,)]), min_size=1,
                          max_size=4).map(tuple),
    n_clients=st.integers(1, 6),
    seed=st.integers(0, 10_000),
)
def test_the_population_draws_each_client_as_init_model_then_init_projector(
    local_hidden, n_clients, seed
):
    # Repeated stacks share one block, a config may have fewer clients than
    # stacks, and stacks hold 0-2 hidden layers: each client's rows are
    # init_model's and then init_projector's on its own init stream bit for bit,
    # and the server's model init_model's on the global one.
    cfg, dataset, plan = small_setup(n_clients=n_clients, local_hidden=local_hidden)
    cfg = dataclasses.replace(cfg, seed=seed)
    server, clients = build_clients(cfg, dataset, plan)
    shape = ModelConfig(dataset.dim, cfg.global_hidden, cfg.d1, dataset.classes)
    shared = init_model(shape, numerics.derive_rng(seed, 20))
    assert server.global_model.extractor._spans == shared.extractor._spans
    assert _same_arrays(server.global_model._segments(), shared._segments())
    for ident, client in enumerate(clients):
        rng = numerics.derive_rng(seed, 30, ident)
        hidden = local_hidden[ident % len(local_hidden)]
        private = init_model(ModelConfig(dataset.dim, hidden, cfg.d2, dataset.classes), rng)
        assert client.local_model.extractor._spans == private.extractor._spans
        assert _same_arrays(client.local_model._segments(), private._segments())
        projector = core.init_projector(cfg.d1, cfg.d2, rng)
        assert client.projector.weight.tobytes() == projector.weight.tobytes()
        assert _same_arrays(client.global_copy._segments(), shared._segments())


def test_build_clients_cycles_heterogeneous_widths():
    cfg, dataset, plan = small_setup(n_clients=4)
    _, clients = build_clients(cfg, dataset, plan)
    widths = [c.local_model.extractor.layers[0].out_dim for c in clients]
    assert widths == [12, 10, 9, 12]  # cycle of the three stacks
    assert all(c.local_model.rep_dim == cfg.d2 for c in clients)


def test_init_is_identical_across_modes():
    cfg_a, dataset, plan = small_setup(mode=Mode.FEDMRL)
    cfg_b, _, _ = small_setup(mode=Mode.NO_MRL)
    server_a, clients_a = build_clients(cfg_a, dataset, plan)
    server_b, clients_b = build_clients(cfg_b, dataset, plan)
    for a, b in zip(clients_a, clients_b):
        assert np.array_equal(
            parameter_vector(a.global_copy, a.local_model, a.projector),
            parameter_vector(b.global_copy, b.local_model, b.projector),
        )
    assert np.array_equal(
        server_a.global_model.header.weight, server_b.global_model.header.weight
    )


def test_sample_clients_sorted_and_distinct():
    server = ServerState(global_model=None, rng=make_rng(0))
    for _ in range(50):
        picked = sample_clients(server, 10, 4)
        assert picked == sorted(picked)
        assert len(set(picked)) == 4
        assert all(0 <= i < 10 for i in picked)
    with pytest.raises(ValueError):
        sample_clients(server, 3, 4)


def test_sample_clients_single_pick_is_uniform():
    server = ServerState(global_model=None, rng=make_rng(5))
    counts = np.zeros(5)
    for _ in range(1000):
        counts[sample_clients(server, 5, 1)[0]] += 1
    freqs = counts / 1000.0
    assert np.abs(freqs - 0.2).max() <= 0.05


def test_broadcast_hands_out_independent_copies():
    cfg, dataset, plan = small_setup()
    server, clients = build_clients(cfg, dataset, plan)
    broadcast(server, clients)
    clients[0].global_copy.header.weight[0, 0] += 100.0
    assert server.global_model.header.weight[0, 0] != clients[0].global_copy.header.weight[0, 0]
    assert not np.shares_memory(
        server.global_model.header.weight, clients[1].global_copy.header.weight
    )


def test_client_update_zero_epochs_is_identity():
    cfg, dataset, plan = small_setup()
    _, clients = build_clients(cfg, dataset, plan)
    client = clients[0]
    before = parameter_vector(client.global_copy, client.local_model, client.projector)
    upload, trace = cohort_update(
        [client], 0, cfg.batch_size, cfg.lrs, Mode.FEDMRL, LossWeights()
    )[0]
    after = parameter_vector(client.global_copy, client.local_model, client.projector)
    assert np.array_equal(before, after)
    assert trace == []
    assert upload is not None
    assert np.array_equal(
        upload.model.header.weight, client.global_copy.header.weight
    )


def test_client_update_zero_lr_is_identity_with_loss_trace():
    cfg, dataset, plan = small_setup()
    _, clients = build_clients(cfg, dataset, plan)
    client = clients[1]
    before = parameter_vector(client.global_copy, client.local_model, client.projector)
    upload, trace = cohort_update(
        [client], 2, cfg.batch_size, LearningRates.uniform(0.0), Mode.FEDMRL, LossWeights()
    )[0]
    after = parameter_vector(client.global_copy, client.local_model, client.projector)
    assert np.array_equal(before, after)
    assert len(trace) == 2 and all(np.isfinite(v) for v in trace)


def test_client_update_standalone_uploads_nothing_and_keeps_shared_model():
    cfg, dataset, plan = small_setup(mode=Mode.STANDALONE)
    _, clients = build_clients(cfg, dataset, plan)
    client = clients[0]
    shared_before = client.global_copy.header.weight.copy()
    local_before = client.local_model.header.weight.copy()
    upload, trace = cohort_update(
        [client], 1, cfg.batch_size, cfg.lrs, Mode.STANDALONE, LossWeights()
    )[0]
    assert upload is None
    assert len(trace) == 1
    assert np.array_equal(client.global_copy.header.weight, shared_before)
    assert not np.array_equal(client.local_model.header.weight, local_before)


def test_client_update_moves_all_three_groups_in_fedmrl():
    cfg, dataset, plan = small_setup()
    _, clients = build_clients(cfg, dataset, plan)
    client = clients[2]
    g0 = client.global_copy.header.weight.copy()
    f0 = client.local_model.header.weight.copy()
    p0 = client.projector.weight.copy()
    cohort_update([client], 1, cfg.batch_size, cfg.lrs, Mode.FEDMRL, LossWeights())
    assert not np.array_equal(client.global_copy.header.weight, g0)
    assert not np.array_equal(client.local_model.header.weight, f0)
    assert not np.array_equal(client.projector.weight, p0)


def test_client_update_loss_decreases_on_separable_data():
    # Well-separated clusters, three epochs: the per-epoch mean loss should
    # be non-increasing in nearly every seeded trial.
    good = 0
    trials = 20
    for seed in range(trials):
        dataset = gen_synthetic(3, 4, 40, 0.3, make_rng(seed + 9000))
        plan = split_train_test(
            partition_dirichlet(dataset, 2, DirichletSpec(alpha=5.0, seed=seed))
        )
        cfg = RunConfig(
            n_clients=2, rounds=1, d1=3, d2=5, seed=seed,
            lr_global=0.02, lr_local=0.02, lr_projector=0.02,
            global_hidden=(8,), local_hidden=((10,),),
        )
        _, clients = build_clients(cfg, dataset, plan)
        _, trace = cohort_update([clients[0]], 3, 8, cfg.lrs, Mode.FEDMRL, LossWeights())[0]
        if all(b <= a + 1e-6 for a, b in zip(trace, trace[1:])):
            good += 1
    assert good >= 0.9 * trials


def test_aggregate_two_equal_clients_averages_exactly():
    cfg, dataset, plan = small_setup()
    server, _ = build_clients(cfg, dataset, plan)
    uploads = [
        constant_upload(server.global_model, 0, 10, 0.0),
        constant_upload(server.global_model, 1, 10, 2.0),
    ]
    aggregate(server, uploads)
    for array in server.global_model.parameter_arrays():
        assert np.array_equal(array, np.ones_like(array))


def test_aggregate_weights_by_sample_counts():
    cfg, dataset, plan = small_setup()
    server, _ = build_clients(cfg, dataset, plan)
    uploads = [
        constant_upload(server.global_model, 0, 1, 0.0),
        constant_upload(server.global_model, 1, 3, 4.0),
    ]
    aggregate(server, uploads)
    for array in server.global_model.parameter_arrays():
        assert np.array_equal(array, np.full_like(array, 3.0))


def test_aggregate_single_upload_is_bitwise_identical():
    cfg, dataset, plan = small_setup()
    server, clients = build_clients(cfg, dataset, plan)
    client = clients[0]
    upload, _ = cohort_update([client], 1, 8, cfg.lrs, Mode.FEDMRL, LossWeights())[0]
    aggregate(server, [upload])
    for got, want in zip(
        server.global_model.parameter_arrays(), upload.model.parameter_arrays()
    ):
        assert np.array_equal(got, want)


def test_aggregate_identical_uploads_reproduce_the_model_exactly():
    cfg, dataset, plan = small_setup()
    server, clients = build_clients(cfg, dataset, plan)
    upload, _ = cohort_update([clients[0]], 1, 8, cfg.lrs, Mode.FEDMRL, LossWeights())[0]
    copies = [
        Upload(ident, 7, upload.model.clone()) for ident in range(5)
    ]
    aggregate(server, copies)
    for got, want in zip(
        server.global_model.parameter_arrays(), upload.model.parameter_arrays()
    ):
        assert np.array_equal(got, want)


def test_aggregate_equal_counts_matches_unweighted_mean():
    cfg, dataset, plan = small_setup()
    server, clients = build_clients(cfg, dataset, plan)
    uploads = []
    for ident, client in enumerate(clients):
        upload, _ = cohort_update([client], 1, 8, cfg.lrs, Mode.FEDMRL, LossWeights())[0]
        uploads.append(Upload(ident, 13, upload.model))
    stacks = [
        [u.model.parameter_arrays()[i] for u in uploads]
        for i in range(len(uploads[0].model.parameter_arrays()))
    ]
    aggregate(server, uploads)
    for array, stack in zip(server.global_model.parameter_arrays(), stacks):
        assert np.abs(array - np.mean(stack, axis=0)).max() <= 1e-12


def test_aggregate_rejects_bad_uploads():
    cfg, dataset, plan = small_setup()
    server, _ = build_clients(cfg, dataset, plan)
    with pytest.raises(ValueError, match="empty"):
        aggregate(server, [])
    u = constant_upload(server.global_model, 0, 5, 1.0)
    with pytest.raises(ValueError, match="duplicate"):
        aggregate(server, [u, constant_upload(server.global_model, 0, 5, 2.0)])
    wrong_cfg, wrong_data, wrong_plan = small_setup(d1=2, d2=4)
    wrong_server, _ = build_clients(wrong_cfg, wrong_data, wrong_plan)
    with pytest.raises(ValueError, match="shapes"):
        aggregate(server, [constant_upload(wrong_server.global_model, 1, 5, 1.0)])


def test_run_training_reports_are_deterministic():
    cfg, dataset, plan = small_setup(rounds=4)
    first = run_training(cfg, dataset, plan)
    second = run_training(cfg, dataset, plan)
    assert first == second


def test_run_training_round_numbers_and_aggregates():
    cfg, dataset, plan = small_setup(rounds=3, n_clients=4)
    reports = run_training(cfg, dataset, plan)
    assert [r.round for r in reports] == [1, 2, 3]
    shared = None
    for report in reports:
        assert len(report.per_client_accuracy) == 4
        assert abs(report.avg_test_accuracy - np.mean(report.per_client_accuracy)) <= 1e-12
        assert report.flops > 0
        assert report.uplink_params == report.downlink_params > 0
        shared = report.uplink_params
    # full participation: every round moves K * |shared model| params
    server, _ = build_clients(cfg, dataset, plan)
    assert shared == 4 * server.global_model.param_count()


def test_run_training_zero_rounds_is_empty():
    cfg, dataset, plan = small_setup(rounds=0)
    assert run_training(cfg, dataset, plan) == []


@settings(max_examples=25, deadline=None)
@given(
    mode=st.sampled_from(list(Mode)),
    classes=st.integers(2, 4),
    n_clients=st.integers(1, 3),
    sampled=st.integers(1, 3),
    classes_per_client=st.integers(1, 4),
    local_epochs=st.integers(0, 2),
    batch_size=st.sampled_from([1, 3, 10_000]),
    d1=st.integers(1, 3),
    extra_width=st.integers(0, 2),
    global_hidden=st.sampled_from([(), (4,)]),
    seed=st.integers(0, 5),
)
def test_run_training_edge_cases(
    mode, classes, n_clients, sampled, classes_per_client, local_epochs, batch_size, d1,
    extra_width, global_hidden, seed,
):
    # K = 1, no local epochs, one batch holding a whole shard, d1 == d2 and
    # one class per client are all drawn here.
    k = min(sampled, n_clients)
    dataset = gen_synthetic(classes, 3, 12, 0.5, make_rng(seed))
    try:
        plan = split_train_test(partition_class_count(
            dataset, n_clients, ClassCountSpec(min(classes_per_client, classes), seed)
        ))
    except PartitionError:
        assume(False)
    cfg = RunConfig(
        n_clients=n_clients, rounds=2, d1=d1, d2=d1 + extra_width, participation=k / n_clients,
        local_epochs=local_epochs, batch_size=batch_size, mode=mode, seed=seed,
        global_hidden=global_hidden, local_hidden=((5,), ()),
    )
    assert cfg.participants == k
    reports = run_training(cfg, dataset, plan)
    assert repr(reports) == repr(run_training(cfg, dataset, plan))

    widths = (3, *global_hidden, d1)
    shared = sum(a * b + b for a, b in zip(widths, widths[1:])) + d1 * classes
    for report in reports:
        assert all(0.0 <= acc <= 1.0 for acc in report.per_client_accuracy)
        assert 0.0 <= report.avg_test_accuracy <= 1.0
        if local_epochs == 0:
            assert np.isnan(report.mean_train_loss)
        else:
            assert np.isfinite(report.mean_train_loss)
        expected = 0 if mode is Mode.STANDALONE else k * shared
        assert report.uplink_params == report.downlink_params == expected


def test_standalone_never_touches_the_server_model():
    cfg, dataset, plan = small_setup(mode=Mode.STANDALONE, rounds=3)
    server, clients = build_clients(cfg, dataset, plan)
    before = [a.copy() for a in server.global_model.parameter_arrays()]
    reports = run_rounds(server, clients, cfg)
    for got, want in zip(server.global_model.parameter_arrays(), before):
        assert np.array_equal(got, want)
    assert all(r.uplink_params == 0 and r.downlink_params == 0 for r in reports)
    assert server.round == 3


def test_partial_participation_trains_only_sampled_clients():
    cfg, dataset, plan = small_setup(rounds=1, participation=0.5, n_clients=4)
    server, clients = build_clients(cfg, dataset, plan)
    before = [
        parameter_vector(c.global_copy, c.local_model, c.projector) for c in clients
    ]
    run_rounds(server, clients, cfg)
    moved = [
        not np.array_equal(
            before[i], parameter_vector(c.global_copy, c.local_model, c.projector)
        )
        for i, c in enumerate(clients)
    ]
    assert sum(moved) == 2  # K = round(0.5 * 4)


def test_server_state_shares_no_memory_with_clients():
    cfg, dataset, plan = small_setup(rounds=2)
    server, clients = build_clients(cfg, dataset, plan)
    run_rounds(server, clients, cfg)
    for server_array in server.global_model.parameter_arrays():
        for client in clients:
            private = [
                *(_layer_arrays(client.local_model.extractor)),
                client.local_model.header.weight,
                client.projector.weight,
            ]
            for array in private:
                assert not np.shares_memory(server_array, array)
    # Clients are rows of the same population buffers, but no two of them
    # share a single parameter.
    owned = [_client_arrays(client) for client in clients]
    for i, mine in enumerate(owned):
        for theirs in owned[i + 1 :]:
            for a in mine:
                for b in theirs:
                    assert not np.shares_memory(a, b)


def test_writing_one_client_leaves_every_other_client_and_the_server_alone():
    cfg, dataset, plan = small_setup(rounds=1, n_clients=5)
    server, clients = build_clients(cfg, dataset, plan)
    run_rounds(server, clients, cfg)
    before = [[a.copy() for a in _client_arrays(c)] for c in clients]
    server_before = [a.copy() for a in server.global_model.parameter_arrays()]
    for array in _client_arrays(clients[2]):
        array[...] = np.nan
    for ident, client in enumerate(clients):
        if ident != 2:
            assert _same_arrays(_client_arrays(client), before[ident])
    assert _same_arrays(server.global_model.parameter_arrays(), server_before)
    assert all(np.isnan(a).all() for a in _client_arrays(clients[2]))


def test_a_deep_copy_trains_like_the_original_and_shares_no_memory():
    cfg, dataset, plan = small_setup(rounds=1, n_clients=4, participation=0.5)
    server, clients = build_clients(cfg, dataset, plan)
    run_rounds(server, clients, cfg)
    twin_server, twin_clients = copy.deepcopy((server, clients))
    assert run_rounds(twin_server, twin_clients, cfg) == run_rounds(server, clients, cfg)
    mine = [*server.global_model.parameter_arrays(), *(a for c in clients for a in _client_arrays(c))]
    twins = [
        *twin_server.global_model.parameter_arrays(),
        *(a for c in twin_clients for a in _client_arrays(c)),
    ]
    assert _same_arrays(mine, twins)
    assert not any(np.shares_memory(a, b) for a in mine for b in twins)
    lone = copy.deepcopy(clients[1])
    assert not any(np.shares_memory(a, b) for a in _client_arrays(lone) for b in mine)
    args = (2, 8, cfg.lrs, Mode.FEDMRL, LossWeights())
    (_, alone), (_, within) = cohort_update([lone], *args)[0], cohort_update([clients[1]], *args)[0]
    assert repr(alone) == repr(within)
    assert _same_arrays(_client_arrays(lone), _client_arrays(clients[1]))


def test_a_run_leaves_no_reference_cycles():
    # Client and cohort views must not point back at the object that owns
    # their buffers: every round's arrays would then wait for a full
    # collection, and peak memory would grow with the run.
    cfg, dataset, plan = small_setup(rounds=2, n_clients=4, participation=0.5)
    gc.collect()
    gc.disable()
    try:
        run_training(cfg, dataset, plan)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_assigning_a_model_copies_it_into_the_clients_rows():
    cfg, dataset, plan = small_setup(n_clients=2)
    server, clients = build_clients(cfg, dataset, plan)
    client = clients[1]
    memo = client.population.accuracy[InferenceVariant.MIX_LARGE] = np.array([0.5, 1.0])
    view = client.global_copy
    replacement = server.global_model.clone()
    replacement.header.weight[...] = 3.0
    client.global_copy = replacement
    assert client.global_copy is view and (view.header.weight == 3.0).all()
    assert not np.shares_memory(view.header.weight, replacement.header.weight)
    assert memo[0] == 0.5 and np.isnan(memo[1])
    assert not (clients[0].global_copy.header.weight == 3.0).any()
    with pytest.raises(ShapeError):
        client.local_model = clients[0].local_model  # another private architecture
    wide = init_model(ModelConfig(dataset.dim, (12,), cfg.d2, dataset.classes), make_rng(1))
    clients[0].local_model = wide
    assert clients[0].local_model.header.weight.tobytes() == wide.header.weight.tobytes()
    # The same layout over two clients: its extractor's vector is (2, P).
    two = replacement.extractor._over((np.stack([replacement.extractor._flat] * 2),))
    with pytest.raises(ShapeError, match=r"^shapes \[\(2, \d+\), \(\d+,\)\] cannot replace"):
        client.global_copy = models.Net(two, replacement.header)
    assert (view.header.weight == 3.0).all()


def _anchored_mean(uploads):
    """aggregate's anchored weighted mean, one parameter array at a time."""
    ordered = sorted(uploads, key=lambda u: u.client_id)
    total = sum(u.n_samples for u in ordered)
    base = ordered[0].model.parameter_arrays()
    merged = [array.copy() for array in base]
    for upload in ordered[1:]:
        w = upload.n_samples / total
        for acc, anchor, other in zip(merged, base, upload.model.parameter_arrays()):
            acc += w * (other - anchor)
    return merged


@settings(max_examples=60, deadline=None)
@given(
    k=st.integers(1, 12),
    input_dim=st.integers(1, 5),
    hidden=st.lists(st.integers(1, 5), max_size=2),
    rep_dim=st.integers(1, 4),
    classes=st.integers(2, 4),
    data=st.data(),
)
def test_aggregation_is_the_anchored_weighted_mean_of_the_upload_rows(
    k, input_dim, hidden, rep_dim, classes, data
):
    config = ModelConfig(input_dim, tuple(hidden), rep_dim, classes)
    seeds = data.draw(st.lists(st.integers(0, 2**16), min_size=k, max_size=k), label="seeds")
    counts = data.draw(st.lists(st.integers(1, 500), min_size=k, max_size=k), label="counts")
    scales = data.draw(st.lists(st.floats(1e-3, 1e3), min_size=k, max_size=k), label="scales")
    uploads = []
    for ident, (seed, count, scale) in enumerate(zip(seeds, counts, scales)):
        model = init_model(config, make_rng(seed))
        for array in model.parameter_arrays():
            array *= scale
        uploads.append(Upload(ident, count, model))

    def merged(order):
        server = ServerState(global_model=init_model(config, make_rng(0)), rng=make_rng(0))
        aggregate(server, order)
        return server.global_model.parameter_arrays()

    result = merged(uploads)
    assert _same_arrays(result, _anchored_mean(uploads))
    shuffled = data.draw(st.permutations(uploads), label="order")
    assert _same_arrays(merged(list(shuffled)), result)
    assert _same_arrays(merged(uploads[:1]), uploads[0].model.parameter_arrays())
    stacks = [np.stack(arrays) for arrays in zip(*(u.model.parameter_arrays() for u in uploads))]
    for array, stack in zip(result, stacks):
        slack = 4 * np.finfo(np.float64).eps * np.abs(stack).max(axis=0)
        assert (array >= stack.min(axis=0) - slack).all()
        assert (array <= stack.max(axis=0) + slack).all()


@settings(max_examples=60, deadline=None)
@given(k=st.integers(1, 16), p=st.integers(1, 6), data=st.data())
@example(k=12, p=1, data=None)
@example(k=1, p=1, data=None)
def test_the_row_kernel_is_aggregate_bit_for_bit(k, p, data):
    # run_rounds aggregates the trained shared rows with _anchored, and
    # aggregate stacks its upload vectors for the same kernel: both are the
    # anchored weighted mean summed one row after another, bit for bit (a
    # pairwise sum over the rows, as np.add.reduce takes it for one column,
    # is not).  Single-column and 1-upload rows included.
    if data is None:  # the explicit examples: rows of many scales
        rng = make_rng(k * 7 + p)
        rows = rng.normal(size=(k, p)) * 10.0 ** rng.integers(-8, 8, size=(k, 1))
        counts = rng.integers(1, 500, size=k).tolist()
    else:
        scales = data.draw(st.lists(st.integers(-8, 8), min_size=k, max_size=k), label="scales")
        rows = np.array([[v * 10.0**e for v in data.draw(
            st.lists(st.floats(-1, 1), min_size=p, max_size=p), label="row")] for e in scales])
        counts = data.draw(st.lists(st.integers(1, 500), min_size=k, max_size=k), label="counts")
    merged = federation._anchored(rows, counts)
    expected = rows[0].copy()  # the anchored mean, one row at a time
    for row, count in zip(rows[1:], counts[1:]):
        expected += (count / sum(counts)) * (row - rows[0])
    assert merged.tobytes() == expected.tobytes()
    uploads = [Upload(i, n, core.Projector(row[None].copy())) for i, (row, n)
               in enumerate(zip(rows, counts))]
    server = ServerState(global_model=core.Projector(np.zeros((1, p))), rng=make_rng(0))
    aggregate(server, uploads[::-1])
    assert server.global_model.weight.tobytes() == merged.tobytes()


def _client_arrays(client):
    return [
        *client.global_copy.parameter_arrays(),
        *_layer_arrays(client.local_model.extractor),
        client.local_model.header.weight,
        client.projector.weight,
    ]


def _layer_arrays(extractor):
    for layer in extractor.layers:
        yield layer.weight
        if layer.bias is not None:
            yield layer.bias


@settings(max_examples=30, deadline=None)
@given(
    n_clients=st.integers(1, 6),
    rounds=st.integers(1, 4),
    participation=st.floats(0.05, 1.0),
    mode=st.sampled_from(list(Mode)),
    seed=st.integers(0, 3),
    variants=st.lists(st.sampled_from(list(InferenceVariant)), min_size=4, max_size=4),
)
def test_evaluation_reuse_matches_evaluating_every_client(
    n_clients, rounds, participation, mode, seed, variants
):
    cfg, dataset, plan = small_setup(
        mode=mode, seed=seed, n_clients=n_clients, rounds=rounds, participation=participation
    )
    whole = run_training(cfg, dataset, plan)
    # One round per run_rounds call, first with the run's inference variant,
    # then switching variants between calls; the oracle evaluates every
    # client after every round.
    for switching in (False, True):
        server, clients = build_clients(cfg, dataset, plan)
        for r in range(1, rounds + 1):
            inference = variants[r - 1] if switching else cfg.inference
            step = dataclasses.replace(cfg, rounds=1, inference=inference)
            (report,) = run_rounds(server, clients, step)
            variant = InferenceVariant.SINGLE_LARGE if mode is Mode.STANDALONE else inference
            assert report.per_client_accuracy == tuple(evaluate(c, variant) for c in clients)
            if not switching:
                assert dataclasses.replace(report, round=r) == whole[r - 1]


def _count_inference(monkeypatch, clients):
    """A list that gains, at each core._predict call (every evaluation's: a stack on
    the population's workspace), the ids of the clients whose test sets it reads: a
    client's test set is the leading rows of its slice, which padding may lengthen."""
    calls = []

    def counting(plan, x, variant):
        calls.append([c.client_id for t in x for c in clients
                      if c.test_y.size and np.array_equal(c.test_x, t[: c.test_y.size])])
        return core._predict(plan, x, variant)

    monkeypatch.setattr(federation, "_predict", counting)
    return calls


def test_only_clients_whose_models_changed_are_evaluated_again(monkeypatch):
    cfg, dataset, plan = small_setup(n_clients=4, participation=0.25, rounds=1)
    server, clients = build_clients(cfg, dataset, plan)
    calls = _count_inference(monkeypatch, clients)

    def evaluated():
        ids = sorted(i for call in calls for i in call)
        calls.clear()
        return ids

    run_rounds(server, clients, cfg)
    assert len(evaluated()) == 4  # nothing memoized yet
    run_rounds(server, clients, cfg)
    assert len(evaluated()) == 1  # K = 1 participant changed
    switched = dataclasses.replace(cfg, inference=InferenceVariant.MIX_SMALL)
    (report,) = run_rounds(server, clients, switched)
    assert evaluated() == [0, 1, 2, 3]  # a new variant evaluates everyone
    assert report.per_client_accuracy == tuple(
        evaluate(c, InferenceVariant.MIX_SMALL) for c in clients
    )


MIX_LARGE = InferenceVariant.MIX_LARGE


def _write_then_round(writer):
    """Evaluate everyone, write client 2 (not sampled in round 2 of the equal shards
    at participation 0.5), evaluate again: each writer's own forgetting shows."""
    return [("round", [0], MIX_LARGE, "projector"), (writer, [2], MIX_LARGE, "projector"),
            ("round", [0], MIX_LARGE, "projector")]


@settings(max_examples=40, deadline=None)
@given(
    shards=st.sampled_from(["ragged", "equal"]),
    participation=st.sampled_from([0.5, 1.0]),
    steps=st.lists(
        st.tuples(
            st.sampled_from(["broadcast", "cohort", "assign", "round"]),
            st.lists(st.integers(0, 3), min_size=1, max_size=4, unique=True),
            st.sampled_from(list(InferenceVariant)),
            st.sampled_from(["global_copy", "local_model", "projector"]),
        ),
        min_size=1,
        max_size=6,
    ),
)
@example(shards="equal", participation=0.5, steps=_write_then_round("broadcast"))
@example(shards="equal", participation=0.5, steps=_write_then_round("cohort"))
@example(shards="equal", participation=0.5, steps=_write_then_round("assign"))
def test_the_memo_reevaluates_exactly_the_clients_written_since(shards, participation, steps):
    # Writers in any order, each on some of clients 0-3: broadcast,
    # cohort_update, assigning a clone to a model field (of the first
    # listed client) and a one-round run_rounds with some inference
    # variant.  After each round the accuracies are evaluate's, and the
    # clients evaluated (alone or in a stack) are exactly those written
    # since the last evaluation with the round's variant.
    if shards == "ragged":
        cfg, dataset, plan = small_setup(n_clients=4)
        server, clients = build_clients(cfg, dataset, plan)
    else:
        cfg, server, clients = _equal_shards(with_server=True)
    cfg = dataclasses.replace(cfg, rounds=1, participation=participation)
    stale = {variant: set(range(cfg.n_clients)) for variant in InferenceVariant}
    for writer, ids, variant, field in steps:
        written = set(ids)
        if writer == "round":
            written = set(sample_clients(copy.deepcopy(server), cfg.n_clients, cfg.participants))
            with pytest.MonkeyPatch.context() as patch:
                calls = _count_inference(patch, clients)
                (report,) = run_rounds(server, clients, dataclasses.replace(cfg, inference=variant))
            assert sorted(i for call in calls for i in call) == sorted(stale[variant] | written)
            assert report.per_client_accuracy == tuple(evaluate(c, variant) for c in clients)
            stale = {v: set() if v is variant else done | written for v, done in stale.items()}
            continue
        if writer == "broadcast":
            broadcast(server, [clients[i] for i in ids])
        elif writer == "cohort":
            cohort_update([clients[i] for i in ids], 1, 8, cfg.lrs, Mode.FEDMRL, LossWeights())
        else:
            written = {ids[0]}
            setattr(clients[ids[0]], field, getattr(clients[ids[0]], field).clone())
        for done in stale.values():
            done |= written


def test_broadcast_and_client_update_clear_the_accuracy_memo():
    # run_rounds always trains whom it broadcasts to, so only this test
    # sees broadcast's own clearing.
    cfg, dataset, plan = small_setup(n_clients=2, rounds=1)
    server, clients = build_clients(cfg, dataset, plan)
    run_rounds(server, clients, cfg)
    memo = clients[0].population.accuracy[InferenceVariant.MIX_LARGE]
    assert not np.isnan(memo).any()
    broadcast(server, clients[:1])
    assert np.isnan(memo).tolist() == [True, False]
    cohort_update([clients[1]], 1, 8, cfg.lrs, Mode.FEDMRL, LossWeights())
    assert np.isnan(memo).all()


def test_assigning_a_test_set_forgets_the_clients_accuracy():
    # Client 9 is not sampled in the second round, so only the assignment can
    # make that round evaluate it again.
    config = override(load_config(QUICKSTART), participation=0.1, rounds=1)
    dataset = load_dataset(config)
    cfg = build_run_config(config)
    server, clients = build_clients(cfg, dataset, build_partition(config, dataset))
    run_rounds(server, clients, cfg)
    memo = clients[0].population.accuracy[cfg.inference]
    assert not np.isnan(memo).any()
    clients[9].test_x = clients[9].test_x[:3]
    assert np.flatnonzero(np.isnan(memo)).tolist() == [9]
    memo[9] = 0.0  # known again, so that the next assignment's forgetting shows
    clients[9].test_y = clients[9].test_y[:3]
    assert np.flatnonzero(np.isnan(memo)).tolist() == [9]
    (report,) = run_rounds(server, clients, cfg)
    assert report.per_client_accuracy[9] == evaluate(clients[9], cfg.inference)


def test_a_failed_cohort_leaves_its_clients_accuracies_memoized():
    cfg, server, clients = _equal_shards(with_server=True)
    run_rounds(server, clients, dataclasses.replace(cfg, rounds=1))
    memo = clients[0].population.accuracy[cfg.inference]
    before = memo.copy()
    clients[3].train_x = np.full_like(clients[3].train_x, np.nan)
    with np.errstate(all="ignore"), pytest.raises(NonFiniteError, match="^client 3: "):
        cohort_update(clients[:5], 1, 8, cfg.lrs, Mode.FEDMRL, LossWeights())
    assert memo.tobytes() == before.tobytes() and not np.isnan(memo).any()


def _fresh_accuracies(clients, variant):
    """Every client's accuracy on a deep copy of clients whose memo is cleared: each
    one evaluated from its population's rows, in a workspace of the copy's own."""
    twins = copy.deepcopy(clients)
    twins[0].population.accuracy.clear()
    return federation._accuracies(twins[0].population, twins, variant)


def _copying_gathers(monkeypatch):
    """A list that gains, at each _Workspace.gather, what it copies: "all" rows, only
    the "shared" rows, when the workspace holds the rest of its cohort's rows as the
    population has them (local_synced), or "none", when it holds all of them (synced)."""
    copied, gather = [], federation._Workspace.gather

    def counting(workspace):
        held = workspace.local_synced
        copied.append("none" if held and workspace.synced else "shared" if held else "all")
        return gather(workspace)

    monkeypatch.setattr(federation._Workspace, "gather", counting)
    return copied


@pytest.mark.parametrize("mode", list(Mode))
def test_a_round_gathers_once_and_a_repeated_cohort_is_planned_once(monkeypatch, mode):
    # Counts: every quickstart round trains all ten clients, so evaluation
    # predicts them where training left them, without a second copy, and
    # the cohort's schedule (_steps) is built in the first round only.  A
    # fedmrl or no_mrl round's broadcast writes the shared rows alone, so
    # its cohort copies only those again; a standalone run writes none but
    # its own, so only its first gather copies.
    cfg, server, clients = _equal_shards(with_server=True)
    cfg = dataclasses.replace(cfg, mode=mode, rounds=3)
    copied, schedules, steps = _copying_gathers(monkeypatch), [], federation._steps
    monkeypatch.setattr(federation, "_steps", lambda *args: schedules.append(args) or steps(*args))
    reports = run_rounds(server, clients, cfg)
    assert len(schedules) == 1
    refresh = "none" if mode is Mode.STANDALONE else "shared"
    assert copied == ["all", "none", refresh, "none", refresh, "none"]
    variant = InferenceVariant.SINGLE_LARGE if mode is Mode.STANDALONE else cfg.inference
    assert reports[-1].per_client_accuracy == _fresh_accuracies(clients, variant)


@pytest.mark.parametrize("write", ["assignment", "in place"])
@pytest.mark.parametrize("field", ["global_copy", "local_model", "projector"])
def test_a_cohort_written_after_its_scatter_is_evaluated_from_the_new_rows(write, field):
    # After cohort_update the workspace holds the cohort's rows.  A write into
    # every one of them leaves the stale clients exactly the cohort, so only
    # the write's forgetting that record keeps evaluation off the old rows.
    cfg, clients = _equal_shards()
    cohort_update(clients, 1, 8, cfg.lrs, Mode.FEDMRL, LossWeights())
    for client in clients:
        model = getattr(client, field) if write == "in place" else getattr(client, field).clone()
        for array in model._segments():
            array *= -1.0
        if write == "assignment":
            setattr(client, field, model)
    if write == "in place":
        clients[0].population.wrote([c.client_id for c in clients])
    for variant in InferenceVariant:
        assert (federation._accuracies(clients[0].population, clients, variant)
                == _fresh_accuracies(clients, variant))


@pytest.mark.parametrize("mode", list(Mode))
@pytest.mark.parametrize("sent", ["outside the held cohort", "to the held cohort"])
def test_a_broadcast_then_a_gather_of_the_held_cohort_trains_like_a_fresh_population(
    monkeypatch, sent, mode
):
    # The workspace holds the first five clients since their scatter.  A
    # broadcast to the other five, or to those five, writes shared rows
    # only, and the next cohort of the first five refreshes the shared rows
    # alone: it trains, uploads and leaves every row as a deep copy taken
    # before it does, which gathers everything afresh.
    cfg, server, clients = _equal_shards(with_server=True)
    args = (1, 8, cfg.lrs, mode, LossWeights())
    held = clients[:5]
    cohort_update(held, *args)
    broadcast(server, clients[5:] if sent == "outside the held cohort" else held)
    copied = _copying_gathers(monkeypatch)
    twins = copy.deepcopy(clients)
    results, expected = cohort_update(held, *args), cohort_update(twins[:5], *args)
    assert copied == ["shared", "all"]
    assert [means for _, means in results] == [means for _, means in expected]
    for (upload, _), (twin, _) in zip(results, expected):
        assert (upload is None) == (twin is None)
        if upload is not None:
            assert _same_arrays(upload.model._segments(), twin.model._segments())
    assert _same_arrays(_population_arrays(clients[0].population),
                        _population_arrays(twins[0].population))


def test_a_failed_cohort_is_evaluated_from_the_population_rows():
    # A cohort of one trains, so the workspace holds its rows; the same cohort
    # then diverges, which leaves non-finite half-trained rows in the
    # workspace and the client stale.  Its evaluation must gather it again.
    cfg, dataset, plan = small_setup()
    _, clients = build_clients(cfg, dataset, plan)
    for variant in InferenceVariant:
        federation._accuracies(clients[0].population, clients, variant)
    client = clients[2]
    cohort_update([client], 1, 8, cfg.lrs, Mode.FEDMRL, LossWeights())
    client.train_x = 1e3 * client.train_x
    with np.errstate(all="ignore"), pytest.raises(NonFiniteError, match="^client 2: "):
        cohort_update([client], 1, 8, LearningRates(0.0, 1e308, 0.0), Mode.FEDMRL, LossWeights())
    for variant in InferenceVariant:
        assert (federation._accuracies(clients[0].population, clients, variant)
                == _fresh_accuracies(clients, variant))


def test_one_client_of_a_trained_cohort_is_evaluated_like_a_fresh_copy():
    # metrics.evaluate of one client is a subset of the cohort the workspace
    # holds; it and the whole cohort after it evaluate as a fresh copy does.
    cfg, clients = _equal_shards()
    cohort_update(clients, 1, 8, cfg.lrs, Mode.FEDMRL, LossWeights())
    twins = copy.deepcopy(clients)
    for variant in InferenceVariant:
        assert evaluate(clients[3], variant) == evaluate(twins[3], variant)
        assert (federation._accuracies(clients[0].population, clients, variant)
                == _fresh_accuracies(clients, variant))


def test_a_held_client_given_labels_out_of_range_fails_the_next_round():
    # Every round trains the ten clients the workspace holds, from training sets
    # it keeps while none is assigned: an assignment must bring back the check.
    cfg, server, clients = _equal_shards(with_server=True)
    cfg = dataclasses.replace(cfg, rounds=1)
    run_rounds(server, clients, cfg)
    clients[3].train_y = clients[3].train_y + 10
    with pytest.raises(ValueError, match=r"^client 3 has labels outside \[0, 10\)$"):
        run_rounds(server, clients, cfg)


@pytest.mark.parametrize("mode", list(Mode))
def test_a_held_client_given_a_new_test_set_reports_its_accuracy(mode):
    # The workspace keeps the held cohort's stacked test sets while none is
    # assigned.  A shorter set with other labels changes both the accuracy and
    # the padding, and the next round must evaluate it as a fresh copy does.
    cfg, server, clients = _equal_shards(with_server=True)
    cfg = dataclasses.replace(cfg, mode=mode, rounds=1)
    run_rounds(server, clients, cfg)
    client = clients[3]
    client.test_x, client.test_y = client.test_x[:-3], (client.test_y[:-3] + 1) % 10
    (report,) = run_rounds(server, clients, cfg)
    variant = InferenceVariant.SINGLE_LARGE if mode is Mode.STANDALONE else cfg.inference
    assert report.per_client_accuracy == _fresh_accuracies(clients, variant)


@pytest.mark.parametrize("mode", list(Mode))
@pytest.mark.parametrize("variant", list(InferenceVariant))
def test_a_trained_cohort_is_predicted_in_place_for_every_variant(monkeypatch, variant, mode):
    # A gather copies every buffer in every mode, so whatever the variant
    # reads, evaluation predicts the cohort where training left it.
    cfg, clients = _equal_shards()
    cohort_update(clients, 1, 8, cfg.lrs, mode, LossWeights())
    copied = _copying_gathers(monkeypatch)
    accuracies = federation._accuracies(clients[0].population, clients, variant)
    assert copied == ["none"]
    assert accuracies == _fresh_accuracies(clients, variant)


def test_two_standalone_cohorts_in_a_row_copy_once_and_train_like_a_fresh_population(
    monkeypatch
):
    # The second cohort finds its rows in the workspace as the first one's
    # scatter left them, so it trains there without copying; a deep copy
    # taken in between has no workspace and gathers them afresh.
    cfg, clients = _equal_shards()
    args = (2, 8, cfg.lrs, Mode.STANDALONE, LossWeights())
    copied = _copying_gathers(monkeypatch)
    cohort_update(clients, *args)
    twins = copy.deepcopy(clients)
    results, expected = cohort_update(clients, *args), cohort_update(twins, *args)
    assert copied == ["all", "none", "all"]
    assert [means for _, means in results] == [means for _, means in expected]
    assert _same_arrays(_population_arrays(clients[0].population),
                        _population_arrays(twins[0].population))
    for a, b in zip(clients, twins):
        assert a.rng.bit_generator.state == b.rng.bit_generator.state


@pytest.mark.parametrize("mode", list(Mode))
def test_the_held_cohort_listed_in_another_order_returns_its_results_in_that_order(
    monkeypatch, mode
):
    # A listing in another order is another record of the same slots: it keeps
    # the copies and the sync state, so neither its training nor its evaluation
    # copies a row, and each returns its results in the order listed, bit for bit
    # those of a fresh copy that lists the clients in id order.
    cfg, clients = _equal_shards()
    args = (1, 8, cfg.lrs, mode, LossWeights())
    cohort_update(clients, *args)
    twins, copied = copy.deepcopy(clients), _copying_gathers(monkeypatch)
    listed = [clients[i] for i in (3, 0, 9, 5, 1, 8, 2, 7, 4, 6)]
    results = cohort_update(listed, *args)
    workspace, variant = clients[0].population._workspace, InferenceVariant.MIX_LARGE
    accuracies = workspace._predicted(clients[0].population, listed, variant)
    assert copied == ["none", "none"]
    expected = cohort_update(twins, *args)
    assert [repr(means) for _, means in results] == [
        repr(expected[c.client_id][1]) for c in listed]
    for (upload, _), c in zip(results, listed):
        assert (upload is None) == (mode is Mode.STANDALONE)
        if upload is not None:
            twin = expected[c.client_id][0]
            assert upload.client_id == twin.client_id
            assert _same_arrays(upload.model._segments(), twin.model._segments())
    fresh = twins[0].population._room()._predicted(twins[0].population, twins, variant)
    assert accuracies == [fresh[c.client_id] for c in listed]


def test_a_standalone_cohort_writes_no_shared_or_projector_row():
    # A standalone step trains the private model alone, so the scatter writes
    # back the private blocks and headers only: read-only shared and projector
    # rows are gathered, never written.
    cfg, clients = _equal_shards()
    population = clients[0].population
    shared, projectors = population.shared.copy(), population.projectors.copy()
    population.shared.flags.writeable = population.projectors.flags.writeable = False
    cohort_update(clients, 1, 8, cfg.lrs, Mode.STANDALONE, LossWeights())
    assert population.shared.tobytes() == shared.tobytes()
    assert population.projectors.tobytes() == projectors.tobytes()


@pytest.mark.parametrize("mode", list(Mode))
@pytest.mark.parametrize("size", [1, 10])
def test_a_step_that_diverges_after_a_skipped_gather_changes_no_row(monkeypatch, size, mode):
    # The diverging cohort is the one the workspace holds since its scatter,
    # so it trains without a copy and leaves non-finite rows behind (a
    # cohort of one is not replayed, so the room keeps them).  No population
    # row changes, and the next cohort copies its rows again and trains as a
    # fresh population does.
    cfg, clients = _equal_shards()
    clients = clients[:size]
    cohort_update(clients, 1, 8, cfg.lrs, mode, LossWeights())
    twins, copied = copy.deepcopy(clients), _copying_gathers(monkeypatch)
    population = clients[0].population
    before, rngs = [a.copy() for a in _population_arrays(population)], [
        copy.deepcopy(c.rng) for c in clients]
    for client in clients:
        client.train_x = 1e3 * client.train_x  # large gradients, finite losses
    with np.errstate(all="ignore"), pytest.raises(NonFiniteError, match="^client 0: "):
        cohort_update(clients, 1, 8, LearningRates.uniform(1e308), mode, LossWeights())
    assert copied[0] == "none"
    assert _same_arrays(_population_arrays(population), before)
    for client, twin, rng in zip(clients, twins, rngs):
        client.train_x, client.rng = twin.train_x, rng
    copied.clear()
    args = (2, 8, cfg.lrs, mode, LossWeights())
    results, expected = cohort_update(clients, *args), cohort_update(twins, *args)
    assert copied == ["all", "all"]
    assert [means for _, means in results] == [means for _, means in expected]
    assert _same_arrays(_population_arrays(population), _population_arrays(twins[0].population))


# Recorded before the training step dropped its per-matmul checks, on
# numpy 2.4.6 with OpenBLAS 0.3.31: a speed-up that changes a single bit of
# the training arithmetic fails here rather than only in a benchmark.  The
# fedmrl and no_mrl losses were re-pinned once a short final batch after a
# full one was padded to the batch size: they moved in the 16th digit
# (...405 to ...407 and ...426 to ...425), and every accuracy held.
GOLDEN_FINAL_ROUND = {
    Mode.FEDMRL: ("0.7305555555555556", "0.9795937257029407"),
    Mode.STANDALONE: ("0.8722222222222222", "0.5190659693445735"),
    Mode.NO_MRL: ("0.7305555555555556", "0.4304698100927425"),
}


@pytest.mark.parametrize("mode", list(Mode))
def test_final_round_reproduces_golden_values(mode):
    dataset = gen_synthetic(5, 6, 40, 0.8, make_rng(11))
    plan = split_train_test(partition_dirichlet(dataset, 6, DirichletSpec(alpha=1.0, seed=3)))
    cfg = RunConfig(
        n_clients=6, rounds=6, d1=3, d2=8, participation=0.5, mode=mode, seed=3,
        global_hidden=(8,), local_hidden=((12,), (10,), (9,)),
    )
    final = run_training(cfg, dataset, plan)[-1]
    assert (repr(final.avg_test_accuracy), repr(final.mean_train_loss)) == GOLDEN_FINAL_ROUND[mode]


# Where each diverging quickstart run failed when clients trained one after
# another in ascending id order: (error message, round, step index of the
# failing client in that round, from 0; None when the failure comes in the
# evaluation after the round's training).  Recorded on numpy 2.4.6 with
# OpenBLAS 0.3.31.
DIVERGING_QUICKSTART = {
    50.0: ("client 1: non-finite loss (nan)", 1, 5),
    5.0: ("client 6: non-finite logits", 1, None),
    2.0: ("client 6: non-finite loss (nan)", 2, 1),
}


def _count_steps(monkeypatch):
    """A list that gains an entry at each training step's call of its plan (_train)."""
    steps = []
    real = federation._train

    def counting(*args, **kwargs):
        steps.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(federation, "_train", counting)
    return steps


@pytest.mark.parametrize("lr", sorted(DIVERGING_QUICKSTART))
def test_diverging_quickstart_stops_at_the_same_step(monkeypatch, lr):
    # Lockstep training must fail in the same round with the same error, and
    # replaying that round client by client must meet it at the same step.
    message, fail_round, fail_step = DIVERGING_QUICKSTART[lr]
    config = override(load_config(QUICKSTART), lr=lr)
    dataset = load_dataset(config)
    cfg = build_run_config(config)
    server, clients = build_clients(cfg, dataset, build_partition(config, dataset))
    one_round = dataclasses.replace(cfg, rounds=1)
    with np.errstate(over="ignore", invalid="ignore"):
        run_rounds(server, clients, dataclasses.replace(cfg, rounds=fail_round - 1))
        replay_server, replay_clients = copy.deepcopy((server, clients))
        with pytest.raises(NonFiniteError) as lockstep:
            run_rounds(server, clients, one_round)
        assert str(lockstep.value) == f"round {fail_round}: {message}"

        steps = _count_steps(monkeypatch)
        picked = sample_clients(replay_server, cfg.n_clients, cfg.participants)
        broadcast(replay_server, [replay_clients[i] for i in picked])
        uploads = []
        for ident in picked:
            steps.clear()
            try:
                upload, _ = cohort_update(
                    [replay_clients[ident]], cfg.local_epochs, cfg.batch_size, cfg.lrs,
                    cfg.mode, cfg.loss_weights,
                )[0]
            except NonFiniteError as exc:
                assert (str(exc), len(steps) - 1) == (message, fail_step)
                return
            uploads.append(upload)
        assert fail_step is None
        aggregate(replay_server, uploads)
        with pytest.raises(NonFiniteError) as evaluation:
            for client in replay_clients:
                evaluate(client, cfg.inference)
        assert str(evaluation.value) == message


def train_unstacked(client, *args):
    """A cohort of one as one 2-D step per batch of the client's models, no client
    axis anywhere."""
    models = client.global_copy, client.local_model, client.projector
    epoch_means, (client.global_copy, client.local_model, client.projector) = _steps(
        client, models, *args)
    return epoch_means


def train_padded(client, *args):
    """train_unstacked on the client's padded model (padded_models), whose entries
    outside the client's own then hold exactly 0.0: the step a cohort takes.  The
    client's rows are set to the result's."""
    population = client.population
    positions = population._room().maps[population.place[client.client_id][0]]
    epoch_means, (g, f, p) = _steps(client, padded_models(client), *args)
    pad = np.delete(f.extractor._flat, positions)
    assert pad.tobytes() == np.zeros_like(pad).tobytes()
    private = (f.extractor._flat[positions], f.header.weight.reshape(-1))
    client.global_copy, client.projector = g, p
    client.local_model = client.local_model._over(private)
    return epoch_means


def _steps(client, models, epochs, batch_size, lrs, mode, weights):
    """(epoch means, models) of training models on the client's shuffles, one public
    step per batch."""
    g, f, p = models
    epoch_means = []
    for _ in range(epochs):
        order = client.rng.permutation(client.n_samples)
        losses = []
        for start in range(0, client.n_samples, batch_size):
            idx = order[start : start + batch_size]
            xb, yb = client.train_x[idx], client.train_y[idx]
            if mode is Mode.STANDALONE:
                loss, f = train_step_single(f, xb, yb, lrs.local_model)
            elif mode is Mode.NO_MRL:
                loss, _, (g, f, p) = train_step(g, f, p, xb, yb, LossWeights(0.0, 1.0), lrs)
            else:
                loss, _, (g, f, p) = train_step(g, f, p, xb, yb, weights, lrs)
            losses.append(loss)
        epoch_means.append(float(np.mean(losses)))
    return epoch_means, (g, f, p)


def _same_arrays(a, b):
    return len(a) == len(b) and all(
        x.shape == y.shape and x.tobytes() == y.tobytes() for x, y in zip(a, b)
    )


def _close_arrays(a, b):
    """a equals b to 1e-12 of each array's scale: a cohort, which pads a short final
    batch after a full one, against the public step on the unpadded batch.  An entry
    is held to 1e-12 relative, or to 1e-12 of the largest entry of its expected array
    if that is looser: an entry that cancels to near 0 keeps the rounding of the
    larger terms it came from."""
    assert len(a) == len(b)
    for x, y in zip(a, b):
        np.testing.assert_allclose(x, y, rtol=1e-12, atol=1e-12 * np.abs(y).max(initial=0.0))


@settings(max_examples=60, deadline=None)
@given(
    n_clients=st.integers(1, 6),
    alpha=st.sampled_from([0.3, 1.0, 10.0]),
    epochs=st.integers(0, 2),
    batch_size=st.integers(1, 12),
    mode=st.sampled_from(list(Mode)),
    local_hidden=st.sampled_from(
        [((12,), (10,), (9,)), ((8,), (8,), (8,)), ((10,),), ((9, 7), (9,), (9, 7), (6,)),
         ((9, 7), (), (9,), (6,))]
    ),
    widths=st.sampled_from([(3, 6), (5, 5), (1, 4)]),
    data_seed=st.integers(0, 50),
    participants=st.data(),
)
def test_lockstep_cohort_equals_each_client_alone(
    n_clients, alpha, epochs, batch_size, mode, local_hidden, widths, data_seed, participants
):
    # Ragged Dirichlet shards, some smaller than a batch; repeated and
    # distinct private stacks; d1 == d2 among the widths.  A cohort is each
    # cohort of one bit for bit, and the public step on the client's padded
    # model, which takes a short final batch unpadded, to 1e-12 relative.
    dataset = gen_synthetic(4, 5, 25, 0.8, make_rng(data_seed))
    try:
        plan = split_train_test(
            partition_dirichlet(dataset, n_clients, DirichletSpec(alpha=alpha, seed=data_seed))
        )
    except PartitionError:
        assume(False)
    cfg = RunConfig(
        n_clients=n_clients, rounds=1, d1=widths[0], d2=widths[1], mode=mode, seed=data_seed,
        lr_global=0.05, lr_local=0.04, lr_projector=0.03, m_global=0.7, m_local=1.3,
        global_hidden=(6,), local_hidden=local_hidden,
    )
    chosen = participants.draw(
        st.lists(st.integers(0, n_clients - 1), min_size=1, unique=True), label="participants"
    )
    _, lockstep = build_clients(cfg, dataset, plan)
    _, alone = build_clients(cfg, dataset, plan)
    _, unstacked = build_clients(cfg, dataset, plan)
    args = (epochs, batch_size, cfg.lrs, mode, cfg.loss_weights)

    results = cohort_update([lockstep[i] for i in chosen], *args)
    for ident, (upload, epoch_means) in sorted(zip(chosen, results), key=lambda r: r[0]):
        expected_upload, expected_means = cohort_update([alone[ident]], *args)[0]
        assert repr(epoch_means) == repr(expected_means)
        np.testing.assert_allclose(
            epoch_means, train_padded(unstacked[ident], *args), rtol=1e-12, atol=0)
        if mode is Mode.STANDALONE:
            assert upload is None and expected_upload is None
        else:
            assert (upload.client_id, upload.n_samples) == (
                expected_upload.client_id, expected_upload.n_samples
            )
            assert _same_arrays(
                upload.model.parameter_arrays(), expected_upload.model.parameter_arrays()
            )
    for a, b, c in zip(lockstep, alone, unstacked):
        assert _same_arrays(_client_arrays(a), _client_arrays(b))
        _close_arrays(_client_arrays(a), _client_arrays(c))
        assert a.rng.bit_generator.state == b.rng.bit_generator.state == c.rng.bit_generator.state


@settings(max_examples=40, deadline=None)
@given(
    local_hidden=st.lists(
        st.lists(st.integers(1, 9), max_size=2).map(tuple), min_size=1, max_size=4
    ).map(tuple),
    n_clients=st.integers(1, 6),
    epochs=st.integers(1, 2),
    batch_size=st.integers(1, 9),
    mode=st.sampled_from(list(Mode)),
    data_seed=st.integers(0, 30),
    participants=st.data(),
)
def test_a_padded_cohort_steps_each_client_as_its_padded_model(
    local_hidden, n_clients, epochs, batch_size, mode, data_seed, participants
):
    # Mixed widths and depths (0-2 hidden layers): after the cohort every pad
    # entry of the workspace's rows is exactly 0.0 (and of their gradients
    # 0), and each client's losses and rows are those of the public step on
    # its padded model, and its losses the configured model's, to 1e-12
    # relative (the public step takes a short final batch unpadded), its rows
    # to 1e-12 of each array's scale (_close_arrays).
    chosen = participants.draw(
        st.lists(st.integers(0, n_clients - 1), min_size=1, unique=True), label="participants"
    )
    _padded_cohort_steps(local_hidden, n_clients, epochs, batch_size, mode, data_seed, chosen)


def test_a_padded_cohort_holds_an_entry_that_cancels_near_0_to_its_array_scale():
    # --hypothesis-seed=19 drew this case: after two epochs one entry of client
    # 0's rows cancels to about -3.66e-6, 6.1e-18 (1.66e-12 relative) off the
    # public step's, in an array whose largest entry is about 0.8.
    _padded_cohort_steps(((5,),), 2, 2, 8, Mode.FEDMRL, 23, [0])


def _padded_cohort_steps(local_hidden, n_clients, epochs, batch_size, mode, data_seed, chosen):
    """The checks of test_a_padded_cohort_steps_each_client_as_its_padded_model on
    participants chosen of a Dirichlet partition drawn on data_seed."""
    dataset = gen_synthetic(4, 5, 25, 0.8, make_rng(data_seed))
    try:
        plan = split_train_test(
            partition_dirichlet(dataset, n_clients, DirichletSpec(alpha=1.0, seed=data_seed))
        )
    except PartitionError:
        assume(False)
    cfg = RunConfig(
        n_clients=n_clients, rounds=1, d1=3, d2=6, mode=mode, seed=data_seed,
        global_hidden=(6,), local_hidden=local_hidden,
    )
    (_, clients), (_, padded), (_, configured) = (build_clients(cfg, dataset, plan) for _ in "abc")
    args = (epochs, batch_size, cfg.lrs, mode, cfg.loss_weights)
    results = cohort_update([clients[i] for i in chosen], *args)

    workspace = clients[0].population._workspace
    for depth in set(workspace.cohort.depths):
        block = workspace.buffers[depth][:, : len(chosen)]
        filled = np.zeros(block.shape[1:], dtype=bool)
        # The first copies are the slots' own, in slot order: each slot's private row
        # through its architecture's positions in its depth's block.
        for slot, (_, _, rows, at) in enumerate(workspace.cohort.copies[: len(chosen)]):
            if np.shares_memory(rows, block):
                filled[slot, at] = True
        pad = block[0][~filled]
        assert pad.tobytes() == np.zeros_like(pad).tobytes()
        assert not block[1][~filled].any()

    for ident, (_, epoch_means) in zip(chosen, results):
        np.testing.assert_allclose(
            epoch_means, train_padded(padded[ident], *args), rtol=1e-12, atol=0)
        alone = train_unstacked(configured[ident], *args)
        np.testing.assert_allclose(epoch_means, alone, rtol=1e-12, atol=0)
    for a, b in zip(clients, padded):
        _close_arrays(_client_arrays(a), _client_arrays(b))


def _step_of_failure(client, epochs, lrs, steps):
    """Index of the step at which a cohort of one fails on a copy of client, and the error."""
    steps.clear()
    with pytest.raises(NonFiniteError) as failure:
        cohort_update([copy.deepcopy(client)], epochs, 8, lrs, Mode.FEDMRL, LossWeights())
    return len(steps) - 1, str(failure.value)


def test_cohort_raises_the_error_of_the_lowest_id_client_that_fails(monkeypatch):
    cfg, dataset, plan = small_setup(n_clients=3)
    _, clients = build_clients(cfg, dataset, plan)
    # A NaN sample fails the step whose batch holds it: client 1's sits in
    # the last batch of its first epoch, client 2's samples are all NaN.
    order = copy.deepcopy(clients[1].rng).permutation(clients[1].n_samples)
    clients[1].train_x = clients[1].train_x.copy()
    clients[1].train_x[order[-1]] = np.nan
    clients[2].train_x = np.full_like(clients[2].train_x, np.nan)
    lrs, epochs = cfg.lrs, 2
    steps = _count_steps(monkeypatch)
    with np.errstate(all="ignore"):
        step_1, error_1 = _step_of_failure(clients[1], epochs, lrs, steps)
        step_2, _ = _step_of_failure(clients[2], epochs, lrs, steps)
        assert step_2 == 0 < step_1 and error_1.startswith("client 1: ")
        alone = copy.deepcopy(clients[0])
        cohort_update([alone], epochs, 8, lrs, Mode.FEDMRL, LossWeights())
        before = [[a.copy() for a in _client_arrays(c)] for c in clients]
        with pytest.raises(NonFiniteError) as failure:
            cohort_update(clients, epochs, 8, lrs, Mode.FEDMRL, LossWeights())
    assert str(failure.value) == error_1
    # Client 0 trained to the end, as it would before client 1 in sequence,
    # and a failed cohort leaves every client's models as they were.
    assert clients[0].rng.bit_generator.state == alone.rng.bit_generator.state
    for client, arrays in zip(clients, before):
        assert _same_arrays(_client_arrays(client), arrays)


@pytest.mark.parametrize("mode", list(Mode))
def test_a_failed_cohort_leaves_every_rng_where_cohorts_of_one_stop(mode):
    # Client 1's samples are all NaN.  In sequence, client 0 trains to the
    # end, client 1 draws its first shuffle and fails, and clients 2 and 3
    # never start.
    cfg, dataset, plan = small_setup(n_clients=4)
    _, clients = build_clients(cfg, dataset, plan)
    clients[1].train_x = np.full_like(clients[1].train_x, np.nan)
    sequence = copy.deepcopy(clients)
    start = [c.rng.bit_generator.state for c in clients]
    args = (2, 8, cfg.lrs, mode, cfg.loss_weights)
    with np.errstate(all="ignore"):
        with pytest.raises(NonFiniteError) as expected:
            for client in sequence:
                cohort_update([client], *args)
        with pytest.raises(NonFiniteError) as failure:
            cohort_update(clients, *args)
    assert str(failure.value) == str(expected.value) == "client 1: non-finite loss (nan)"
    states = [c.rng.bit_generator.state for c in clients]
    assert states == [c.rng.bit_generator.state for c in sequence]
    assert [s == s0 for s, s0 in zip(states, start)] == [False, False, True, True]


# The slot order of a quickstart cohort: equal shards, whose five architectures
# share one depth, sorted by id.
QUICKSTART_SLOTS = list(range(10))


def _equal_shards(with_server=False):
    config = load_config(QUICKSTART)
    dataset = load_dataset(config)
    cfg = build_run_config(config)
    server, clients = build_clients(cfg, dataset, build_partition(config, dataset))
    assert len({c.n_samples for c in clients}) == 1
    return (cfg, server, clients) if with_server else (cfg, clients)


@pytest.mark.parametrize("cohort", ["whole population", "first five"])
def test_uploads_alias_no_client(cohort):
    cfg, clients = _equal_shards()
    members = clients if cohort == "whole population" else clients[:5]
    results = cohort_update(members, 1, 8, cfg.lrs, Mode.FEDMRL, LossWeights())
    for (upload, _), client in zip(results, members):
        assert _same_arrays(upload.model.parameter_arrays(), client.global_copy.parameter_arrays())
        for array in upload.model.parameter_arrays():
            assert not any(np.shares_memory(array, b) for c in clients for b in _client_arrays(c))


@pytest.mark.parametrize("cohort", ["whole population", "first five"])
def test_a_failed_cohort_of_equal_shards_changes_no_client(cohort):
    # The whole population's cohort gathers every row of every buffer.
    cfg, clients = _equal_shards()
    clients[3].train_x = np.full_like(clients[3].train_x, np.nan)
    members = clients if cohort == "whole population" else clients[:5]
    before = [[a.copy() for a in _client_arrays(c)] for c in clients]
    with np.errstate(all="ignore"), pytest.raises(NonFiniteError, match="^client 3: "):
        cohort_update(members, 2, 8, cfg.lrs, Mode.FEDMRL, LossWeights())
    for client, arrays in zip(clients, before):
        assert _same_arrays(_client_arrays(client), arrays)


def test_cohort_ranks_a_client_without_training_samples_by_its_id():
    cfg, dataset, plan = small_setup(n_clients=3)
    _, clients = build_clients(cfg, dataset, plan)
    clients[1].train_x, clients[1].train_y = clients[1].train_x[:0], clients[1].train_y[:0]
    clients[2].train_x = np.full_like(clients[2].train_x, np.nan)
    with np.errstate(all="ignore"):
        with pytest.raises(ValueError, match=r"^client 1 has no training samples$"):
            cohort_update(clients, 1, 8, cfg.lrs, Mode.FEDMRL, LossWeights())
        clients[0].train_x = np.full_like(clients[0].train_x, np.nan)
        with pytest.raises(NonFiniteError, match=r"^client 0: non-finite loss \(nan\)$"):
            cohort_update(clients, 1, 8, cfg.lrs, Mode.FEDMRL, LossWeights())


@pytest.mark.parametrize(
    "field,edit,shapes",
    [
        ("train_x", lambda a: a[:5], "train_x of shape (5, 16) and train_y of shape (48,)"),
        ("train_x", lambda a: np.concatenate([a, a]),
         "train_x of shape (96, 16) and train_y of shape (48,)"),
        ("train_x", lambda a: np.concatenate([a, a], axis=1),
         "train_x of shape (48, 32) and train_y of shape (48,)"),
        ("train_x", np.ravel, "train_x of shape (768,) and train_y of shape (48,)"),
        ("train_y", lambda a: a[:, None], "train_x of shape (48, 16) and train_y of shape (48, 1)"),
        ("test_x", lambda a: np.concatenate([a, a], axis=1),
         "test_x of shape (12, 32) and test_y of shape (12,)"),
        ("test_x", lambda a: a[:2], "test_x of shape (2, 16) and test_y of shape (12,)"),
        ("test_y", lambda a: a[:, None], "test_x of shape (12, 16) and test_y of shape (12, 1)"),
    ],
    ids=["5 train rows", "96 train rows", "32 train columns", "1-D train_x", "2-D train_y",
         "32 test columns", "2 test rows", "2-D test_y"],
)
def test_a_client_whose_data_does_not_fit_raises_what_the_ascending_loop_raises(
    field, edit, shapes
):
    # Clients 3 and 5 hold data that fits neither their labels nor the
    # models' input width.  The stack fails before it draws or predicts
    # anything, and its replay raises client 3's error, naming it, with every
    # rng where cohorts of one in ascending id order leave it and no row
    # changed.
    cfg, clients = _equal_shards()
    for ident in (5, 3):
        setattr(clients[ident], field, edit(getattr(clients[ident], field)))
    message = f"client 3 has {shapes}, not (n, 16) and (n,)"
    sequence = copy.deepcopy(clients)
    before = [[a.copy() for a in _client_arrays(c)] for c in clients]
    if field.startswith("train"):
        args = (1, 8, cfg.lrs, Mode.FEDMRL, LossWeights())
        with pytest.raises(ValueError) as stacked:
            cohort_update(clients, *args)
        with pytest.raises(ValueError) as alone:
            for client in sequence:
                cohort_update([client], *args)
    else:
        with pytest.raises(ValueError) as stacked:
            clients[0].population._room().evaluate(clients[0].population, clients, MIX_LARGE)
        with pytest.raises(ValueError) as alone:
            for client in sequence:
                evaluate(client, MIX_LARGE)
    assert type(stacked.value) is ValueError
    assert str(stacked.value) == str(alone.value) == message
    assert [c.rng.bit_generator.state for c in clients] == [
        c.rng.bit_generator.state for c in sequence]
    for client, arrays in zip(clients, before):
        assert _same_arrays(_client_arrays(client), arrays)


@pytest.mark.parametrize(
    "pick,n_clients,message",
    [
        (lambda clients: clients[::-1], 10,
         r"^the clients must be all their population's, in id order: got ids \[9, 8, 7, "),
        (lambda clients: clients[:5], 10, r"^the config wants 10 clients, got 5$"),
        (lambda clients: clients, 12, r"^the config wants 12 clients, got 10$"),
        (lambda clients: clients, 5, r"^the config wants 5 clients, got 10$"),
        (lambda clients: clients[:5], 5,
         r"^the clients must be all their population's, in id order: got ids \[0, 1, 2, 3, 4\]$"),
    ],
    ids=["reversed", "5 of a 10-client config", "10 for a 12-client config",
         "10 for a 5-client config", "5 of 10 for a 5-client config"],
)
def test_run_rounds_takes_only_its_populations_clients_in_id_order(pick, n_clients, message):
    # A reversed list would train and report the wrong clients, and a list
    # shorter or longer than the config's population would fail deep inside
    # a round, or sample and report only part of the population.
    cfg, server, clients = _equal_shards(with_server=True)
    start = copy.deepcopy(server)
    with pytest.raises(ValueError, match=message):
        run_rounds(server, pick(clients), dataclasses.replace(cfg, n_clients=n_clients, rounds=1))
    assert server.round == 0
    assert server.rng.bit_generator.state == start.rng.bit_generator.state


def test_client_update_names_the_client_and_group_of_a_diverging_step():
    cfg, dataset, plan = small_setup()
    _, clients = build_clients(cfg, dataset, plan)
    client = clients[2]
    client.train_x = 1e3 * client.train_x  # large gradients, finite loss
    with np.errstate(over="ignore"):
        with pytest.raises(NonFiniteError, match=r"^client 2: non-finite local parameters"):
            cohort_update(
                [client], 1, 8, LearningRates(0.0, 1e308, 0.0), Mode.FEDMRL, LossWeights()
            )


@pytest.mark.parametrize("mode", list(Mode))
@pytest.mark.parametrize("cohort", ["the same", "a subset"])
def test_a_clean_cohort_after_a_failed_one_trains_like_a_fresh_population(cohort, mode):
    # The failed cohort leaves half-trained rows in the population's
    # workspace; the next cohort of the same slots must gather them afresh.
    # A clean subset of a cohort whose step diverged leaves that step's
    # non-finite rows in the room beyond its own slots, and its steps must
    # neither touch nor check them.
    cfg, clients = _equal_shards()
    _, fresh = _equal_shards()
    args = (2, 8, cfg.lrs, mode, LossWeights())
    rngs = [copy.deepcopy(c.rng) for c in clients]
    if cohort == "the same":
        clean = clients[6].train_x
        clients[6].train_x = np.full_like(clean, np.nan)
        with np.errstate(all="ignore"), pytest.raises(NonFiniteError, match="^client 6: "):
            cohort_update(clients, *args)
        clients[6].train_x = clean
    else:
        clean = [c.train_x for c in clients]
        for client in clients:
            client.train_x = 1e3 * client.train_x  # large gradients, finite losses
        diverging = (2, 8, LearningRates.uniform(1e308), mode, LossWeights())
        with np.errstate(all="ignore"), pytest.raises(NonFiniteError, match="^client 0: "):
            cohort_update(clients, *diverging)
        for client, x in zip(clients, clean):
            client.train_x = x
        buffers = clients[0].population._workspace.buffers.values()
        assert not all(np.isfinite(buffer[0][5:]).all() for buffer in buffers)
        clients, fresh = clients[:5], fresh[:5]
    for client, rng in zip(clients, rngs):
        client.rng = rng
    results, expected = cohort_update(clients, *args), cohort_update(fresh, *args)
    for (upload, means), (expected_upload, expected_means) in zip(results, expected):
        assert repr(means) == repr(expected_means)
        if mode is not Mode.STANDALONE:
            assert _same_arrays(
                upload.model.parameter_arrays(), expected_upload.model.parameter_arrays()
            )
    for a, b in zip(clients, fresh):
        assert _same_arrays(_client_arrays(a), _client_arrays(b))


def test_uploads_keep_their_values_after_the_next_cohort_of_the_same_clients():
    cfg, clients = _equal_shards()
    args = (1, 8, cfg.lrs, Mode.FEDMRL, LossWeights())
    first = cohort_update(clients, *args)
    kept = [[a.copy() for a in upload.model.parameter_arrays()] for upload, _ in first]
    second = cohort_update(clients, *args)
    for (upload, _), arrays in zip(first, kept):
        assert _same_arrays(upload.model.parameter_arrays(), arrays)
    assert not _same_arrays(first[0][0].model.parameter_arrays(), second[0][0].model.parameter_arrays())


@pytest.mark.parametrize("mode,weights", [(Mode.NO_MRL, LossWeights()),
                                          (Mode.FEDMRL, LossWeights(0.0, 1.0))],
                         ids=["no_mrl", "m_global=0"])
def test_a_frozen_global_header_is_neither_stepped_nor_checked(mode, weights):
    # A global header out of the graph lies outside the trained ranges: a NaN
    # in client 0's copy of it raises nothing, its bytes stay as they were,
    # and mix_large, which does not read it, predicts finite logits.  The
    # dual-head loss reads it and fails.
    cfg, clients = _equal_shards()
    header = clients[0].global_copy.header.weight
    header[0, 0] = np.nan
    clients[0].population.wrote([0])
    before = header.copy()
    cohort_update(clients, 1, 8, cfg.lrs, mode, weights)
    assert header.tobytes() == before.tobytes()
    assert 0.0 <= evaluate(clients[0], MIX_LARGE) <= 1.0
    with np.errstate(all="ignore"), pytest.raises(
        NonFiniteError, match=r"^client 0: non-finite loss \(nan\)"
    ):
        cohort_update(clients, 1, 8, cfg.lrs, Mode.FEDMRL, LossWeights())


def test_a_standalone_cohort_leaves_every_shared_and_projector_row_untouched():
    # A standalone step trains the private rows only: the shared and
    # projector rows and scratch that a fedmrl cohort left in the workspace
    # stay as they are, and so do the population's.
    cfg, clients = _equal_shards()
    cohort_update(clients, 1, 8, cfg.lrs, Mode.FEDMRL, LossWeights())
    population = clients[0].population
    buffers = population._workspace.buffers
    kept = [key for key in buffers if key != "headers" and not isinstance(key, int)]

    def arrays():
        return [*(buffers[key] for key in kept), population.shared, population.projectors]

    before, headers = [a.copy() for a in arrays()], population.headers.copy()
    cohort_update(clients, 2, 8, cfg.lrs, Mode.STANDALONE, LossWeights())
    assert _same_arrays(arrays(), before)
    assert not np.array_equal(population.headers, headers)


def _workspace_arrays(population):
    return [array for pair in population._workspace.buffers.values() for array in pair]


def _population_arrays(population):
    return [population.shared, population.projectors, population.headers, *population.blocks]


@pytest.mark.parametrize("copier", ["deepcopy", "pickle"])
def test_copies_drop_the_workspace_and_share_no_memory(copier):
    cfg, dataset, plan = small_setup(rounds=1, n_clients=4)
    server, clients = build_clients(cfg, dataset, plan)
    run_rounds(server, clients, cfg)
    population = clients[0].population
    assert population._workspace is not None
    if copier == "deepcopy":
        twin_server, twin_clients = copy.deepcopy((server, clients))
    else:
        twin_server, twin_clients = pickle.loads(pickle.dumps((server, clients)))
    twin = twin_clients[0].population
    assert twin._workspace is None and twin._views == {}
    assert run_rounds(twin_server, twin_clients, cfg) == run_rounds(server, clients, cfg)
    mine = [*_population_arrays(population), *_workspace_arrays(population)]
    theirs = [*_population_arrays(twin), *_workspace_arrays(twin)]
    assert not any(np.shares_memory(a, b) for a in mine for b in theirs)


@pytest.mark.parametrize("mode", list(Mode))
def test_a_cohort_of_equal_shards_is_evaluated_in_one_stacked_infer(monkeypatch, mode):
    cfg, server, clients = _equal_shards(with_server=True)
    cfg = dataclasses.replace(cfg, mode=mode, rounds=1)
    calls = _count_inference(monkeypatch, clients)
    variant = InferenceVariant.SINGLE_LARGE if mode is Mode.STANDALONE else cfg.inference
    for _ in range(2):  # the second round reuses the first round's workspace
        calls.clear()
        (report,) = run_rounds(server, clients, cfg)
        assert calls == [QUICKSTART_SLOTS]
        assert report.per_client_accuracy == tuple(evaluate(c, variant) for c in clients)


# Shards of 11, 7, 3, 9, 5 and 10 samples, in slot order by depth, then size,
# largest first, in batches of 4: (depth, rows, each client's real rows) of
# every step of an epoch.
STEPS_OF_AN_EPOCH = {
    "one depth": (((12,),), [
        (2, 4, (4, 4, 4, 4, 4)), (2, 3, (3,)),  # offset 0: 11, 10, 9, 7, 5; then 3
        (2, 4, (4, 4, 4, 3, 1)),  # offset 4: 11, 10, 9, 7, 5
        (2, 4, (3, 2, 1)),  # offset 8: 11, 10, 9
    ]),
    "two depths": (((12,), (10, 6)), [
        (2, 4, (4, 4)), (2, 3, (3,)), (3, 4, (4, 4, 4)),  # 11, 5; 3 | 10, 9, 7
        (2, 4, (4, 1)), (3, 4, (4, 4, 3)),
        (2, 4, (3,)), (3, 4, (2, 1)),
    ]),
}


@pytest.mark.parametrize("local_hidden,steps", STEPS_OF_AN_EPOCH.values(), ids=STEPS_OF_AN_EPOCH)
def test_an_epoch_steps_once_per_offset_and_depth_and_once_per_small_shard_size(
    monkeypatch, local_hidden, steps
):
    # Each step at an offset takes every client of one depth with a batch
    # there, a short final batch padded to 4 rows; a shard smaller than a
    # batch steps at offset 0, unpadded, with the shards of its depth and size.
    sizes, batch_size, epochs = [11, 7, 3, 9, 5, 10], 4, 2
    cfg, dataset, plan = small_setup(n_clients=6, local_hidden=local_hidden)
    (_, clients), (_, alone) = (build_clients(cfg, dataset, plan) for _ in "ab")
    for client, twin, size in zip(clients, alone, sizes):
        client.train_x = twin.train_x = dataset.features[:size]
        client.train_y = twin.train_y = dataset.labels[:size]
    calls, real = [], federation._train

    def counting(plan, x, y, weights, lrs, rows=None):
        counts = (y.shape[-1],) * y.shape[0] if rows is None else tuple(rows.tolist())
        calls.append((len(plan.private[0]), y.shape[-1], counts))
        return real(plan, x, y, weights, lrs, rows)

    monkeypatch.setattr(federation, "_train", counting)
    args = (epochs, batch_size, cfg.lrs, Mode.FEDMRL, cfg.loss_weights)
    results = cohort_update(clients, *args)
    monkeypatch.undo()

    assert calls == steps * epochs
    for twin, (upload, means) in zip(alone, results):  # bit for bit a cohort of one
        ((twin_upload, twin_means),) = cohort_update([twin], *args)
        assert repr(means) == repr(twin_means)
        assert _same_arrays(upload.model._segments(), twin_upload.model._segments())


def _steps_per_offset(sizes, depths, batch_size):
    """The per-offset schedule that _steps replaced, kept as its reference: at each
    offset every slot's batch width, cut into runs of one depth and width."""
    steps = []
    for start in range(0, max(sizes), batch_size):
        widths = [min(size, batch_size) if size > start else 0 for size in sizes]
        for a, b, rows in federation._runs(widths, depths):
            real = np.minimum(np.array(sizes[a:b]) - start, rows)
            steps.append((a, b, start, rows, None if real[-1] == rows else real))
    return steps


@settings(max_examples=300, deadline=None)
@given(
    runs=st.lists(st.lists(st.integers(1, 9) | st.integers(1, 40), min_size=1, max_size=8),
                  min_size=1, max_size=3),
    batch_size=st.integers(1, 9),
)
@example(runs=[[40, 17, 17, 8, 3, 3, 1], [5, 5, 2], [9, 9]], batch_size=8)
@example(runs=[[3, 3, 2], [1]], batch_size=9)
def test_the_one_pass_schedule_is_the_per_offset_one(runs, batch_size):
    # Each depth's slots sorted by shard size, largest first, as the workspace
    # orders them; sizes repeat and fall below a batch.
    sizes = [size for run in runs for size in sorted(run, reverse=True)]
    depths = [depth for depth, run in enumerate(runs) for _ in run]
    steps, expected = (schedule(sizes, depths, batch_size)
                       for schedule in (federation._steps, _steps_per_offset))
    assert [step[:4] for step in steps] == [step[:4] for step in expected]
    for (*_, real), (*_, want) in zip(steps, expected):
        assert (real is None) == (want is None)
        assert want is None or (real.dtype == want.dtype and real.tolist() == want.tolist())


@pytest.mark.parametrize("workload,seed,calls", [
    ("many-dirichlet", 0, 310), ("quickstart-3mode", 0, 360),
])
def test_a_workload_takes_one_step_per_offset_and_depth(monkeypatch, workload, seed, calls):
    # many-dirichlet has one depth: 307 steps, one per offset, and one more in
    # each of the 3 rounds whose cohort holds a 6-sample shard.  quickstart's
    # 48-sample shards take 6 steps a round, 20 rounds in each of 3 modes.
    path = Path(__file__).parents[1] / "bench" / "workloads" / f"{workload}.cfg"
    config = override(load_config(path), seed=seed)
    dataset = load_dataset(config)
    plan = build_partition(config, dataset)
    steps = _count_steps(monkeypatch)
    modes = [Mode.FEDMRL] if workload == "many-dirichlet" else list(Mode)
    for mode in modes:
        run_training(dataclasses.replace(build_run_config(config), mode=mode), dataset, plan)
    assert len(steps) == calls


def _ragged_tests(local_hidden):
    """Six trained clients of small_setup with test sets of six sizes, rows of the
    dataset no two share, on a workspace with room for all of them."""
    cfg, dataset, plan = small_setup(n_clients=6, rounds=2, local_hidden=local_hidden)
    server, clients = build_clients(cfg, dataset, plan)
    run_rounds(server, clients, cfg)
    for i, (client, size) in enumerate(zip(clients, [5, 2, 4, 1, 3, 6])):
        client.test_x = dataset.features[10 * i : 10 * i + size]
        client.test_y = dataset.labels[10 * i : 10 * i + size]
    return clients


@pytest.mark.parametrize(
    "local_hidden,stacks",
    [(((12,),), [[2, 0, 3, 4, 5, 1]]), (((12,), (10, 6)), [[2, 0, 4], [3, 5, 1]])],
    ids=["one depth", "two depths"],
)
def test_a_chunk_of_unequal_test_sizes_is_predicted_in_one_stack_per_depth(
    monkeypatch, local_hidden, stacks
):
    clients = _ragged_tests(local_hidden)
    calls = _count_inference(monkeypatch, clients)
    for variant in InferenceVariant:
        calls.clear()
        clients[0].population._room().evaluate(clients[0].population, clients, variant)
        # As training orders them: by depth, then training-set size, largest first.
        assert calls == stacks and sum(stacks, []) == clients[0].population._workspace.cohort.rows


@pytest.mark.parametrize("variant", list(InferenceVariant))
def test_a_padded_evaluation_scores_each_client_on_its_own_rows(variant):
    clients = _ragged_tests(((12,), (10, 6), (9,)))
    expected = []
    for client in clients:
        preds = infer(*padded_models(client), client.test_x, variant)
        # The last row, which the padding copies, is a hit.
        client.test_y = np.concatenate([client.test_y[:-1], preds[-1:]])
        expected.append(np.count_nonzero(preds == client.test_y) / client.test_y.size)
    assert clients[0].population._room().evaluate(clients[0].population, clients, variant) == expected


@pytest.mark.parametrize(
    "nan_at,error,message",
    [
        (1, NonFiniteError, "round 2: client 1: non-finite logits"),
        (5, ValueError, "client 2 has an empty test set"),
    ],
)
def test_a_failed_stacked_evaluation_raises_what_the_ascending_loop_raises(
    monkeypatch, nan_at, error, message
):
    empty = error is ValueError  # the error of client 2's empty test set
    cfg, server, clients = _equal_shards(with_server=True)
    cfg = dataclasses.replace(cfg, rounds=1)
    run_rounds(server, clients, cfg)  # training builds the view of all ten slots
    broken = clients[nan_at].local_model.clone()
    broken.header.weight[0, 0] = np.nan
    clients[nan_at].local_model = broken
    if empty:
        clients[2].test_x, clients[2].test_y = clients[2].test_x[:0], clients[2].test_y[:0]
    calls = _count_inference(monkeypatch, clients)
    # Without training, the round only evaluates: one stack of the equal test
    # sets, which holds the NaN, then its clients alone in ascending id order
    # up to the first that fails.  Client 2's empty test set fails the stack
    # before any prediction, and the replay stops at client 2, unpredicted.
    with pytest.raises(error) as stacked:
        run_rounds(server, clients, dataclasses.replace(cfg, local_epochs=0))
    if empty:
        assert calls == [[0], [1]]
    else:
        assert calls == [QUICKSTART_SLOTS, [0], [1]]
    assert str(stacked.value) == message
    with pytest.raises(error) as alone:
        for client in clients:
            evaluate(client, cfg.inference)
    assert message.endswith(str(alone.value))


def test_empty_test_sets_are_never_evaluated_in_a_stack():
    cfg, server, clients = _equal_shards(with_server=True)
    for client in clients:
        client.test_x, client.test_y = client.test_x[:0], client.test_y[:0]
    with pytest.raises(ValueError, match=r"^client 0 has an empty test set$"):
        run_rounds(server, clients, dataclasses.replace(cfg, rounds=1))


def _break(client, how):
    """Make client fail: in training (NaN features, no training samples) or in
    evaluation (a NaN in its private header, an empty test set)."""
    if how == "nan features":
        client.train_x = np.full_like(client.train_x, np.nan)
    elif how == "no training samples":
        client.train_x, client.train_y = client.train_x[:0], client.train_y[:0]
    elif how == "nan header":
        broken = client.local_model.clone()
        broken.header.weight[0, 0] = np.nan
        client.local_model = broken
    else:
        client.test_x, client.test_y = client.test_x[:0], client.test_y[:0]


def _failure(run):
    """The error run() raises (TrainingDiverged or ValueError), or None."""
    try:
        run()
    except (TrainingDiverged, ValueError) as exc:
        return exc
    return None


def _one_client_round(server, clients, cfg):
    """run_rounds' round without training, as one-client calls in ascending id order:
    sample, broadcast, a cohort of one per participant, aggregate, then evaluate each
    client the memo does not know.  Returns what the stacked round would raise."""
    standalone = cfg.mode is Mode.STANDALONE
    variant = InferenceVariant.SINGLE_LARGE if standalone else cfg.inference
    ids = range(cfg.n_clients)
    picked = ids if standalone else sample_clients(server, cfg.n_clients, cfg.participants)
    if not standalone:
        broadcast(server, [clients[i] for i in picked])
    args = (0, cfg.batch_size, cfg.lrs, cfg.mode, cfg.loss_weights)
    uploads = [cohort_update([clients[i]], *args)[0][0] for i in picked]
    if not standalone:
        aggregate(server, uploads)
    memo = clients[0].population.accuracy[variant]
    exc = _failure(lambda: [evaluate(clients[i], variant) for i in ids if np.isnan(memo[i])])
    if isinstance(exc, TrainingDiverged):
        return TrainingDiverged(f"round {server.round + 1}: {exc}")
    return exc


@settings(max_examples=40, deadline=None)
@given(
    local_hidden=st.sampled_from([((9,), (7, 5)), ((9,), (6,), (8, 5)), ((), (7,), (6,)), ((8, 4), (6,))]),
    n_clients=st.integers(2, 6),
    data_seed=st.integers(0, 30),
    mode=st.sampled_from(list(Mode)),
    participation=st.sampled_from([0.5, 1.0]),
    stage=st.sampled_from(["training", "evaluation"]),
    epochs=st.integers(1, 2),
    batch_size=st.sampled_from([3, 8]),
    data=st.data(),
)
def test_a_failed_stacked_run_raises_what_the_ascending_loop_raises(
    local_hidden, n_clients, data_seed, mode, participation, stage, epochs, batch_size, data
):
    # Ragged shards over two or three architectures of two depths, after a
    # clean round that fills the accuracy memo.  Broken clients fail a
    # cohort_update of a drawn subset (training) or a round without
    # training (evaluation).  The stacked call raises the type and message
    # of one-client calls in ascending id order, every rng ends where theirs
    # do, and the failure writes no population row and no memo entry.
    dataset = gen_synthetic(4, 5, 25, 0.8, make_rng(data_seed))
    try:
        plan = split_train_test(
            partition_dirichlet(dataset, n_clients, DirichletSpec(alpha=0.5, seed=data_seed)))
    except PartitionError:
        assume(False)
    cfg = RunConfig(
        n_clients=n_clients, rounds=1, d1=3, d2=6, participation=participation, mode=mode,
        seed=data_seed, batch_size=batch_size, global_hidden=(6,), local_hidden=local_hidden,
    )
    server, clients = build_clients(cfg, dataset, plan)
    run_rounds(server, clients, cfg)
    broken = st.integers(0, n_clients - 1)
    if stage == "training":
        subset = data.draw(st.lists(broken, min_size=1, unique=True), label="subset")
        broken, kinds = st.sampled_from(subset), ["nan features", "no training samples"]
    else:
        kinds = ["nan header", "empty test set"]
    breaks = data.draw(st.lists(st.tuples(broken, st.sampled_from(kinds)), min_size=1), label="breaks")
    for ident, how in breaks:
        _break(clients[ident], how)
    population = clients[0].population
    rows = [array.copy() for array in _population_arrays(population)]
    memo = {variant: array.copy() for variant, array in population.accuracy.items()}
    twin_server, twin = copy.deepcopy((server, clients))

    with np.errstate(all="ignore"):
        if stage == "training":
            args = (epochs, batch_size, cfg.lrs, mode, cfg.loss_weights)
            stacked = _failure(lambda: cohort_update([clients[i] for i in subset], *args))
            expected = _failure(lambda: [cohort_update([twin[i]], *args) for i in sorted(subset)])
            assert expected is not None
        else:
            stacked = _failure(lambda: run_rounds(server, clients, dataclasses.replace(cfg, local_epochs=0)))
            expected = _one_client_round(twin_server, twin, dataclasses.replace(cfg, local_epochs=0))
            # The round's broadcast and cohorts wrote rows, as the one-client calls did.
            rows = _population_arrays(twin[0].population)
            memo = twin[0].population.accuracy
    assert type(stacked) is type(expected) and str(stacked) == str(expected)
    assert [c.rng.bit_generator.state for c in clients] == [c.rng.bit_generator.state for c in twin]
    assert server.rng.bit_generator.state == twin_server.rng.bit_generator.state
    assert _same_arrays(_population_arrays(population), rows)
    if stacked is not None:  # a round that evaluates without failing fills the memo
        assert {v: a.tobytes() for v, a in population.accuracy.items()} == {
            v: a.tobytes() for v, a in memo.items()}


@pytest.mark.parametrize(
    "lrs,expected",
    [
        (dict(lr=50.0), ("round 1: client 1: non-finite loss (nan)", None, 1, 1)),
        (dict(lr=5.0), ("round 1: client 6: non-finite logits", None, 6, 1)),
        (dict(lr=2.0), ("round 2: client 6: non-finite loss (nan)", None, 6, 2)),
        (
            dict(lr_local=1e308),
            ("round 1: client 0: non-finite local parameters after the step", "local", 0, 1),
        ),
    ],
)
def test_a_diverging_quickstart_round_names_its_group_client_and_round(lrs, expected):
    config = override(load_config(QUICKSTART), **lrs)
    dataset = load_dataset(config)
    cfg = build_run_config(config)
    server, clients = build_clients(cfg, dataset, build_partition(config, dataset))
    with np.errstate(all="ignore"), pytest.raises(TrainingDiverged) as failure:
        run_rounds(server, clients, cfg)
    error = failure.value
    assert isinstance(error, NonFiniteError)
    assert (str(error), error.group, error.client, error.round) == expected


@pytest.mark.parametrize("mode", list(Mode))
def test_a_planned_step_builds_no_model_object(mode):
    # Once a run's plan exists, a step walks plain lists: a second identical
    # cohort calls nothing defined in models.py, and never numerics.as_matrix,
    # from inside a step of a plan (core._train).
    cfg, dataset, plan = small_setup(n_clients=6, local_hidden=((12,), (10,), (9,)))
    _, clients = build_clients(cfg, dataset, plan)
    args = (2, 8, cfg.lrs, mode, cfg.loss_weights)
    rngs = [copy.deepcopy(c.rng) for c in clients]
    cohort_update(clients, *args)
    for client, rng in zip(clients, rngs):
        client.rng = rng
    step, inside, steps, called = core._train.__code__, [0], [], []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is step:
            inside[0] += 1
            steps.append(1)
        elif event == "call" and inside[0]:
            called.append(frame.f_code)
        elif event == "return" and frame.f_code is step:
            inside[0] -= 1

    sys.setprofile(profile)
    try:
        cohort_update(clients, *args)
    finally:
        sys.setprofile(None)
    banned = [
        code.co_qualname for code in called
        if code.co_filename == models.__file__ or code is numerics.as_matrix.__code__
    ]
    assert steps and called and banned == []


@pytest.mark.parametrize("label", [-1, 4])
def test_a_cohort_rejects_labels_out_of_range_before_its_steps(label):
    # The steps read labels unchecked (a -1 would silently pick the last
    # class), so the cohort checks every client's labels once, up front, and
    # names the lowest-id client whose labels are out of range, in a stack
    # and alone.
    cfg, dataset, plan = small_setup(n_clients=3)
    _, clients = build_clients(cfg, dataset, plan)
    before = [[a.copy() for a in _client_arrays(c)] for c in clients]
    for ident in (2, 1):
        clients[ident].train_y = clients[ident].train_y.copy()
        clients[ident].train_y[-ident] = label
    for members, ident in ((clients, 1), (clients[::-1], 1), (clients[2:], 2)):
        with pytest.raises(ValueError, match=rf"^client {ident} has labels outside \[0, 4\)$"):
            cohort_update(members, 1, 8, cfg.lrs, Mode.FEDMRL, LossWeights())
    for client, arrays in zip(clients, before):
        assert _same_arrays(_client_arrays(client), arrays)


@settings(max_examples=25, deadline=None)
@given(
    first=st.lists(st.integers(0, 7), min_size=1, max_size=3, unique=True),
    middle=st.lists(
        st.tuples(
            st.lists(st.integers(0, 7), min_size=1, max_size=7, unique=True),
            st.sampled_from(list(Mode)),
        ),
        max_size=3,
    ),
    modes=st.tuples(st.sampled_from(list(Mode)), st.sampled_from(list(Mode))),
    epochs=st.integers(1, 2),
    batch_size=st.sampled_from([3, 8]),
)
def test_a_reused_workspace_trains_like_fresh_populations(first, middle, modes, epochs, batch_size):
    # One population runs every cohort on its one workspace; each cohort
    # also runs on a fresh deep copy of the clients taken just before it.
    # The last cohort, all eight clients, is larger than any before it, so
    # it regrows every buffer: a piece cached on an old buffer would step
    # rows that the cohort never scatters.
    cohorts = [(first, modes[0]), *middle, (list(range(8)), modes[1])]
    cfg, dataset, plan = small_setup(n_clients=8, local_hidden=((12,), (10,), (9,)))
    _, clients = build_clients(cfg, dataset, plan)
    for ids, mode in cohorts:
        fresh = copy.deepcopy(clients)
        args = (epochs, batch_size, cfg.lrs, mode, cfg.loss_weights)
        results = cohort_update([clients[i] for i in ids], *args)
        expected = cohort_update([fresh[i] for i in ids], *args)
        for (upload, means), (fresh_upload, fresh_means) in zip(results, expected):
            assert repr(means) == repr(fresh_means)
            assert (upload is None) == (fresh_upload is None)
            if upload is not None:
                assert (upload.client_id, upload.n_samples) == (
                    fresh_upload.client_id, fresh_upload.n_samples)
                assert _same_arrays(upload.model._segments(), fresh_upload.model._segments())
        mine, theirs = clients[0].population, fresh[0].population
        assert _same_arrays(_population_arrays(mine), _population_arrays(theirs))
        assert [c.rng.bit_generator.state for c in clients] == [
            c.rng.bit_generator.state for c in fresh]


def test_evaluation_predicts_what_infer_predicts_after_every_writer(monkeypatch):
    # Every evaluation gathers the client's rows into the workspace, so after
    # each writer (broadcast, a cohort's scatter, assignment to a model field)
    # it predicts what infer predicts on the client's padded models.
    cfg, dataset, plan = small_setup(n_clients=4)
    server, clients = build_clients(cfg, dataset, plan)
    seen = []

    def recording(plan, x, variant):
        seen.append(core._predict(plan, x, variant))
        return seen[-1]

    monkeypatch.setattr(federation, "_predict", recording)

    def predictions():
        found = []
        for client in clients:
            for variant in InferenceVariant:
                seen.clear()
                accuracy = evaluate(client, variant)
                (mine,) = seen[0]
                assert np.array_equal(mine, infer(*padded_models(client), client.test_x, variant))
                assert accuracy == np.count_nonzero(mine == client.test_y) / client.test_y.size
                found.append(mine)
        return found

    before = predictions()
    flipped = server.global_model.clone()
    flipped.header.weight[...] *= -1
    server.global_model = flipped
    broadcast(server, clients[:2])
    after = predictions()
    small = list(InferenceVariant).index(InferenceVariant.SINGLE_SMALL)
    assert not np.array_equal(before[small], after[small])  # evaluation saw the write
    cohort_update(clients[1:3], 1, 8, cfg.lrs, Mode.FEDMRL, cfg.loss_weights)
    predictions()
    local = clients[3].local_model.clone()
    local.header.weight[...] *= -1
    clients[3].local_model = local
    predictions()
    for twin in (copy.deepcopy(clients), pickle.loads(pickle.dumps(clients))):
        assert twin[0].population._workspace is None
        assert evaluate(twin[3], MIX_LARGE) == evaluate(clients[3], MIX_LARGE)


MANY_DIRICHLET = Path(__file__).parents[1] / "bench" / "workloads" / "many-dirichlet.cfg"


def test_a_many_dirichlet_run_builds_each_plan_once():
    # Counts, no timing: training and evaluation run on the workspace's
    # plans, so every plan (core._plan) is built by the workspace and none
    # of a client's own models, every workspace plan is built at most once
    # per key, and the five architectures, of one depth, all read the one
    # block.  A second run of the same cohorts on the same population (the
    # server and the clients' rngs back at their start) builds none.
    config = override(load_config(MANY_DIRICHLET), seed=0)
    dataset = load_dataset(config)
    cfg = build_run_config(config)
    server, clients = build_clients(cfg, dataset, build_partition(config, dataset))
    start = copy.deepcopy((server, [c.rng for c in clients]))
    plan = core._plan.__code__

    def run(server):
        builds = []

        def profile(frame, event, arg):
            if event == "call" and frame.f_code is plan:
                caller = frame.f_back
                builds.append((caller.f_code.co_qualname, caller.f_locals.get("key")))

        sys.setprofile(profile)
        try:
            run_rounds(server, clients, cfg)
        finally:
            sys.setprofile(None)
        return builds

    builds = run(server)
    # The workspace keeps the last cohort only, in one record: ten clients, listed
    # for training and then, as the only stale clients, for evaluation, so the
    # record holds what was built from both splits' data sets.
    cohort = clients[0].population._workspace.cohort
    assert len(cohort.rows) == 10 and sorted(cohort.kept) == ["test", "train"]
    assert builds and {caller for caller, _ in builds} == {"_Workspace.plan"}
    keys = [key for _, key in builds]
    assert len(set(keys)) == len(keys)
    assert {depth for _, _, depth, _ in keys} == {0}  # one depth, so one block
    server, rngs = start
    for client, rng in zip(clients, rngs):
        client.rng = rng
    assert run(server) == []


def _checks(monkeypatch):
    """A list that gains the (split, listed client ids) of each _Workspace.check."""
    checks, check = [], federation._Workspace.check

    def counting(workspace, population, clients, split, empty):
        checks.append((split, [c.client_id for c in clients]))
        return check(workspace, population, clients, split, empty)

    monkeypatch.setattr(federation._Workspace, "check", counting)
    return checks


@pytest.mark.parametrize("mode", list(Mode))
def test_a_full_participation_run_checks_each_split_once(monkeypatch, mode):
    # Counts, no timing: every round trains and evaluates the ten clients the
    # workspace holds, and no data set is assigned, so their data sets are
    # checked, sorted and stacked in the first round only.
    cfg, server, clients = _equal_shards(with_server=True)
    checks = _checks(monkeypatch)
    run_rounds(server, clients, dataclasses.replace(cfg, mode=mode, rounds=20))
    assert checks == [("train", list(range(10))), ("test", list(range(10)))]


def test_a_partial_participation_run_checks_every_new_cohort(monkeypatch):
    # Ten of 100 clients train per round, a new cohort each round, which is
    # checked for training and then, as the only stale clients, for evaluation;
    # the first round evaluates all 100, in chunks of ten.
    config = override(load_config(MANY_DIRICHLET), seed=0, rounds=20)
    dataset = load_dataset(config)
    cfg = build_run_config(config)
    server, clients = build_clients(cfg, dataset, build_partition(config, dataset))
    sampled, sample = [], federation.sample_clients
    monkeypatch.setattr(federation, "sample_clients",
                        lambda *args: sampled.append(sample(*args)) or sampled[-1])
    checks = _checks(monkeypatch)
    run_rounds(server, clients, cfg)
    assert len(sampled) == 20 and all(a != b for a, b in zip(sampled, sampled[1:]))
    assert [ids for split, ids in checks if split == "train"] == sampled
    chunks = [list(range(first, first + 10)) for first in range(0, 100, 10)]
    assert [ids for split, ids in checks if split == "test"] == chunks + sampled[1:]


class _Logged(dict):
    """A dict that logs every (key, value) it is given."""

    def __init__(self):
        super().__init__()
        self.log = []

    def __setitem__(self, key, value):
        self.log.append((key, value))
        super().__setitem__(key, value)


def test_a_many_dirichlet_run_checks_each_client_once_per_split_and_data_version(monkeypatch):
    # Counts, no timing: ten of 100 clients train per round, a new cohort each
    # round, and a client is evaluated in the first round and after it trains.
    # While no data set is assigned, each client's sets are checked once per
    # split, when a cohort or chunk first holds it; an assignment (a new data
    # version) checks each client once more when it is next held.
    config = override(load_config(MANY_DIRICHLET), seed=0, rounds=10)
    dataset = load_dataset(config)
    cfg = build_run_config(config)
    server, clients = build_clients(cfg, dataset, build_partition(config, dataset))
    sampled, sample = [], federation.sample_clients
    monkeypatch.setattr(federation, "sample_clients",
                        lambda *args: sampled.append(sample(*args)) or sampled[-1])
    population = clients[0].population
    checked = population._room().checked = _Logged()
    run_rounds(server, clients, cfg)
    first = population.data_version
    clients[7].test_y = clients[7].test_y.copy()
    run_rounds(server, clients, cfg)
    assert population.data_version == first + 1
    assert max(Counter(checked.log).values()) == 1
    for version, rounds in ((first, sampled[:10]), (first + 1, sampled[10:])):
        held = {(split, i) for (split, i), at in checked.log if at == version}
        trained = {i for cohort in rounds for i in cohort}
        assert {i for split, i in held if split == "train"} == trained
        tested = range(100) if version == first else trained | {7}  # 7's new test set
        assert {i for split, i in held if split == "test"} == set(tested)


@pytest.mark.parametrize("split", ["train", "test"])
def test_a_client_checked_in_an_earlier_cohort_is_checked_again_after_an_assignment(split):
    # Client 3 passes the check of its split in a cohort (or an evaluation
    # chunk) of clients 2-5.  Then its train_x grows a column, or its test set
    # is emptied, and the next cohort (or chunk), of clients 0-3, must raise the
    # check's error, not skip a client it checked before.
    cfg, clients = _equal_shards()
    population, args = clients[0].population, (1, 8, cfg.lrs, Mode.FEDMRL, LossWeights())
    workspace = population._room()

    def held(members):
        if split == "train":
            return cohort_update(members, *args)
        return workspace.evaluate(population, members, MIX_LARGE)

    held(clients[2:6])
    assert workspace.checked[split, 3] == population.data_version
    client = clients[3]
    if split == "train":
        client.train_x = np.concatenate([client.train_x, client.train_x[:, :1]], axis=1)
        message = ("client 3 has train_x of shape (48, 17) and train_y of shape (48,), "
                   "not (n, 16) and (n,)")
    else:
        client.test_x, client.test_y = client.test_x[:0], client.test_y[:0]
        message = "client 3 has an empty test set"
    with pytest.raises(ValueError) as raised:
        held(clients[:4])
    assert str(raised.value) == message


def _views_rows(plan, block, a, b):
    """Whether every private layer of plan views rows a to b of block, and no other row."""
    rows = block[0]
    return all(
        array.shape[0] == b - a and np.shares_memory(array, rows[a:b])
        and not np.shares_memory(array, rows[:a]) and not np.shares_memory(array, rows[b:])
        for layer in plan.private[0] for array in layer[:2] if array is not None)


@pytest.mark.parametrize("mode", list(Mode))
def test_a_quickstart_cohort_steps_every_architecture_in_one_slice(mode):
    # The five architectures share one depth, so the cohort's one run of
    # slots steps on one plan, whose private layers view the rows of the
    # whole cohort in the one block; and a step writes its losses into the
    # loss ledger without ndarray.tolist.
    cfg, clients = _equal_shards()
    step, inside, steps, tolist = core._train.__code__, [0], [], []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is step:
            inside[0] += 1
            steps.append(1)
        elif event == "return" and frame.f_code is step:
            inside[0] -= 1
        elif event == "c_call" and inside[0] and arg.__name__ == "tolist":
            tolist.append(arg)

    sys.setprofile(profile)
    try:
        cohort_update(clients, 2, 8, cfg.lrs, mode, cfg.loss_weights)
    finally:
        sys.setprofile(None)
    assert steps and tolist == []
    workspace, n = clients[0].population._workspace, len(clients)
    assert list(workspace.plans) == [(0, n, 0, mode is Mode.STANDALONE)]
    assert _views_rows(workspace.plans[0, n, 0, mode is Mode.STANDALONE], workspace.buffers[0], 0, n)


@pytest.mark.parametrize("mode", list(Mode))
def test_a_plan_covers_one_depth_so_a_cohort_steps_once_per_depth_per_batch(monkeypatch, mode):
    # Three depths (2, 0 and 1 hidden layers) cycled over equal shards:
    # each plan's private layers view rows a to b of exactly one depth's
    # block, slots a to b all of that depth, and every batch takes one
    # training step per depth.
    cfg, dataset, plan = small_setup(n_clients=6, local_hidden=((6, 5), (), (7,)))
    _, clients = build_clients(cfg, dataset, plan)
    shards = [slice(16 * i, 16 * i + 16) for i in range(6)]
    for client, rows in zip(clients, shards):
        client.train_x, client.train_y = dataset.features[rows], dataset.labels[rows]
    steps = _count_steps(monkeypatch)
    cohort_update(clients, 2, 8, cfg.lrs, mode, cfg.loss_weights)
    assert len(steps) == 2 * 2 * 3  # epochs * batches * depths
    workspace = clients[0].population._workspace
    assert sorted(workspace.plans) == [(a, a + 2, a // 2, mode is Mode.STANDALONE) for a in (0, 2, 4)]
    for (a, b, depth, _), built in workspace.plans.items():
        assert set(workspace.cohort.depths[a:b]) == {depth}
        assert _views_rows(built, workspace.buffers[depth], a, b)
        for other in set(workspace.cohort.depths) - {depth}:
            assert not any(np.shares_memory(array, workspace.buffers[other])
                           for layer in built.private[0] for array in layer[:4] if array is not None)


@settings(max_examples=40, deadline=None)
@given(
    sizes=st.lists(st.integers(1, 30), min_size=1, max_size=6),
    batch_size=st.integers(1, 9),
    epochs=st.integers(1, 3),
    mode=st.sampled_from(list(Mode)),
)
def test_the_loss_ledger_means_each_clients_losses_bit_for_bit(sizes, batch_size, epochs, mode):
    # Ragged shards give rows of different lengths in one ledger.  Each
    # client's epoch means are float(np.mean(losses)) of the losses the
    # reference oracle returns when the client's padded model steps alone
    # through the same permutations, drawn from a copy of its rng.
    cfg, dataset, plan = small_setup(n_clients=len(sizes))
    _, clients = build_clients(cfg, dataset, plan)
    for i, (client, size) in enumerate(zip(clients, sizes)):
        rows = slice(13 * i, 13 * i + size)
        client.train_x, client.train_y = dataset.features[rows], dataset.labels[rows]
    alone = copy.deepcopy(clients)
    args = (epochs, batch_size, cfg.lrs, mode, cfg.loss_weights)
    results = cohort_update(clients, *args)
    for (_, means), twin in zip(results, alone):
        expected = train_alone(padded_models(twin), twin.train_x, twin.train_y, twin.rng, *args)
        assert len(means) == epochs
        assert repr(means) == repr(expected)


def test_a_population_counts_the_flops_of_each_architecture_once_per_mode():
    # A client's per-sample FLOPs depend only on its architecture and the
    # mode: forward_flops_per_sample runs once per (kind, mode) on one
    # population, and each report's flops are still the sum of flops_round
    # over the round's participants (here every client).
    cfg, server, clients = _equal_shards(with_server=True)
    code, counted = metrics.forward_flops_per_sample.__code__, []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is code:
            counted.append((frame.f_locals["local_model"].extractor._spans, frame.f_locals["mode"]))

    for _ in range(2):  # the second pass counts nothing
        for mode in Mode:
            config = dataclasses.replace(cfg, mode=mode, rounds=2)
            sys.setprofile(profile)
            try:
                reports = run_rounds(server, clients, config)
            finally:
                sys.setprofile(None)
            expected = sum(
                metrics.flops_round(c.global_copy, c.local_model, c.projector, c.n_samples,
                                    config.local_epochs, mode) for c in clients)
            assert [r.flops for r in reports] == [expected, expected]
    kinds = {clients[0].population.place[c.client_id][0] for c in clients}
    assert len(counted) == len(set(counted)) == len(kinds) * len(Mode) == 15


def _world():
    """A small run's cfg, dataset, plan, server and clients, and a second population
    (other_server, others) of the same shape with a shared model of other widths."""
    cfg, dataset, plan = small_setup()
    server, clients = build_clients(cfg, dataset, plan)
    other_server, others = build_clients(*small_setup(d1=2, d2=4))
    return SimpleNamespace(cfg=cfg, dataset=dataset, plan=plan, server=server, clients=clients,
                           other_server=other_server, others=others)


@pytest.mark.parametrize(
    "make,error,message",
    [
        (lambda w: RunConfig(n_clients=2, rounds=-1, d1=2, d2=4), ValueError,
         "rounds must be non-negative, got -1"),
        (lambda w: RunConfig(n_clients=2, rounds=1, d1=2, d2=4, local_epochs=-1), ValueError,
         "local_epochs must be non-negative, got -1"),
        (lambda w: RunConfig(n_clients=2, rounds=1, d1=2, d2=4, batch_size=0), ValueError,
         "batch_size must be positive, got 0"),
        (lambda w: RunConfig(n_clients=2, rounds=1, d1=2, d2=4, local_hidden=()), ValueError,
         "local_hidden needs at least one width stack"),
        (lambda w: build_clients(dataclasses.replace(w.cfg, n_clients=5), w.dataset, w.plan),
         ValueError, "plan covers 4 clients, config wants 5"),
        (lambda w: build_clients(w.cfg, gen_synthetic(4, 5, 31, 0.6, make_rng(0)), w.plan),
         ValueError, "partition plan was built for a different dataset"),
        (lambda w: broadcast(w.other_server, w.clients), ShapeError,
         "the server's model does not fit: [(66,), (8,)]"),
        (lambda w: cohort_update(w.clients[:1] * 2, 1, 8, w.cfg.lrs, Mode.FEDMRL, LossWeights()),
         ValueError, "duplicate client ids in a cohort: [0, 0]"),
        (lambda w: cohort_update([w.clients[0], w.others[1]], 1, 8, w.cfg.lrs, Mode.FEDMRL,
                                 LossWeights()),
         ValueError, "the clients belong to different populations"),
        (lambda w: aggregate(w.server, [Upload(0, 0, w.server.global_model.clone())]), ValueError,
         "upload from client 0 covers no samples"),
    ],
)
def test_a_federation_check_raises_its_typed_error(make, error, message):
    world = _world()
    with pytest.raises(error) as raised:
        make(world)
    assert type(raised.value) is error and str(raised.value) == message


def test_an_empty_broadcast_or_cohort_does_nothing():
    w = _world()
    cfg, server, clients = w.cfg, w.server, w.clients
    run_rounds(server, clients, dataclasses.replace(cfg, rounds=1))
    population = clients[0].population
    rows = [array.copy() for array in _population_arrays(population)]
    memo = {v: a.tobytes() for v, a in population.accuracy.items()}
    assert broadcast(server, []) is None
    assert cohort_update([], 1, 8, cfg.lrs, Mode.FEDMRL, LossWeights()) == []
    assert _same_arrays(_population_arrays(population), rows)
    assert {v: a.tobytes() for v, a in population.accuracy.items()} == memo


def test_a_stack_that_fails_only_as_a_stack_raises_its_own_error(monkeypatch):
    # _replayed's last resort: a stack of several clients fails, but every
    # client run alone, in ascending id order, succeeds.  Then the stack's
    # own error is raised again, no row is scattered and no memoized
    # accuracy is forgotten; each rng ends where its lone run left it.
    cfg, server, clients = _equal_shards(with_server=True)
    run_rounds(server, clients, dataclasses.replace(cfg, rounds=1))
    population = clients[0].population
    rows = [array.copy() for array in _population_arrays(population)]
    memo = {v: a.tobytes() for v, a in population.accuracy.items()}
    twin = copy.deepcopy(clients)
    injected, train, alone = TrainingDiverged("a stacked step failed", "local"), federation._train, []

    def stacks_fail(plan, x, *args):
        if x.shape[0] > 1:
            raise injected
        alone.append(x.shape[0])
        return train(plan, x, *args)

    monkeypatch.setattr(federation, "_train", stacks_fail)
    args = (1, 8, cfg.lrs, Mode.FEDMRL, LossWeights())
    with pytest.raises(TrainingDiverged) as raised:
        cohort_update(clients[:4], *args)
    assert raised.value is injected and raised.value.client is None
    assert len(alone) == 4 * 48 // 8  # every client trained its epoch alone
    assert _same_arrays(_population_arrays(population), rows)
    assert {v: a.tobytes() for v, a in population.accuracy.items()} == memo
    for i in range(4):
        cohort_update([twin[i]], *args)
    assert [c.rng.bit_generator.state for c in clients] == [c.rng.bit_generator.state for c in twin]


FIELDS = ("global_copy", "local_model", "projector")


class PopulationMemo(RuleBasedStateMachine):
    """One small population of two depths under every writer of its rows and test
    sets, in any order.  After each rule every accuracy the memo knows equals a
    fresh evaluation, a cohort that failed changed no row and no memo entry, and a
    synced workspace holds its cohort's rows as the population has them, a
    local_synced one all of them but the shared rows.

    The rules reach the workspace's skipped and shared-only gathers: a cohort or
    an evaluation of exactly the clients it holds since a gather or a scatter
    runs on its rows without copying them if nothing was written in between,
    and copies only their shared rows if a broadcast was.  Such a gather is only
    right while the last invariant holds: every write must clear synced, and
    every write but a broadcast local_synced too."""

    def __init__(self):
        super().__init__()
        self.cfg, self.dataset, plan = small_setup(
            n_clients=4, rounds=1, participation=0.5, local_hidden=((6,), (5, 4), (4,)))
        self.server, self.clients = build_clients(self.cfg, self.dataset, plan)

    @property
    def population(self):
        return self.clients[0].population

    @property
    def held(self):
        """The workspace's record of the clients it was last listed (_Cohort), or None."""
        return getattr(self.population._workspace, "cohort", None)

    @rule(mode=st.sampled_from(list(Mode)))
    def a_round(self, mode):
        run_rounds(self.server, self.clients, dataclasses.replace(self.cfg, mode=mode))

    @rule(ids=st.just({0, 1, 2, 3}) | st.sets(st.integers(0, 3), min_size=1),
          mode=st.sampled_from(list(Mode)),
          send=st.booleans(), fail=st.sampled_from([None, "nan", "diverge"]))
    def a_cohort(self, ids, mode, send, fail):
        members = [self.clients[i] for i in sorted(ids)]
        if send:
            broadcast(self.server, members)
        population, lrs, kept = self.population, self.cfg.lrs, [c.train_x for c in members]
        rows = [array.copy() for array in _population_arrays(population)]
        memo = {v: a.tobytes() for v, a in population.accuracy.items()}
        if fail == "nan":
            members[-1].train_x = np.where(np.arange(len(kept[-1]))[:, None] == 0, np.nan, kept[-1])
        elif fail == "diverge":
            lrs = LearningRates.uniform(1e308)
            for client, x in zip(members, kept):
                client.train_x = 1e3 * x  # large gradients, finite losses
        # A deep copy has no workspace: it gathers everything afresh.
        twins = copy.deepcopy(self.clients)
        try:
            with np.errstate(all="ignore"):
                results = cohort_update(members, 2, 5, lrs, mode, self.cfg.loss_weights)
        except NonFiniteError:
            assert fail is not None
            assert _same_arrays(_population_arrays(population), rows)
            assert {v: a.tobytes() for v, a in population.accuracy.items()} == memo
            # Every rng ends where cohorts of one, in id order, leave it.
            for client in members:
                try:
                    with np.errstate(all="ignore"):
                        cohort_update([twins[client.client_id]], 2, 5, lrs, mode,
                                      self.cfg.loss_weights)
                except NonFiniteError:
                    break
            assert [c.rng.bit_generator.state for c in self.clients] == [
                t.rng.bit_generator.state for t in twins]
        else:
            expected = cohort_update([twins[c.client_id] for c in members], 2, 5, lrs, mode,
                                     self.cfg.loss_weights)
            assert [m for _, m in results] == [m for _, m in expected]
            assert _same_arrays(_population_arrays(population),
                                _population_arrays(twins[0].population))
        for client, x in zip(members, kept if fail else ()):  # what a failure replaced
            client.train_x = x

    @precondition(lambda self: self.held is not None)
    @rule(mode=st.sampled_from(list(Mode)))
    def a_broadcast_to_the_held_cohort_then_its_training(self, mode):
        # The shared-only gather: the cohort the workspace holds, its shared rows
        # written by the broadcast alone.
        self.a_cohort(set(self.held.rows), mode, send=True, fail=None)

    @rule(ident=st.none() | st.integers(0, 3), variant=st.sampled_from(list(InferenceVariant)))
    def an_evaluation(self, ident, variant):
        if ident is None:  # the stale clients, as run_rounds evaluates them
            federation._accuracies(self.population, self.clients, variant)
        else:
            evaluate(self.clients[ident], variant)

    @rule(ident=st.integers(0, 3), field=st.sampled_from(FIELDS),
          scale=st.sampled_from([-1.0, 0.5]))
    def an_assignment(self, ident, field, scale):
        model = getattr(self.clients[ident], field).clone()
        for array in model._segments():
            array *= scale
        setattr(self.clients[ident], field, model)

    @rule(ident=st.integers(0, 3), field=st.sampled_from(FIELDS))
    def an_in_place_write(self, ident, field):
        for array in getattr(self.clients[ident], field)._segments():
            array *= -1.0
        self.population.wrote([ident])

    @rule(ident=st.integers(0, 3), split=st.sampled_from(["train", "test"]),
          start=st.integers(0, 100), size=st.integers(1, 20))
    def a_new_data_set(self, ident, split, start, size):
        rows = slice(start, start + size)
        setattr(self.clients[ident], split + "_x", self.dataset.features[rows])
        setattr(self.clients[ident], split + "_y", self.dataset.labels[rows])

    @rule(pick=st.integers(0, 3), split=st.sampled_from(["train", "test"]),
          shift=st.integers(1, 2))
    def new_labels(self, pick, split, shift):
        # Labels alone, one assignment, of a client of the held cohort if there is one.
        held = range(4) if self.held is None else self.held.rows
        client = self.clients[held[pick % len(held)]]
        labels = getattr(client, split + "_y")
        setattr(client, split + "_y", (labels + shift) % self.dataset.classes)

    @rule(ids=st.sets(st.integers(0, 3), min_size=1), mode=st.sampled_from(list(Mode)),
          pick=st.integers(0, 3), wider=st.booleans())
    def a_data_set_assigned_between_two_cohorts(self, ids, mode, pick, wider):
        # The cohort trains, so its clients pass the check and the workspace keeps
        # their training sets.  Then one of them gets new labels, and the same
        # cohort trains as a fresh copy does, or a train_x one column too wide,
        # and the same cohort fails the check at the new data version.
        self.a_cohort(ids, mode, send=False, fail=None)
        members = [self.clients[i] for i in sorted(ids)]
        client = members[pick % len(members)]
        if not wider:
            client.train_y = (client.train_y + 1) % self.dataset.classes
            self.a_cohort(ids, mode, send=False, fail=None)
            return
        x, rows = client.train_x, [a.copy() for a in _population_arrays(self.population)]
        client.train_x = np.concatenate([x, x[:, :1]], axis=1)
        with pytest.raises(ValueError) as raised:
            cohort_update(members, 2, 5, self.cfg.lrs, mode, self.cfg.loss_weights)
        (n, width), ident = x.shape, client.client_id
        assert str(raised.value) == (f"client {ident} has train_x of shape ({n}, {width + 1}) "
                                     f"and train_y of shape ({n},), not (n, {width}) and (n,)")
        assert _same_arrays(_population_arrays(self.population), rows)
        client.train_x = x

    @rule(how=st.sampled_from(["deepcopy", "pickle"]))
    def a_copy(self, how):
        world = self.server, self.clients
        self.server, self.clients = (
            copy.deepcopy(world) if how == "deepcopy" else pickle.loads(pickle.dumps(world)))

    @invariant()
    def the_memo_holds_fresh_accuracies(self):
        for variant, memo in self.population.accuracy.items():
            known = ~np.isnan(memo)
            fresh = np.array(_fresh_accuracies(self.clients, variant))
            assert memo[known].tobytes() == fresh[known].tobytes()

    @rule(ids=st.sets(st.integers(0, 3), min_size=1))
    def a_broadcast(self, ids):
        broadcast(self.server, [self.clients[i] for i in sorted(ids)])

    @invariant()
    def a_synced_workspace_holds_the_population_rows(self):
        # synced: every row of its cohort as the population has it; local_synced
        # alone (after a broadcast): every row but the two shared buffers' ones.
        workspace = self.population._workspace
        if workspace is not None and workspace.local_synced:
            copies = workspace.cohort.copies[: None if workspace.synced else -2]
            for source, index, rows, at in copies:
                assert rows[at].tobytes() == source[index].tobytes()
        assert workspace is None or workspace.local_synced or not workspace.synced

    # The client data sets that the_kept_data_sets_are_the_held_cohorts compared,
    # summed over a test run: a run that compares none checks nothing.  listed maps
    # id(workspace) to the data version of its last _Workspace.stack (TestPopulationMemo).
    inspected, listed = 0, {}

    @invariant()
    def the_kept_data_sets_are_the_held_cohorts(self):
        # What the record keeps of a split, while its key carries the current data
        # version, is what the held cohort's data sets give now, in slot order: the
        # concatenated training sets and a zero row, and each run's stacked test
        # sets, a padded test row repeating the client's last row, with label -1.
        # A record of an older version is stale, so no listing since may have kept it.
        cohort, version = self.held, self.population.data_version
        if cohort is None:
            return
        if cohort.key[1] != version:
            assert PopulationMemo.listed.get(id(self.population._workspace)) != version
            return
        held = [self.clients[i] for i in cohort.rows]
        if "sets" in cohort.kept.get("train", {}):
            features, labels = cohort.kept["train"]["sets"]
            zero = np.zeros((1, features.shape[1]))
            assert features.tobytes() == np.concatenate([*(c.train_x for c in held), zero]).tobytes()
            assert labels.tolist() == [*np.concatenate([c.train_y for c in held]), 0]
            PopulationMemo.inspected += len(held)
        for a, (x, labels, sizes) in cohort.kept.get("test", {}).items():
            assert list(sizes) == [c.test_y.size for c in held[a : a + len(x)]]
            for row, client in enumerate(held[a : a + len(x)]):
                n = client.test_y.size
                assert x[row, :n].tobytes() == client.test_x.tobytes()
                assert (x[row, n:] == client.test_x[-1]).all()
                assert labels[row, :n].tolist() == client.test_y.tolist()
                assert (labels[row, n:] == -1).all()
                PopulationMemo.inspected += 1

    @invariant()
    def the_workspace_references_no_client_or_population(self):
        # Types, modules and functions are skipped: what they reach is not the
        # workspace's.
        skipped = (type, ModuleType, FunctionType, BuiltinFunctionType)
        seen, stack = set(), [self.population._workspace]
        while stack:
            obj = stack.pop()
            if id(obj) in seen or isinstance(obj, skipped):
                continue
            seen.add(id(obj))
            assert not isinstance(obj, (ClientState, federation.Population)), type(obj)
            stack += gc.get_referents(obj)


PopulationMemo.TestCase.settings = settings(max_examples=50, stateful_step_count=15, deadline=None)


class TestPopulationMemo(PopulationMemo.TestCase):
    def runTest(self):
        # The kept-data-sets invariant must compare something over the examples, and
        # it learns the data version of each workspace's last listing from stack.
        PopulationMemo.inspected, PopulationMemo.listed = 0, {}
        stack = federation._Workspace.stack

        def listing(workspace, population, *args):
            PopulationMemo.listed[id(workspace)] = population.data_version
            return stack(workspace, population, *args)

        with mock.patch.object(federation._Workspace, "stack", listing):
            super().runTest()
        assert PopulationMemo.inspected > 0
