import json
import math
import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedmrl.core import InferenceVariant, infer, init_projector
from fedmrl.data import DirichletSpec, gen_synthetic, partition_dirichlet, split_train_test
from fedmrl.federation import Mode, RunConfig, build_clients, run_training
from fedmrl.metrics import (
    RoundReport,
    affine_forward_flops,
    comm_cost_round,
    evaluate,
    export_reports,
    first_round_reaching,
    flops_round,
    forward_flops_per_sample,
    load_reports_json,
)
from fedmrl.models import ModelConfig, init_model
from fedmrl.numerics import make_rng


def setup_states(seed=0, n_clients=3, **overrides):
    dataset = gen_synthetic(3, 4, 30, 0.5, make_rng(seed + 300))
    plan = split_train_test(
        partition_dirichlet(dataset, n_clients, DirichletSpec(alpha=3.0, seed=seed))
    )
    defaults = dict(
        n_clients=n_clients, rounds=2, d1=2, d2=4, seed=seed,
        global_hidden=(6,), local_hidden=((8,), (7,)),
    )
    defaults.update(overrides)
    cfg = RunConfig(**defaults)
    server, clients = build_clients(cfg, dataset, plan)
    return cfg, dataset, server, clients


def sample_reports():
    return [
        RoundReport(1, 0.5, (0.25, 0.75), 1.2, 100, 100, 3000),
        RoundReport(2, 0.75, (0.5, 1.0), 0.7, 100, 100, 3000),
    ]


def test_evaluate_matches_brute_force_recount():
    _, _, _, clients = setup_states()
    client = clients[0]
    acc = evaluate(client, InferenceVariant.MIX_LARGE)
    preds = infer(
        client.global_copy, client.local_model, client.projector,
        client.test_x, InferenceVariant.MIX_LARGE,
    )
    hits = sum(int(p == t) for p, t in zip(preds, client.test_y))
    assert math.isclose(acc, hits / len(client.test_y), rel_tol=1e-12)


def test_evaluate_rejects_empty_test_set():
    _, _, _, clients = setup_states()
    client = clients[0]
    client.test_x = client.test_x[:0]
    client.test_y = client.test_y[:0]
    with pytest.raises(ValueError, match="empty test set"):
        evaluate(client, InferenceVariant.MIX_LARGE)


def test_comm_cost_round_totals():
    assert comm_cost_round(1000, 10) == (10000, 10000)
    per_client = comm_cost_round(1000, 1)
    assert per_client == (1000, 1000)
    assert sum(per_client) * 10 == 20000
    with pytest.raises(ValueError):
        comm_cost_round(-1, 10)


def test_affine_forward_flops_definition():
    assert affine_forward_flops(2, 3) == 12
    with pytest.raises(ValueError):
        affine_forward_flops(0, 3)


def test_flops_round_is_linear_in_epochs_and_samples():
    _, _, server, clients = setup_states()
    client = clients[0]
    args = (server.global_model, client.local_model, client.projector)
    one = flops_round(*args, 10, 1, Mode.FEDMRL)
    assert flops_round(*args, 10, 4, Mode.FEDMRL) == 4 * one
    assert flops_round(*args, 30, 1, Mode.FEDMRL) == 3 * one
    assert flops_round(*args, 10, 0, Mode.FEDMRL) == 0


def test_fedmrl_extra_flops_are_exactly_shared_graph_plus_projector():
    cfg, _, server, clients = setup_states()
    client = clients[0]
    fed = forward_flops_per_sample(
        server.global_model, client.local_model, client.projector, Mode.FEDMRL
    )
    alone = forward_flops_per_sample(
        server.global_model, client.local_model, client.projector, Mode.STANDALONE
    )
    g = server.global_model
    shared_graph = sum(
        affine_forward_flops(l.in_dim, l.out_dim) for l in g.extractor.layers
    ) + affine_forward_flops(g.header.in_dim, g.header.classes)
    projector_cost = affine_forward_flops(cfg.d1 + cfg.d2, cfg.d2)
    assert fed - alone == shared_graph + projector_cost
    # the ablation leaves out the shared header only
    ablated = forward_flops_per_sample(
        server.global_model, client.local_model, client.projector, Mode.NO_MRL
    )
    assert fed - ablated == affine_forward_flops(g.header.in_dim, g.header.classes)


def test_flops_closed_form_tiny_network():
    # shared 4->6->2 + header 2->3; local 4->8->4 + header 4->3; projector 6->4.
    _, _, server, clients = setup_states()
    client = clients[0]
    per_sample = forward_flops_per_sample(
        server.global_model, client.local_model, client.projector, Mode.FEDMRL
    )
    expected = (
        2 * (4 * 6 + 6 * 2 + 2 * 3)  # shared extractor and header
        + 2 * (4 * 8 + 8 * 4 + 4 * 3)  # local extractor and header
        + 2 * (6 * 4)  # projector
    )
    assert per_sample == expected


def test_forward_flops_of_a_mixed_population_are_pinned_in_every_mode():
    # Private extractors of one, two and three layers, and a two-hidden-layer
    # shared extractor: (FEDMRL, NO_MRL, STANDALONE) per client, as the
    # formula over each layer's (in, out) gave them before the ledger read
    # the extractors' layouts.
    _, _, _, clients = setup_states(
        n_clients=3, global_hidden=(6, 3), local_hidden=((8,), (7, 5), ())
    )
    modes = (Mode.FEDMRL, Mode.NO_MRL, Mode.STANDALONE)
    flops = [
        [forward_flops_per_sample(c.global_copy, c.local_model, c.projector, m) for m in modes]
        for c in clients
    ]
    assert flops == [[308, 296, 152], [346, 334, 190], [212, 200, 56]]


def test_export_csv_layout_and_stability(tmp_path):
    reports = sample_reports()
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    export_reports(reports, a, "csv")
    export_reports(reports, b, "csv")
    assert a.read_bytes() == b.read_bytes()
    lines = a.read_text().splitlines()
    assert lines[0] == "round,avg_acc,mean_loss,uplink,downlink,flops,client0_acc,client1_acc"
    assert lines[1] == "1,0.5,1.2,100,100,3000,0.25,0.75"
    assert len(lines) == 3


def test_export_empty_reports_writes_header_only(tmp_path):
    path = tmp_path / "empty.csv"
    export_reports([], path, "csv")
    assert path.read_text() == "round,avg_acc,mean_loss,uplink,downlink,flops\n"


def test_export_json_round_trips_exactly(tmp_path):
    reports = sample_reports()
    path = tmp_path / "r.json"
    meta = {"mode": "fedmrl", "seed": 3, "partition_hash": "abc", "target_accuracy": 0.9,
            "first_round_reaching_target": None}
    export_reports(reports, path, "json", meta=meta)
    loaded_meta, loaded = load_reports_json(path)
    assert loaded == reports
    for key, value in meta.items():
        assert loaded_meta[key] == value
    assert loaded_meta["schema_version"] == 1


def test_export_json_bit_stable_and_float_exact(tmp_path):
    # a float with no short decimal form must survive the round trip
    value = 1.0 / 3.0
    reports = [RoundReport(1, value, (value,), value, 1, 1, 1)]
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    export_reports(reports, a, "json")
    export_reports(reports, b, "json")
    assert a.read_bytes() == b.read_bytes()
    _, loaded = load_reports_json(a)
    assert loaded[0].avg_test_accuracy == value


def test_export_rejects_unknown_format(tmp_path):
    with pytest.raises(ValueError, match="format"):
        export_reports([], tmp_path / "x.bin", "binary")


@pytest.mark.parametrize("failing", ["write", "replace"])
@pytest.mark.parametrize("format", ["csv", "json"])
def test_a_failed_export_leaves_the_old_report_and_no_temporary_file(
    tmp_path, monkeypatch, failing, format
):
    path = tmp_path / f"reports.{format}"
    export_reports(sample_reports()[:1], path, format)
    old = path.read_bytes()
    write_text = Path.write_text

    def half_then_fail(self, text, *args, **kwargs):
        write_text(self, text[: len(text) // 2], *args, **kwargs)
        raise OSError("no space left on device")

    def fail(*args, **kwargs):
        raise OSError("cannot replace")

    if failing == "write":
        monkeypatch.setattr(Path, "write_text", half_then_fail)
    else:
        monkeypatch.setattr(os, "replace", fail)
    with pytest.raises(OSError):
        export_reports(sample_reports(), path, format)
    monkeypatch.undo()
    assert path.read_bytes() == old
    assert list(tmp_path.iterdir()) == [path]
    export_reports(sample_reports(), path, format)
    assert list(tmp_path.iterdir()) == [path]


def test_load_rejects_unknown_schema(tmp_path):
    path = tmp_path / "r.json"
    path.write_text('{"schema_version": 9, "reports": []}')
    with pytest.raises(ValueError, match="schema"):
        load_reports_json(path)


def test_first_round_reaching():
    reports = sample_reports()
    assert first_round_reaching(reports, 0.6) == 2
    assert first_round_reaching(reports, 0.4) == 1
    assert first_round_reaching(reports, 0.99) is None
    assert first_round_reaching([], 0.1) is None


def test_run_training_report_ledgers_match_formulas():
    dataset = gen_synthetic(3, 4, 30, 0.5, make_rng(123))
    plan = split_train_test(partition_dirichlet(dataset, 3, DirichletSpec(2.0, 5)))
    cfg = RunConfig(
        n_clients=3, rounds=2, d1=2, d2=4, seed=5, local_epochs=2,
        global_hidden=(6,), local_hidden=((8,), (7,)),
    )
    reports = run_training(cfg, dataset, plan)
    server, clients = build_clients(cfg, dataset, plan)
    shared = server.global_model.param_count()
    expected_flops = sum(
        flops_round(
            server.global_model, c.local_model, c.projector,
            c.n_samples, cfg.local_epochs, Mode.FEDMRL,
        )
        for c in clients
    )
    for report in reports:
        assert report.uplink_params == 3 * shared
        assert report.downlink_params == 3 * shared
        assert report.flops == expected_flops


def _chain_flops(widths):
    """Hand count: 2 * in * out per affine layer of a width chain."""
    return sum(2 * a * b for a, b in zip(widths, widths[1:]))


@settings(max_examples=80, deadline=None)
@given(
    input_dim=st.integers(1, 9),
    global_hidden=st.lists(st.integers(1, 9), max_size=3),
    local_hidden=st.lists(st.integers(1, 9), max_size=3),
    widths=st.tuples(st.integers(1, 6), st.integers(0, 6)),
    classes=st.integers(2, 6),
    mode=st.sampled_from(list(Mode)),
    n_samples=st.integers(0, 60),
    epochs=st.integers(0, 4),
    participants=st.integers(0, 30),
)
def test_ledgers_equal_their_formulas_for_random_architectures(
    input_dim, global_hidden, local_hidden, widths, classes, mode, n_samples, epochs, participants
):
    d1, d2 = widths[0], widths[0] + widths[1]
    rng = make_rng(0)
    g = init_model(ModelConfig(input_dim, tuple(global_hidden), d1, classes), rng)
    f = init_model(ModelConfig(input_dim, tuple(local_hidden), d2, classes), rng)
    p = init_projector(d1, d2, rng)
    local = _chain_flops([input_dim, *local_hidden, d2]) + 2 * d2 * classes
    shared = _chain_flops([input_dim, *global_hidden, d1])
    mix = 2 * (d1 + d2) * d2
    per_sample = {
        Mode.STANDALONE: local,
        Mode.NO_MRL: local + shared + mix,
        Mode.FEDMRL: local + shared + mix + 2 * d1 * classes,
    }[mode]
    assert flops_round(g, f, p, n_samples, epochs, mode) == 3 * per_sample * n_samples * epochs
    chain = [input_dim, *global_hidden, d1]
    size = sum(a * b + b for a, b in zip(chain, chain[1:])) + d1 * classes  # weights, biases, header
    assert comm_cost_round(g.param_count(), participants) == (participants * size,) * 2


@pytest.mark.parametrize("n_samples,epochs", [(-1, 1), (10, -1)])
def test_flops_round_rejects_negative_counts(n_samples, epochs):
    *_, clients = setup_states()
    c = clients[0]
    with pytest.raises(ValueError) as raised:
        flops_round(c.global_copy, c.local_model, c.projector, n_samples, epochs, Mode.FEDMRL)
    assert type(raised.value) is ValueError
    assert str(raised.value) == "sample and epoch counts must be non-negative"
