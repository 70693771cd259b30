"""End-to-end acceptance gate.

Each test checks one headline property of the simulator at a fixed
tolerance and prints a one-line verdict straight to the terminal,
bypassing pytest's capture, so a full run reads as a checklist.  The
training runs pin seeds 0-4 and the whole stack is deterministic, so
the numbers quoted in the verdict lines reproduce exactly.
"""

import time
from dataclasses import fields

import numpy as np

from fedmrl.core import (
    TheoryConstants,
    forward_loss,
    init_projector,
    loss_gradients,
    lr_bound,
    parameter_vector,
    with_parameter_vector,
)
from fedmrl.data import (
    ClassCountSpec,
    DirichletSpec,
    gen_synthetic,
    label_proportions,
    partition_class_count,
    partition_dirichlet,
    split_train_test,
)
from fedmrl.experiment import run_experiment
from fedmrl.federation import (
    Mode,
    RunConfig,
    ServerState,
    Upload,
    aggregate,
    broadcast,
    build_clients,
    cohort_update,
    run_training,
)
from fedmrl.models import ModelConfig, init_model
from fedmrl.numerics import derive_rng, finite_diff_gradient, make_rng, relative_error

SEEDS = range(5)
LOCAL_STACKS = ((24,), (22,), (20,), (18,), (16,))


def _verdict(capsys, label, ok, detail):
    with capsys.disabled():
        print(f"acceptance | {label}: {'PASS' if ok else 'FAIL'} ({detail})", flush=True)
    assert ok, f"{label}: {detail}"


def synthetic_run(seed, mode, *, classes_per_client=2, spread=4.0, d1=4, rounds=50):
    """Reference setup: 10 classes, 10 clients, full participation, E=1."""
    dataset = gen_synthetic(10, 16, 60, spread, derive_rng(seed, 3))
    plan = split_train_test(
        partition_class_count(dataset, 10, ClassCountSpec(classes_per_client, seed))
    )
    config = RunConfig(
        n_clients=10,
        rounds=rounds,
        d1=d1,
        d2=16,
        mode=mode,
        seed=seed,
        global_hidden=(16,),
        local_hidden=LOCAL_STACKS,
    )
    return run_training(config, dataset, plan)


def final_accuracy(seed, mode, **kw):
    return synthetic_run(seed, mode, **kw)[-1].avg_test_accuracy


def _reachable_arrays(root):
    """Every numpy array reachable from a graph of dataclasses and containers."""
    seen = set()
    arrays = []
    stack = [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            arrays.append(obj)
        elif isinstance(obj, np.random.Generator):
            continue  # opaque bit-generator state, carries no parameters
        elif isinstance(obj, dict):
            stack.extend(obj.keys())
            stack.extend(obj.values())
        elif isinstance(obj, (list, tuple, set, frozenset)):
            stack.extend(obj)
        elif hasattr(obj, "__dict__"):
            stack.extend(vars(obj).values())
    return arrays


def test_gradient_check_matches_finite_differences(capsys):
    """Analytic gradients of the dual-head loss agree with central differences
    for every parameter of the shared model, private model and projector."""
    start = time.perf_counter()
    worst = 0.0
    for seed in SEEDS:
        rng = make_rng(seed)
        g = init_model(ModelConfig(6, (5,), 3, 3), rng)
        f = init_model(ModelConfig(6, (7,), 4, 3), rng)
        p = init_projector(3, 4, rng)
        data_rng = make_rng(seed + 1000)
        x = data_rng.normal(size=(5, 6))
        y = data_rng.integers(0, 3, size=5)

        analytic = parameter_vector(*loss_gradients(g, f, p, x, y))

        def objective(vec, g=g, f=f, p=p, x=x, y=y):
            return forward_loss(*with_parameter_vector(g, f, p, vec), x, y)[0]

        numeric = finite_diff_gradient(objective, parameter_vector(g, f, p))
        worst = max(worst, float(relative_error(analytic, numeric).max()))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-4 and elapsed < 10.0
    _verdict(
        capsys,
        "gradient check vs central differences",
        ok,
        f"5 seeds, worst rel err {worst:.2e}, {elapsed:.1f}s",
    )


def test_aggregation_weighted_mean_is_exact(capsys):
    start = time.perf_counter()
    rng = make_rng(0)
    template = init_model(ModelConfig(4, (3,), 2, 3), rng)
    server = ServerState(global_model=template.clone(), rng=make_rng(1))

    def constant_copy(value):
        model = template.clone()
        for arr in model.parameter_arrays():
            arr[...] = value
        return model

    aggregate(
        server,
        [Upload(0, 5, constant_copy(0.0)), Upload(1, 5, constant_copy(2.0))],
    )
    equal_ok = all((a == 1.0).all() for a in server.global_model.parameter_arrays())

    aggregate(
        server,
        [Upload(0, 1, constant_copy(0.0)), Upload(1, 3, constant_copy(4.0))],
    )
    weighted_ok = all((a == 3.0).all() for a in server.global_model.parameter_arrays())

    lone = init_model(ModelConfig(4, (3,), 2, 3), make_rng(9))
    aggregate(server, [Upload(4, 7, lone.clone())])
    single_ok = all(
        got.tobytes() == want.tobytes()
        for got, want in zip(server.global_model.parameter_arrays(), lone.parameter_arrays())
    )

    counts = np.array([3, 5, 7, 11, 13], dtype=np.int64)
    weight_gap = abs(float((counts / counts.sum()).sum()) - 1.0)
    elapsed = time.perf_counter() - start
    ok = equal_ok and weighted_ok and single_ok and weight_gap <= 1e-12 and elapsed < 1.0
    _verdict(
        capsys,
        "aggregation exactness",
        ok,
        f"equal/weighted means exact, single upload bitwise, "
        f"weight sum off by {weight_gap:.1e}, {elapsed:.2f}s",
    )


def test_federated_training_beats_standalone(capsys):
    start = time.perf_counter()
    fed = [final_accuracy(s, Mode.FEDMRL) for s in SEEDS]
    alone = [final_accuracy(s, Mode.STANDALONE) for s in SEEDS]
    wins = sum(f >= a for f, a in zip(fed, alone))
    gap = float(np.mean(fed)) - float(np.mean(alone))
    elapsed = time.perf_counter() - start
    ok = wins >= 4 and gap > 0 and elapsed < 300.0
    _verdict(
        capsys,
        "federated beats standalone",
        ok,
        f"wins {wins}/5, mean accuracy gap {gap:+.4f}, {elapsed:.0f}s",
    )


def test_dual_head_gap_and_its_shrinkage(capsys):
    """Training the shared header on the fused prefix helps most when the
    prefix is narrow; at d1 == d2 the two heads read the same row and the
    edge over the single-head ablation should fade."""
    start = time.perf_counter()

    def mean_gap(d1):
        fed = [final_accuracy(s, Mode.FEDMRL, d1=d1) for s in SEEDS]
        ablated = [final_accuracy(s, Mode.NO_MRL, d1=d1) for s in SEEDS]
        return float(np.mean(fed)) - float(np.mean(ablated))

    narrow = mean_gap(4)
    square = mean_gap(16)
    elapsed = time.perf_counter() - start
    ok = narrow >= 0 and square <= narrow and elapsed < 600.0
    _verdict(
        capsys,
        "dual-head gain and shrinkage",
        ok,
        f"gap {narrow:+.4f} at d1=4, {square:+.4f} at d1=16, {elapsed:.0f}s",
    )


def test_accuracy_robust_to_class_skew(capsys):
    """Seed-averaged accuracy must not fall by more than two points at any
    step as clients go from 2-class shards to full class coverage."""
    start = time.perf_counter()
    means = []
    for c in (2, 4, 6, 8, 10):
        accs = [
            final_accuracy(s, Mode.FEDMRL, classes_per_client=c, spread=1.0)
            for s in SEEDS
        ]
        means.append(float(np.mean(accs)))
    drops = np.diff(means)
    elapsed = time.perf_counter() - start
    ok = bool((drops >= -0.02).all()) and elapsed < 600.0
    _verdict(
        capsys,
        "robust to class skew",
        ok,
        f"means {np.round(means, 4).tolist()}, worst step {drops.min():+.4f}, {elapsed:.0f}s",
    )


def test_dirichlet_alpha_controls_skew(capsys):
    start = time.perf_counter()

    def stats(alpha):
        devs, entropies = [], []
        for seed in range(20):
            ds = gen_synthetic(10, 16, 60, 1.0, derive_rng(seed, 3))
            plan = partition_dirichlet(ds, 10, DirichletSpec(alpha, seed))
            props = np.stack([label_proportions(ds, c.pool) for c in plan.clients])
            devs.append(np.abs(props - 0.1).max())
            clipped = np.clip(props, 1e-12, None)
            entropies.append(float((-clipped * np.log(clipped)).sum(axis=1).mean()))
        return float(np.mean(devs)), float(np.mean(entropies))

    dev_flat, entropy_flat = stats(1000.0)
    _, entropy_skewed = stats(0.1)
    elapsed = time.perf_counter() - start
    ok = dev_flat <= 0.1 and entropy_skewed < entropy_flat and elapsed < 30.0
    _verdict(
        capsys,
        "dirichlet partition statistics",
        ok,
        f"alpha=1000 max dev {dev_flat:.4f}, entropy {entropy_skewed:.3f} < "
        f"{entropy_flat:.3f} at alpha=0.1, {elapsed:.1f}s",
    )


def test_train_loss_running_mean_decreases(capsys):
    """With the step size under the admissible bound, the window-10 running
    mean of round losses must be non-increasing in at least 95% of steps."""
    start = time.perf_counter()
    constants = TheoryConstants(
        lipschitz=2.0, grad_variance=1.0, agg_variation=0.25, epsilon=1.0, local_iters=1
    )
    bound = lr_bound(constants)
    lr = RunConfig(n_clients=10, rounds=1, d1=4, d2=16).lr_global
    worst = 1.0
    for seed in range(3):
        reports = synthetic_run(seed, Mode.FEDMRL, rounds=100)
        losses = np.array([r.mean_train_loss for r in reports])
        running = np.convolve(losses, np.ones(10) / 10, mode="valid")
        worst = min(worst, float((np.diff(running) <= 0).mean()))
    elapsed = time.perf_counter() - start
    ok = lr < bound and worst >= 0.95 and elapsed < 300.0
    _verdict(
        capsys,
        "running-mean loss descent",
        ok,
        f"lr {lr} < bound {bound}, worst non-increasing fraction {worst:.3f} "
        f"over 3 seeds x 100 rounds, {elapsed:.0f}s",
    )


def test_ledgers_match_hand_formulas(capsys):
    start = time.perf_counter()

    def affine_chain(dims):
        return sum(2 * a * b for a, b in zip(dims, dims[1:]))

    def make_inputs(classes, dim, per_class, n_clients, seed):
        ds = gen_synthetic(classes, dim, per_class, 1.0, derive_rng(seed, 3))
        plan = split_train_test(
            partition_class_count(ds, n_clients, ClassCountSpec(classes, seed))
        )
        return ds, plan

    checks = []

    # heterogeneous clients, full participation, one epoch
    ds, plan = make_inputs(4, 10, 40, 4, 0)
    cfg = RunConfig(
        n_clients=4, rounds=2, d1=3, d2=6, seed=0,
        global_hidden=(8,), local_hidden=((10,), (9,)),
    )
    reports = run_training(cfg, ds, plan)
    theta = (10 * 8 + 8) + (8 * 3 + 3) + 3 * 4
    shared_fwd = affine_chain((10, 8, 3)) + 2 * 3 * 4
    mix_fwd = 2 * (3 + 6) * 6
    flops = 0
    for ident, shard in enumerate(plan.clients):
        hidden = (10,) if ident % 2 == 0 else (9,)
        local_fwd = affine_chain((10, *hidden, 6)) + 2 * 6 * 4
        flops += 3 * (shared_fwd + mix_fwd + local_fwd) * len(shard.train)
    checks.append(
        all(
            r.uplink_params == 4 * theta
            and r.downlink_params == 4 * theta
            and r.flops == flops
            for r in reports
        )
    )

    # half participation, uniform local stacks so the ledger is draw-independent
    ds, plan = make_inputs(4, 10, 40, 4, 1)
    cfg = RunConfig(
        n_clients=4, rounds=2, participation=0.5, local_epochs=2, d1=4, d2=8,
        seed=1, global_hidden=(12, 6), local_hidden=((14, 7),),
    )
    reports = run_training(cfg, ds, plan)
    theta = (10 * 12 + 12) + (12 * 6 + 6) + (6 * 4 + 4) + 4 * 4
    per_sample = (
        affine_chain((10, 12, 6, 4)) + 2 * 4 * 4
        + 2 * (4 + 8) * 8
        + affine_chain((10, 14, 7, 8)) + 2 * 8 * 4
    )
    n_train = len(plan.clients[0].train)
    checks.append(
        all(
            r.uplink_params == 2 * theta
            and r.downlink_params == 2 * theta
            and r.flops == 2 * 3 * per_sample * n_train * 2
            for r in reports
        )
    )

    # standalone: private model only, zero communication
    ds, plan = make_inputs(3, 6, 30, 3, 2)
    cfg = RunConfig(
        n_clients=3, rounds=2, d1=2, d2=5, mode=Mode.STANDALONE, seed=2,
        global_hidden=(4,), local_hidden=((8,), (6,), (5,)),
    )
    reports = run_training(cfg, ds, plan)
    flops = 0
    for ident, shard in enumerate(plan.clients):
        hidden = ((8,), (6,), (5,))[ident]
        flops += 3 * (affine_chain((6, *hidden, 5)) + 2 * 5 * 3) * len(shard.train)
    checks.append(
        all(
            r.uplink_params == 0 and r.downlink_params == 0 and r.flops == flops
            for r in reports
        )
    )

    elapsed = time.perf_counter() - start
    ok = all(checks) and elapsed < 1.0
    _verdict(
        capsys,
        "communication and flop ledgers",
        ok,
        f"3 configs integer-exact, standalone comm 0, {elapsed:.2f}s",
    )


def test_experiment_reports_byte_identical(capsys, tmp_path):
    start = time.perf_counter()
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(
        "schema_version = 1\n"
        "partition = class_count\n"
        "classes_per_client = 2\n"
        "n_clients = 5\n"
        "rounds = 10\n"
        "d1 = 4\n"
        "d2 = 8\n"
        "classes = 6\n"
        "input_dim = 8\n"
        "per_class = 30\n"
        "seed = 3\n"
    )
    code_a = run_experiment(cfg_path, out_dir=str(tmp_path / "a"))
    code_b = run_experiment(cfg_path, out_dir=str(tmp_path / "b"))
    same_csv = (tmp_path / "a" / "report.csv").read_bytes() == (
        tmp_path / "b" / "report.csv"
    ).read_bytes()
    same_json = (tmp_path / "a" / "report.json").read_bytes() == (
        tmp_path / "b" / "report.json"
    ).read_bytes()
    elapsed = time.perf_counter() - start
    ok = code_a == 0 and code_b == 0 and same_csv and same_json and elapsed < 120.0
    _verdict(
        capsys,
        "deterministic report bytes",
        ok,
        f"csv identical {same_csv}, json identical {same_json}, {elapsed:.1f}s",
    )


def test_server_never_sees_private_parameters(capsys):
    """The upload type has no slot for private parts, every uploaded array is
    shaped like the shared model, and zeroing all server-reachable arrays
    after a full round leaves private models and projectors untouched."""
    ds = gen_synthetic(6, 8, 30, 1.0, derive_rng(0, 3))
    plan = split_train_test(partition_class_count(ds, 4, ClassCountSpec(3, 0)))
    cfg = RunConfig(
        n_clients=4, rounds=1, d1=3, d2=6, seed=0,
        global_hidden=(6,), local_hidden=((9,), (7,)),
    )
    server, clients = build_clients(cfg, ds, plan)
    fields_ok = {f.name for f in fields(Upload)} == {
        "client_id", "n_samples", "model",
    }

    template_shapes = [a.shape for a in server.global_model.parameter_arrays()]
    broadcast(server, clients)
    uploads = []
    for client in clients:
        upload, _ = cohort_update(
            [client], cfg.local_epochs, cfg.batch_size, cfg.lrs, cfg.mode, cfg.loss_weights
        )[0]
        uploads.append(upload)
    shapes_ok = all(
        [a.shape for a in u.model.parameter_arrays()] == template_shapes for u in uploads
    )
    aggregate(server, uploads)

    server_arrays = _reachable_arrays(server)
    private_arrays = []
    for client in clients:
        private_arrays.extend(_reachable_arrays(client.local_model))
        private_arrays.extend(_reachable_arrays(client.projector))
    alias_ok = not any(
        np.shares_memory(s, p) for s in server_arrays for p in private_arrays
    )
    snapshots = [p.copy() for p in private_arrays]
    for arr in server_arrays:
        arr[...] = 0.0
    unchanged_ok = all((p == s).all() for p, s in zip(private_arrays, snapshots))

    ok = fields_ok and shapes_ok and alias_ok and unchanged_ok
    _verdict(
        capsys,
        "upload privacy surface",
        ok,
        f"{len(uploads)} uploads all shared-shaped, {len(private_arrays)} private "
        f"arrays survive zeroing {len(server_arrays)} server arrays",
    )
