import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedmrl import core, federation, models
from fedmrl.core import (
    InferenceVariant,
    LearningRates,
    LossWeights,
    Mode,
    Projector,
    TheoryConstants,
    forward_loss,
    forward_loss_single,
    infer,
    init_projector,
    loss_gradients,
    lr_bound,
    parameter_vector,
    train_step,
    train_step_single,
    with_parameter_vector,
)
from fedmrl.models import (
    IDENTITY,
    AffineLayer,
    Extractor,
    Header,
    ModelConfig,
    Net,
    init_model,
)
from fedmrl.numerics import (
    NonFiniteError,
    ShapeError,
    finite_diff_gradient,
    make_rng,
    relative_error,
)

D1, D2, CLASSES, INPUT = 3, 4, 3, 6


def tiny_models(seed=0, d1=D1, d2=D2, classes=CLASSES, input_dim=INPUT):
    """One hidden layer on each side; small enough for finite differences."""
    rng = make_rng(seed)
    g = init_model(ModelConfig(input_dim, (5,), d1, classes), rng)
    f = init_model(ModelConfig(input_dim, (7,), d2, classes), rng)
    p = init_projector(d1, d2, rng)
    return g, f, p


def selection(d1, d2):
    """Projector that copies rep_local through and ignores rep_global.

    fused == rep_local exactly, which reduces the ablated loss to a plain
    local-model loss.
    """
    weight = np.zeros((d2, d1 + d2))
    weight[:, d1:] = np.eye(d2)
    return Projector(weight)


def tiny_batch(seed=0, n=5, input_dim=INPUT, classes=CLASSES):
    rng = make_rng(seed + 1000)
    return rng.normal(size=(n, input_dim)), rng.integers(0, classes, size=n)


def hand_models(rep_global, rep_local, mix, head_global, head_local):
    """Models whose extractors map the one input column 1.0 to the given
    representations (one identity layer each, no bias), with the given
    projector and header weights."""

    def net(rep, head):
        layer = AffineLayer(np.array(rep, dtype=np.float64)[:, None], None, IDENTITY)
        return Net(Extractor([layer]), Header(np.array(head, dtype=np.float64)))

    projector = Projector(np.array(mix, dtype=np.float64))
    return net(rep_global, head_global), net(rep_local, head_local), projector


def cross_entropy(logits, label):
    return math.log(sum(math.exp(v) for v in logits)) - logits[label]


ONE = np.ones((1, 1))
LOCAL_ONLY, GLOBAL_ONLY = LossWeights(0.0, 1.0), LossWeights(1.0, 0.0)


def test_the_splice_puts_the_global_part_first():
    # spliced = [2 | 5, 1]; the projector keeps columns 0 and 2, and the
    # identity local header reads fused = [2, 1].  Local part first, the
    # spliced row would be [5, 1, 2] and fused [5, 2].
    g, f, p = hand_models([2.0], [5.0, 1.0], [[1, 0, 0], [0, 0, 1]], [[1.0], [0.0]], np.eye(2))
    total, (loss_g, loss_f) = forward_loss(g, f, p, ONE, np.array([1]), LOCAL_ONLY)
    assert loss_g is None and total == loss_f
    assert math.isclose(loss_f, cross_entropy([2.0, 1.0], 1), rel_tol=1e-12)
    assert infer(g, f, p, ONE).tolist() == [0]


def test_the_projector_mixes_a_tiny_hand_case():
    # W row i dotted with the spliced row [3 | 4, 5]: [1,0,1] and [0,2,0]
    # give fused [8, 8], which the local header reads as logits [8, 8, 0].
    mix = [[1.0, 0.0, 1.0], [0.0, 2.0, 0.0]]
    g, f, p = hand_models([3.0], [4.0, 5.0], mix, [[0.0], [0.0], [1.0]], [[1, 0], [0, 1], [0, 0]])
    assert p.d2 == 2 and p.d1 == 1
    total, _ = forward_loss(g, f, p, ONE, np.array([2]), LOCAL_ONLY)
    assert math.isclose(total, cross_entropy([8.0, 8.0, 0.0], 2), rel_tol=1e-12)


def test_the_global_head_reads_the_d1_prefix_of_the_fused_row():
    # fused = [9, 8]: the global header reads [9] only, the local header
    # both columns, so MIX_SMALL and MIX_LARGE pick different classes.
    mix = [[1.0, 0.0, 1.0], [0.0, 2.0, 0.0]]
    g, f, p = hand_models([3.0], [4.0, 6.0], mix, [[1.0], [0.0], [-1.0]], [[0, 1], [1, 0], [0, 0]])
    total, (loss_g, _) = forward_loss(g, f, p, ONE, np.array([1]), GLOBAL_ONLY)
    assert math.isclose(loss_g, cross_entropy([9.0, 0.0, -9.0], 1), rel_tol=1e-12)
    assert total == loss_g
    assert infer(g, f, p, ONE, InferenceVariant.MIX_SMALL).tolist() == [0]
    assert infer(g, f, p, ONE, InferenceVariant.MIX_LARGE).tolist() == [1]
    # The second fused column is out of the global head's sight.
    g, f, p = hand_models([3.0], [-50.0, 6.0], mix, g.header.weight, f.header.weight)
    assert forward_loss(g, f, p, ONE, np.array([1]), GLOBAL_ONLY)[1][0] == loss_g


def test_dimension_chain_is_validated():
    g, f, p = tiny_models()
    x, y = tiny_batch()
    with pytest.raises(ShapeError, match="d1"):
        # swap roles so d1 > d2
        wide_g = init_model(ModelConfig(INPUT, (5,), D2 + 1, CLASSES), make_rng(1))
        forward_loss(wide_g, f, p, x, y)
    with pytest.raises(ShapeError, match="projector"):
        forward_loss(g, f, init_projector(D1, D2 + 1, make_rng(2)), x, y)
    with pytest.raises(ShapeError, match="input columns"):
        forward_loss(init_model(ModelConfig(INPUT + 1, (5,), D1, CLASSES), make_rng(3)), f, p, x, y)
    for variant in InferenceVariant:  # a batch one column too wide
        with pytest.raises(ShapeError, match="columns"):
            infer(g, f, p, np.ones((2, INPUT + 1)), variant)


@pytest.mark.parametrize("d1", [0, D2 + 1])
def test_init_projector_needs_0_below_d1_at_most_d2(d1):
    # RunConfig checks the widths first, so no run reaches this check.
    with pytest.raises(ValueError, match=re.escape("need 0 < d1 <= d2")):
        init_projector(d1, D2, make_rng(0))


@pytest.mark.parametrize(
    "call",
    [
        lambda g, f, p, x, y: AffineLayer(np.zeros((2, 4, 3)), None),
        lambda g, f, p, x, y: Header(np.zeros((2, CLASSES, D2))),
        lambda g, f, p, x, y: Projector(np.zeros((2, D2, D1 + D2))),
        lambda g, f, p, x, y: forward_loss(g, f, p, x, y),
        lambda g, f, p, x, y: train_step_single(f, x, y, 0.1),
        lambda g, f, p, x, y: infer(g, f, p, x),
    ],
    ids=["layer", "header", "projector", "forward_loss", "train_step_single", "infer"],
)
def test_a_stack_over_a_client_axis_is_a_shape_error(call):
    # The public functions serve one client: a weight or a batch with a
    # leading client axis is rejected where it enters.
    x, y = (np.stack([a, a]) for a in tiny_batch())
    with pytest.raises(ShapeError, match="2-D matrix"):
        call(*tiny_models(), x, y)


def test_forward_loss_at_random_init_is_near_ln_classes():
    # Inputs are scaled down so the init softmax is near uniform; the
    # expected cross-entropy of a near-uniform softmax is ln(classes).
    for classes in (3, 5):
        for seed in range(4):
            g, f, p = tiny_models(seed=seed, classes=classes)
            rng = make_rng(seed + 500)
            x = 0.3 * rng.normal(size=(64, INPUT))
            y = rng.integers(0, classes, size=64)
            total, (loss_g, loss_f) = forward_loss(g, f, p, x, y)
            for part in (loss_g, loss_f):
                assert abs(part - math.log(classes)) <= 0.2 * math.log(classes)
            assert abs(total - 2 * math.log(classes)) <= 0.4 * math.log(classes)


def test_forward_loss_total_is_weighted_sum():
    g, f, p = tiny_models()
    x, y = tiny_batch()
    weights = LossWeights(0.3, 1.7)
    total, (loss_g, loss_f) = forward_loss(g, f, p, x, y, weights)
    assert math.isclose(total, 0.3 * loss_g + 1.7 * loss_f, rel_tol=1e-12)


def test_loss_weights_reject_negative():
    with pytest.raises(ValueError):
        LossWeights(-0.1, 1.0)


@pytest.mark.parametrize("seed", range(3))
def test_gradcheck_full_graph_miniature(seed):
    g, f, p = tiny_models(seed=seed)
    x, y = tiny_batch(seed=seed)
    analytic = parameter_vector(*loss_gradients(g, f, p, x, y))

    def objective(vec):
        g2, f2, p2 = with_parameter_vector(g, f, p, vec)
        return forward_loss(g2, f2, p2, x, y)[0]

    numeric = finite_diff_gradient(objective, parameter_vector(g, f, p))
    assert relative_error(analytic, numeric).max() <= 1e-4


def test_gradcheck_weighted_loss():
    g, f, p = tiny_models(seed=7)
    x, y = tiny_batch(seed=7)
    weights = LossWeights(0.25, 2.0)
    analytic = parameter_vector(*loss_gradients(g, f, p, x, y, weights))

    def objective(vec):
        g2, f2, p2 = with_parameter_vector(g, f, p, vec)
        return forward_loss(g2, f2, p2, x, y, weights)[0]

    numeric = finite_diff_gradient(objective, parameter_vector(g, f, p))
    assert relative_error(analytic, numeric).max() <= 1e-4


NO_MRL = LossWeights(0.0, 1.0)


def test_gradcheck_no_mrl_ablation():
    g, f, p = tiny_models(seed=5)
    x, y = tiny_batch(seed=5)
    analytic = parameter_vector(*loss_gradients(g, f, p, x, y, NO_MRL))

    def objective(vec):
        g2, f2, p2 = with_parameter_vector(g, f, p, vec)
        return forward_loss(g2, f2, p2, x, y, NO_MRL)[0]

    numeric = finite_diff_gradient(objective, parameter_vector(g, f, p))
    assert relative_error(analytic, numeric).max() <= 1e-4


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    lr=st.floats(1e-4, 1.0),
    bad=st.sampled_from([np.nan, np.inf, -np.inf]),
    local_head=st.sampled_from([1.0, 0.5, 2.0]),
)
def test_zero_global_weight_never_reads_the_global_header(seed, lr, bad, local_head):
    # A global header full of NaN or infinities cannot reach a loss, a
    # gradient or a step that leaves it out of the graph.
    g, f, p = tiny_models(seed=seed)
    x, y = tiny_batch(seed=seed, n=8)
    weights = LossWeights(0.0, local_head)
    poisoned = Net(g.extractor, Header(np.full_like(g.header.weight, bad)))
    lrs = LearningRates.uniform(lr)
    total, (loss_g, loss_f), (g1, _, _) = train_step(poisoned, f, p, x, y, weights, lrs)
    _, (_, clean_f) = forward_loss(g, f, p, x, y, weights)
    assert loss_g is None
    assert loss_f == clean_f
    assert total == local_head * loss_f
    assert g1.header.weight.tobytes() == poisoned.header.weight.tobytes()


def test_ablation_with_selection_projector_is_plain_local_loss():
    g, f, _ = tiny_models(seed=9)
    x, y = tiny_batch(seed=9)
    abl_loss, _ = forward_loss(g, f, selection(D1, D2), x, y, NO_MRL)
    single_loss = forward_loss_single(f, x, y)
    assert math.isclose(abl_loss, single_loss, rel_tol=1e-12)


def test_gradcheck_single_model_path():
    g, f, _ = tiny_models(seed=11)
    x, y = tiny_batch(seed=11)
    loss0, stepped = train_step_single(f, x, y, 0.05)
    assert loss0 == forward_loss_single(f, x, y)
    assert forward_loss_single(stepped, x, y) < loss0


def test_gradcheck_single_model_step():
    # At lr 1 the standalone step moves each parameter by its gradient, so
    # theta - theta' must match central differences of the loss it reports.
    f = tiny_models(seed=20)[1]
    x, y = tiny_batch(seed=20)
    theta = np.concatenate(f._segments())
    _, stepped = train_step_single(f, x, y, 1.0)
    analytic = theta - np.concatenate(stepped._segments())

    def objective(vec):
        return forward_loss_single(f._split(vec), x, y)

    numeric = finite_diff_gradient(objective, theta)
    assert relative_error(analytic, numeric).max() <= 1e-4


def mixed_workspace(seed=30):
    """A cohort workspace gathered over three clients whose private
    architectures share one depth at mixed widths, (7,), (4,) and (6,)
    hidden units, so the workspace pads the last two to 7.  Its plan(0, 3,
    standalone) trains both models or (standalone) the private one alone.
    Returns it and each client's models alone."""
    hidden = ((7,), (4,), (6,))
    g = init_model(ModelConfig(INPUT, (5,), D1, CLASSES), make_rng(seed))
    shapes = [ModelConfig(INPUT, widths, D2, CLASSES) for widths in hidden]
    population = federation.Population(g, shapes, [make_rng(seed + 1 + i) for i in range(3)])
    workspace = federation._Workspace(population)
    workspace.hold(population, ([0, 1, 2], population.data_version), [1, 1, 1])
    workspace.gather()
    return workspace, [(g, *population._models(i)[1:]) for i in range(3)]


def write_flat(arrays, vec):
    """Copy consecutive pieces of vec into arrays, in place."""
    start = 0
    for array in arrays:
        array[...] = vec[start : start + array.size].reshape(array.shape)
        start += array.size


def test_gradcheck_mixed_architecture_cohort():
    # The plan that training runs steps the three clients' padded models in
    # one stack: its private layers are views of the one depth's block.  A
    # cohort's loss is one per client, so the gradient of their sum holds
    # each client's gradient in that client's workspace rows, and the pad
    # entries get a zero gradient, as finite differences find.
    workspace, alone = mixed_workspace()
    plan = workspace.plan(0, 3, False)
    block = workspace.buffers[0][0]
    layers, _ = plan.private
    assert [layer[0].shape for layer in layers] == [(3, 7, INPUT), (3, D2, 7)]
    assert all(np.shares_memory(layer[0], block) for layer in layers)
    rng = make_rng(31)
    x, y = rng.normal(size=(3, 5, INPUT)), rng.integers(0, CLASSES, size=(3, 5))
    weights = LossWeights(0.6, 1.4)
    totals, _, tape = core._loss(plan, x, y, weights)
    for i, (g, f, p) in enumerate(alone):
        # Each client's loss is its padded model's bit for bit, and its own to rounding.
        spans = workspace.nets[0].extractor._spans
        extractor = models._view(Extractor, _flat=block[i].copy(), _spans=spans)
        padded = Net(extractor, f.header)
        assert totals[i] == forward_loss(g, padded, p, x[i], y[i], weights)[0]
        assert math.isclose(totals[i], forward_loss(g, f, p, x[i], y[i], weights)[0], rel_tol=1e-12)
    core._backprop(plan, weights, tape)
    rows, scratch = ([buffer[k] for buffer in workspace.buffers.values()] for k in (0, 1))
    theta, analytic = (np.concatenate([a.ravel() for a in arrays]) for arrays in (rows, scratch))

    def objective(vec):
        write_flat(rows, vec)
        return float(np.sum(core._loss(plan, x, y, weights)[0]))

    numeric = finite_diff_gradient(objective, theta)
    write_flat(rows, theta)
    assert relative_error(analytic, numeric).max() <= 1e-4
    # At lr 1 the step that training takes moves every row by that gradient.
    core._train(plan, x, y, weights, LearningRates.uniform(1.0))
    moved = theta - np.concatenate([a.ravel() for a in rows])
    assert relative_error(moved, numeric).max() <= 1e-4


@pytest.mark.parametrize("mode", list(Mode))
def test_the_padded_rows_of_a_step_are_inert(mode):
    # A padded step on three clients whose batches hold 6, 4 and 2 real rows
    # of 6: the padded rows filled with zeros, with arbitrary finite values or
    # with copies of a real row, under random labels, give the same losses,
    # gradients and stepped parameters, bit for bit.
    weights = {Mode.FEDMRL: LossWeights(0.6, 1.4), Mode.NO_MRL: LossWeights(0.0, 1.0),
               Mode.STANDALONE: None}[mode]
    rng = make_rng(40)
    x, y = rng.normal(size=(3, 6, INPUT)), rng.integers(0, CLASSES, size=(3, 6))
    rows = np.array([6, 4, 2])
    padded = np.arange(6) >= rows[:, None]
    fills = [np.zeros_like(x), 50.0 * rng.normal(size=x.shape), np.repeat(x[:, :1], 6, axis=1)]
    results = []
    for fill in fills:
        workspace, _ = mixed_workspace()
        labels = np.where(padded, rng.integers(0, CLASSES, size=y.shape), y)
        batch = np.where(padded[..., None], fill, x)
        plan = workspace.plan(0, 3, mode is Mode.STANDALONE)
        total, parts = core._train(plan, batch, labels, weights, LearningRates(0.1, 0.2, 0.3), rows)
        buffers = [a.copy() for pair in workspace.buffers.values() for a in pair]
        results.append([total, *(part for part in parts if part is not None), *buffers])
    for other in results[1:]:
        assert [a.tobytes() for a in other] == [a.tobytes() for a in results[0]]


def test_one_step_decreases_loss_and_moves_all_groups():
    g, f, p = tiny_models(seed=2)
    x, y = tiny_batch(seed=2, n=8)
    before = parameter_vector(g, f, p)
    loss0, _, (g1, f1, p1) = train_step(g, f, p, x, y, LossWeights(), LearningRates.uniform(0.02))
    loss1, _ = forward_loss(g1, f1, p1, x, y)
    assert loss1 < loss0

    assert not np.array_equal(
        parameter_vector(g1, f1, p1)[: g.param_count()], before[: g.param_count()]
    )
    assert not np.array_equal(f.header.weight, f1.header.weight)
    assert not np.array_equal(p.weight, p1.weight)
    # the original objects never move
    assert np.array_equal(parameter_vector(g, f, p), before)


def test_train_step_moves_each_group_by_its_checked_gradient():
    # The step that training runs is theta - lr * loss_gradients, bit for
    # bit, and it reports forward_loss's losses from before the step.
    g, f, p = tiny_models(seed=10)
    x, y = tiny_batch(seed=10)
    lrs = LearningRates(0.1, 0.2, 0.3)
    total, parts, stepped = train_step(g, f, p, x, y, LossWeights(), lrs)
    assert (total, parts) == forward_loss(g, f, p, x, y)
    grads = loss_gradients(g, f, p, x, y)
    rates = (lrs.global_model, lrs.local_model, lrs.projector)
    for model, grad, new, lr in zip((g, f, p), grads, stepped, rates):
        for theta, d, moved in zip(model._segments(), grad._segments(), new._segments()):
            assert np.array_equal(moved, theta - lr * d)


def test_zero_learning_rates_keep_parameters():
    g, f, p = tiny_models(seed=4)
    x, y = tiny_batch(seed=4)
    _, _, (g1, f1, p1) = train_step(g, f, p, x, y, LossWeights(), LearningRates.uniform(0.0))
    assert np.array_equal(parameter_vector(g, f, p), parameter_vector(g1, f1, p1))


@pytest.mark.parametrize("lr", [-0.1, math.nan, math.inf])
def test_step_rejects_a_negative_or_non_finite_learning_rate(lr):
    g, f, p = tiny_models(seed=4)
    x, y = tiny_batch(seed=4)
    with pytest.raises(ValueError, match="learning rate"):
        train_step(g, f, p, x, y, LossWeights(), LearningRates(0.1, 0.1, lr))
    with pytest.raises(ValueError, match="learning rate"):
        train_step_single(f, x, y, lr)


@pytest.mark.parametrize("lr", [-0.1, math.nan, math.inf])
@pytest.mark.parametrize("group", range(3))
def test_learning_rates_reject_a_negative_or_non_finite_rate_when_built(group, lr):
    rates = [0.1] * 3
    rates[group] = lr
    message = f"learning rate must be finite and non-negative, got {lr}"
    with pytest.raises(ValueError, match=re.escape(message)):
        LearningRates(*rates)


# The groups a step's rates drive to infinity, and the group the error names:
# the first of global, local and projector that is not finite.
DIVERGING = {"global": ("global",), "local": ("local",), "projector": ("projector",),
             "local+projector": ("local", "projector"), "global+projector": ("global", "projector"),
             "all": ("global", "local", "projector")}


@pytest.mark.parametrize("group", DIVERGING)
def test_step_names_the_group_that_is_not_finite(group):
    g, f, p = tiny_models(seed=3)
    x, y = tiny_batch(seed=3, n=8)
    groups = ("global", "local", "projector")
    named = next(name for name in groups if name in DIVERGING[group])
    lrs = LearningRates(*(1e308 if name in DIVERGING[group] else 0.0 for name in groups))
    match = f"non-finite {named} "
    with np.errstate(over="ignore"), pytest.raises(NonFiniteError, match=match) as error:
        train_step(g, f, p, 1e3 * x, y, LossWeights(), lrs)  # large gradients, finite loss
    assert error.value.group == named


def test_single_model_step_and_infer_reject_non_finite_values():
    g, f, p = tiny_models(seed=5)
    x, y = tiny_batch(seed=5, n=8)
    with np.errstate(over="ignore"), pytest.raises(NonFiniteError, match="non-finite local "):
        train_step_single(f, 1e3 * x, y, 1e308)
    f.header.weight[0, 0] = np.inf
    with np.errstate(invalid="ignore"), pytest.raises(NonFiniteError, match="non-finite loss"):
        forward_loss_single(f, x, y)
    with np.errstate(invalid="ignore"), pytest.raises(NonFiniteError, match="non-finite logits"):
        infer(g, f, p, x, InferenceVariant.SINGLE_LARGE)


def test_parameter_vector_round_trip():
    g, f, p = tiny_models(seed=8)
    vec = parameter_vector(g, f, p)
    g2, f2, p2 = with_parameter_vector(g, f, p, vec)
    assert np.array_equal(parameter_vector(g2, f2, p2), vec)
    with pytest.raises(ShapeError):
        with_parameter_vector(g, f, p, vec[:-1])


def test_infer_tie_breaks_to_lowest_index():
    g, f, p = tiny_models(seed=1)
    f.header.weight[:] = 0.0  # all logits equal
    x, _ = tiny_batch(seed=1)
    preds = infer(g, f, p, x, InferenceVariant.MIX_LARGE)
    assert np.array_equal(preds, np.zeros(len(x), dtype=np.int64))


def test_mix_large_never_reads_global_header():
    g, f, p = tiny_models(seed=13)
    x, _ = tiny_batch(seed=13, n=32)
    base = infer(g, f, p, x, InferenceVariant.MIX_LARGE)
    zeroed = Net(g.extractor, Header(np.zeros_like(g.header.weight)))
    assert np.array_equal(infer(zeroed, f, p, x, InferenceVariant.MIX_LARGE), base)


def test_mix_small_reads_global_header_on_prefix():
    g, f, p = tiny_models(seed=14)
    x, _ = tiny_batch(seed=14, n=64)
    base = infer(g, f, p, x, InferenceVariant.MIX_SMALL)
    zeroed = Net(g.extractor, Header(np.zeros_like(g.header.weight)))
    changed = infer(zeroed, f, p, x, InferenceVariant.MIX_SMALL)
    assert not np.array_equal(changed, base)  # all-zero header predicts class 0


def test_single_large_never_touches_shared_parameters():
    g, f, p = tiny_models(seed=15)
    x, _ = tiny_batch(seed=15, n=32)
    base = infer(g, f, p, x, InferenceVariant.SINGLE_LARGE)
    garbage_g, _, garbage_p = tiny_models(seed=99)
    assert np.array_equal(
        infer(garbage_g, f, garbage_p, x, InferenceVariant.SINGLE_LARGE), base
    )


def test_single_small_never_touches_private_parameters():
    g, f, p = tiny_models(seed=16)
    x, _ = tiny_batch(seed=16, n=32)
    base = infer(g, f, p, x, InferenceVariant.SINGLE_SMALL)
    _, garbage_f, garbage_p = tiny_models(seed=98)
    assert np.array_equal(
        infer(g, garbage_f, garbage_p, x, InferenceVariant.SINGLE_SMALL), base
    )


def test_lr_bound_reference_point():
    constants = TheoryConstants(
        lipschitz=1.0, grad_variance=1.0, agg_variation=0.5, epsilon=1.0, local_iters=1
    )
    assert math.isclose(lr_bound(constants), 0.5, rel_tol=1e-12)


def test_lr_bound_decreases_with_local_iters_and_noise():
    base = TheoryConstants(1.0, 1.0, 0.5, 1.0, 1)
    more_iters = TheoryConstants(1.0, 1.0, 0.5, 1.0, 4)
    more_noise = TheoryConstants(1.0, 3.0, 0.5, 1.0, 1)
    assert lr_bound(more_iters) < lr_bound(base)
    assert lr_bound(more_noise) < lr_bound(base)


def test_lr_bound_requires_epsilon_above_variation():
    with pytest.raises(ValueError, match="admissible"):
        lr_bound(TheoryConstants(1.0, 1.0, 2.0, 1.0, 1))
    with pytest.raises(ValueError):
        TheoryConstants(0.0, 1.0, 0.5, 1.0, 1)


def test_projector_selection_shape():
    sel = selection(2, 3)
    assert sel.weight.shape == (3, 5)
    # The selection passes the local representation through unchanged, so
    # the mixed prediction is the private model's alone.
    g, f, _ = tiny_models(seed=12, d1=2, d2=3)
    x, _ = tiny_batch(seed=12, n=32)
    mixed = infer(g, f, sel, x, InferenceVariant.MIX_LARGE)
    assert np.array_equal(mixed, infer(g, f, sel, x, InferenceVariant.SINGLE_LARGE))
