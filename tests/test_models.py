import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedmrl.core import (
    LossWeights,
    forward_loss_single,
    init_projector,
    loss_gradients,
    parameter_vector,
    train_step_single,
)
from fedmrl.models import (
    CHECKPOINT_VERSION,
    IDENTITY,
    RELU,
    AffineLayer,
    Extractor,
    Header,
    ModelConfig,
    Net,
    init_model,
    load_model,
    save_model,
)
from fedmrl.numerics import (
    ShapeError,
    batch_cross_entropy,
    finite_diff_gradient,
    make_rng,
    relative_error,
)


def flatten_params(extractor, header):
    parts = []
    for layer in extractor.layers:
        parts.append(layer.weight.ravel())
        if layer.bias is not None:
            parts.append(layer.bias.ravel())
    parts.append(header.weight.ravel())
    return np.concatenate(parts)


def rebuild_params(extractor, header, vec):
    """Inverse of flatten_params for the same architecture."""
    pos = 0
    layers = []
    for layer in extractor.layers:
        w = vec[pos : pos + layer.weight.size].reshape(layer.weight.shape)
        pos += layer.weight.size
        b = None
        if layer.bias is not None:
            b = vec[pos : pos + layer.bias.size].reshape(layer.bias.shape)
            pos += layer.bias.size
        layers.append(AffineLayer(w, b, layer.activation))
    head = Header(vec[pos:].reshape(header.weight.shape))
    return Extractor(layers), head


def mean_ce_loss(extractor, header, x, y):
    return forward_loss_single(Net(extractor, header), x, y)


def analytic_param_gradient(extractor, header, x, y):
    """Backprop gradient in flatten_params order, mean-reduced over the batch: the
    standalone step at lr 1 moves every parameter by it."""
    _, stepped = train_step_single(Net(extractor, header), x, y, 1.0)
    return flatten_params(extractor, header) - flatten_params(stepped.extractor, stepped.header)


def test_model_config_validation():
    with pytest.raises(ValueError):
        ModelConfig(0, (4,), 3, 2)
    with pytest.raises(ValueError):
        ModelConfig(4, (4,), 3, 1)
    cfg = ModelConfig(4, (5, 6), 3, 2)
    assert cfg.layer_dims == ((4, 5), (5, 6), (6, 3))


def test_identity_layer_with_identity_weight_is_passthrough():
    # The header reads the batch itself, so the loss is the batch's own.
    layer = AffineLayer(np.eye(3), np.zeros((1, 3)), IDENTITY)
    x = make_rng(0).normal(size=(5, 3))
    y = np.array([0, 1, 2, 0, 1])
    losses, _ = batch_cross_entropy(x, y)
    assert forward_loss_single(Net(Extractor([layer]), Header(np.eye(3))), x, y) == losses.mean()


def test_relu_layer_clamps_negative_preactivations():
    # Pre-activations (-3, -1) clamp to logits (0, 0), whose loss is ln 2;
    # (-1, 2) keeps its positive entry, giving the loss of logits (0, 2).
    model = Net(Extractor([AffineLayer(np.eye(2), None, RELU)]), Header(np.eye(2)))
    assert forward_loss_single(model, np.array([[-3.0, -1.0]]), [1]) == np.log(2.0)
    expected, _ = batch_cross_entropy(np.array([[0.0, 2.0]]), [0])
    assert forward_loss_single(model, np.array([[-1.0, 2.0]]), [0]) == expected[0]


def test_forward_rejects_wrong_input_width():
    model = init_model(ModelConfig(4, (), 3, 2), make_rng(1))
    with pytest.raises(ShapeError):
        forward_loss_single(model, np.ones((2, 5)), [0, 1])


def test_forward_is_pure():
    model = init_model(ModelConfig(4, (6,), 3, 2), make_rng(2))
    x = make_rng(3).normal(size=(8, 4))
    y = np.arange(8) % 2
    before, params = x.copy(), np.concatenate(model._segments())
    assert forward_loss_single(model, x, y) == forward_loss_single(model, x, y)
    assert np.array_equal(x, before)
    assert np.concatenate(model._segments()).tobytes() == params.tobytes()


def test_param_count_closed_form_wide_config():
    # 3072 -> 2000 -> 500 extractor with biases, plus a 500 -> 10 header.
    cfg = ModelConfig(3072, (2000,), 500, 10)
    model = init_model(cfg, make_rng(0))
    extractor, header = model.extractor, model.header
    assert extractor.param_count() == 3072 * 2000 + 2000 + 2000 * 500 + 500
    assert header.param_count() == 500 * 10


def test_param_count_small_exact():
    cfg = ModelConfig(6, (5,), 4, 3)
    model = init_model(cfg, make_rng(0))
    extractor, header = model.extractor, model.header
    assert extractor.param_count() == 6 * 5 + 5 + 5 * 4 + 4
    assert header.param_count() == 4 * 3


def test_init_is_deterministic_and_bounded():
    cfg = ModelConfig(7, (6,), 5, 4)
    model = init_model(cfg, make_rng(42))
    ex1, hd1 = model.extractor, model.header
    model = init_model(cfg, make_rng(42))
    ex2, hd2 = model.extractor, model.header
    assert all(
        np.array_equal(a.weight, b.weight) for a, b in zip(ex1.layers, ex2.layers)
    )
    assert np.array_equal(hd1.weight, hd2.weight)
    # He bound for the first layer, Xavier bound for the header.
    assert np.abs(ex1.layers[0].weight).max() <= np.sqrt(6.0 / 7)
    assert np.abs(hd1.weight).max() <= np.sqrt(6.0 / (5 + 4))
    assert all(np.array_equal(l.bias, np.full((1, l.out_dim), 0.01)) for l in ex1.layers)


@pytest.mark.parametrize("hidden", [(), (5,), (8, 6), (1, 2, 3)])
@pytest.mark.parametrize("seed", [0, 42])
def test_init_draws_each_weight_as_rng_uniform_in_the_documented_order(hidden, seed):
    # init_model and init_projector draw through rng.random and one shared
    # transform (the population draws its rows the same way): each weight must be
    # rng.uniform(-bound, bound, size=(out, in)) bit for bit, layer by layer, then
    # the header, then a projector drawn from the same rng.
    config = ModelConfig(6, hidden, 4, 3)
    drawn, rng = init_model(config, make_rng(seed)), make_rng(seed)
    for layer, (fan_in, fan_out) in zip(drawn.extractor.layers, config.layer_dims):
        bound = np.sqrt(6.0 / fan_in)
        assert layer.weight.tobytes() == rng.uniform(-bound, bound, (fan_out, fan_in)).tobytes()
        assert layer.bias.tobytes() == np.full((1, fan_out), 0.01).tobytes()
    bound = np.sqrt(6.0 / (4 + 3))
    assert drawn.header.weight.tobytes() == rng.uniform(-bound, bound, (3, 4)).tobytes()
    projector, bound = init_projector(2, 4, make_rng(seed + 1)), np.sqrt(6.0 / (2 + 4 + 4))
    assert projector.weight.tobytes() == make_rng(seed + 1).uniform(-bound, bound, (4, 6)).tobytes()


@pytest.mark.parametrize(
    "config",
    [
        ModelConfig(6, (), 4, 3),
        ModelConfig(6, (5,), 4, 3),
        ModelConfig(5, (8, 6), 4, 3),
    ],
)
def test_gradcheck_against_finite_differences(config):
    rng = make_rng(101)
    model = init_model(config, rng)
    extractor, header = model.extractor, model.header
    x = rng.normal(size=(7, config.input_dim))
    y = rng.integers(0, config.classes, size=7)
    analytic = analytic_param_gradient(extractor, header, x, y)
    vec0 = flatten_params(extractor, header)

    def objective(vec):
        ex, hd = rebuild_params(extractor, header, vec)
        return mean_ce_loss(ex, hd, x, y)

    numeric = finite_diff_gradient(objective, vec0)
    assert relative_error(analytic, numeric).max() <= 1e-4


def test_input_gradient_matches_finite_differences():
    # The header's input gradient is what training routes into the
    # extractors.  An identity layer in front of it gets that gradient as
    # its bias gradient, here for three batches of one row each.
    rng = make_rng(55)
    header = init_model(ModelConfig(5, (6,), 4, 3), rng).header
    reps = rng.normal(size=(3, 1, 4))
    labels = rng.integers(0, 3, size=(3, 1))
    model = Net(Extractor([AffineLayer(np.eye(4), np.zeros((1, 4)), IDENTITY)]), header)
    bias = model.extractor.layers[0].bias
    for rep, y in zip(reps, labels):
        _, stepped = train_step_single(model, rep, y, 1.0)
        d_rep = bias - stepped.extractor.layers[0].bias

        def objective(v):
            return forward_loss_single(model, v.reshape(1, 4), y)

        numeric = finite_diff_gradient(objective, rep)
        assert relative_error(d_rep.ravel(), numeric).max() <= 1e-4


def test_backward_is_linear_in_upstream_gradient():
    # Two consumers of the representation may sum their gradients first:
    # the gradient of the weighted dual-head loss is the sum of each head's.
    rng = make_rng(9)
    g = init_model(ModelConfig(4, (5,), 3, 2), rng)
    f = init_model(ModelConfig(4, (6,), 5, 2), rng)
    p = init_projector(3, 5, rng)
    x, y = rng.normal(size=(6, 4)), rng.integers(0, 2, size=6)
    joint, ga, gb = (
        parameter_vector(*loss_gradients(g, f, p, x, y, LossWeights(*w)))
        for w in ((0.7, 1.3), (0.7, 0.0), (0.0, 1.3))
    )
    assert np.allclose(joint, ga + gb, atol=1e-12)
    assert not np.allclose(ga, 0.0) and not np.allclose(gb, 0.0)


def test_step_returns_new_model_and_preserves_original():
    rng = make_rng(20)
    model = init_model(ModelConfig(4, (5,), 3, 2), rng)
    extractor, header = model.extractor, model.header
    x = rng.normal(size=(6, 4))
    y = rng.integers(0, 2, size=6)

    before = flatten_params(extractor, header)
    _, stepped = train_step_single(model, x, y, 0.1)
    assert np.array_equal(flatten_params(extractor, header), before)
    assert not np.array_equal(flatten_params(stepped.extractor, stepped.header), before)
    # lr 0 reproduces the parameters exactly.
    _, zero = train_step_single(model, x, y, 0.0)
    assert np.array_equal(flatten_params(zero.extractor, zero.header), before)


def test_parameters_are_views_of_flat_vectors_that_copies_keep():
    model = init_model(ModelConfig(4, (5,), 3, 2), make_rng(3))
    flat, head = model._segments()
    for array in model.extractor.parameter_arrays():
        assert np.shares_memory(array, flat)
    model.extractor.layers[0].bias[0, 0] = 7.0
    assert 7.0 in flat
    for twin in (model.clone(), copy.deepcopy(model)):
        assert not any(np.shares_memory(a, b) for a in twin._segments() for b in (flat, head))
        twin.header.weight[...] = 0.0  # writes through to the copy's own vectors
        assert not twin._segments()[-1].any() and head.all()
        assert twin._segments()[0].tobytes() == flat.tobytes()
        twin.extractor.layers[0].weight[...] = 5.0
        assert 5.0 in twin._segments()[0] and 5.0 not in flat


def _arrays(model):
    """Every array a Net's parameters sit in: its vectors, its layers' views, its header."""
    return [*model._segments(), *model.extractor.parameter_arrays(), model.header.weight]


@pytest.mark.parametrize("way", ["split a stack", "split a column slice", "over a block"])
def test_a_model_over_a_stack_of_rows_views_each_row(way):
    # A layout's model over C rows is C clients' models in one: its vectors,
    # layer views and header weight lead with the client axis.  Every one of
    # them views the rows it was built over, also over a column slice of a
    # wider buffer, whose header weight's flat vector must not be a copy, and
    # row i's model equals the model of row i alone.
    layout = init_model(ModelConfig(4, (5,), 3, 2), make_rng(3))
    size, cut = layout.param_count(), layout.extractor.param_count()
    wide = make_rng(4).normal(size=(3, size + 7))
    stack = wide[:, 2 : 2 + size].copy()
    block, headers = stack[:, :cut].copy(), stack[:, cut:].copy()
    model_of = {
        "split a stack": lambda rows: layout._split(stack[rows]),
        "split a column slice": lambda rows: layout._split(wide[rows, 2 : 2 + size]),
        "over a block": lambda rows: layout._over((block[rows], headers[rows])),
    }[way]
    model = model_of(slice(None))
    assert model.header.weight.shape == (3, 2, 3)
    assert [layer.weight.shape for layer in model.extractor.layers] == [(3, 5, 4), (3, 3, 5)]
    for array in _arrays(model):
        assert any(np.shares_memory(array, rows) for rows in (stack, wide, block, headers))
    for i in range(3):
        alone = _arrays(model_of(i))
        assert [a[i].shape for a in _arrays(model)] == [a.shape for a in alone]
        assert [a[i].tobytes() for a in _arrays(model)] == [a.tobytes() for a in alone]
    model.header.weight[1] = 0.0  # a write through the stack's model reaches row 1 alone
    assert not model_of(1).header.weight.any() and model_of(2).header.weight.all()


def test_clone_is_deep():
    model = init_model(ModelConfig(3, (), 2, 2), make_rng(1))
    extractor, header = model.extractor, model.header
    copy = model.clone()
    copy_ex, copy_hd = copy.extractor, copy.header
    copy_ex.layers[0].weight[0, 0] += 1.0
    copy_hd.weight[0, 0] += 1.0
    assert extractor.layers[0].weight[0, 0] != copy_ex.layers[0].weight[0, 0]
    assert header.weight[0, 0] != copy_hd.weight[0, 0]


def test_net_rejects_an_extractor_whose_width_is_not_the_header_input():
    extractor = init_model(ModelConfig(4, (5,), 3, 2), make_rng(1)).extractor
    assert Net(extractor, Header(np.zeros((2, 3)))).rep_dim == 3
    for width in (2, 4):
        with pytest.raises(ShapeError, match="rep width 3 != header input"):
            Net(extractor, Header(np.zeros((2, width))))


def test_checkpoint_round_trip_is_exact(tmp_path):
    rng = make_rng(77)
    model = init_model(ModelConfig(5, (4,), 3, 4), rng)
    extractor, header = model.extractor, model.header
    path = tmp_path / "model.json"
    save_model(path, model)
    loaded = load_model(path)
    loaded_ex, loaded_hd = loaded.extractor, loaded.header
    for a, b in zip(extractor.layers, loaded_ex.layers):
        assert np.array_equal(a.weight, b.weight)
        assert np.array_equal(a.bias, b.bias)
        assert a.activation == b.activation
    assert np.array_equal(header.weight, loaded_hd.weight)


@settings(max_examples=30, deadline=None)
@given(
    input_dim=st.integers(1, 6),
    hidden=st.lists(st.integers(1, 6), max_size=3),
    rep_dim=st.integers(1, 6),
    classes=st.integers(2, 5),
    seed=st.integers(0, 2**16),
)
def test_checkpoint_round_trip_property(tmp_path_factory, input_dim, hidden, rep_dim, classes, seed):
    # save then load reproduces every parameter bit; a model that is a row
    # view of a population-wide buffer saves the bytes of its standalone copy.
    config = ModelConfig(input_dim, tuple(hidden), rep_dim, classes)
    model = init_model(config, make_rng(seed))
    flat = np.concatenate(model._segments())
    rows = np.stack([make_rng(seed + 1).normal(size=flat.size), flat])
    view = model._split(rows[1])
    path = tmp_path_factory.mktemp("checkpoint") / "model.json"
    save_model(path, view)
    assert f'"format_version": {CHECKPOINT_VERSION}' in path.read_text() and CHECKPOINT_VERSION == 1
    assert np.concatenate(load_model(path)._segments()).tobytes() == flat.tobytes()
    standalone = path.with_name("standalone.json")
    save_model(standalone, view.clone())
    assert path.read_bytes() == standalone.read_bytes()


def test_checkpoint_rejects_unknown_version(tmp_path):
    path = tmp_path / "model.json"
    path.write_text('{"format_version": 99, "extractor": [], "header": {"weight": []}}')
    with pytest.raises(ValueError, match="version"):
        load_model(path)


@pytest.mark.parametrize(
    "make,error,message",
    [
        (lambda: AffineLayer(np.ones((2, 3)), None, "tanh"), ValueError,
         "unknown activation 'tanh'"),
        (lambda: Extractor([]), ValueError, "an extractor needs at least one layer"),
        (lambda: Extractor([AffineLayer(np.ones((3, 2)), None), AffineLayer(np.ones((2, 4)), None)]),
         ShapeError, "layer widths do not chain: 3 -> 4"),
    ],
)
def test_a_model_check_raises_its_typed_error(make, error, message):
    with pytest.raises(error) as raised:
        make()
    assert type(raised.value) is error and str(raised.value) == message
