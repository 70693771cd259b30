import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedmrl.core import train_step_single
from fedmrl.models import (
    CHECKPOINT_VERSION,
    IDENTITY,
    RELU,
    AffineLayer,
    Extractor,
    ForwardCache,
    Header,
    ModelConfig,
    Net,
    StaleCacheError,
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
    rep, _ = extractor.forward(x)
    losses, _ = batch_cross_entropy(header.forward(rep), y)
    return float(losses.mean())


def analytic_param_gradient(extractor, header, x, y):
    """Backprop gradient in flatten_params order, mean-reduced over the batch."""
    rep, cache = extractor.forward(x)
    logits = header.forward(rep)
    _, dlogits = batch_cross_entropy(logits, y)
    dlogits = dlogits / x.shape[0]
    d_head = np.empty(header.weight.shape)
    d_rep = header.backward(rep, dlogits, d_head)
    grads = extractor._empty()
    extractor.backward(cache, d_rep, grads)
    return flatten_params(grads, Header(d_head))


def test_model_config_validation():
    with pytest.raises(ValueError):
        ModelConfig(0, (4,), 3, 2)
    with pytest.raises(ValueError):
        ModelConfig(4, (4,), 3, 1)
    cfg = ModelConfig(4, (5, 6), 3, 2)
    assert cfg.layer_dims == ((4, 5), (5, 6), (6, 3))


def test_identity_layer_with_identity_weight_is_passthrough():
    layer = AffineLayer(np.eye(3), np.zeros((1, 3)), IDENTITY)
    x = make_rng(0).normal(size=(5, 3))
    rep, _ = Extractor([layer]).forward(x)
    assert np.array_equal(rep, x)


def test_relu_layer_clamps_negative_preactivations():
    layer = AffineLayer(np.eye(2), None, RELU)
    out, pre = layer.forward(np.array([[-1.0, 2.0]]))
    assert np.array_equal(out, [[0.0, 2.0]])
    assert np.array_equal(pre, [[-1.0, 2.0]])


def test_forward_rejects_wrong_input_width():
    extractor = init_model(ModelConfig(4, (), 3, 2), make_rng(1)).extractor
    with pytest.raises(ShapeError):
        extractor.forward(np.ones((2, 5)))


def test_forward_is_pure():
    extractor = init_model(ModelConfig(4, (6,), 3, 2), make_rng(2)).extractor
    x = make_rng(3).normal(size=(8, 4))
    before = x.copy()
    rep1, _ = extractor.forward(x)
    rep2, _ = extractor.forward(x)
    assert np.array_equal(x, before)
    assert np.array_equal(rep1, rep2)


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
    # The header's input gradient is what training routes into the extractors.
    rng = make_rng(55)
    header = init_model(ModelConfig(5, (6,), 4, 3), rng).header
    rep = rng.normal(size=(3, 4))
    y = rng.integers(0, 3, size=3)

    _, dlogits = batch_cross_entropy(header.forward(rep), y)
    d_rep = header.backward(rep, dlogits / 3.0, np.empty(header.weight.shape))

    def objective(v):
        losses, _ = batch_cross_entropy(header.forward(v.reshape(3, 4)), y)
        return float(losses.mean())

    numeric = finite_diff_gradient(objective, rep.ravel())
    assert relative_error(d_rep.ravel(), numeric).max() <= 1e-4


def test_backward_is_linear_in_upstream_gradient():
    # Two consumers of the representation may sum their gradients first.
    rng = make_rng(9)
    extractor = init_model(ModelConfig(4, (5,), 3, 2), rng).extractor
    x = rng.normal(size=(6, 4))
    _, cache = extractor.forward(x)
    da = rng.normal(size=(6, 3))
    db = rng.normal(size=(6, 3))
    joint, ga, gb = extractor._empty(), extractor._empty(), extractor._empty()
    extractor.backward(cache, da + db, joint)
    extractor.backward(cache, da, ga)
    extractor.backward(cache, db, gb)
    for j, a, b in zip(joint.layers, ga.layers, gb.layers):
        assert np.allclose(j.weight, a.weight + b.weight, atol=1e-12)
        assert np.allclose(j.bias, a.bias + b.bias, atol=1e-12)


def test_backward_rejects_foreign_and_shallow_caches():
    rng = make_rng(12)
    ex1 = init_model(ModelConfig(4, (5,), 3, 2), rng).extractor
    ex2 = init_model(ModelConfig(4, (5,), 3, 2), rng).extractor
    x = rng.normal(size=(2, 4))
    _, cache = ex1.forward(x)
    with pytest.raises(StaleCacheError):
        ex2.backward(cache, np.zeros((2, 3)), ex2._empty())
    bad = ForwardCache(owner=ex1)
    with pytest.raises(StaleCacheError):
        ex1.backward(bad, np.zeros((2, 3)), ex1._empty())


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
