"""Dense feature extractors and linear heads: their layout and parameters.

An extractor is a stack of affine layers (weights stored out x in, bias
one row per layer, ReLU or identity activation).  A header is a single
bias-free linear map from a representation to class logits.  A Net is an
extractor plus the header that reads it: the shared model and every
private model are Nets.  The models hold layout and parameters only;
the forward and the hand-derived backward that run on them are core's
step plan.

Parameters are walked in one order (Net.parameter_arrays): each layer's
weight, then its bias, first layer to last, then the header weight.
Each is a view of a flat vector in that order, one vector for an
extractor's layers and one for a header (a weight is an (out, in)
reshape of a column range).  _segments() lists a model's vectors and
_over(segments) builds a model of the same layout over others, without
checks.  Copies (clone, copy.deepcopy) view copied vectors.

A model can also hold a stack of clients: vectors with leading client
axes, whose last axis is the layout.  _split cuts the last axis and
_over and _segments reshape only the last axes, so a layout's _split
over (C, P) rows, or its _over of (C, P_e) extractor rows and (C, P_h)
header rows, is C clients' models in one, every array a view of the
rows (a weight (C, out, in)).  Such a model is what a step plan is
built from, for one client and for a stack (see core's _plan and
federation's workspace).

This module owns an extractor's flat layout and every rule that reads
it.  _layout lays a vector out, an extractor's _spans: per layer (weight
start, weight stop, bias stop or None, out, in, activation).  _sliced
cuts a vector, or a stack of them, into each layer's views; an
extractor's layers and a step plan's (see core) are both its views.  The
padding of a depth lives here too: extractors of one _signature (the
same input width and each layer's bias and activation) fit one _padded
layout, the widest at each layer, and _positions maps each entry of an
extractor's vector into the padded one (see federation's workspace).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .numerics import ShapeError, as_matrix

RELU = "relu"
IDENTITY = "identity"
_ACTIVATIONS = (RELU, IDENTITY)

CHECKPOINT_VERSION = 1


def _view(cls, **attrs):
    """An instance of cls holding attrs, built without its constructor's checks."""
    obj = object.__new__(cls)
    obj.__dict__.update(attrs)
    return obj


class _Segmented:
    """What the model classes share."""

    def _zeros(self):
        """A model of this layout over fresh zero vectors: room for its gradient."""
        return self._over(tuple(np.zeros(s.shape) for s in self._segments()))

    def _split(self, flat: np.ndarray):
        """A model of this layout over consecutive ranges of flat's last axis: one
        model per row of a (C, P) stack."""
        pieces, start = [], 0
        for segment in self._segments():
            pieces.append(flat[..., start : start + segment.shape[-1]])
            start += segment.shape[-1]
        return self._over(tuple(pieces))

    def param_count(self) -> int:
        return sum(segment.size for segment in self._segments())

    def clone(self):
        return self._over(tuple(segment.copy() for segment in self._segments()))

    def __deepcopy__(self, memo):
        return self.clone()


@dataclass
class _Matrix(_Segmented):
    """A model that is one weight matrix, held in its own vector."""

    weight: np.ndarray

    def __post_init__(self):
        self.weight = as_matrix(self.weight)

    def _segments(self) -> tuple[np.ndarray]:
        return (self.weight.reshape(self.weight.shape[:-2] + (-1,)),)

    def _over(self, segments):
        (flat,) = segments
        return _view(type(self), weight=flat.reshape(flat.shape[:-1] + self.weight.shape[-2:]))


@dataclass(frozen=True)
class ModelConfig:
    """Widths of one extractor plus its header.

    hidden_widths may be empty, in which case the extractor is a single
    affine layer from input_dim straight to rep_dim.
    """

    input_dim: int
    hidden_widths: tuple[int, ...]
    rep_dim: int
    classes: int

    def __post_init__(self):
        dims = (self.input_dim, *self.hidden_widths, self.rep_dim)
        if any(d < 1 for d in dims):
            raise ValueError(f"all layer widths must be positive, got {dims}")
        if self.classes < 2:
            raise ValueError(f"need at least 2 classes, got {self.classes}")

    @property
    def layer_dims(self) -> tuple[tuple[int, int], ...]:
        """(in, out) pairs for each affine layer of the extractor."""
        widths = (self.input_dim, *self.hidden_widths, self.rep_dim)
        return tuple(zip(widths[:-1], widths[1:]))


@dataclass
class AffineLayer:
    """y = act(x @ W.T + b) with W of shape (out, in) and b of shape (1, out)."""

    weight: np.ndarray
    bias: np.ndarray | None
    activation: str = RELU

    def __post_init__(self):
        self.weight = as_matrix(self.weight)
        if self.bias is not None:
            self.bias = as_matrix(self.bias, rows=1, cols=self.out_dim)
        if self.activation not in _ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")

    @property
    def in_dim(self) -> int:
        return self.weight.shape[-1]

    @property
    def out_dim(self) -> int:
        return self.weight.shape[-2]


@dataclass
class Extractor(_Segmented):
    """Feed-forward stack mapping raw features to a representation.

    Its layers are views of one vector, _flat, laid out by _spans (see
    _layout) and cut by _sliced.  The constructor copies its layers into a
    fresh vector.  An extractor built by _over makes its layers when first
    asked; training reads its vector through _spans and never asks.
    """

    layers: list[AffineLayer]

    def __post_init__(self):
        if not self.layers:
            raise ValueError("an extractor needs at least one layer")
        for a, b in zip(self.layers[:-1], self.layers[1:]):
            if a.out_dim != b.in_dim:
                raise ShapeError(f"layer widths do not chain: {a.out_dim} -> {b.in_dim}")
        self._spans = _layout(self.layers[0].in_dim, [
            (layer.out_dim, layer.bias is not None, layer.activation) for layer in self.layers])
        self._flat = np.concatenate([array.reshape(-1) for array in self.parameter_arrays()])
        del self.layers  # from now on views of _flat

    def _segments(self) -> tuple[np.ndarray]:
        return (self._flat,)

    def _over(self, segments) -> "Extractor":
        (flat,) = segments
        return _view(Extractor, _flat=flat, _spans=self._spans)

    def __getattr__(self, name):
        """Makes the layers, views of _flat, when first asked for them."""
        if name != "layers" or "_spans" not in self.__dict__:
            raise AttributeError(name)
        self.layers = [_view(AffineLayer, weight=weight, bias=bias, activation=activation)
                       for weight, bias, activation in _sliced(self._flat, self._spans)]
        return self.layers

    @property
    def input_dim(self) -> int:
        return self._spans[0][4]

    @property
    def rep_dim(self) -> int:
        return self._spans[-1][3]

    def parameter_arrays(self) -> list[np.ndarray]:
        """Each layer's weight, then its bias if it has one, first layer to last."""
        return [a for layer in self.layers for a in (layer.weight, layer.bias) if a is not None]


def _layout(inp: int, layers) -> tuple:
    """The spans of a vector that holds an extractor reading inp columns whose layers
    are (out, has a bias, activation), first to last: each layer's weight (out x in,
    row by row), then its bias, its input width the previous layer's output."""
    spans, start = [], 0
    for out, bias, activation in layers:
        stop = start + out * inp
        end = stop + out if bias else None
        spans.append((start, stop, end, out, inp, activation))
        start, inp = end or stop, out
    return tuple(spans)


def _length(spans: tuple) -> int:
    """The length of a vector laid out by spans."""
    return spans[-1][2] or spans[-1][1]


def _sliced(flat: np.ndarray, spans: tuple) -> list[tuple]:
    """Each layer's (weight, bias or None, activation): views of flat, laid out by
    spans in its last axis, over its leading axes (one per client of a stack)."""
    lead = flat.shape[:-1]
    return [(flat[..., start:stop].reshape(*lead, out, inp),
             None if end is None else flat[..., stop:end].reshape(*lead, 1, out), activation)
            for start, stop, end, out, inp, activation in spans]


def _signature(spans: tuple) -> tuple:
    """What extractors padded into one layout share: the input width and each
    layer's (has a bias, activation)."""
    return spans[0][4], tuple((end is not None, act) for _, _, end, _, _, act in spans)


def _padded(layouts: list[tuple]) -> tuple:
    """The layout that holds extractors of one signature: at each layer the widest
    output of theirs, its input the previous layer's output."""
    widths = [max(span[3] for span in layer) for layer in zip(*layouts)]
    inp, layers = _signature(layouts[0])
    return _layout(inp, ((out, *layer) for out, layer in zip(widths, layers)))


def _positions(spans: tuple, padded: tuple) -> np.ndarray:
    """Where each entry of a vector laid out by spans sits in one laid out by padded:
    a weight's row r and column c at r times its padded input width plus c."""
    index = []
    for (_, _, end, out, inp, _), (start, stop, _, _, width, _) in zip(spans, padded):
        index.append((start + width * np.arange(out)[:, None] + np.arange(inp)).ravel())
        if end is not None:
            index.append(stop + np.arange(out))
    return np.concatenate(index)


@dataclass
class Header(_Matrix):
    """Bias-free linear map from a representation to class logits: weight (classes, rep_dim)."""

    @property
    def in_dim(self) -> int:
        return self.weight.shape[-1]

    @property
    def classes(self) -> int:
        return self.weight.shape[-2]

@dataclass
class Net(_Segmented):
    """An extractor and the header that reads its representation.

    Its vectors are the extractor's, then the header's.
    """

    extractor: Extractor
    header: Header

    def __post_init__(self):
        if self.extractor.rep_dim != self.header.in_dim:
            raise ShapeError(
                f"extractor rep width {self.extractor.rep_dim} != header input "
                f"{self.header.in_dim}"
            )

    @property
    def rep_dim(self) -> int:
        return self.extractor.rep_dim

    @property
    def classes(self) -> int:
        return self.header.classes

    def _segments(self) -> tuple[np.ndarray, ...]:
        return (*self.extractor._segments(), *self.header._segments())

    def _over(self, segments) -> "Net":
        extractor, header = self.extractor._over(segments[:-1]), self.header._over(segments[-1:])
        return _view(Net, extractor=extractor, header=header)

    def parameter_arrays(self) -> list[np.ndarray]:
        """All parameters in the order of every walk: layer weight, bias, ..., header."""
        return [*self.extractor.parameter_arrays(), self.header.weight]


def init_model(config: ModelConfig, rng: np.random.Generator) -> Net:
    """Deterministically initialize a Net: an extractor and its header.

    Extractor layers use ReLU with He-uniform weights (bound sqrt(6/fan_in))
    and biases at a small positive constant (0.01) so no unit starts dead;
    the header uses Xavier-uniform weights (bound sqrt(6/(fan_in+fan_out)))
    and no bias.  Draw order is fixed: layer weights first to last, then
    the header weight, each as rng.uniform(-bound, bound, size=(out, in))
    draws it.  The draw order lives in _drawn, which the population's rows
    are drawn by too (federation.Population), so a client's private model
    is this function's on its rng bit for bit.
    """
    layout, at, bounds = _drawn(config)
    vector = np.concatenate(layout._segments())
    vector[at] = _uniform(bounds, rng.random(at.size))
    return layout._split(vector)


def _drawn(config: ModelConfig) -> tuple[Net, np.ndarray, np.ndarray]:
    """init_model's draw order for config: a Net of its layout over its constants (each
    bias 0.01, each weight 0), the entries of that Net's vector (its _segments,
    concatenated) that init_model draws, in draw order (each layer's weight, first to
    last, row by row, then the header weight), and the bound of each."""
    spans = _layout(config.input_dim, [(out, True, RELU) for _, out in config.layer_dims])
    length, head = _length(spans), config.classes * config.rep_dim
    vector, at, bounds = np.zeros(length + head), [], []
    for start, stop, end, _, fan_in, _ in spans:
        vector[stop:end] = 0.01
        at.append(np.arange(start, stop))
        bounds.append(np.full(stop - start, np.sqrt(6.0 / fan_in)))
    at.append(np.arange(length, length + head))
    bounds.append(np.full(head, np.sqrt(6.0 / (config.rep_dim + config.classes))))
    layout = _view(Net, extractor=_view(Extractor, _flat=vector[:length], _spans=spans),
                   header=_view(Header, weight=vector[length:].reshape(config.classes, -1)))
    return layout, np.concatenate(at), np.concatenate(bounds)


def _uniform(bounds: np.ndarray, units: np.ndarray) -> np.ndarray:
    """rng.uniform(-bound, bound) for each of bounds (over units' last axis), bit for
    bit, from units that rng.random drew: numpy's low + (high - low) * unit."""
    return -bounds + (bounds + bounds) * units


def save_model(path: str | Path, model: Net) -> None:
    """Write a versioned JSON checkpoint.

    Layout: {"format_version", "extractor": [{"activation", "weight",
    "bias"} per layer, first to last], "header": {"weight"}}.  Floats are
    serialized with repr precision, so a round trip is exact.
    """
    doc = {
        "format_version": CHECKPOINT_VERSION,
        "extractor": [
            {
                "activation": layer.activation,
                "weight": layer.weight.tolist(),
                "bias": None if layer.bias is None else layer.bias.tolist(),
            }
            for layer in model.extractor.layers
        ],
        "header": {"weight": model.header.weight.tolist()},
    }
    Path(path).write_text(json.dumps(doc), encoding="utf-8")


def load_model(path: str | Path) -> Net:
    """Read a checkpoint written by save_model; rejects unknown versions."""
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    version = doc.get("format_version")
    if version != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version {version!r}")
    layers = [
        AffineLayer(
            np.array(entry["weight"], dtype=np.float64),
            None if entry["bias"] is None else np.array(entry["bias"], dtype=np.float64),
            entry["activation"],
        )
        for entry in doc["extractor"]
    ]
    header = Header(np.array(doc["header"]["weight"], dtype=np.float64))
    return Net(Extractor(layers), header)
