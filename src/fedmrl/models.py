"""Dense feature extractors and linear heads with hand-derived backprop.

An extractor is a stack of affine layers (weights stored out x in, bias
one row per layer, ReLU or identity activation).  A header is a single
bias-free linear map from a representation to class logits.  A Net is an
extractor plus the header that reads it: the shared model and every
private model are Nets.  Backward passes are written out explicitly and
are validated against central finite differences in the test suite.

Parameters are walked in one order (Net.parameter_arrays): each layer's
weight, then its bias, first layer to last, then the header weight.
Each is a view of a flat vector in that order, one vector for an
extractor's layers and one for a header (a weight is an (out, in)
reshape of a column range).  _segments() lists a model's vectors and
_over(segments) builds a model of the same layout over others, without
checks.  Copies (clone, copy.deepcopy) view copied vectors.

Each forward checks its input once and then multiplies with a bare
``@`` on C-order operands, a transposed weight or gradient being copied
first: OpenBLAS rounds a product with a transposed view differently, and
the copy keeps every result bit-identical to the product of C-order
matrices.  Each backward, the one training runs (see core), writes its
parameter gradients into ``out``, a model of the same layout.  An
extractor's forward returns a ForwardCache tied to that extractor, and
its backward rejects a cache of any other.  Nothing here checks for
non-finite values.

Parameters and batches may carry a leading client axis to train a cohort
at once (weights (C, out, in), views of (C, P) vectors strided along
that axis only, and batches (C, n, in)): each product is then one BLAS
call per slice and each reduction runs within its slice, so every
client's numbers are those of training it alone.  GroupedExtractor runs
private extractors of differing shapes side by side.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

from .numerics import ShapeError, _matrix, _transposed

RELU = "relu"
IDENTITY = "identity"
_ACTIVATIONS = (RELU, IDENTITY)

CHECKPOINT_VERSION = 1


class StaleCacheError(ValueError):
    """A forward cache was replayed against a model it does not belong to."""


def _view(cls, **attrs):
    """An instance of cls holding attrs, built without its constructor's checks."""
    obj = object.__new__(cls)
    obj.__dict__.update(attrs)
    return obj


class _Segmented:
    """What the model classes share."""

    def _empty(self):
        """A model of this layout over fresh, unset vectors: room for its gradient."""
        return self._over(tuple(np.empty(s.shape) for s in self._segments()))

    @cached_property
    def _grads(self):
        """_empty, made once per model and reused by every training step on it."""
        return self._empty()

    def _split(self, flat: np.ndarray):
        """A model of this layout over consecutive column ranges of flat."""
        pieces, start = [], 0
        for segment in self._segments():
            pieces.append(flat[..., start : start + segment.shape[-1]])
            start += segment.shape[-1]
        return self._over(tuple(pieces))

    def param_count(self) -> int:
        return sum(segment.shape[-1] for segment in self._segments())

    def clone(self):
        return self._over(tuple(segment.copy() for segment in self._segments()))

    def __deepcopy__(self, memo):
        return self.clone()


@dataclass
class _Matrix(_Segmented):
    """A model that is one weight matrix, or a stack of them, held in its own vector."""

    weight: np.ndarray

    def __post_init__(self):
        self.weight = _matrix(self.weight)

    @property
    def lead(self) -> tuple[int, ...]:
        return self.weight.shape[:-2]

    def _segments(self) -> tuple[np.ndarray]:
        return (self.weight.reshape(*self.weight.shape[:-2], -1),)

    def _over(self, segments):
        (flat,) = segments
        return _view(type(self), weight=flat.reshape(*flat.shape[:-1], *self.weight.shape[-2:]))


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
    """y = act(x @ W.T + b) with W of shape (out, in) and b of shape (1, out).

    A stacked layer has weight (C, out, in) and bias (C, 1, out).
    """

    weight: np.ndarray
    bias: np.ndarray | None
    activation: str = RELU

    def __post_init__(self):
        self.weight = _matrix(self.weight)
        if self.bias is not None:
            self.bias = _matrix(self.bias, rows=1, cols=self.out_dim)
            if self.bias.shape[:-2] != self.lead:
                raise ShapeError(f"bias stack {self.bias.shape} != weight stack {self.weight.shape}")
        if self.activation not in _ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")

    @property
    def in_dim(self) -> int:
        return self.weight.shape[-1]

    @property
    def out_dim(self) -> int:
        return self.weight.shape[-2]

    @property
    def lead(self) -> tuple[int, ...]:
        """() for one client's layer, (C,) for a stack of C."""
        return self.weight.shape[:-2]

    def forward(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Returns (activated output, pre-activation) for a batch."""
        pre = _matrix(x, cols=self.in_dim) @ _transposed(self.weight)
        if self.bias is not None:
            pre += self.bias
        out = np.maximum(pre, 0.0) if self.activation == RELU else pre
        return out, pre


@dataclass
class ForwardCache:
    """Per-layer inputs and pre-activations retained for one backward pass.

    owner ties the cache to the exact Extractor object that produced it;
    replaying it against any other (including a stepped copy) is an error.
    """

    owner: "Extractor"
    inputs: list[np.ndarray] = field(default_factory=list)
    pre_acts: list[np.ndarray] = field(default_factory=list)


@dataclass
class Extractor(_Segmented):
    """Feed-forward stack mapping raw features to a representation.

    Its layers are views of one vector, _flat, laid out by _spans: (weight
    start, weight stop, bias stop or None, out, in, activation) per layer.
    The constructor copies its layers into a fresh vector.  An extractor
    built by _over makes its layers when first asked, so a training step's
    result costs no views unless it is used.
    """

    layers: list[AffineLayer]

    def __post_init__(self):
        if not self.layers:
            raise ValueError("an extractor needs at least one layer")
        for a, b in zip(self.layers[:-1], self.layers[1:]):
            if a.out_dim != b.in_dim:
                raise ShapeError(f"layer widths do not chain: {a.out_dim} -> {b.in_dim}")
            if a.lead != b.lead:
                raise ShapeError(f"layers stack over {a.lead} and {b.lead}")
        spans, start = [], 0
        for layer in self.layers:
            stop = start + layer.out_dim * layer.in_dim
            end = None if layer.bias is None else stop + layer.out_dim
            spans.append((start, stop, end, layer.out_dim, layer.in_dim, layer.activation))
            start = end or stop
        self._spans = tuple(spans)
        arrays = [array.reshape(*self.lead, -1) for array in self.parameter_arrays()]
        self._flat = np.concatenate(arrays, axis=-1)
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
        flat, lead = self._flat, self._flat.shape[:-1]
        self.layers = [
            _view(
                AffineLayer,
                weight=flat[..., start:stop].reshape(*lead, out, inp),
                bias=None if end is None else flat[..., stop:end].reshape(*lead, 1, out),
                activation=activation,
            )
            for start, stop, end, out, inp, activation in self._spans
        ]
        return self.layers

    @property
    def input_dim(self) -> int:
        return self.layers[0].in_dim

    @property
    def rep_dim(self) -> int:
        return self.layers[-1].out_dim

    @property
    def lead(self) -> tuple[int, ...]:
        return self.layers[0].lead

    def forward(self, x: np.ndarray) -> tuple[np.ndarray, ForwardCache]:
        """Run the stack; inputs are copied into the cache, never mutated."""
        cache = ForwardCache(owner=self)
        out = _matrix(x, cols=self.input_dim)
        for layer in self.layers:
            cache.inputs.append(out)
            out, pre = layer.forward(out)
            cache.pre_acts.append(pre)
        return out, cache

    def backward(self, cache: ForwardCache, d_rep: np.ndarray, out: "Extractor") -> None:
        """Backpropagate an upstream gradient through the stack, writing the
        parameter gradients into out, an extractor of this layout.

        d_rep may be the sum of gradients from several consumers of the
        representation.  Training never needs the input's gradient.
        """
        if cache.owner is not self:
            raise StaleCacheError("forward cache does not belong to this extractor")
        if len(cache.pre_acts) != len(self.layers):
            raise StaleCacheError(f"cache depth {len(cache.pre_acts)} != layer count {len(self.layers)}")
        delta = _matrix(d_rep, rows=cache.inputs[0].shape[-2], cols=self.rep_dim)
        for i in reversed(range(len(self.layers))):
            layer, grad = self.layers[i], out.layers[i]
            if i < len(self.layers) - 1:
                delta = delta @ self.layers[i + 1].weight
            if layer.activation == RELU:
                delta = delta * (cache.pre_acts[i] > 0.0)
            np.matmul(_transposed(delta), cache.inputs[i], out=grad.weight)
            if grad.bias is not None:
                delta.sum(axis=-2, keepdims=True, out=grad.bias)

    def parameter_arrays(self) -> list[np.ndarray]:
        """Each layer's weight, then its bias if it has one, first layer to last."""
        return [a for layer in self.layers for a in (layer.weight, layer.bias) if a is not None]


@dataclass
class GroupedExtractor(_Segmented):
    """Private extractors of differing shapes serving one stack of clients.

    parts pairs client slots of the stack (ascending int arrays that
    together cover range(size)) with an extractor stacked over those
    clients in slot order.  forward gathers each part's slices of the
    batch, runs the part's extractor and scatters its representations
    back into the stack, so each client gets what its own extractor
    gives.  All parts share one input and one output width.  It stands in
    for an Extractor in the training step; its vectors are its parts'.
    """

    parts: list[tuple[np.ndarray, Extractor]]
    size: int

    @property
    def input_dim(self) -> int:
        return self.parts[0][1].input_dim

    @property
    def rep_dim(self) -> int:
        return self.parts[0][1].rep_dim

    @property
    def lead(self) -> tuple[int, ...]:
        return (self.size,)

    def _segments(self) -> tuple[np.ndarray, ...]:
        return tuple(ex._flat for _, ex in self.parts)

    def _over(self, segments) -> "GroupedExtractor":
        parts = [(slots, ex._over((flat,))) for (slots, ex), flat in zip(self.parts, segments)]
        return _view(GroupedExtractor, parts=parts, size=self.size)

    def forward(self, x: np.ndarray) -> tuple[np.ndarray, list[ForwardCache]]:
        x = _matrix(x, cols=self.input_dim)
        if len(self.parts) == 1:
            rep, cache = self.parts[0][1].forward(x)
            return rep, [cache]
        rep = np.empty((*x.shape[:-1], self.rep_dim))
        caches = []
        for slots, extractor in self.parts:
            rep[slots], cache = extractor.forward(x[slots])
            caches.append(cache)
        return rep, caches

    def backward(self, caches: list[ForwardCache], d_rep: np.ndarray, out) -> None:
        """Each part's Extractor.backward on its slots, into the matching part of out."""
        whole = len(self.parts) == 1
        for (slots, extractor), cache, (_, grads) in zip(self.parts, caches, out.parts):
            extractor.backward(cache, d_rep if whole else d_rep[slots], grads)


@dataclass
class Header(_Matrix):
    """Bias-free linear map from a representation to class logits: weight (classes, rep_dim)."""

    @property
    def in_dim(self) -> int:
        return self.weight.shape[-1]

    @property
    def classes(self) -> int:
        return self.weight.shape[-2]

    def forward(self, rep: np.ndarray) -> np.ndarray:
        return _matrix(rep, cols=self.in_dim) @ _transposed(self.weight)

    def backward(self, rep: np.ndarray, d_logits: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Writes d_weight into out and returns d_rep.  _matrix copies rep, a
        column prefix of the fused row for the global head, to C order."""
        np.matmul(_transposed(d_logits), _matrix(rep), out=out)
        return d_logits @ self.weight


@dataclass
class Net(_Segmented):
    """An extractor and the header that reads its representation.

    Its vectors are the extractor's, then the header's.  In a cohort every
    part is stacked over the clients, and a private model's extractor is
    a GroupedExtractor.
    """

    extractor: Extractor | GroupedExtractor
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
    the header weight.
    """
    layers = []
    for fan_in, fan_out in config.layer_dims:
        bound = np.sqrt(6.0 / fan_in)
        weight = rng.uniform(-bound, bound, size=(fan_out, fan_in))
        layers.append(AffineLayer(weight, np.full((1, fan_out), 0.01), RELU))
    bound = np.sqrt(6.0 / (config.rep_dim + config.classes))
    head_weight = rng.uniform(-bound, bound, size=(config.classes, config.rep_dim))
    return Net(Extractor(layers), Header(head_weight))


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
