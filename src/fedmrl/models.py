"""Dense feature extractors and linear heads with hand-derived backprop.

An extractor is a stack of affine layers (weights stored out x in, bias
one row per layer, ReLU or identity activation).  A header is a single
bias-free linear map from a representation to class logits.  A Net is an
extractor plus the header that reads it: the shared model and every
private model are Nets.  Backward passes are written out explicitly and
are validated against central finite differences in the test suite.

Net.parameter_arrays fixes the one order in which parameters are walked:
each layer's weight, then its bias, first layer to last (the extractor's
walk), then the header weight.  with_arrays rebuilds a model of the same
architecture from arrays in that order.  Cloning, stacking clients,
aggregation, flattening and the finite checks are all built on this
pair.

Every public method checks its inputs once and then multiplies with a
bare ``@``; nothing here checks for non-finite values (the training step
does that once per step, see core).  Products always run on C-order
operands, a transposed weight or gradient being copied first: OpenBLAS
rounds a product with a transposed view differently from the same
product on a C-order copy, and the copy keeps every result bit-identical
to numerics.matmul, which multiplies C-order copies.

The same code trains a cohort of clients at once.  Parameters and
batches may then carry a leading client axis (weights (C, out, in),
biases (C, 1, out), batches (C, n, in)); each product becomes a stacked
``@``, which numpy runs as one BLAS call per slice, and each reduction
runs over its own slice, so every client's numbers are bit-identical to
those of training it alone.  GroupedExtractor runs clients whose private
extractors differ in shape side by side.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .numerics import ShapeError, _check_lr, _matrix, _sgd, _transposed

RELU = "relu"
IDENTITY = "identity"
_ACTIVATIONS = (RELU, IDENTITY)

CHECKPOINT_VERSION = 1


class StaleCacheError(ValueError):
    """A forward cache was replayed against a model it does not belong to."""


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
class LayerGrads:
    """Loss gradients for one affine layer, shapes matching the parameters."""

    weight: np.ndarray
    bias: np.ndarray | None


@dataclass
class ForwardCache:
    """Per-layer inputs and pre-activations retained for one backward pass.

    owner ties the cache to the exact Extractor object that produced it;
    replaying it against any other (including a stepped copy) is an error.
    """

    owner: "Extractor"
    inputs: list[np.ndarray] = field(default_factory=list)
    pre_acts: list[np.ndarray] = field(default_factory=list)

    @property
    def depth(self) -> int:
        return len(self.pre_acts)


@dataclass
class Extractor:
    """Feed-forward stack mapping raw features to a representation."""

    layers: list[AffineLayer]

    def __post_init__(self):
        if not self.layers:
            raise ValueError("an extractor needs at least one layer")
        for a, b in zip(self.layers[:-1], self.layers[1:]):
            if a.out_dim != b.in_dim:
                raise ShapeError(f"layer widths do not chain: {a.out_dim} -> {b.in_dim}")
            if a.lead != b.lead:
                raise ShapeError(f"layers stack over {a.lead} and {b.lead}")

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

    def backward(
        self, cache: ForwardCache, d_rep: np.ndarray
    ) -> tuple[list[LayerGrads], np.ndarray]:
        """Backpropagate an upstream gradient through the stack.

        d_rep may be the sum of gradients from several consumers of the
        representation.  Returns per-layer parameter gradients (same order
        as self.layers) and the gradient w.r.t. the original input.
        """
        grads, delta = self._layer_grads(cache, d_rep)
        return grads, delta @ self.layers[0].weight

    def _layer_grads(
        self, cache: ForwardCache, d_rep: np.ndarray
    ) -> tuple[list[LayerGrads], np.ndarray]:
        """backward without its last product: the parameter gradients and
        the gradient at the first layer's pre-activation.  Training needs
        no input gradient, so it stops here."""
        if cache.owner is not self:
            raise StaleCacheError("forward cache does not belong to this extractor")
        if cache.depth != len(self.layers):
            raise StaleCacheError(
                f"cache depth {cache.depth} != layer count {len(self.layers)}"
            )
        delta = _matrix(d_rep, rows=cache.inputs[0].shape[-2], cols=self.rep_dim)
        reversed_grads = []
        for i in reversed(range(len(self.layers))):
            layer = self.layers[i]
            if i < len(self.layers) - 1:
                delta = delta @ self.layers[i + 1].weight
            if layer.activation == RELU:
                delta = delta * (cache.pre_acts[i] > 0.0)
            d_weight = _transposed(delta) @ cache.inputs[i]
            d_bias = None if layer.bias is None else delta.sum(axis=-2, keepdims=True)
            reversed_grads.append(LayerGrads(d_weight, d_bias))
        return reversed_grads[::-1], delta

    def step(self, grads: list[LayerGrads], lr: float) -> "Extractor":
        """One SGD step; returns a new Extractor, leaving this one untouched."""
        if len(grads) != len(self.layers):
            raise ShapeError(f"{len(grads)} gradient entries for {len(self.layers)} layers")
        _check_lr(lr)
        stepped = []
        for layer, g in zip(self.layers, grads):
            w = _sgd(layer.weight, g.weight, lr)
            b = None if layer.bias is None else _sgd(layer.bias, g.bias, lr)
            stepped.append(AffineLayer(w, b, layer.activation))
        return Extractor(stepped)

    def param_count(self) -> int:
        return sum(array.size for array in self.parameter_arrays())

    def parameter_arrays(self) -> list[np.ndarray]:
        """Each layer's weight, then its bias if it has one, first layer to last."""
        arrays = []
        for layer in self.layers:
            arrays.append(layer.weight)
            if layer.bias is not None:
                arrays.append(layer.bias)
        return arrays

    def with_arrays(self, arrays) -> "Extractor":
        """An extractor of this architecture holding `arrays`, in parameter_arrays order.

        Takes only the arrays it needs when given an iterator.
        """
        arrays = iter(arrays)
        return Extractor(
            [
                AffineLayer(next(arrays), None if l.bias is None else next(arrays), l.activation)
                for l in self.layers
            ]
        )


@dataclass
class GroupedExtractor:
    """Private extractors of differing shapes serving one stack of clients.

    parts pairs client slots of the stack (ascending int arrays that
    together cover range(size)) with an extractor stacked over those
    clients in slot order.  forward gathers each part's slices of the
    batch, runs the part's extractor and scatters its representations
    back into the stack, so each client gets what its own extractor
    gives.  It stands in for an Extractor in the training step: forward,
    step, the gradients of backward without the input gradient, and
    parameter_arrays.
    """

    parts: list[tuple[np.ndarray, Extractor]]
    size: int

    def __post_init__(self):
        dims = {(ex.input_dim, ex.rep_dim) for _, ex in self.parts}
        if len(dims) != 1:
            raise ShapeError(f"grouped extractors disagree on input and output widths: {dims}")
        if any(ex.lead != (len(slots),) for slots, ex in self.parts):
            raise ShapeError("each part must be stacked over exactly its slots")
        if sum(len(slots) for slots, _ in self.parts) != self.size:
            raise ShapeError(f"parts do not cover the {self.size} slots of the stack")

    @property
    def input_dim(self) -> int:
        return self.parts[0][1].input_dim

    @property
    def rep_dim(self) -> int:
        return self.parts[0][1].rep_dim

    @property
    def lead(self) -> tuple[int, ...]:
        return (self.size,)

    @property
    def layers(self) -> list[AffineLayer]:
        """The layers of every part, part by part."""
        return [layer for _, ex in self.parts for layer in ex.layers]

    parameter_arrays = Extractor.parameter_arrays  # the same walk over all parts' layers

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

    def _layer_grads(
        self, caches: list[ForwardCache], d_rep: np.ndarray
    ) -> tuple[list[list[LayerGrads]], None]:
        whole = len(self.parts) == 1
        grads = [
            extractor._layer_grads(cache, d_rep if whole else d_rep[slots])[0]
            for (slots, extractor), cache in zip(self.parts, caches)
        ]
        return grads, None

    def step(self, grads: list[list[LayerGrads]], lr: float) -> "GroupedExtractor":
        return GroupedExtractor(
            [(slots, ex.step(g, lr)) for (slots, ex), g in zip(self.parts, grads)], self.size
        )


@dataclass
class Header:
    """Bias-free linear map from a representation to class logits."""

    weight: np.ndarray  # (classes, rep_dim)

    def __post_init__(self):
        self.weight = _matrix(self.weight)

    @property
    def in_dim(self) -> int:
        return self.weight.shape[-1]

    @property
    def classes(self) -> int:
        return self.weight.shape[-2]

    @property
    def lead(self) -> tuple[int, ...]:
        return self.weight.shape[:-2]

    def forward(self, rep: np.ndarray) -> np.ndarray:
        return _matrix(rep, cols=self.in_dim) @ _transposed(self.weight)

    def backward(self, rep: np.ndarray, d_logits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Returns (d_weight, d_rep) for the logits' upstream gradient."""
        rep = _matrix(rep, cols=self.in_dim)
        d_logits = _matrix(d_logits, rows=rep.shape[-2], cols=self.classes)
        return _transposed(d_logits) @ rep, d_logits @ self.weight

    def step(self, d_weight: np.ndarray, lr: float) -> "Header":
        _check_lr(lr)
        return Header(_sgd(self.weight, d_weight, lr))

    def param_count(self) -> int:
        return self.weight.size


@dataclass
class Net:
    """An extractor and the header that reads its representation.

    In a cohort every part is stacked over the clients, and a private
    model's extractor is a GroupedExtractor.
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

    def parameter_arrays(self) -> list[np.ndarray]:
        """All parameters in the order of every walk: layer weight, bias, ..., header."""
        arrays = self.extractor.parameter_arrays()
        arrays.append(self.header.weight)
        return arrays

    def with_arrays(self, arrays) -> "Net":
        """A Net of this architecture holding `arrays`, in parameter_arrays order.

        Takes only the arrays it needs when given an iterator.
        """
        arrays = iter(arrays)
        return Net(self.extractor.with_arrays(arrays), Header(next(arrays)))

    def param_count(self) -> int:
        return sum(array.size for array in self.parameter_arrays())

    def clone(self) -> "Net":
        return self.with_arrays([array.copy() for array in self.parameter_arrays()])


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
