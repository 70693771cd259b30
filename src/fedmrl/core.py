"""Training computation for the fused dual-model protocol.

Every client couples two Nets (see models) over the same input: a shared
small "global" model (extractor to a d1-wide representation plus a
d1 -> L header) and a private heterogeneous "local" model (extractor to
d2 wide, d2 -> L header), with d1 <= d2.  A per-client projector mixes
the two representations:

    spliced = [rep_global | rep_local]            (n, d1 + d2)
    fused   = spliced @ W_p.T                     (n, d2)

The fused row is read at two granularities, nested like matryoshka
dolls: its first d1 entries feed the global header and the full d2
entries feed the local header.  The loss scales each head's
cross-entropy by its loss weight; a zero weight on the global head takes
that header out of the graph, which is the no-MRL ablation.  One SGD
step (train_step) moves the global model, the local model and the
projector at once; train_step_single trains one model alone, for the
standalone baseline.  forward_loss and loss_gradients run the same
forward and backward without a step: all gradients are derived by hand
and checked against finite differences.

Every step runs on a plan (_Plan): plain lists over one stack of
clients.  A plan reads its layers through models' slicer (_sliced), the
one an extractor's own layers come from: views of flat parameter vectors
cut by their layouts' spans.  A plan holds each layer's weight, bias,
their gradients and ReLU flag, both headers, the projector, and the flat
ranges its step trains.  _train walks it: the forward, the hand-derived
backward, which writes every gradient with np.matmul and np.add.reduce
(out=), and SGD in place, theta -= lr * grad, over each range, with one
isfinite per range.  It builds no model object and checks nothing but
finiteness (LearningRates checks its rates when it is built).  _predict
runs the same forward on a plan and reads the logits of an inference
variant.

The parameters a step moves lie in one flat (2, total) array, rows then
their gradient scratch (_carve), in one order (_BUFFERS, which also
gives each buffer's parameter group): the private extractor (in
a cohort, one block per depth), the private header, the projector, the
shared extractor and the shared header.  Each group (local, projector,
global) is then one range of it, and the trained set is a prefix of the
order: the private model alone in standalone training, all but the
shared header when that header is out of the graph, else all.  A plan's
ranges are the trained buffers' rows a to b, merged where they touch,
so a step whose slots fill the buffers is one range.

One builder, _plan, makes every plan, for one client and for a stack:
from (shared, private, projector) models and their gradient models, each
over one client's vectors or over a stack's rows (models hold leading
client axes), and from the flat ranges a step trains.  The public
functions take one client's models and 2-D batches: they check their
inputs, build a plan over the models they are given and run that same
code; train_step and train_step_single step clones laid out as a cohort
of one (_laid_out), so they are pure.  Plans, not the public functions,
run stacks of clients: the cohort workspace (see federation) builds, with
_plan, and caches the plan of each run of slots of one depth, over models
that view row ranges of its buffers, for training and evaluation.  The
tape, what the backward reads from the forward, never leaves the step
that made it.

Each public function checks its inputs once.  The products inside run as
bare ``@`` on C-order operands, a transposed weight or a column slice of
the fused row being copied first: OpenBLAS rounds a product with a
transposed view differently, and the copy keeps every result
bit-identical to the product of C-order matrices.  A weight gradient,
d.T @ x, reads the transposed view of d, which gives the same bits.
Finiteness is checked once per step: a non-finite loss, a stepped range
holding a NaN or an infinity, or in _predict non-finite logits, each
raise a TrainingDiverged naming the check and, for a range, the first of
the groups global, local and projector that is not finite.

A cohort's plan runs its clients as one stack: rows (C, ...) of every
vector, one private extractor layout (the workspace pads the
architectures of one depth to one layout, and a plan covers one depth),
batches (C, n, in) and labels (C, n).  Each product is then one BLAS
call per client slice and each reduction runs within its slice, so
every client's numbers are those of training it alone.  Losses come back as arrays of
C, and a check fails if it fails for any client.  A padded step also
takes each client's real row count, and masks its other rows out of the
loss and the gradients (_train).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .models import RELU, Net, _Matrix, _sliced, _uniform
from .numerics import NonFiniteError, ShapeError, _cross_entropy, _labels, _transposed
from .numerics import as_matrix

__all__ = [
    "Mode",
    "Projector",
    "LossWeights",
    "LearningRates",
    "InferenceVariant",
    "TheoryConstants",
    "TrainingDiverged",
    "init_projector",
    "forward_loss",
    "forward_loss_single",
    "loss_gradients",
    "train_step",
    "train_step_single",
    "parameter_vector",
    "with_parameter_vector",
    "infer",
    "lr_bound",
]


class Mode(Enum):
    """Which training graph a run steps.

    FEDMRL steps train_step with the run's loss weights; NO_MRL steps it
    with weights (0, 1), so the shared header is out of the graph;
    STANDALONE steps each private model alone with train_step_single.
    """

    FEDMRL = "fedmrl"
    STANDALONE = "standalone"
    NO_MRL = "no_mrl"


class InferenceVariant(Enum):
    """Which parameters serve a prediction once training is done.

    MIX_LARGE (the default) runs both extractors, projects, and reads the
    local header on the full fused row.  MIX_SMALL reads the global
    header on the d1 prefix instead.  SINGLE_SMALL and SINGLE_LARGE run
    one model alone, ignoring the projector entirely.
    """

    MIX_LARGE = "mix_large"
    MIX_SMALL = "mix_small"
    SINGLE_SMALL = "single_small"
    SINGLE_LARGE = "single_large"


@dataclass
class Projector(_Matrix):
    """Bias-free linear mix, weight shape (d2, d1 + d2), held in its own vector."""

    @property
    def d2(self) -> int:
        return self.weight.shape[-2]

    @property
    def d1(self) -> int:
        return self.weight.shape[-1] - self.weight.shape[-2]

    def parameter_arrays(self) -> list[np.ndarray]:
        return [self.weight]


@dataclass(frozen=True)
class LossWeights:
    """Mixing weights for the two heads' cross-entropies; default (1, 1)."""

    global_head: float = 1.0
    local_head: float = 1.0

    def __post_init__(self):
        weights = (self.global_head, self.local_head)
        if not all(0.0 <= w < np.inf for w in weights):
            raise ValueError(f"loss weights must be finite and non-negative, got {weights}")


@dataclass(frozen=True)
class LearningRates:
    """Step sizes for the three parameter groups moved by one update."""

    global_model: float
    local_model: float
    projector: float

    def __post_init__(self):
        for lr in (self.global_model, self.local_model, self.projector):
            if not 0.0 <= lr < np.inf:
                raise ValueError(f"learning rate must be finite and non-negative, got {lr}")

    @classmethod
    def uniform(cls, lr: float) -> "LearningRates":
        return cls(lr, lr, lr)


@dataclass(frozen=True)
class TheoryConstants:
    """Constants of the convergence bound on the shared model's training loss.

    lipschitz (L1) bounds the gradient's smoothness, grad_variance (sigma
    squared) the stochastic gradient noise, agg_variation (delta squared)
    the drift introduced by aggregation, epsilon the target accuracy gap,
    and local_iters (E) the local steps per round.
    """

    lipschitz: float
    grad_variance: float
    agg_variation: float
    epsilon: float
    local_iters: int

    def __post_init__(self):
        values = (
            self.lipschitz,
            self.grad_variance,
            self.agg_variation,
            self.epsilon,
            self.local_iters,
        )
        if any(v <= 0 for v in values):
            raise ValueError(f"all constants must be positive, got {values}")


def lr_bound(constants: TheoryConstants) -> float:
    """Largest admissible learning rate, 2(eps - delta^2) / (L1 (eps + E sigma^2)).

    Raises ValueError when epsilon <= agg_variation: then no positive
    learning rate satisfies the bound.
    """
    gap = constants.epsilon - constants.agg_variation
    if gap <= 0:
        raise ValueError(
            "no admissible learning rate: epsilon must exceed the aggregation "
            f"variation ({constants.epsilon} <= {constants.agg_variation})"
        )
    denom = constants.lipschitz * (
        constants.epsilon + constants.local_iters * constants.grad_variance
    )
    return 2.0 * gap / denom


def init_projector(d1: int, d2: int, rng: np.random.Generator) -> Projector:
    """Xavier-uniform weights over the (d2, d1 + d2) mixing matrix, drawn row by row as
    rng.uniform(-bound, bound, size=(d2, d1 + d2)) draws them (_projector_drawn)."""
    layout, bounds = _projector_drawn(d1, d2)
    return layout._split(_uniform(bounds, rng.random(bounds.size)))


def _projector_drawn(d1: int, d2: int) -> tuple[Projector, np.ndarray]:
    """init_projector's draw order: a projector of d1 and d2 over zeros, and the bound
    of each entry it draws, in draw order, sqrt(6 / (d1 + d2 + d2))."""
    if not 0 < d1 <= d2:
        raise ValueError(f"need 0 < d1 <= d2, got d1={d1}, d2={d2}")
    bound = np.sqrt(6.0 / (d1 + d2 + d2))
    return Projector(np.zeros((d2, d1 + d2))), np.full(d2 * (d1 + d2), bound)


def _check_dims(global_model: Net, local_model: Net, projector: Projector) -> None:
    """Check that three models fit together."""
    widths = global_model.extractor.input_dim, local_model.extractor.input_dim
    if widths[0] != widths[1]:
        raise ShapeError(f"the extractors read {widths[0]} and {widths[1]} input columns")
    d1, d2 = global_model.rep_dim, local_model.rep_dim
    if d1 > d2:
        raise ShapeError(f"global width d1={d1} must not exceed local width d2={d2}")
    if projector.weight.shape != (d2, d1 + d2):
        raise ShapeError(f"projector shape {projector.weight.shape} != expected ({d2}, {d1 + d2})")
    classes = global_model.header.classes, local_model.header.classes
    if classes[0] != classes[1]:
        raise ShapeError(f"headers disagree on classes: {classes[0]} != {classes[1]}")


def _mean(losses: np.ndarray, pad=None) -> np.ndarray:
    """losses.mean(axis=-1) bit for bit (sum, then divide), without its Python wrapper.
    In a padded step, pad = (rows, real), each client's real row count and which of
    its rows are real: the sum of its losses, the padded rows' masked to 0, over rows."""
    if pad is None:
        return np.add.reduce(losses, axis=-1) / losses.shape[-1]
    rows, real = pad
    return np.add.reduce(losses * real, axis=-1) / rows


def _scaled(dlogits: np.ndarray, weight: float | None, pad) -> np.ndarray:
    """A head's logit gradients for its batch mean: (weight / n) * dlogits over n rows
    (dlogits / n without a weight).  In a padded step (pad, see _mean) n is each
    client's real row count, and the padded rows are then zeroed."""
    n = dlogits.shape[-2] if pad is None else pad[0][:, None, None]
    scaled = dlogits / n if weight is None else (weight / n) * dlogits
    return scaled if pad is None else scaled * pad[1][..., None]


def _value(values: np.ndarray) -> float | np.ndarray:
    """One client's value as a float; a cohort's as its array."""
    return float(values) if values.ndim == 0 else values


class TrainingDiverged(NonFiniteError):
    """A finite check of training or inference failed.

    group names the parameter group a step left non-finite ("global",
    "local" or "projector"); it is None for a loss or logits check.
    client and round are None until cohort_update (or evaluate) and
    run_rounds raise the error again with their prefix on its message.
    """

    def __init__(self, message: str, group=None, client=None, round=None):
        super().__init__(message)
        self.group, self.client, self.round = group, client, round


def _finite_loss(loss: float | np.ndarray) -> float | np.ndarray:
    finite = np.isfinite(loss)
    if not np.logical_and.reduce(finite, axis=None):
        raise TrainingDiverged(f"non-finite loss ({float(np.asarray(loss)[~finite][0])})")
    return loss


@dataclass
class _Plan:
    """Plain lists over one stack of clients, which a training step walks.

    private and shared are the two models, each (layers, head): layers
    hold each extractor layer's (weight, bias, weight gradient, bias
    gradient, relu), and head and projector are (weight, gradient).
    shared and projector are None to train the private model alone.
    ranges[frozen] lists the flat ranges a step trains, frozen True when
    the global header is out of the graph: each (theta, gradient, parts),
    views of one range of the rows and of their gradient scratch, and parts
    its (group, theta, gradient) views per group: 0 global, 1 local, 2 projector.
    Every array is a view of the vectors the plan was built on; every
    gradient is None, and ranges are empty, in a plan that only infers.
    _plan builds every plan, of one client's models or of a stack's.
    """

    private: tuple
    shared: tuple | None
    projector: tuple | None
    ranges: tuple


def _model(model: Net, grads: Net | None) -> tuple:
    """A Net's (layers, head) for a plan, with gradient views of grads (None to
    infer only): each layer's views of the extractor's vector, cut by models._sliced."""
    spans, d_flat = model.extractor._spans, grads and grads.extractor._flat
    d_layers = [(None, None, None)] * len(spans) if grads is None else _sliced(d_flat, spans)
    layers = [(weight, bias, d_weight, d_bias, activation == RELU) for (weight, bias, activation),
              (d_weight, d_bias, _) in zip(_sliced(model.extractor._flat, spans), d_layers)]
    return layers, (model.header.weight, grads and grads.header.weight)


def _plan(models: tuple, grads: tuple = (None, None, None), flat=None, spans=()) -> _Plan:
    """The plan of (shared, private, projector) models, the first and last None
    to train the private model alone, with gradient views of grads, models of
    the same layouts (None to infer only).  The models hold one client, or
    a stack of clients in leading axes.  A plan that steps takes flat, the
    (2, total) array whose rows 0 and 1 the models and grads view, and spans,
    the (start, stop, group) of each range of it that a step trains, in flat
    order, the shared header's last (see _carve)."""
    (g, f, p), (dg, df, dp) = models, grads
    ranges = _ranges(flat, spans), _ranges(flat, spans[:-1] if g is not None else spans)
    return _Plan(_model(f, df), g and _model(g, dg), p and (p.weight, dp and dp.weight), ranges)


def _ranges(flat, spans) -> list[tuple]:
    """The ranges of flat that spans cover, spans that touch merged: each range's
    (theta, gradient, parts), parts the (group, theta, gradient) of each run of
    touching spans of one group."""
    ranges: list[list] = []
    for start, stop, group in spans:
        if not ranges or ranges[-1][-1][1] != start:
            ranges.append([])
        if ranges[-1] and ranges[-1][-1][2] == group:
            ranges[-1][-1][1] = stop
        else:
            ranges[-1].append([start, stop, group])
    return [(flat[0, r[0][0] : r[-1][1]], flat[1, r[0][0] : r[-1][1]],
             [(group, flat[0, a:b], flat[1, a:b]) for a, b, group in r]) for r in ranges]


# The buffers of a step's flat array, in flat order (_carve), each with its parameter
# group: 0 global, 1 local, 2 projector.  _parts and _views walk models in this order.
_BUFFERS = {"extractors": 1, "headers": 1, "projectors": 2,
            "shared extractor": 0, "shared header": 0}


def _parts(models: tuple) -> list[np.ndarray]:
    """The vectors of (shared, private, projector) models, the first and last None for
    the private model alone, in _BUFFERS order."""
    g, f, p = models
    return [*f._segments(), *(() if g is None else (*p._segments(), *g._segments()))]


def _views(models: tuple, parts) -> tuple:
    """(shared, private, projector) models of models' layouts over parts, vectors in
    _BUFFERS order (the inverse of _parts)."""
    g, f, p = models
    return g and g._over(parts[3:]), f._over(parts[:2]), p and p._over(parts[2:3])


# The byte address mod 64, one cache line, at which _carve starts every flat array.
_FLAT_OFFSET = 16


def _carve(widths: list[int], room: int) -> tuple[np.ndarray, list[np.ndarray], list[int]]:
    """One flat (2, total) array, rows and then their gradient scratch, carved in turn
    into a (2, room, width) buffer per width, and each buffer's start in it, then
    the total: rows a to b of a buffer are the flat range start + a * width to
    start + b * width.

    flat starts at _FLAT_OFFSET bytes past a cache line, cut from an array one
    line longer, not where the heap happens to put it: that class changed with
    the allocations made before it, and it moves a run by several percent.
    Forcing each 16-byte class in turn, interleaved in one process (fastest of
    12 runs, numpy 2.4.6, OpenBLAS 0.3.31 Haswell), quickstart-3mode ran
    5-8% faster at 16 or 48 mod 64 than at 0 or 32, and many-dirichlet
    (fastest of 8) 3-6%; 16 and 48 tie, within 1%."""
    starts = [room * start for start in np.cumsum([0, *widths]).tolist()]
    spare = np.zeros(2 * starts[-1] + 8)
    skip = (_FLAT_OFFSET - spare.ctypes.data) % 64 // 8
    flat = spare[skip : skip + 2 * starts[-1]].reshape(2, -1)
    return flat, [flat[:, a:b].reshape(2, room, -1) for a, b in zip(starts, starts[1:])], starts


def _laid_out(models: tuple) -> tuple[tuple, _Plan]:
    """Clones of (shared, private, projector) models, the first and last None for the
    private model alone, and the plan that steps them: laid out as the workspace
    lays out a cohort of one (see federation), in _BUFFERS order, so a step trains
    one range."""
    parts = _parts(models)
    flat, buffers, starts = _carve([part.size for part in parts], 1)
    for part, buffer in zip(parts, buffers):
        buffer[0, 0] = part
    clones, grads = (_views(models, [buffer[k, 0] for buffer in buffers]) for k in (0, 1))
    return clones, _plan(clones, grads, flat, list(zip(starts, starts[1:], _BUFFERS.values())))


def _extract(layers, x, tape: list) -> np.ndarray:
    """The representation of batch x through an extractor's plan layers.  tape gains
    each layer's input and pre-activation."""
    for weight, bias, _, _, relu in layers:
        pre = x @ _transposed(weight)
        if bias is not None:
            pre += bias
        tape += (x, pre)
        x = np.maximum(pre, 0.0) if relu else pre
    return x


def _backward(layers, tape, d_rep) -> None:
    """Write the parameter gradients of an extractor's plan layers for an upstream
    gradient d_rep, which may sum several consumers' gradients.  A column slice
    of d_rep is copied to C order first."""
    delta = np.ascontiguousarray(d_rep)
    for i, (_, _, d_weight, d_bias, relu) in reversed(list(enumerate(layers))):
        if i < len(layers) - 1:
            delta = delta @ layers[i + 1][0]
        if relu:
            delta = delta * (tape[2 * i + 1] > 0.0)
        np.matmul(delta.swapaxes(-1, -2), tape[2 * i], out=d_weight)
        if d_bias is not None:
            np.add.reduce(delta, axis=-2, keepdims=True, out=d_bias)


def _read(plan: _Plan, x, tape_g: list, tape_f: list) -> tuple:
    """(spliced, read) of a batch: read is what the private header reads, the fused
    row (the spliced row projected), or without a projector the private
    representation alone, spliced then None."""
    read = _extract(plan.private[0], x, tape_f)
    if plan.projector is None:
        return None, read
    spliced = np.concatenate([_extract(plan.shared[0], x, tape_g), read], axis=-1)
    return spliced, spliced @ _transposed(plan.projector[0])


def _loss(plan: _Plan, x, y, weights: LossWeights | None, rows=None):
    """A plan's forward on a batch: forward_loss's (total, (loss_global, loss_local)),
    total checked, and the tape that _backprop reads.  Without a projector it is
    forward_loss_single's, loss_global None and weights unread.  In a padded step,
    rows holds each client's real row count, its first rows: the losses of the
    others are masked to 0, and each client's loss is the sum over rows."""
    tape_g, tape_f, low, dlogits_g, loss_global = [], [], None, None, None
    pad = None if rows is None else (rows, np.arange(y.shape[-1]) < rows[:, None])
    index = np.arange(y.size) * plan.private[1][0].shape[-2] + y.reshape(-1)  # labels, flat
    spliced, read = _read(plan, x, tape_g, tape_f)
    losses, dlogits_f = _cross_entropy(read @ _transposed(plan.private[1][0]), index)
    total = loss_local = _value(_mean(losses, pad))
    if spliced is not None:
        total = weights.local_head * loss_local
        if weights.global_head:
            head = plan.shared[1][0]
            low = np.ascontiguousarray(read[..., : head.shape[-1]])  # the d1 prefix, C order
            losses, dlogits_g = _cross_entropy(low @ _transposed(head), index)
            loss_global = _value(_mean(losses, pad))
            total = weights.global_head * loss_global + total
    tape = (spliced, read, low, tape_g, tape_f, dlogits_g, dlogits_f, pad)
    return _finite_loss(total), (loss_global, loss_local), tape


def _backprop(plan: _Plan, weights: LossWeights | None, tape) -> None:
    """Write the loss gradients of a plan's forward, its tape, into the plan's gradients.

    The fused row has two consumers in the dual-head loss; their
    gradients meet by adding the prefix gradient into the first d1
    columns.  A global header out of the graph gets no gradient.  The
    projector then routes the fused gradient back to both extractors by
    splitting the spliced gradient at column d1.  In a padded step each head's
    logit gradients are 0 on the padded rows, so those rows move nothing.
    """
    spliced, read, low, tape_g, tape_f, dlogits_g, dlogits_f, pad = tape
    head, d_head = plan.private[1]
    d_logits = _scaled(dlogits_f, None if spliced is None else weights.local_head, pad)
    np.matmul(d_logits.swapaxes(-1, -2), read, out=d_head)
    d_read = d_logits @ head
    if spliced is None:
        return _backward(plan.private[0], tape_f, d_read)
    (head, d_head), d1 = plan.shared[1], plan.shared[1][0].shape[-1]
    if dlogits_g is not None:
        d_logits = _scaled(dlogits_g, weights.global_head, pad)
        np.matmul(d_logits.swapaxes(-1, -2), low, out=d_head)
        d_read[..., :d1] += d_logits @ head
    weight, d_weight = plan.projector
    np.matmul(d_read.swapaxes(-1, -2), spliced, out=d_weight)
    d_spliced = d_read @ weight
    _backward(plan.shared[0], tape_g, d_spliced[..., :d1])
    _backward(plan.private[0], tape_f, d_spliced[..., d1:])


def _descend(plan: _Plan, lrs: LearningRates, frozen: bool) -> None:
    """One SGD step in place on each flat range the plan trains, theta -= lr *
    gradient: one multiply (one per group in it when the rates differ) and one
    subtract.  Then each range is checked once, and if one is not finite a
    TrainingDiverged names the first of global, local and projector that is not.
    A frozen global header, out of the graph, lies outside the ranges
    (plan.ranges[True]), so it is neither stepped nor checked: x - lr * 0 is x."""
    rates = lrs.global_model, lrs.local_model, lrs.projector
    ranges, same = plan.ranges[frozen], rates[0] == rates[1] == rates[2]
    for theta, grad, parts in ranges:
        for group, _, piece in ((0, None, grad),) if same else parts:
            np.multiply(piece, rates[group], out=piece)
        np.subtract(theta, grad, out=theta)
    for theta, _, _ in ranges:
        if not np.logical_and.reduce(np.isfinite(theta)):
            bad = min(group for _, _, parts in ranges for group, part, _ in parts
                      if not np.isfinite(part).all())
            group = ("global", "local", "projector")[bad]
            raise TrainingDiverged(f"non-finite {group} parameters after the step", group)


def _train(plan: _Plan, x, y, weights: LossWeights | None, lrs: LearningRates, rows=None):
    """One checked training step of a plan on a batch, in place on the plan's vectors:
    forward, backward and SGD.  Returns the (total, parts) of the loss before it.

    A padded step gives rows, each client's real row count (C,): a client's
    batch is its first rows rows, and the rest are padding, which its loss
    and every gradient mask out (_loss, _backprop).  What the padded rows
    hold, finite, changes no bit of a loss, a gradient or a parameter.
    """
    total, parts, tape = _loss(plan, x, y, weights, rows)
    _backprop(plan, weights, tape)
    _descend(plan, lrs, parts[0] is None)
    return total, parts


def _inputs(models: tuple, x, labels) -> tuple[np.ndarray, np.ndarray]:
    """A batch checked once against (shared, private, projector) models (the first
    and last None for the private model alone): input width and classes."""
    g, f, p = models
    if g is not None:
        _check_dims(g, f, p)
    x = as_matrix(x, cols=f.extractor.input_dim)
    return x, _labels(labels, x.shape[0], f.header.classes)


def forward_loss(
    global_model: Net,
    local_model: Net,
    projector: Projector,
    x: np.ndarray,
    labels: np.ndarray,
    weights: LossWeights = LossWeights(),
) -> tuple[float, tuple[float | None, float]]:
    """Dual-granularity training loss over a batch.

    Returns (total, (loss_global, loss_local)) where total is
    weights.global_head * loss_global + weights.local_head * loss_local
    and each part is the batch mean cross-entropy of its head.  With
    weights.global_head == 0 the global header is out of the graph: it is
    neither run nor differentiated, loss_global is None and total is
    weights.local_head * loss_local.  The global extractor still feeds
    the local head through the splice.
    """
    models = (global_model, local_model, projector)
    total, parts, _ = _loss(_plan(models), *_inputs(models, x, labels), weights)
    return total, parts


def loss_gradients(
    global_model: Net,
    local_model: Net,
    projector: Projector,
    x: np.ndarray,
    labels: np.ndarray,
    weights: LossWeights = LossWeights(),
) -> tuple[Net, Net, Projector]:
    """Hand-derived gradients of forward_loss for all parameter groups: (global, local,
    projector) gradient models of the groups' layouts, fresh models."""
    models = (global_model, local_model, projector)
    grads = tuple(m._zeros() for m in models)
    plan = _plan(models, grads)
    _backprop(plan, weights, _loss(plan, *_inputs(models, x, labels), weights)[2])
    return grads


def train_step(
    global_model: Net,
    local_model: Net,
    projector: Projector,
    x: np.ndarray,
    labels: np.ndarray,
    weights: LossWeights,
    lrs: LearningRates,
) -> tuple[float, tuple[float | None, float], tuple[Net, Net, Projector]]:
    """One simultaneous SGD step on all three parameter groups over a batch.

    Returns forward_loss's (total, parts) before the step and the models
    after it, fresh models over fresh vectors; the inputs are left
    untouched.  The step is the one a cohort takes: _train on a plan of
    the models' clones.  A global header out of the graph comes back
    unchanged and unchecked.  Raises TrainingDiverged for a non-finite
    loss, or naming the first stepped group that is not finite.
    """
    models = (global_model, local_model, projector)
    x, y = _inputs(models, x, labels)
    stepped, plan = _laid_out(models)
    total, parts = _train(plan, x, y, weights, lrs)
    return total, parts, stepped


def forward_loss_single(model: Net, x: np.ndarray, labels: np.ndarray) -> float:
    """Plain one-model cross-entropy loss (no splice, no projector)."""
    return _loss(_plan((None, model, None)), *_inputs((None, model, None), x, labels), None)[0]


def train_step_single(model: Net, x: np.ndarray, labels: np.ndarray, lr: float):
    """One SGD step on the plain one-model loss: (loss before the step, stepped model).

    The stepped model is checked as the local group: standalone training
    steps only the private model.
    """
    x, y = _inputs((None, model, None), x, labels)
    (_, stepped, _), plan = _laid_out((None, model, None))
    total, _ = _train(plan, x, y, None, LearningRates.uniform(lr))
    return total, stepped


def parameter_vector(global_model: Net, local_model: Net, projector: Projector) -> np.ndarray:
    """All trainable parameters in one vector: the models' vectors, concatenated.

    Order: the parameter_arrays of the global model, the local model and
    the projector, in turn.
    """
    models = (global_model, local_model, projector)
    return np.concatenate([s for m in models for s in m._segments()], axis=-1)


def with_parameter_vector(
    global_model: Net, local_model: Net, projector: Projector, vec: np.ndarray
) -> tuple[Net, Net, Projector]:
    """Models of the same architecture that view the pieces of a parameter_vector."""
    models = (global_model, local_model, projector)
    cuts = np.cumsum([0, *(m.param_count() for m in models)])
    vec = np.asarray(vec, dtype=np.float64).reshape(-1)
    if vec.size != cuts[-1]:
        raise ShapeError(f"vector length {vec.size} does not match the models ({cuts[-1]})")
    return tuple(m._split(vec[a:b]) for m, a, b in zip(models, cuts, cuts[1:]))


def _predict(plan: _Plan, x, variant: InferenceVariant) -> np.ndarray:
    """Predicted class indices of a batch on a plan, unchecked but for the logits'
    finiteness: the training step's forward, read by the variant's header."""
    if variant is InferenceVariant.SINGLE_SMALL or variant is InferenceVariant.SINGLE_LARGE:
        layers, (head, _) = plan.shared if variant is InferenceVariant.SINGLE_SMALL else plan.private
        read = _extract(layers, x, [])
    else:
        read, head = _read(plan, x, [], [])[1], plan.private[1][0]
        if variant is InferenceVariant.MIX_SMALL:
            head = plan.shared[1][0]
            read = np.ascontiguousarray(read[..., : head.shape[-1]])
    logits = read @ _transposed(head)
    if not np.logical_and.reduce(np.isfinite(logits), axis=None):
        raise TrainingDiverged("non-finite logits")
    return np.argmax(logits, axis=-1)


def infer(
    global_model: Net,
    local_model: Net,
    projector: Projector,
    x: np.ndarray,
    variant: InferenceVariant = InferenceVariant.MIX_LARGE,
) -> np.ndarray:
    """Predicted class indices for a batch under the chosen serving variant.

    Ties in the logits resolve to the lowest class index.  The MIX
    variants never read the header they exclude; the SINGLE variants
    never touch the other model or the projector.  The forward is the
    training step's, run on a plan of the models (_predict).
    """
    reader = global_model if variant is InferenceVariant.SINGLE_SMALL else local_model
    if variant is InferenceVariant.MIX_SMALL or variant is InferenceVariant.MIX_LARGE:
        _check_dims(global_model, local_model, projector)
    x = as_matrix(x, cols=reader.extractor.input_dim)
    return _predict(_plan((global_model, local_model, projector)), x, variant)
