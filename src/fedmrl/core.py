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

Each public function checks its inputs once; the products inside run as
bare ``@`` on C-order operands (see models).  Finiteness is checked once
per step: the loss functions reject a non-finite loss, the step
functions a stepped group (global, local, projector) holding a NaN or an
infinity, infer non-finite logits, each with a NonFiniteError naming the
check.

Gradients are written (np.matmul and sum with out=) into vectors laid
out like the parameters (see models).  A step is theta - lr * grad and
one isfinite per vector, and only then is a model built over the new
vectors; the steps are pure, and a caller commits a result by copying it
into its own buffers.  What the backward pass needs from the forward (the
tape) never leaves the function that made it, so it cannot go stale.

Every function here also steps a cohort of clients at once: models
stacked over a leading client axis of C, the private extractors grouped
by shape in a GroupedExtractor, batches (C, n, in) and labels (C, n).
Losses then come back as arrays of C, and a check fails if it fails for
any client.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .models import Net, _Matrix
from .numerics import (
    NonFiniteError,
    ShapeError,
    _check_lr,
    _cross_entropy,
    _labels,
    _matrix,
    _transposed,
)

__all__ = [
    "Mode",
    "Projector",
    "LossWeights",
    "LearningRates",
    "InferenceVariant",
    "TheoryConstants",
    "GradientSet",
    "init_projector",
    "splice",
    "project",
    "matryoshka_prefixes",
    "forward_loss",
    "forward_loss_single",
    "loss_gradients",
    "train_step",
    "train_step_single",
    "parameter_vector",
    "with_parameter_vector",
    "gradient_vector",
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
    """Xavier-uniform weights over the (d2, d1 + d2) mixing matrix."""
    if not 0 < d1 <= d2:
        raise ValueError(f"need 0 < d1 <= d2, got d1={d1}, d2={d2}")
    bound = np.sqrt(6.0 / (d1 + d2 + d2))
    return Projector(rng.uniform(-bound, bound, size=(d2, d1 + d2)))


def splice(rep_global: np.ndarray, rep_local: np.ndarray) -> np.ndarray:
    """Concatenate the two representations, global part first."""
    rep_global = _matrix(rep_global)
    rep_local = _matrix(rep_local, rows=rep_global.shape[-2])
    return np.concatenate([rep_global, rep_local], axis=-1)


def project(projector: Projector, spliced: np.ndarray) -> np.ndarray:
    """Mix a spliced batch down to d2 columns."""
    spliced = _matrix(spliced, cols=projector.weight.shape[-1])
    return spliced @ _transposed(projector.weight)


def matryoshka_prefixes(fused: np.ndarray, d1: int) -> tuple[np.ndarray, np.ndarray]:
    """Low-capacity prefix (first d1 columns) and the full-width row.

    The full-width view is the whole fused matrix itself; the nesting
    means the small head reads a strict prefix of what the large head
    reads.
    """
    fused = _matrix(fused)
    if not 0 < d1 <= fused.shape[-1]:
        raise ShapeError(f"prefix width {d1} out of range for {fused.shape[-1]} columns")
    return fused[..., :d1], fused


@dataclass
class GradientSet:
    """Loss gradients for all three parameter groups: models of the groups' layouts."""

    global_model: Net
    local_model: Net
    projector: Projector


def _lead(model) -> tuple[int, ...]:
    """The client axes a model is stacked over, the same for all its parts."""
    lead = model.header.lead
    if model.extractor.lead != lead:
        raise ShapeError(f"extractor stacks over {model.extractor.lead}, header over {lead}")
    return lead


def _check_dims(global_model: Net, local_model: Net,
                projector: Projector) -> tuple[int, int, tuple[int, ...]]:
    d1, d2 = global_model.rep_dim, local_model.rep_dim
    if d1 > d2:
        raise ShapeError(f"global width d1={d1} must not exceed local width d2={d2}")
    if projector.weight.shape[-2:] != (d2, d1 + d2):
        raise ShapeError(
            f"projector shape {projector.weight.shape} != expected ({d2}, {d1 + d2})"
        )
    classes = global_model.header.classes, local_model.header.classes
    if classes[0] != classes[1]:
        raise ShapeError(f"headers disagree on classes: {classes[0]} != {classes[1]}")
    lead = projector.lead
    if _lead(global_model) != lead or _lead(local_model) != lead:
        raise ShapeError("the models are not stacked over the same clients")
    return d1, d2, lead


def _batch(model, x, labels, lead) -> tuple[np.ndarray, np.ndarray]:
    """A batch checked once against the model's input width, classes and client axes."""
    x = _matrix(x, cols=model.extractor.input_dim)
    if x.shape[:-2] != lead:
        raise ShapeError(f"batch of shape {x.shape} for models stacked over {lead}")
    return x, _labels(labels, x.shape[-2], model.header.classes, lead)


def _mean(losses: np.ndarray) -> np.ndarray:
    """losses.mean(axis=-1) bit for bit (sum, then divide), without its Python wrapper."""
    return losses.sum(axis=-1) / losses.shape[-1]


def _value(values: np.ndarray) -> float | np.ndarray:
    """One client's value as a float; a cohort's as its array."""
    return float(values) if values.ndim == 0 else values


def _finite_loss(loss: float | np.ndarray) -> float | np.ndarray:
    bad = np.asarray(loss)[~np.isfinite(loss)]
    if bad.size:
        raise NonFiniteError(f"non-finite loss ({float(bad[0])})")
    return loss


def _stepped(group: str, model, grads, lr: float, frozen: bool = False):
    """model after one SGD step, checked (a NonFiniteError names `group`) before a
    model is built on the new vectors.  A frozen header (the last vector), out of
    the graph, is not checked: its gradient is zero, and x - lr * 0 is x."""
    _check_lr(lr)
    new = [theta - lr * grad for theta, grad in zip(model._segments(), grads._segments())]
    for values in new[:-1] if frozen else new:
        if not np.isfinite(values).all():
            raise NonFiniteError(f"non-finite {group} parameters after the step")
    return model._over(tuple(new))


def _forward(g: Net, f: Net, p: Projector, x, labels, weights: LossWeights):
    """(total, (loss_global, loss_local), tape) of forward_loss; the tape is what
    _gradients reads: (spliced, fused, both extractor caches, both dlogits, n)."""
    d1, _, lead = _check_dims(g, f, p)
    x, y = _batch(g, x, labels, lead)

    rep_global, cache_global = g.extractor.forward(x)
    rep_local, cache_local = f.extractor.forward(x)
    spliced = splice(rep_global, rep_local)
    fused = project(p, spliced)

    losses_f, dlogits_f = _cross_entropy(f.header.forward(fused), y)
    loss_local = _value(_mean(losses_f))
    total = weights.local_head * loss_local
    loss_global = dlogits_g = None
    if weights.global_head:
        low, _ = matryoshka_prefixes(fused, d1)
        losses_g, dlogits_g = _cross_entropy(g.header.forward(low), y)
        loss_global = _value(_mean(losses_g))
        total = weights.global_head * loss_global + total

    tape = (spliced, fused, cache_global, cache_local, dlogits_g, dlogits_f, x.shape[-2])
    return _finite_loss(total), (loss_global, loss_local), tape


def _gradients(g: Net, f: Net, p: Projector, weights: LossWeights, tape, grads: GradientSet):
    """The loss gradients of a tape written into grads, which has the models' layout.

    The fused row has two consumers in the dual-head loss; their
    gradients meet by adding the prefix gradient into the first d1
    columns.  A global header out of the graph gets a zero gradient.
    The projector then routes the fused gradient back to both extractors
    by splitting the spliced gradient at column d1.
    """
    spliced, fused, cache_global, cache_local, dlogits_g, dlogits_f, n = tape
    d1 = g.rep_dim

    d_local_logits = (weights.local_head / n) * dlogits_f
    d_fused = f.header.backward(fused, d_local_logits, grads.local_model.header.weight)
    if dlogits_g is None:
        grads.global_model.header.weight[...] = 0.0
    else:
        d_global_logits = (weights.global_head / n) * dlogits_g
        d_fused[..., :d1] += g.header.backward(
            fused[..., :d1], d_global_logits, grads.global_model.header.weight
        )

    np.matmul(_transposed(d_fused), spliced, out=grads.projector.weight)
    d_spliced = d_fused @ p.weight
    g.extractor.backward(cache_global, d_spliced[..., :d1], grads.global_model.extractor)
    f.extractor.backward(cache_local, d_spliced[..., d1:], grads.local_model.extractor)
    return grads


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
    total, parts, _ = _forward(global_model, local_model, projector, x, labels, weights)
    return total, parts


def loss_gradients(
    global_model: Net,
    local_model: Net,
    projector: Projector,
    x: np.ndarray,
    labels: np.ndarray,
    weights: LossWeights = LossWeights(),
) -> GradientSet:
    """Hand-derived gradients of forward_loss for all parameter groups, in fresh models."""
    models = (global_model, local_model, projector)
    _, _, tape = _forward(*models, x, labels, weights)
    return _gradients(*models, weights, tape, GradientSet(*(m._empty() for m in models)))


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

    Returns forward_loss's (total, parts) before the step and fresh models
    over fresh vectors after it; the inputs are left untouched.  A global
    header out of the graph comes back unchanged and unchecked.  Raises
    NonFiniteError for a non-finite loss, or naming the first stepped
    group that is not finite.
    """
    models = (global_model, local_model, projector)
    total, parts, tape = _forward(*models, x, labels, weights)
    grads = _gradients(*models, weights, tape, GradientSet(*(m._grads for m in models)))
    frozen = parts[0] is None
    stepped = (
        _stepped("global", global_model, grads.global_model, lrs.global_model, frozen),
        _stepped("local", local_model, grads.local_model, lrs.local_model),
        _stepped("projector", projector, grads.projector, lrs.projector),
    )
    return total, parts, stepped


def _forward_single(model: Net, x, labels):
    """(total, tape) of forward_loss_single; the tape is (rep, extractor cache, dlogits, n)."""
    x, y = _batch(model, x, labels, _lead(model))
    rep, cache = model.extractor.forward(x)
    losses, dlogits = _cross_entropy(model.header.forward(rep), y)
    return _finite_loss(_value(_mean(losses))), (rep, cache, dlogits, x.shape[-2])


def forward_loss_single(model: Net, x: np.ndarray, labels: np.ndarray) -> float:
    """Plain one-model cross-entropy loss (no splice, no projector)."""
    return _forward_single(model, x, labels)[0]


def train_step_single(model: Net, x: np.ndarray, labels: np.ndarray, lr: float):
    """One SGD step on the plain one-model loss: (loss before the step, stepped model).

    The stepped model is checked as the local group: standalone training
    steps only the private model.
    """
    total, (rep, cache, dlogits, n) = _forward_single(model, x, labels)
    grads = model._grads
    d_rep = model.header.backward(rep, dlogits / n, grads.header.weight)
    model.extractor.backward(cache, d_rep, grads.extractor)
    return total, _stepped("local", model, grads, lr)


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


def gradient_vector(grads: GradientSet) -> np.ndarray:
    """A GradientSet in one vector, in the parameter_vector order."""
    return parameter_vector(grads.global_model, grads.local_model, grads.projector)


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
    never touch the other model or the projector.
    """
    x = _matrix(x)
    if variant is InferenceVariant.SINGLE_SMALL:
        rep, _ = global_model.extractor.forward(x)
        logits = global_model.header.forward(rep)
    elif variant is InferenceVariant.SINGLE_LARGE:
        rep, _ = local_model.extractor.forward(x)
        logits = local_model.header.forward(rep)
    else:
        d1, _, _ = _check_dims(global_model, local_model, projector)
        rep_global, _ = global_model.extractor.forward(x)
        rep_local, _ = local_model.extractor.forward(x)
        fused = project(projector, splice(rep_global, rep_local))
        if variant is InferenceVariant.MIX_SMALL:
            logits = global_model.header.forward(fused[..., :d1])
        else:
            logits = local_model.header.forward(fused)
    if not np.isfinite(logits).all():
        raise NonFiniteError("non-finite logits")
    return np.argmax(logits, axis=-1)
