"""A reference oracle for one client's local update and test accuracy, in plain numpy.

train_alone trains one client on its own, as the paper's local update
reads (FedMRL, arXiv 2406.00488): each epoch one seeded shuffle of the
client's training set, walked in batches, and each batch one SGD step on
all three parameter groups.  A step runs the fused forward (both
extractors, the splice, the projector), the dual-head loss (the global
header on the d1 prefix of the fused row, the private header on all of
it, each cross-entropy scaled by its loss weight), the hand-derived
backward and SGD.  It shares no training code with fedmrl.core or
fedmrl.federation: it reads the models' public layer views and writes
into them.

It is bit-identical to the simulator, not only close, because it follows
the numeric conventions the simulator fixes:

* every product is a bare ``@`` on C-order operands, a transposed weight
  or a column slice of the fused row or its gradient copied to C order
  first; a weight gradient reads the transposed view of the upstream
  gradient;
* the private model is the client's padded model (padded_models): each
  depth's hidden widths zero-padded to the widest of the population's
  architectures of that depth, as the cohort workspace lays them out;
* a batch holds min(batch_size, n) of the client's n rows, so a shard
  smaller than a batch is one batch of its own size; a short final batch
  after a full one is padded with zero rows (label 0) to batch_size, and
  its loss is the sum of its row losses, the padded rows' masked to 0,
  over its real rows, and its logit gradients are each head's weight
  over its real rows on them and 0 on the padded rows.

accuracy_alone evaluates one client on its own unpadded test set: the
forward of the models an inference variant reads, then the argmax of its
header's logits (the lowest class winning a tie).  The simulator pads the
test sets of a stack of clients with copies of each one's last row, which
can round a real row's logits differently in the last place, so the two
agree bit for bit unless an argmax sits on such a near tie.

run_alone chains them into whole rounds, as the paper's algorithm reads
them: the server samples k = round(C * N) clients uniformly without
replacement (the draw of sample_clients), broadcasts a fresh copy of its
shared model to each, every participant trains alone (train_alone), and
the server takes the sample-count weighted mean of the participants'
shared models, anchored at the lowest id and summed in ascending id
order, as aggregate documents it.  Every client is then evaluated
(accuracy_alone).  Standalone rounds train every client, communicate
nothing and evaluate with the private model alone.  A round in which a
participant's loss or parameters go non-finite (diverged) raises a
TrainingDiverged naming the round and the lowest such id, as run_rounds'
finite checks do.  It shares with the
simulator the initial models and rngs (build_clients, which runs
init_model, init_projector and derive_rng) and the ledger formulas of
metrics (flops_round, comm_cost_round), and nothing that trains,
aggregates or evaluates.
"""

from __future__ import annotations

import math

import numpy as np

from fedmrl import models
from fedmrl.core import InferenceVariant, LossWeights, Mode, TrainingDiverged
from fedmrl.federation import build_clients
from fedmrl.metrics import RoundReport, comm_cost_round, flops_round
from fedmrl.models import RELU


def padded_models(client):
    """Clones of the client's (shared copy, private model, projector), the private
    extractor padded with zeros to the widths of its depth's block in the
    population's workspace (federation._Workspace)."""
    population = client.population
    workspace = population._room()
    kind, rank = population.place[client.client_id]
    spans = workspace.nets[workspace.depth[kind]].extractor._spans
    flat = np.zeros(spans[-1][2] or spans[-1][1])
    flat[workspace.maps[kind]] = population.blocks[kind][rank]
    extractor = models._view(models.Extractor, _flat=flat, _spans=spans)
    local = models.Net(extractor, client.local_model.header.clone())
    return client.global_copy.clone(), local, client.projector.clone()


def train_alone(client_models, train_x, train_y, rng, epochs, batch_size, lrs, mode, weights):
    """Train (shared, private, projector) models in place for epochs on one client's
    training set, its shuffles drawn from rng; returns the epoch mean losses.

    In standalone mode only the private model trains, on its own
    cross-entropy; in no_mrl mode the loss weights are (0, 1).  A zero
    global weight takes the global header out of the graph: it is
    neither run nor stepped.
    """
    if mode is Mode.NO_MRL:
        weights = LossWeights(0.0, 1.0)
    n = len(train_y)
    width = min(batch_size, n)
    pad = -n % width
    means = []
    for _ in range(epochs):
        order = rng.permutation(n)
        x = np.concatenate([train_x[order], np.zeros((pad, train_x.shape[1]))])
        y = np.concatenate([train_y[order], np.zeros(pad, dtype=np.int64)])
        losses = [_step(client_models, x[start : start + width], y[start : start + width],
                        min(n - start, width), mode, weights, lrs)
                  for start in range(0, n, width)]
        means.append(float(np.mean(losses)))
    return means


def accuracy_alone(client_models, test_x, test_y, variant):
    """The share of a client's test rows that its (shared, private, projector) models
    classify as labelled under the inference variant, on the unpadded test set."""
    g, f, p = client_models
    if variant is InferenceVariant.SINGLE_SMALL:
        read, head = _forward(g.extractor.layers, test_x, []), g.header.weight
    elif variant is InferenceVariant.SINGLE_LARGE:
        read, head = _forward(f.extractor.layers, test_x, []), f.header.weight
    else:
        spliced = np.concatenate([_forward(g.extractor.layers, test_x, []),
                                  _forward(f.extractor.layers, test_x, [])], axis=1)
        read, head = spliced @ p.weight.T.copy(), f.header.weight
        if variant is InferenceVariant.MIX_SMALL:
            head = g.header.weight
            read = read[:, : head.shape[1]].copy()
    predictions = np.argmax(read @ head.T.copy(), axis=1)
    return np.count_nonzero(predictions == test_y) / len(test_y)


def diverged(client_models, means) -> bool:
    """Whether a client's training went non-finite: one of its epoch mean losses, or a
    parameter of its (shared, private, projector) models."""
    arrays = [np.array(means), *(a for m in client_models for a in m._segments())]
    return not all(np.isfinite(a).all() for a in arrays)


def run_alone(config, dataset, plan) -> list[RoundReport]:
    """The round reports of run_training(config, dataset, plan), one client at a time."""
    with np.errstate(all="ignore"):  # a diverging client runs on to inf or nan
        return _rounds(config, dataset, plan)


def _rounds(config, dataset, plan) -> list[RoundReport]:
    server, built = build_clients(config, dataset, plan)
    states = [padded_models(client) for client in built]  # each client's own models
    mode, epochs, n = config.mode, config.local_epochs, config.n_clients
    standalone = mode is Mode.STANDALONE
    variant = InferenceVariant.SINGLE_LARGE if standalone else config.inference
    shared = server.global_model.clone()
    args = (epochs, config.batch_size, config.lrs, mode, config.loss_weights)
    reports = []
    for round_index in range(1, config.rounds + 1):
        if standalone:
            ids = list(range(n))
        else:
            ids = sorted(int(i) for i in server.rng.choice(n, size=config.participants,
                                                           replace=False))
            for i in ids:  # the broadcast
                states[i] = (shared.clone(), *states[i][1:])
        means = [train_alone(states[i], built[i].train_x, built[i].train_y, built[i].rng, *args)
                 for i in ids]
        for i, client_means in zip(ids, means):
            if diverged(states[i], client_means):
                raise TrainingDiverged(f"round {round_index}: client {i}", None, i, round_index)
        if standalone:
            uplink = downlink = 0
        else:
            counts = [len(built[i].train_y) for i in ids]
            vectors = [np.concatenate(states[i][0]._segments()) for i in ids]
            merged = vectors[0].copy()
            for count, vector in zip(counts[1:], vectors[1:]):
                merged += (count / sum(counts)) * (vector - vectors[0])
            shared = shared._split(merged)
            uplink, downlink = comm_cost_round(shared.param_count(), len(ids))
        accuracies = tuple(accuracy_alone(states[i], c.test_x, c.test_y, variant)
                           for i, c in enumerate(built))
        reports.append(RoundReport(
            round=round_index,
            avg_test_accuracy=float(np.mean(accuracies)),
            per_client_accuracy=accuracies,
            mean_train_loss=float(np.mean([np.mean(m) for m in means])) if epochs else math.nan,
            uplink_params=uplink,
            downlink_params=downlink,
            flops=sum(flops_round(built[i].global_copy, built[i].local_model, built[i].projector,
                                  len(built[i].train_y), epochs, mode) for i in ids),
        ))
    return reports


def _step(client_models, x, y, real, mode, weights, lrs):
    """One SGD step on a batch whose first real rows are real; returns its loss
    before the step."""
    g, f, p = client_models
    g_layers, f_layers = g.extractor.layers, f.extractor.layers
    n, rows = len(y), np.arange(len(y))
    mask = rows < real

    def mean(losses):
        return losses.sum() / n if real == n else np.where(mask, losses, 0.0).sum() / real

    def scaled(dlogits, weight):
        count = n if real == n else real
        scaled = dlogits / count if weight is None else (weight / count) * dlogits
        return scaled if real == n else scaled * mask[:, None]

    f_tape, g_tape = [], []
    read = _forward(f_layers, x, f_tape)
    if mode is not Mode.STANDALONE:
        spliced = np.concatenate([_forward(g_layers, x, g_tape), read], axis=1)
        read = spliced @ p.weight.T.copy()
    losses, dlogits = _cross_entropy(read @ f.header.weight.T.copy(), y, rows)
    loss = mean(losses)

    steps = []  # (parameter, gradient, learning rate)
    if mode is Mode.STANDALONE:
        d_logits = scaled(dlogits, None)
    else:
        loss = weights.local_head * loss
        d_logits = scaled(dlogits, weights.local_head)
    steps.append((f.header.weight, d_logits.T @ read, lrs.local_model))
    d_read = d_logits @ f.header.weight
    if mode is Mode.STANDALONE:
        steps += _backward(f_layers, f_tape, d_read, lrs.local_model)
        return _descend(steps, loss)

    d1 = g.header.weight.shape[1]
    if weights.global_head:
        low = read[:, :d1].copy()
        losses, dlogits = _cross_entropy(low @ g.header.weight.T.copy(), y, rows)
        loss = weights.global_head * mean(losses) + loss
        d_logits = scaled(dlogits, weights.global_head)
        steps.append((g.header.weight, d_logits.T @ low, lrs.global_model))
        d_read[:, :d1] += d_logits @ g.header.weight
    steps.append((p.weight, d_read.T @ spliced, lrs.projector))
    d_spliced = d_read @ p.weight
    steps += _backward(g_layers, g_tape, d_spliced[:, :d1], lrs.global_model)
    steps += _backward(f_layers, f_tape, d_spliced[:, d1:], lrs.local_model)
    return _descend(steps, loss)


def _forward(layers, x, tape):
    """The representation of x; tape gains each layer's (input, pre-activation)."""
    for layer in layers:
        pre = x @ layer.weight.T.copy()
        if layer.bias is not None:
            pre += layer.bias
        tape.append((x, pre))
        x = np.maximum(pre, 0.0) if layer.activation == RELU else pre
    return x


def _backward(layers, tape, d_rep, lr):
    """(parameter, gradient, lr) of each layer's weight and bias, last layer first."""
    steps, delta = [], d_rep.copy()
    for i in reversed(range(len(layers))):
        if i < len(layers) - 1:
            delta = delta @ layers[i + 1].weight
        x, pre = tape[i]
        if layers[i].activation == RELU:
            delta = delta * (pre > 0.0)
        steps.append((layers[i].weight, delta.T @ x, lr))
        if layers[i].bias is not None:
            steps.append((layers[i].bias, delta.sum(axis=0, keepdims=True), lr))
    return steps


def _cross_entropy(logits, y, rows):
    """Each row's cross-entropy of max-shifted logits and its gradient, softmax - one-hot."""
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    z = e.sum(axis=1, keepdims=True)
    probs = e / z
    probs[rows, y] -= 1.0
    return np.log(z[:, 0]) - shifted[rows, y], probs


def _descend(steps, loss):
    """theta -= lr * gradient for every (theta, gradient, lr), once all are computed."""
    for theta, grad, lr in steps:
        theta -= grad * lr
    return loss
