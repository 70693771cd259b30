"""Client/server simulation: sampling, broadcast, local training, aggregation.

One round follows the classic recipe: the server samples K = round(C*N)
clients, broadcasts the shared small model, every sampled client trains
all three of its parameter groups locally for E epochs, uploads only the
shared model, and the server replaces its copy with the sample-count
weighted mean of the uploads.  Private models and projectors never leave
their client.

The shared model and each private model are Nets.  The mode picks the
training graph (see core.Mode): fedmrl and no_mrl step forward_loss, the
latter with loss weights (0, 1), and standalone steps the private model
alone.  Broadcast, stacking a cohort, handing each client its slices
back and aggregation all walk parameters in Net.parameter_arrays order
and rebuild models with with_arrays.

Lockstep training: the round's participants train as one cohort
(cohort_update).  Their parameters are stacked along a leading client
axis, and each step trains every client that takes a batch of the same
size as one stacked step: the shared extractor, splice, projector, both
heads, cross-entropy and SGD run once for all of them, the private
extractor once per shape of private extractor.  Each client still draws
its epoch permutations from its own rng, in the same order, so the
batches are the ones it would train on alone.  The result is bit-identical
to running client_update on each client alone, which is itself a cohort
of one, because of three rules:

* every stacked product is one BLAS call per client slice, on C-order
  operands, and every reduction runs within a slice (see models);
* clients are grouped by batch size at each step (ordering the cohort by
  shard size, largest first, makes each group a contiguous run of
  slots), so a short final batch is never zero-padded to a full one:
  padding the rows of a product changes how OpenBLAS rounds it;
* a step that fails a finite check for the group is retried one client
  at a time, and the error raised is that of the lowest-id client that
  fails at any step, the one a sequential pass in ascending id order
  would meet first; clients with lower ids keep training until they
  finish or fail.

Evaluation reuse: a client's models change only through broadcast and
cohort_update (client_update included), and both clear the client's
accuracy memo.  run_rounds
evaluates only clients whose memo holds no accuracy for the run's
inference variant, so a client that sat a round out is not evaluated
again on the same models; with partial participation that is most of
them.  Code that changes a client's models in place, outside those two
functions, must clear client.accuracy itself.

Finite checks live in the training step (core): one on the loss and one
on each stepped parameter group per step, and one on the logits of each
evaluation.  cohort_update adds the client id to a NonFiniteError from
its steps.

The standalone baseline trains every client's private model alone each
round and never communicates; the server's model stays at its initial
value for the whole run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import (
    InferenceVariant,
    LearningRates,
    LossWeights,
    Mode,
    Projector,
    backward_and_step,
    backward_and_step_single,
    forward_loss,
    forward_loss_single,
    init_projector,
)
from .data import LabeledDataset, PartitionPlan
from .metrics import RoundReport, comm_cost_round, evaluate, flops_round
from .models import GroupedExtractor, Header, ModelConfig, Net, init_model
from .numerics import NonFiniteError, derive_rng

# Substream tags: every source of randomness in a run is a named stream
# of the run seed, so replays are bit-identical and mode never shifts
# another component's stream.
_SERVER_STREAM = 10
_GLOBAL_INIT_STREAM = 20
_CLIENT_INIT_STREAM = 30
_CLIENT_TRAIN_STREAM = 40


@dataclass(frozen=True)
class RunConfig:
    """Shape and schedule of one training run.

    local_hidden lists hidden-width stacks that are cycled across clients
    (client i uses entry i mod len), which is how model heterogeneity is
    expressed; all clients share the representation width d2 by default.
    """

    n_clients: int
    rounds: int
    d1: int
    d2: int
    participation: float = 1.0
    local_epochs: int = 1
    batch_size: int = 8
    lr_global: float = 0.05
    lr_local: float = 0.05
    lr_projector: float = 0.05
    m_global: float = 1.0
    m_local: float = 1.0
    mode: Mode = Mode.FEDMRL
    seed: int = 0
    global_hidden: tuple[int, ...] = (16,)
    local_hidden: tuple[tuple[int, ...], ...] = ((32,), (28,), (24,), (20,), (16,))
    inference: InferenceVariant = InferenceVariant.MIX_LARGE

    def __post_init__(self):
        if self.n_clients < 1:
            raise ValueError(f"need at least one client, got {self.n_clients}")
        if self.rounds < 0:
            raise ValueError(f"rounds must be non-negative, got {self.rounds}")
        if not 0.0 < self.participation <= 1.0:
            raise ValueError(f"participation must lie in (0, 1], got {self.participation}")
        if not 0 < self.d1 <= self.d2:
            raise ValueError(f"need 0 < d1 <= d2, got d1={self.d1}, d2={self.d2}")
        if self.local_epochs < 0:
            raise ValueError(f"local_epochs must be non-negative, got {self.local_epochs}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be positive, got {self.batch_size}")
        for lr in (self.lr_global, self.lr_local, self.lr_projector):
            if lr < 0:
                raise ValueError(f"learning rates must be non-negative, got {lr}")
        if self.m_global < 0 or self.m_local < 0:
            raise ValueError("loss weights must be non-negative")
        if not self.local_hidden:
            raise ValueError("local_hidden needs at least one width stack")

    @property
    def participants(self) -> int:
        """K = round(C * N), at least 1 (Python round, ties to even)."""
        return max(1, round(self.participation * self.n_clients))

    @property
    def lrs(self) -> LearningRates:
        return LearningRates(self.lr_global, self.lr_local, self.lr_projector)

    @property
    def loss_weights(self) -> LossWeights:
        return LossWeights(self.m_global, self.m_local)


@dataclass
class ClientState:
    """One client's private world: its data shards and all three models.

    global_copy is the client's working copy of the shared model; it is
    refreshed on broadcast and trained locally in between.  Clients that
    sit out a round keep their last copy.  accuracy memoizes the test
    accuracy of the current models per inference variant; broadcast and
    cohort_update clear it.
    """

    client_id: int
    local_model: Net
    projector: Projector
    global_copy: Net
    train_x: np.ndarray
    train_y: np.ndarray
    test_x: np.ndarray
    test_y: np.ndarray
    rng: np.random.Generator
    accuracy: dict[InferenceVariant, float] = field(default_factory=dict, repr=False)

    @property
    def n_samples(self) -> int:
        return int(self.train_y.size)


@dataclass
class ServerState:
    """The server holds the shared model and nothing of any client's."""

    global_model: Net
    rng: np.random.Generator
    round: int = 0


@dataclass
class Upload:
    """What one client sends back: the trained shared model plus scalars."""

    client_id: int
    n_samples: int
    mean_loss: float
    model: Net


def build_clients(
    config: RunConfig, dataset: LabeledDataset, plan: PartitionPlan
) -> tuple[ServerState, list[ClientState]]:
    """Materialize the server and all clients from a split partition plan."""
    if len(plan.clients) != config.n_clients:
        raise ValueError(
            f"plan covers {len(plan.clients)} clients, config wants {config.n_clients}"
        )
    if not plan.split:
        raise ValueError("partition plan must be split into train/test first")
    if plan.n_samples != len(dataset):
        raise ValueError("partition plan was built for a different dataset")

    server = ServerState(
        global_model=init_model(
            ModelConfig(dataset.dim, config.global_hidden, config.d1, dataset.classes),
            derive_rng(config.seed, _GLOBAL_INIT_STREAM),
        ),
        rng=derive_rng(config.seed, _SERVER_STREAM),
    )
    clients = []
    for ident, shard in enumerate(plan.clients):
        init_rng = derive_rng(config.seed, _CLIENT_INIT_STREAM, ident)
        hidden = config.local_hidden[ident % len(config.local_hidden)]
        clients.append(
            ClientState(
                client_id=ident,
                local_model=init_model(
                    ModelConfig(dataset.dim, hidden, config.d2, dataset.classes), init_rng
                ),
                projector=init_projector(config.d1, config.d2, init_rng),
                global_copy=server.global_model.clone(),
                train_x=dataset.features[shard.train],
                train_y=dataset.labels[shard.train],
                test_x=dataset.features[shard.test],
                test_y=dataset.labels[shard.test],
                rng=derive_rng(config.seed, _CLIENT_TRAIN_STREAM, ident),
            )
        )
    return server, clients


def sample_clients(server: ServerState, n_clients: int, k: int) -> list[int]:
    """k distinct client ids, uniform without replacement, ascending."""
    if not 1 <= k <= n_clients:
        raise ValueError(f"cannot sample {k} of {n_clients} clients")
    picked = server.rng.choice(n_clients, size=k, replace=False)
    return sorted(int(i) for i in picked)


def broadcast(server: ServerState, clients: list[ClientState]) -> None:
    """Hand every listed client a deep copy of the current shared model."""
    for client in clients:
        client.global_copy = server.global_model.clone()
        client.accuracy.clear()


def client_update(
    client: ClientState,
    epochs: int,
    batch_size: int,
    lrs: LearningRates,
    mode: Mode,
    weights: LossWeights,
) -> tuple[Upload | None, list[float]]:
    """Run E local epochs on one client and package its upload.

    An epoch is one seeded shuffle of the client's training set walked in
    batches of batch_size (the final short batch included).  Returns the
    upload (None in standalone mode, which never communicates) and the
    per-epoch mean losses.  With epochs=0 nothing moves and the upload
    carries the unchanged shared model.  A step whose loss or stepped
    parameters are not finite raises NonFiniteError naming this client.
    This is cohort_update on a cohort of one.
    """
    (result,) = cohort_update([client], epochs, batch_size, lrs, mode, weights)
    return result


def cohort_update(
    clients: list[ClientState],
    epochs: int,
    batch_size: int,
    lrs: LearningRates,
    mode: Mode,
    weights: LossWeights,
) -> list[tuple[Upload | None, list[float]]]:
    """Train the listed clients in lockstep; client_update's results for each, in order.

    Each result is bit for bit what client_update gives on that client
    alone, and each client's rng ends in the same state.  If a client
    fails, raises what client_update on each client in ascending id order
    would raise: the error of the lowest-id client that fails at any step
    (ValueError for one without training samples, NonFiniteError naming
    it for a diverging step).  Then no client's models change.
    """
    ids = [c.client_id for c in clients]
    if len(set(ids)) != len(ids):
        raise ValueError(f"duplicate client ids in a cohort: {ids}")
    if not clients:
        return []
    for client in clients:
        client.accuracy.clear()
    failures: dict[int, Exception] = {
        c.client_id: ValueError(f"client {c.client_id} has no training samples")
        for c in clients
        if c.n_samples == 0
    }
    trainable = [c for c in clients if c.client_id < min(failures, default=math.inf)]
    if trainable:
        cohort = _Cohort(trainable, mode, lrs, weights, failures)
        cohort.train(epochs, batch_size)
    if failures:
        raise failures[min(failures)]
    cohort.unstack()

    results = {}
    for client, epoch_means, losses in zip(cohort.clients, cohort.epoch_means, cohort.all_losses):
        upload = None
        if mode is not Mode.STANDALONE:
            mean_loss = float(np.mean(losses)) if losses else float("nan")
            upload = Upload(client.client_id, client.n_samples, mean_loss, client.global_copy.clone())
        results[client.client_id] = (upload, epoch_means)
    return [results[ident] for ident in ids]


class _Cohort:
    """The stacked models of clients that train in lockstep.

    Clients sit in slots ordered by training-set size, largest first,
    then by id, so the clients that take a batch of the same size at a
    step fill a contiguous run of slots, and a run's slots in each part
    of the GroupedExtractor are contiguous too.  models is (shared model,
    private model, projector), each stacked over all slots; standalone
    training stacks only the private model.  A run of slots trains on
    views of the stacks and writes its stepped parameters back into them.
    The no-MRL ablation trains with loss weights (0, 1), whatever the
    run's weights.
    """

    def __init__(
        self,
        clients: list[ClientState],
        mode: Mode,
        lrs: LearningRates,
        weights: LossWeights,
        failures: dict[int, Exception],
    ):
        self.clients = sorted(clients, key=lambda c: (-c.n_samples, c.client_id))
        self.mode, self.lrs = mode, lrs
        self.weights = LossWeights(0.0, 1.0) if mode is Mode.NO_MRL else weights
        self.failures = failures
        self.live = [True] * len(self.clients)
        self.epoch_means: list[list[float]] = [[] for _ in self.clients]
        self.all_losses: list[list[float]] = [[] for _ in self.clients]
        local = [c.local_model for c in self.clients]
        slots: dict[tuple, list[int]] = {}
        for i, model in enumerate(local):
            slots.setdefault(_architecture(model), []).append(i)
        private = Net(
            GroupedExtractor(
                [(np.array(s), _stack([local[i].extractor for i in s])) for s in slots.values()],
                len(local),
            ),
            Header(np.stack([m.header.weight for m in local])),
        )
        shared = projector = None
        if mode is not Mode.STANDALONE:
            shared = _stack([c.global_copy for c in self.clients])
            projector = _stack([c.projector for c in self.clients])
        self.models = (shared, private, projector)

    def train(self, epochs: int, batch_size: int) -> None:
        sizes = [c.n_samples for c in self.clients]
        shape = (len(sizes), max(sizes))
        width = self.clients[0].train_x.shape[1]
        for _ in range(epochs):
            x, y = np.empty((*shape, width)), np.empty(shape, dtype=np.int64)
            for i, client in enumerate(self.clients):
                if self.live[i]:
                    order = client.rng.permutation(sizes[i])
                    x[i, : sizes[i]] = client.train_x[order]
                    y[i, : sizes[i]] = client.train_y[order]
            batch_losses = [[] for _ in sizes]
            for start in range(0, shape[1], batch_size):
                for a, b, rows in self._runs(sizes, start, batch_size):
                    window = slice(start, start + rows)
                    self._step(a, b, x[a:b, window], y[a:b, window], batch_losses)
            for i, losses in enumerate(batch_losses):
                if self.live[i]:
                    self.epoch_means[i].append(float(np.mean(losses)))
                    self.all_losses[i].extend(losses)

    def _runs(self, sizes: list[int], start: int, batch_size: int) -> list[list[int]]:
        """[first, stop, rows] of each run of live slots whose batch at this offset has `rows` rows."""
        runs: list[list[int]] = []
        for i, size in enumerate(sizes):
            rows = min(size - start, batch_size) if self.live[i] else 0
            if rows <= 0:
                continue
            if runs and runs[-1][1] == i and runs[-1][2] == rows:
                runs[-1][1] = i + 1
            else:
                runs.append([i, i + 1, rows])
        return runs

    def _step(self, a, b, x, y, batch_losses) -> None:
        """Train slots a to b on one batch each; on a failed check, one slot at a time."""
        g, f, p = taken = self._take(a, b)
        try:
            if self.mode is Mode.STANDALONE:
                loss, cache = forward_loss_single(f, x, y)
                stepped = (g, backward_and_step_single(f, cache, self.lrs.local_model), p)
            else:
                loss, _, cache = forward_loss(g, f, p, x, y, self.weights)
                stepped = backward_and_step(g, f, p, cache, self.lrs)
        except NonFiniteError as exc:
            if b - a == 1:
                self._fail(a, exc)
                return
            for i in range(a, b):
                if self.live[i]:
                    here = slice(i - a, i - a + 1)
                    self._step(i, i + 1, x[here], y[here], batch_losses)
            return
        self._put(a, b, taken, stepped)
        for losses, value in zip(batch_losses[a:b], loss.tolist()):
            losses.append(value)

    def _fail(self, slot: int, exc: NonFiniteError) -> None:
        """Record a client's failure; it and every client of a higher id stop training."""
        ident = self.clients[slot].client_id
        error = NonFiniteError(f"client {ident}: {exc}")
        error.__cause__ = exc
        self.failures[ident] = error
        for i, client in enumerate(self.clients):
            if client.client_id >= ident:
                self.live[i] = False

    def _take(self, a: int, b: int):
        """The models of slots a to b, as views of the stacks."""
        if (a, b) == (0, len(self.clients)):
            return self.models
        shared, private, projector = self.models
        run = slice(a, b)
        parts = []
        for slots, extractor in private.extractor.parts:
            lo, hi = np.searchsorted(slots, (a, b))
            if lo < hi:
                parts.append((slots[lo:hi] - a, _select(extractor, slice(lo, hi))))
        return (
            None if shared is None else _select(shared, run),
            Net(GroupedExtractor(parts, b - a), Header(private.header.weight[run])),
            None if projector is None else _select(projector, run),
        )

    def _put(self, a: int, b: int, taken, stepped) -> None:
        if (a, b) == (0, len(self.clients)):
            self.models = stepped
            return
        for view, values in zip(_arrays(taken), _arrays(stepped)):
            view[...] = values

    def unstack(self) -> None:
        """Hand each client copies of its slices of the stacks."""
        shared, private, projector = self.models
        for slots, extractor in private.extractor.parts:
            for rank, i in enumerate(slots.tolist()):
                self.clients[i].local_model = Net(
                    _select(extractor, rank, copy=True), Header(private.header.weight[i].copy())
                )
        if shared is not None:
            for i, client in enumerate(self.clients):
                client.global_copy = _select(shared, i, copy=True)
                client.projector = _select(projector, i, copy=True)


# The helpers below take any model that has parameter_arrays and
# with_arrays: a Net, an Extractor or a Projector.


def _architecture(model: Net) -> tuple:
    """What private models must share to be stacked: parameter shapes, biases, activations."""
    return (
        tuple(array.shape for array in model.parameter_arrays()),
        tuple((layer.bias is None, layer.activation) for layer in model.extractor.layers),
    )


def _stack(models: list):
    """One model stacked over a list of models of one architecture."""
    stacks = [np.stack(arrays) for arrays in zip(*(m.parameter_arrays() for m in models))]
    return models[0].with_arrays(stacks)


def _select(model, key, copy: bool = False):
    """Slot(s) `key` of a stacked model, as views of its stacks or as copies."""
    return model.with_arrays(
        [array[key].copy() if copy else array[key] for array in model.parameter_arrays()]
    )


def _arrays(models) -> list[np.ndarray]:
    """Every parameter array of a (shared, private, projector) triple, in a fixed order."""
    return [array for model in models if model is not None for array in model.parameter_arrays()]


def aggregate(server: ServerState, uploads: list[Upload]) -> None:
    """Replace the shared model with the sample-count weighted mean of uploads.

    Weights are n_k over the round's participant total.  The sum is
    anchored at the lowest-id upload: result = base + sum of w_k * (up_k
    - base), which is algebraically the weighted mean but exact when all
    uploads agree and bitwise for a single upload.  Upload order is fixed
    ascending by client id.
    """
    if not uploads:
        raise ValueError("cannot aggregate an empty upload list")
    ordered = sorted(uploads, key=lambda u: u.client_id)
    ids = [u.client_id for u in ordered]
    if len(set(ids)) != len(ids):
        raise ValueError(f"duplicate client ids in uploads: {ids}")
    expected = [a.shape for a in server.global_model.parameter_arrays()]
    for upload in ordered:
        if upload.n_samples < 1:
            raise ValueError(f"upload from client {upload.client_id} covers no samples")
        got = [a.shape for a in upload.model.parameter_arrays()]
        if got != expected:
            raise ValueError(
                f"upload from client {upload.client_id} has shapes {got}, "
                f"server expects {expected}"
            )
    total = sum(u.n_samples for u in ordered)
    base_arrays = ordered[0].model.parameter_arrays()
    merged = [array.copy() for array in base_arrays]
    for upload in ordered[1:]:
        w = upload.n_samples / total
        for acc, base, other in zip(merged, base_arrays, upload.model.parameter_arrays()):
            acc += w * (other - base)
    server.global_model = server.global_model.with_arrays(merged)


def run_training(
    config: RunConfig, dataset: LabeledDataset, plan: PartitionPlan
) -> list[RoundReport]:
    """Full simulation: T rounds of sample, broadcast, update, aggregate, evaluate.

    Every client (participant or not) reports its accuracy on its own
    test shard each round; rounds are numbered from 1.  Standalone runs
    train all clients every round, skip all communication, and are
    evaluated with the private model alone.
    """
    server, clients = build_clients(config, dataset, plan)
    return run_rounds(server, clients, config)


def run_rounds(
    server: ServerState, clients: list[ClientState], config: RunConfig
) -> list[RoundReport]:
    """The round loop of run_training, on already-built states.

    A client is evaluated only when its accuracy memo holds nothing for
    the run's inference variant; otherwise the memo is reported, which
    is the accuracy evaluate would return for its unchanged models.

    numpy's overflow and invalid-value warnings are silenced for the
    rounds: a diverging run ends in the NonFiniteError of a finite check,
    which names the client, not in a warning about a line of numpy code.
    """
    standalone = config.mode is Mode.STANDALONE
    variant = InferenceVariant.SINGLE_LARGE if standalone else config.inference
    shared_params = server.global_model.param_count()
    reports = []
    with np.errstate(over="ignore", invalid="ignore"):
        for round_index in range(1, config.rounds + 1):
            if standalone:
                participants = list(range(config.n_clients))
            else:
                participants = sample_clients(server, config.n_clients, config.participants)
                broadcast(server, [clients[i] for i in participants])

            uploads = []
            client_losses = []
            round_flops = 0
            updates = cohort_update(
                [clients[i] for i in participants],
                config.local_epochs,
                config.batch_size,
                config.lrs,
                config.mode,
                config.loss_weights,
            )
            for ident, (upload, epoch_means) in zip(participants, updates):
                client = clients[ident]
                if upload is not None:
                    uploads.append(upload)
                if epoch_means:
                    client_losses.append(float(np.mean(epoch_means)))
                round_flops += flops_round(
                    client.global_copy,
                    client.local_model,
                    client.projector,
                    client.n_samples,
                    config.local_epochs,
                    config.mode,
                )

            if standalone:
                uplink = downlink = 0
            else:
                aggregate(server, uploads)
                uplink, downlink = comm_cost_round(shared_params, len(participants))

            accuracies = tuple(_accuracy(c, variant) for c in clients)
            reports.append(
                RoundReport(
                    round=round_index,
                    avg_test_accuracy=float(np.mean(accuracies)),
                    per_client_accuracy=accuracies,
                    mean_train_loss=float(np.mean(client_losses)) if client_losses else math.nan,
                    uplink_params=uplink,
                    downlink_params=downlink,
                    flops=round_flops,
                )
            )
            server.round = round_index
    return reports


def _accuracy(client: ClientState, variant: InferenceVariant) -> float:
    """The client's test accuracy, evaluated only if its memo holds none."""
    accuracy = client.accuracy.get(variant)
    if accuracy is None:
        accuracy = client.accuracy[variant] = evaluate(client, variant)
    return accuracy
