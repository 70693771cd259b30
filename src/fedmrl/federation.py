"""Client/server simulation: sampling, broadcast, local training, aggregation.

One round follows the classic recipe: the server samples K = round(C*N)
clients, broadcasts the shared small model, every sampled client trains
all three of its parameter groups locally for E epochs, uploads only the
shared model, and the server replaces its copy with the sample-count
weighted mean of the uploads.  Private models and projectors never leave
their client.  Clients update sequentially in ascending id order; they
share no mutable state within a round, so any parallel schedule would
produce the same result.

Evaluation reuse: a client's models change only through broadcast and
client_update, and both clear the client's accuracy memo.  run_rounds
evaluates only clients whose memo holds no accuracy for the run's
inference variant, so a client that sat a round out is not evaluated
again on the same models; with partial participation that is most of
them.  Code that changes a client's models in place, outside those two
functions, must clear client.accuracy itself.

Finite checks live in the training step (core): one on the loss and one
on each stepped parameter group per step, and one on the logits of each
evaluation.  client_update adds the client id to a NonFiniteError from
its steps.

The standalone baseline trains every client's private model alone each
round and never communicates; the server's model stays at its initial
value for the whole run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .core import (
    GlobalSmallModel,
    InferenceVariant,
    LearningRates,
    LocalHeteroModel,
    LossWeights,
    Projector,
    backward_and_step,
    backward_and_step_single,
    forward_loss,
    forward_loss_ablation_no_mrl,
    forward_loss_single,
    init_global_model,
    init_local_model,
    init_projector,
)
from .data import LabeledDataset, PartitionPlan
from .metrics import RoundReport, comm_cost_round, evaluate, flops_round
from .numerics import NonFiniteError, derive_rng

# Substream tags: every source of randomness in a run is a named stream
# of the run seed, so replays are bit-identical and mode never shifts
# another component's stream.
_SERVER_STREAM = 10
_GLOBAL_INIT_STREAM = 20
_CLIENT_INIT_STREAM = 30
_CLIENT_TRAIN_STREAM = 40


class Mode(Enum):
    FEDMRL = "fedmrl"
    STANDALONE = "standalone"
    NO_MRL = "no_mrl"


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
    client_update clear it.
    """

    client_id: int
    local_model: LocalHeteroModel
    projector: Projector
    global_copy: GlobalSmallModel
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

    global_model: GlobalSmallModel
    rng: np.random.Generator
    round: int = 0


@dataclass
class Upload:
    """What one client sends back: the trained shared model plus scalars."""

    client_id: int
    n_samples: int
    mean_loss: float
    model: GlobalSmallModel


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
        global_model=init_global_model(
            dataset.dim,
            config.global_hidden,
            config.d1,
            dataset.classes,
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
                local_model=init_local_model(
                    dataset.dim, hidden, config.d2, dataset.classes, init_rng
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
    """
    n = client.n_samples
    if n == 0:
        raise ValueError(f"client {client.client_id} has no training samples")
    client.accuracy.clear()
    g, f, p = client.global_copy, client.local_model, client.projector
    epoch_means: list[float] = []
    all_losses: list[float] = []
    for _ in range(epochs):
        order = client.rng.permutation(n)
        batch_losses = []
        for start in range(0, n, batch_size):
            idx = order[start : start + batch_size]
            xb, yb = client.train_x[idx], client.train_y[idx]
            try:
                if mode is Mode.STANDALONE:
                    loss, cache = forward_loss_single(f, xb, yb)
                    f = backward_and_step_single(f, cache, lrs.local_model)
                elif mode is Mode.NO_MRL:
                    loss, cache = forward_loss_ablation_no_mrl(g, f, p, xb, yb)
                    g, f, p = backward_and_step(g, f, p, cache, lrs)
                else:
                    loss, _, cache = forward_loss(g, f, p, xb, yb, weights)
                    g, f, p = backward_and_step(g, f, p, cache, lrs)
            except NonFiniteError as exc:
                raise NonFiniteError(f"client {client.client_id}: {exc}") from exc
            batch_losses.append(loss)
        epoch_means.append(float(np.mean(batch_losses)))
        all_losses.extend(batch_losses)
    client.global_copy, client.local_model, client.projector = g, f, p

    if mode is Mode.STANDALONE:
        return None, epoch_means
    mean_loss = float(np.mean(all_losses)) if all_losses else float("nan")
    return Upload(client.client_id, n, mean_loss, g.clone()), epoch_means


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
    merged = ordered[0].model.clone()
    merged_arrays = merged.parameter_arrays()
    base_arrays = ordered[0].model.parameter_arrays()
    for upload in ordered[1:]:
        w = upload.n_samples / total
        for acc, base, other in zip(
            merged_arrays, base_arrays, upload.model.parameter_arrays()
        ):
            acc += w * (other - base)
    server.global_model = merged


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
    """
    standalone = config.mode is Mode.STANDALONE
    variant = InferenceVariant.SINGLE_LARGE if standalone else config.inference
    shared_params = server.global_model.param_count()
    reports = []
    for round_index in range(1, config.rounds + 1):
        if standalone:
            participants = list(range(config.n_clients))
        else:
            participants = sample_clients(server, config.n_clients, config.participants)
            broadcast(server, [clients[i] for i in participants])

        uploads = []
        client_losses = []
        round_flops = 0
        for ident in participants:
            client = clients[ident]
            upload, epoch_means = client_update(
                client,
                config.local_epochs,
                config.batch_size,
                config.lrs,
                config.mode,
                config.loss_weights,
            )
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
