"""Client/server simulation: sampling, broadcast, local training, aggregation.

One round follows the classic recipe: the server samples K = round(C*N)
clients, broadcasts the shared small model, every sampled client trains
all three of its parameter groups locally for E epochs, uploads only the
shared model, and the server replaces its copy with the sample-count
weighted mean of the uploads.  Private models and projectors never leave
their client.  The mode picks the training graph (see core.Mode); the
standalone baseline never communicates.

Every client's parameters are rows of flat buffers that span the
population (Population), and its models are views of its rows.
Broadcast is one row assignment; aggregation walks the upload rows.

Lockstep training: the round's participants train as one cohort
(cohort_update).  The population's workspace (_Workspace.train) gathers
their rows, and each step trains every client of one depth (number of
layers of its private extractor) that takes a batch of the same size as
one stacked step of a plan over those rows (core._Plan: plain lists of
views of the rows and of their gradient scratch).  The workspace holds
the private extractors in one block per depth, in which every
architecture of that depth is zero-padded to the widest width of the
population's architectures of the depth at each hidden position: the
gather zeroes the block and copies each architecture's rows into it
through an index map built once per population, and the scatter copies
them back, so the population stores every client's rows as configured.
A padded unit has zero weights and bias, so its pre-activation is 0,
its ReLU is closed and its gradients are ±0: its weights stay 0.0, and a
padded step is the configured model's step in exact arithmetic, only
OpenBLAS summing the longer products in another order.  A depth with one
architecture pads nothing.

A population of several depths steps once per depth present in a run.
On the quickstart shape with three depths, a fedmrl run takes three
times the steps (120 to 360) and about 1.4x to 1.7x the wall time of a
stack that fused every depth.

A step writes the gathered rows in place, and cohort_update scatters
them back once every client has trained.  The workspace serves all the
population's cohorts: buffers with room for the largest cohort so far,
and the plan of each run of slots, kept while the buffers are.  Uploads
view a copy of the trained shared rows.  A step writes its losses into
the epoch's loss ledger, one (clients, batches) array, and each client's
epoch mean is one reduction of its row.  Each client draws its epoch
permutations from its own rng, and the padding depends on the
population alone, so the result is bit-identical to a cohort of one for
each client, and to the public step on its padded model, because of
three rules:

* every stacked product is one BLAS call per client slice, on C-order
  matrices, and every reduction runs within a slice (see core);
* clients are grouped by batch size and depth at each step (ordering the
  cohort by shard size, largest first, then by depth, makes each group a
  contiguous range of slots, which a step reads and writes through
  views), so a short final batch is never zero-padded: padding the rows
  of a product changes how OpenBLAS rounds it;
* a stack that fails is run again client by client in ascending id
  order (_replayed), in the workspace, from the rng states it started
  with, and nothing is scattered, so the error raised and every client's
  rng are those of a sequential pass, and no row changes.

Evaluation reuse: the population memoizes every client's test accuracy
per inference variant (Population.accuracy, NaN where not known), and
run_rounds evaluates only the clients whose entry is NaN.
Population.wrote(ids) is the one place that forgets the accuracies of
clients whose rows were written; broadcast, the cohort's scatter and
assignment to a model field call it, and a failed cohort, which writes
no row, forgets nothing.  Code that writes into a client's rows in place
calls population.wrote(ids), or the memo will not see it.  Every
evaluation, metrics.evaluate of one client included, takes one path
(_Workspace.evaluate): the clients are gathered into the workspace in
chunks no larger than its room, and each run of equal test-set size is
predicted in one stack with core._predict.  A chunk that fails takes
training's failure path (_replayed), so the error raised is that of the
lowest-id client that fails.  Finite checks live in the training step
and _predict (core), which raise a TrainingDiverged; _replayed raises it
again naming the client, and run_rounds naming the round.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import astuple, dataclass, field

import numpy as np

from .core import InferenceVariant, LearningRates, LossWeights, Mode, Projector, TrainingDiverged
from .core import _Plan, _layers, _mean, _predict, _train, init_projector
from .data import LabeledDataset, PartitionPlan
from .metrics import RoundReport, comm_cost_round, forward_flops_per_sample
from .models import ModelConfig, Net, init_model
from .numerics import ShapeError, _check_lr, _labels, derive_rng

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
        if not isinstance(self.mode, Mode):
            raise ValueError(f"mode must be a Mode, got {self.mode!r}")
        if not isinstance(self.inference, InferenceVariant):
            raise ValueError(f"inference must be an InferenceVariant, got {self.inference!r}")
        if self.n_clients < 1:
            raise ValueError(f"need at least one client, got {self.n_clients}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
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
        for lr in astuple(self.lrs):
            _check_lr(lr)
        LossWeights(self.m_global, self.m_local)  # for its checks
        if not self.local_hidden:
            raise ValueError("local_hidden needs at least one width stack")
        if min(self.global_hidden, default=1) < 1:
            raise ValueError(f"global_hidden widths must be positive, got {self.global_hidden}")
        if min((width for stack in self.local_hidden for width in stack), default=1) < 1:
            raise ValueError(f"local_hidden widths must be positive, got {self.local_hidden}")

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


class Population:
    """Every client's parameters, in flat buffers that span the population.

    Row i of shared (N, P_g), projectors (N, P_p) and headers (N, L * d2),
    and row rank of blocks[kind] (N_a, P_a), one block per private
    architecture, with (kind, rank) = place[i], hold client i's parameters
    in the flat layout of models.  Rows are written in place, so views
    stay valid.  accuracy maps an inference variant to every client's
    memoized test accuracy (N,), NaN where it is not known; wrote is the
    one way to record a write into the rows.  _views caches each client's
    models, views of its rows, _flops the per-sample training FLOPs of
    each (kind, mode), and _workspace is the room every cohort trains and
    every evaluation predicts in (_Workspace, made by _room).  A deep or
    pickled copy views its own buffers and memo and starts without cached
    views or workspace.
    """

    def __init__(self, shared: Net, private: list[Net], projectors: list[Projector]):
        kinds: dict[tuple, list[int]] = {}
        for ident, model in enumerate(private):
            kinds.setdefault(_architecture(model), []).append(ident)
        groups = list(kinds.values())
        self.place = {i: (kind, rank) for kind, ids in enumerate(groups) for rank, i in enumerate(ids)}
        self.shared = np.repeat(_vector(shared)[None], len(private), axis=0)
        self.projectors = np.stack([_vector(p) for p in projectors])
        self.headers = np.stack([_vector(m.header) for m in private])
        self.blocks = [np.stack([private[i].extractor._flat for i in ids]) for ids in groups]
        # Models of each layout, to build views of the rows with.
        self.shared_layout, self.projector_layout = shared, projectors[0]
        self.private_layouts = [private[ids[0]] for ids in groups]
        self.accuracy: dict[InferenceVariant, np.ndarray] = {}
        self._views: dict[int, tuple[Net, Net, Projector]] = {}
        self._flops: dict[tuple[int, Mode], int] = {}
        self._workspace: _Workspace | None = None

    def wrote(self, ids) -> None:
        """Forget the accuracies of clients ids: their rows were written."""
        for memo in self.accuracy.values():
            memo[ids] = np.nan

    def _models(self, ident: int) -> tuple[Net, Net, Projector]:
        """Client ident's (shared copy, private model, projector): views of its rows."""
        views = self._views.get(ident)
        if views is None:
            kind, rank = self.place[ident]
            views = self._views[ident] = (
                self.shared_layout._split(self.shared[ident]),
                self.private_layouts[kind]._over((self.blocks[kind][rank], self.headers[ident])),
                self.projector_layout._split(self.projectors[ident]),
            )
        return views

    def _room(self) -> _Workspace:
        """The population's workspace, made when first asked for."""
        if self._workspace is None:
            self._workspace = _Workspace(self)
        return self._workspace

    def _flops_per_sample(self, ident: int, mode: Mode) -> int:
        """Client ident's forward FLOPs per sample under mode, counted once per (kind, mode)."""
        key = self.place[ident][0], mode
        if key not in self._flops:
            self._flops[key] = forward_flops_per_sample(
                self.shared_layout, self.private_layouts[key[0]], self.projector_layout, mode)
        return self._flops[key]

    def __getstate__(self):
        return {**self.__dict__, "_views": {}, "_workspace": None}


class _Rows:
    """A ClientState model field: a view of the client's rows; assigning copies into them."""

    def __init__(self, index: int):
        self.index = index

    def __get__(self, client, owner=None):
        return self if client is None else client.population._models(client.client_id)[self.index]

    def __set__(self, client, model) -> None:
        view = self.__get__(client)
        if _architecture(model) != _architecture(view):
            raise ShapeError(f"shapes {_shapes(model)} cannot replace {_shapes(view)}")
        for target, values in zip(view._segments(), model._segments()):
            target[...] = values
        client.population.wrote(client.client_id)


@dataclass
class ClientState:
    """One client's private world: its data shards and all three models.

    global_copy is the client's working copy of the shared model, refreshed
    on broadcast and trained locally in between.  The models are views of
    the client's rows; assigning one copies its values into the rows, and
    code that writes into them in place calls population.wrote(ids).
    """

    client_id: int
    train_x: np.ndarray
    train_y: np.ndarray
    test_x: np.ndarray
    test_y: np.ndarray
    rng: np.random.Generator
    population: Population = field(repr=False)
    global_copy = _Rows(0)
    local_model = _Rows(1)
    projector = _Rows(2)

    @property
    def n_samples(self) -> int:
        return int(self.train_y.size)


@dataclass
class ServerState:
    """The shared model, nothing of any client's, and the rounds run_rounds completed on it."""

    global_model: Net
    rng: np.random.Generator
    round: int = 0


@dataclass
class Upload:
    """What one client sends back: its id, its training-set size (the
    aggregation weight) and its trained shared model."""

    client_id: int
    n_samples: int
    model: Net


def build_clients(
    config: RunConfig, dataset: LabeledDataset, plan: PartitionPlan
) -> tuple[ServerState, list[ClientState]]:
    """Materialize the server and all clients (one Population) from a split partition plan."""
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
    private, projectors = [], []
    for ident in range(config.n_clients):
        init_rng = derive_rng(config.seed, _CLIENT_INIT_STREAM, ident)
        hidden = config.local_hidden[ident % len(config.local_hidden)]
        shape = ModelConfig(dataset.dim, hidden, config.d2, dataset.classes)
        private.append(init_model(shape, init_rng))
        projectors.append(init_projector(config.d1, config.d2, init_rng))
    population = Population(server.global_model, private, projectors)
    return server, [
        ClientState(
            client_id=ident,
            train_x=dataset.features[shard.train],
            train_y=dataset.labels[shard.train],
            test_x=dataset.features[shard.test],
            test_y=dataset.labels[shard.test],
            rng=derive_rng(config.seed, _CLIENT_TRAIN_STREAM, ident),
            population=population,
        )
        for ident, shard in enumerate(plan.clients)
    ]


def sample_clients(server: ServerState, n_clients: int, k: int) -> list[int]:
    """k distinct client ids, uniform without replacement, ascending."""
    if not 1 <= k <= n_clients:
        raise ValueError(f"cannot sample {k} of {n_clients} clients")
    picked = server.rng.choice(n_clients, size=k, replace=False)
    return sorted(int(i) for i in picked)


def broadcast(server: ServerState, clients: list[ClientState]) -> None:
    """Copy the current shared model into every listed client's row: one row assignment."""
    if not clients:
        return
    population = _population(clients)
    if _architecture(server.global_model) != _architecture(population.shared_layout):
        raise ShapeError(f"the server's model does not fit: {_shapes(server.global_model)}")
    ids = [c.client_id for c in clients]
    population.shared[ids] = _vector(server.global_model)
    population.wrote(ids)


def cohort_update(
    clients: list[ClientState],
    epochs: int,
    batch_size: int,
    lrs: LearningRates,
    mode: Mode,
    weights: LossWeights,
) -> list[tuple[Upload | None, list[float]]]:
    """Run E local epochs on each listed client, of one population, in lockstep.

    An epoch is one seeded shuffle of a client's training set walked in
    batches of batch_size (the final short batch included).  Returns, per
    client in the order listed, its upload (None in standalone mode, which
    never communicates) and its per-epoch mean losses; with epochs=0
    nothing moves.  Each result is bit for bit what a cohort of one gives
    on that client, and each client's rng ends in the same state.

    If a client fails, raises what cohorts of one in ascending id order
    would raise: the error of the lowest-id client that fails (ValueError
    for one without training samples or with labels out of range,
    TrainingDiverged naming it, its client set, for a diverging step).
    Then no client's models change, and every rng ends where that
    sequence leaves it: a client of a lower id has trained to the end, the
    failing client stops at its failure and the clients of higher ids have
    drawn nothing.  The cohort trains in the workspace and scatters its
    rows back only once every client has trained; a failed cohort is
    replayed client by client in the workspace (_replayed).
    """
    ids = [c.client_id for c in clients]
    if len(set(ids)) != len(ids):
        raise ValueError(f"duplicate client ids in a cohort: {ids}")
    if not clients:
        return []
    population = _population(clients)
    workspace = population._room()
    slots, epoch_means = _replayed(lambda members: workspace.train(
        population, members, epochs, batch_size, mode, lrs, weights), clients, rngs=True)
    workspace.scatter(population)

    # Uploads view one copy of the trained shared rows: no client's rows,
    # and not the workspace's, which the next cohort gathers into.
    shared = workspace.shared
    shared = None if shared is None else shared.copy()
    means, results = epoch_means.tolist(), {}
    for slot, client in enumerate(slots):
        upload = None
        if shared is not None:
            model = population.shared_layout._split(shared[slot])
            upload = Upload(client.client_id, client.n_samples, model)
        results[client.client_id] = (upload, means[slot])
    return [results[ident] for ident in ids]


def _replayed(run, clients: list[ClientState], rngs: bool):
    """run(clients), a stack of them in the workspace; if it fails, the error that
    running each client alone, in ascending id order, raises first.

    A failed stack of several clients (TrainingDiverged or ValueError)
    restores their rngs (if rngs) and runs each client alone, in the
    workspace, until one fails.  A failed stack of one is that client's
    failure: a TrainingDiverged is raised again naming it, a ValueError as
    it is.  No run scatters, so no population row changes, and every rng
    ends where a sequential pass leaves it.
    """
    states = [c.rng.bit_generator.state for c in clients] if rngs else []
    try:
        return run(clients)
    except (TrainingDiverged, ValueError) as exc:
        if len(clients) > 1:
            for client, state in zip(clients, states):
                client.rng.bit_generator.state = state
            for client in sorted(clients, key=lambda c: c.client_id):
                _replayed(run, [client], rngs=False)
            raise
        if isinstance(exc, ValueError):
            raise
        ident = clients[0].client_id
        raise TrainingDiverged(f"client {ident}: {exc}", exc.group, ident) from exc


class _Workspace:
    """The population's room for a cohort: its rows, gathered in slot order, their
    gradient scratch, and the plans on them, for training and for evaluation.

    The private extractors sit in one zero-padded block per depth (see
    the module docstring).  The architectures of a depth share its number
    of layers, each layer's bias and activation (as all of init_model's
    do) and the input width; at each hidden position the depth's width is
    the widest of theirs.  spans[depth] lays the padded vector out (see
    models), depth[kind] is an architecture's depth and maps[kind] the
    position of each entry of its vector in the padded one.

    buffers maps each depth to its block, and "headers", "shared" and
    "projectors" to the other buffers: each a (2, rows, width) array of
    rows and their gradient scratch, with room for the largest cohort so
    far.  Every buffer is slot-indexed: slot i's private rows sit at row i
    of its depth's block.  A cohort gathers into the first rows; a larger
    one regrows every buffer and drops every plan.  plans maps (a, b,
    depth, standalone) to the plan (core._Plan) of slots a to b, which
    share that depth, for training both models or the private one alone.
    After a gather, rows is the client id of each slot, depths the depth
    of each slot, standalone whether the private models train alone,
    copies lists (population buffer, its rows of the gathered clients, the
    workspace's rows, where in them they sit) per gathered buffer and
    architecture, and shared views the shared rows (None for standalone
    training).  Its rows equal the population's from a gather to the
    first step, and again from a scatter to the next write.  A failed
    check raises at once and leaves the rows half-trained; the next gather
    writes over them.  It holds arrays, ids and views only: a client or
    the population here would make a reference cycle.
    """

    def __init__(self, population: Population):
        layouts: dict[tuple, list[int]] = {}
        for kind, model in enumerate(population.private_layouts):
            spans = model.extractor._spans
            key = spans[0][4], tuple((span[2] is None, span[5]) for span in spans)
            layouts.setdefault(key, []).append(kind)
        self.depth, self.maps, self.spans = {}, {}, []
        for kinds in layouts.values():
            own = [population.private_layouts[kind].extractor._spans for kind in kinds]
            spans = _padded(own[0], [max(span[3] for span in layer) for layer in zip(*own)])
            for kind, layout in zip(kinds, own):
                self.depth[kind], self.maps[kind] = len(self.spans), _positions(layout, spans)
            self.spans.append(spans)
        shared = population.shared_layout
        self.shared_spans, self.cut = shared.extractor._spans, shared.extractor._flat.shape[-1]
        self.shapes = (population.private_layouts[0].header.weight.shape,
                       shared.header.weight.shape, population.projector_layout.weight.shape)
        self.size = 0

    def gather(self, population: Population, ids: tuple[int, ...], standalone: bool) -> None:
        """Copy the rows of clients ids, in slot order, into the first rows: one copy per
        slot-indexed buffer, and one per architecture into its depth's block, whose
        first rows are zeroed first."""
        n, place = len(ids), population.place
        if n > self.size:
            self.buffers = {depth: np.zeros((2, n, spans[-1][2] or spans[-1][1]))
                            for depth, spans in enumerate(self.spans)}
            self.buffers.update((key, np.zeros((2, n, getattr(population, key).shape[1])))
                                for key in ("headers", "shared", "projectors"))
            self.size, self.plans = n, {}
        self.rows, self.standalone = np.array(ids), standalone
        self.depths = [self.depth[place[i][0]] for i in ids]
        blocks = {depth: self.buffers[depth][0][:n] for depth in set(self.depths)}
        for block in blocks.values():
            block[...] = 0.0
        kinds: dict[int, tuple[list[int], list[int]]] = {}
        for slot, ident in enumerate(ids):
            kind, rank = place[ident]
            kinds.setdefault(kind, ([], []))[0].append(slot)
            kinds[kind][1].append(rank)
        self.copies = []
        for kind, (slots, ranks) in kinds.items():
            block = blocks[self.depth[kind]]  # an architecture's rows sit at flat positions
            at = np.add.outer(np.array(slots) * block.shape[1], self.maps[kind])
            self.copies.append((population.blocks[kind], np.array(ranks), block.reshape(-1), at))
        names = ("headers",) if standalone else ("headers", "shared", "projectors")
        self.copies += [(getattr(population, key), self.rows, self.buffers[key][0][:n], ...)
                        for key in names]
        for source, index, rows, at in self.copies:
            rows[at] = source[index]
        self.shared = None if standalone else self.buffers["shared"][0][:n]

    def scatter(self, population: Population) -> None:
        """Write the rows back into the population: the gather's copies, reversed."""
        for source, index, rows, at in self.copies:
            source[index] = rows[at]
        population.wrote(self.rows)

    def plan(self, a: int, b: int) -> _Plan:
        """The plan of slots a to b, which share a depth: views of rows a to b of that
        depth's block and of the other buffers, built the first time it is asked for."""
        key = a, b, self.depths[a], self.standalone
        plan = self.plans.get(key)
        if plan is None:
            rows, scratch = self.buffers[key[2]][:, a:b]
            h, s, p = (self.buffers[name][:, a:b] for name in ("headers", "shared", "projectors"))
            extractor, top = tuple(s[..., : self.cut]), s[..., self.cut :]
            head, shared_head, projector = (
                tuple(v.reshape(2, b - a, *shape)) for v, shape in zip((h, top, p), self.shapes))
            private = _layers(rows, scratch, self.spans[key[2]]), head
            shared = _layers(*extractor, self.shared_spans), shared_head
            groups = ([extractor, shared_head], [(rows, scratch), head], [projector])
            if self.standalone:  # the private model alone
                shared, projector, groups = None, None, (None, groups[1], None)
            plan = self.plans[key] = _Plan(private, shared, projector, groups)
        return plan

    def stack(self, population: Population, clients: list[ClientState], size,
              standalone: bool, empty: str) -> list[ClientState]:
        """clients in slot order, gathered: by size(client), largest first, then by
        depth, then by id, so the clients of one depth and size fill a contiguous run of
        slots.  Raises ValueError("client i <empty>") if the smallest size is 0."""
        depth, place = self.depth, population.place
        clients = sorted(clients, key=lambda c: (-size(c), depth[place[c.client_id][0]], c.client_id))
        if size(clients[-1]) == 0:
            raise ValueError(f"client {clients[-1].client_id} {empty}")
        self.gather(population, tuple(c.client_id for c in clients), standalone)
        return clients

    def train(self, population: Population, clients: list[ClientState], epochs: int,
              batch_size: int, mode: Mode, lrs: LearningRates, weights: LossWeights):
        """Train clients for epochs in the workspace, each run of slots of one depth that
        takes a batch of the same size in one step of its plan, in place on the rows.

        Returns the clients in slot order (stack) and their (clients, epochs) epoch
        mean losses.  An epoch's ledger holds the loss of each slot's batches, so a
        client's losses are the first `count` entries of its row, and their mean
        (core._mean: a sum of the row, then one division) is np.mean of the list of
        them bit for bit.
        """
        # Once here, over all the clients' labels, as the steps read labels unchecked.
        labels = np.concatenate([c.train_y for c in clients], axis=None)
        _labels(labels, labels.size, population.private_layouts[0].classes)
        clients = self.stack(population, clients, lambda c: c.n_samples,
                             mode is Mode.STANDALONE, "has no training samples")
        weights = LossWeights(0.0, 1.0) if mode is Mode.NO_MRL else weights  # the ablation
        sizes = [c.n_samples for c in clients]
        shape = (len(sizes), sizes[0])
        width = clients[0].train_x.shape[1]
        batches = [-(-size // batch_size) for size in sizes]
        groups = _runs(batches, self.depths, 0, batches[0])  # runs of slots with equal batch counts
        epoch_means = np.empty((len(sizes), epochs))
        for epoch in range(epochs):
            x, y = np.empty((*shape, width)), np.empty(shape, dtype=np.int64)
            for i, client in enumerate(clients):
                order = client.rng.permutation(sizes[i])
                x[i, : sizes[i]] = client.train_x[order]
                y[i, : sizes[i]] = client.train_y[order]
            ledger = np.empty((len(sizes), batches[0]))
            for start in range(0, shape[1], batch_size):
                losses = ledger[:, start // batch_size]
                for a, b, rows in _runs(sizes, self.depths, start, batch_size):
                    window = slice(start, start + rows)
                    losses[a:b], _ = _train(self.plan(a, b), x[a:b, window], y[a:b, window],
                                            weights, lrs)
            for a, b, count in groups:
                epoch_means[a:b, epoch] = _mean(ledger[a:b, :count])
        return clients, epoch_means

    def evaluate(self, clients: list[ClientState], variant: InferenceVariant) -> list[float]:
        """The test accuracies of clients, listed in ascending id order, each a count of
        hits over its test-set size (float(np.mean(hits)) bit for bit).

        The clients are gathered in chunks no larger than the room the
        workspace has (one client if it has none yet), in slot order by
        test-set size (stack), and each run of slots of one test-set size
        and depth is predicted in one stack (core._predict on its plan).
        A chunk that fails is replayed client by client (_replayed), so the
        error raised is that of the lowest-id client that fails: a
        ValueError for an empty test set, or a TrainingDiverged naming it
        for non-finite logits.
        """
        population = _population(clients)
        room, accuracies = max(self.size, 1), []
        for start in range(0, len(clients), room):
            accuracies += _replayed(lambda chunk: self._predicted(population, chunk, variant),
                                    clients[start : start + room], rngs=False)
        return accuracies

    def _predicted(self, population: Population, clients: list[ClientState],
                   variant: InferenceVariant) -> list[float]:
        """The test accuracies of clients, in the order listed: gathered as one stack
        (stack), each run of slots of one test-set size and depth predicted at once."""
        chunk = self.stack(population, clients, lambda c: c.test_y.size,
                           variant is InferenceVariant.SINGLE_LARGE, "has an empty test set")
        sizes, accuracies = [c.test_y.size for c in chunk], {}
        for a, b, size in _runs(sizes, self.depths, 0, sizes[0]):
            members = chunk[a:b]
            # np.array of equal shapes is np.stack's result at a third of its cost.
            preds = _predict(self.plan(a, b), np.array([c.test_x for c in members]), variant)
            hits = np.count_nonzero(preds == np.array([c.test_y for c in members]), axis=-1)
            accuracies.update(zip((c.client_id for c in members), (hits / size).tolist()))
        return [accuracies[c.client_id] for c in clients]


def _runs(sizes: list[int], depths: list[int], start: int, batch_size: int) -> list[list[int]]:
    """[first, stop, rows] of each run of slots of one depth whose batch at this offset
    has `rows` rows."""
    runs: list[list[int]] = []
    for i, size in enumerate(sizes):
        rows = min(size - start, batch_size)
        if rows <= 0:
            continue
        if runs and runs[-1][1] == i and runs[-1][2] == rows and depths[i] == depths[i - 1]:
            runs[-1][1] = i + 1
        else:
            runs.append([i, i + 1, rows])
    return runs


def _padded(spans: tuple, widths: list[int]) -> tuple:
    """An extractor layout (see models) with each layer's output width widths[i], and
    its input width the previous layer's output, laid out afresh."""
    padded, start, inp = [], 0, spans[0][4]
    for (_, _, end, _, _, activation), out in zip(spans, widths):
        stop = start + out * inp
        bias = None if end is None else stop + out
        padded.append((start, stop, bias, out, inp, activation))
        start, inp = bias or stop, out
    return tuple(padded)


def _positions(spans: tuple, padded: tuple) -> np.ndarray:
    """Where each entry of a vector laid out by spans sits in one laid out by padded:
    a weight's row r and column c at r times its padded input width plus c."""
    index = []
    for (_, _, end, out, inp, _), (start, stop, _, _, width, _) in zip(spans, padded):
        index.append((start + width * np.arange(out)[:, None] + np.arange(inp)).ravel())
        if end is not None:
            index.append(stop + np.arange(out))
    return np.concatenate(index)


def _population(clients: list[ClientState]) -> Population:
    population = clients[0].population
    if any(c.population is not population for c in clients):
        raise ValueError("the clients belong to different populations")
    return population


def _architecture(model) -> tuple:
    """What a model must share with another to take its place: its layout and client axes."""
    if isinstance(model, Net):
        return model.extractor._spans, model.extractor._flat.shape, model.header.weight.shape
    return model.weight.shape


def _shapes(model) -> list[tuple[int, ...]]:
    """The shapes of a model's vectors: read without making its layers, which a model
    over other client axes cannot make."""
    return [segment.shape for segment in model._segments()]


def _vector(model) -> np.ndarray:
    """A model's parameters, concatenated into one fresh vector."""
    return np.concatenate(model._segments(), axis=-1)


def aggregate(server: ServerState, uploads: list[Upload]) -> None:
    """Replace the shared model with the sample-count weighted mean of uploads.

    Weights are n_k over the round's participant total.  The sum is
    anchored at the lowest-id upload: result = base + sum of w_k * (up_k
    - base), which is algebraically the weighted mean but exact when all
    uploads agree and bitwise for a single upload.  Upload order is fixed
    ascending by client id; each upload is one row.
    """
    if not uploads:
        raise ValueError("cannot aggregate an empty upload list")
    ordered = sorted(uploads, key=lambda u: u.client_id)
    ids = [u.client_id for u in ordered]
    if len(set(ids)) != len(ids):
        raise ValueError(f"duplicate client ids in uploads: {ids}")
    expected = _architecture(server.global_model)
    for upload in ordered:
        if upload.n_samples < 1:
            raise ValueError(f"upload from client {upload.client_id} covers no samples")
        if _architecture(upload.model) != expected:
            raise ValueError(
                f"upload from client {upload.client_id} has shapes {_shapes(upload.model)}, "
                f"server expects {_shapes(server.global_model)}"
            )
    total = sum(u.n_samples for u in ordered)
    base = _vector(ordered[0].model)
    merged = base.copy()
    for upload in ordered[1:]:
        merged += (upload.n_samples / total) * (_vector(upload.model) - base)
    server.global_model = server.global_model._split(merged)


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

    numpy's RuntimeWarnings are silenced for the rounds (by a filter: an
    np.errstate slows every ufunc call): a diverging run ends in the
    TrainingDiverged of a finite check, raised again as "round R:
    <message>" with its round set to R, chained from it, where R counts
    the server's rounds, those of earlier calls included.
    """
    standalone = config.mode is Mode.STANDALONE
    variant = InferenceVariant.SINGLE_LARGE if standalone else config.inference
    shared_params = server.global_model.param_count()
    reports = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for round_index in range(1, config.rounds + 1):
            try:
                if standalone:
                    participants = list(range(config.n_clients))
                else:
                    participants = sample_clients(server, config.n_clients, config.participants)
                    broadcast(server, [clients[i] for i in participants])

                updates = cohort_update(
                    [clients[i] for i in participants],
                    config.local_epochs,
                    config.batch_size,
                    config.lrs,
                    config.mode,
                    config.loss_weights,
                )
                uploads = [upload for upload, _ in updates if upload is not None]
                losses = np.array([epoch_means for _, epoch_means in updates])  # (K, epochs)
                # metrics.flops_round of each participant: 3x forward per sample seen.
                round_flops = 3 * config.local_epochs * sum(
                    clients[i].population._flops_per_sample(i, config.mode) * clients[i].n_samples
                    for i in participants)

                if standalone:
                    uplink = downlink = 0
                else:
                    aggregate(server, uploads)
                    uplink, downlink = comm_cost_round(shared_params, len(participants))

                accuracies = _accuracies(clients, variant)
            except TrainingDiverged as exc:
                where = f"round {server.round + 1}: {exc}"
                raise TrainingDiverged(where, exc.group, exc.client, server.round + 1) from exc
            reports.append(
                RoundReport(
                    round=round_index,
                    avg_test_accuracy=float(np.mean(accuracies)),
                    per_client_accuracy=accuracies,
                    # _mean of a row is np.mean of the client's epoch means, bit for bit.
                    mean_train_loss=float(np.mean(_mean(losses))) if losses.size else math.nan,
                    uplink_params=uplink,
                    downlink_params=downlink,
                    flops=round_flops,
                )
            )
            server.round += 1
    return reports


def _accuracies(clients: list[ClientState], variant: InferenceVariant) -> tuple[float, ...]:
    """Every client's test accuracy, from the population's memo: the stale ones are
    evaluated on the population's workspace (_Workspace.evaluate), which raises the
    error of the lowest-id client that fails."""
    population = _population(clients)
    memo = population.accuracy.setdefault(variant, np.full(len(population.headers), np.nan))
    stale = np.flatnonzero(np.isnan(memo)).tolist()
    if stale:
        memo[stale] = population._room().evaluate([clients[i] for i in stale], variant)
    return tuple(memo.tolist())
