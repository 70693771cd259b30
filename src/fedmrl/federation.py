"""Client/server simulation: sampling, broadcast, local training, aggregation.

One round follows the classic recipe: the server samples K = round(C*N)
clients, broadcasts the shared small model, every sampled client trains
all three of its parameter groups locally for E epochs, uploads only the
shared model, and the server replaces its copy with the sample-count
weighted mean of the uploads.  Private models and projectors never leave
their client.  The mode picks the training graph (see core.Mode); the
standalone baseline never communicates.

Every client's parameters are rows of flat buffers that span the
population (Population), and its models are views of its rows.  The
population draws each client's private model and projector straight into
its rows, in init_model's and init_projector's draw order, so set-up
builds no model object per client.  Broadcast is one row assignment.
Aggregation is one kernel over rows (_anchored): run_rounds hands it the
participants' shared rows, which the cohort's scatter wrote, and
aggregate its stacked upload vectors, so no upload model is built in a
round.

Lockstep training: the round's participants train as one cohort
(cohort_update).  The population's workspace (_Workspace.train) gathers
their rows, and each step trains every client of one depth (number of
layers of its private extractor) that takes a batch of the same size as
one stacked step of a plan over those rows: core._plan of models that
view the rows, and of gradient models that view their scratch, built by
the one builder that plans a single client's step.  A client's batches
hold min(batch_size, shard size) rows, a short final batch after a full
one padded to batch_size, so an epoch takes one step per offset and
depth, and at offset 0 one more per depth and size of the shards smaller
than a batch.  The workspace holds the private
extractors in one block per depth, in which every architecture of that
depth is zero-padded to the widest width of the population's
architectures of the depth at each hidden position: the gather zeroes
the block and copies each slot's private row into its row of the block
through its architecture's index map, built once per population, and the
scatter reverses those per-slot copies, so the population stores every
client's rows as configured.  The workspace takes
each depth's padded layout and the index maps from models (_padded,
_positions), which owns the extractor layout, and keeps a layout Net per
depth, whose models over a block's rows are the plans' private models.
A padded unit has zero weights and bias, so its pre-activation is 0,
its ReLU is closed and its gradients are ±0: its weights stay 0.0, and a
padded step is the configured model's step in exact arithmetic, only
OpenBLAS summing the longer products in another order.  A depth with one
architecture pads nothing.

A population of several depths steps once per depth at each offset.
On the quickstart shape with three depths, a fedmrl run takes three
times the steps (120 to 360) and about 1.4x to 1.7x the wall time of a
stack that fused every depth.

A step writes the gathered rows in place, and cohort_update scatters
back the buffers the steps trained once every client has trained: a
standalone cohort's private blocks and headers alone, and all but the
shared header when the global head weighs 0 (no_mrl, or m_global = 0).
The workspace serves all the population's cohorts: buffers with room for
the largest cohort so far, carved from one flat array (core._carve) in
core._BUFFERS order: each depth's block, the private headers, the
projectors, the shared extractors and the shared headers, and the plan
of each run of slots, kept while the buffers are.  Each parameter group
is one range of the flat array, and the rows a step trains are one range
per trained buffer, merged where they touch: a step whose slots fill the
room moves and checks them as one range (core._descend).  It also keeps
one record of the clients it was last listed (_Workspace.cohort): their
slot order, the gather's copies, and what was built from their data
sets: the training sets' concatenation, the epoch's schedule of steps
(_steps, one pass per depth's run of slots), the batch arrays and the
loss ledger, and the stacked test sets.  What the workspace built for a
cohort is kept while the same clients are listed in the same order at
the same data version (Population.data_version), so a cohort that
repeats (every round, at full participation) is not sorted, checked or
built from again, and only the row copies, the steps and the predictions
run; a new record whose slots are the same keeps the copies.  A new
cohort checks only the clients not yet checked for that split at the
current data version (_Workspace.checked), so each client's data sets,
training labels included, are checked once per split while no data set
is assigned.  A gather copies every buffer in every mode, nothing at all
when the rows already hold the cohort as the population has them
(_Workspace.synced), and only the two shared buffers when they hold all
of it but the shared rows, which a broadcast writes alone
(_Workspace.local_synced, shared-stale): a full-participation round
refreshes its shared rows only, and a standalone run, which nothing else
writes, copies its rows once.  The
workspace keeps slot order to itself: training and evaluation return
their results in the order the caller listed the clients, and uploads
view one copy of the trained clients' shared rows in the population.  A
step writes its losses into the epoch's loss ledger, one (clients,
batches) array, and each client's epoch mean is one reduction of its
row.  Each client draws its epoch permutations from its own rng, in slot
order, and an epoch's shuffle is one take per array from one
concatenation of the cohort's training sets (and a zero row for the
padding), through a flat index of the batch rows that the permutations
fill.  The width padding depends on the population alone and the batch
padding on the client and the config alone, so the result is
bit-identical to a cohort of one for each client (and to the plain-numpy
oracle of the tests, tests/reference.py), because of three rules:

* every stacked product is one BLAS call per client slice, on C-order
  matrices, and every reduction runs within a slice (see core);
* a short final batch after a full one is padded with zero rows (label
  0) to batch_size and masked: a client's loss is the sum of its row
  losses, the padded rows' masked to 0, over its real rows, and each
  head's logit gradients are its weight over the real rows on them and 0
  on the padded rows (core._train).  A shard smaller than a batch is one
  batch of its own size, never padded, so a config whose batch_size
  holds every shard trains as it did before batches were padded.
  Ordering the cohort by depth, then by shard size, largest first, makes
  the clients of one depth with a batch at an offset a contiguous range
  of slots, and those of one depth and small-shard size too, which a
  step reads and writes through views.  Zero-gradient padded rows leave
  every weight and bias gradient bit for bit the unpadded batch's
  (numpy 2.4.6, OpenBLAS 0.3.31 Haswell), but a padded product's
  forward and input gradient can round its real rows differently (a
  1-row batch runs as gemv unpadded), and a batch of 8 or more rows sums
  its losses in another order: a padded client equals the public step on
  its padded model to about 1e-15 relative, not bit for bit;
* a stack that fails is run again client by client in ascending id
  order (_replayed), in the workspace, from the rng states it started
  with, and nothing is scattered, so the error raised and every client's
  rng are those of a sequential pass, and no row changes.

Evaluation reuse: the population memoizes every client's test accuracy
per inference variant (Population.accuracy, NaN where not known), and
run_rounds evaluates only the clients whose entry is NaN.
Population.wrote(ids) is the one place that forgets the accuracies of
clients whose rows were written; broadcast (saying it wrote the shared
rows only), the cohort's scatter and assignment to a model field or to a
test set call it, and a failed cohort, which writes no row, forgets
nothing.  Code that writes into a client's rows in place calls
population.wrote(ids), or neither the memo nor the workspace will see
it.  A data set changes by assignment only (ClientState), which adds one
to Population.data_version; an in-place write into a data array is seen
by neither.  Every evaluation, metrics.evaluate of one client included,
takes one path (_Workspace.evaluate): the clients are predicted in the
workspace in chunks no larger than its room, each chunk gathered in
training's slot order (by depth, then training-set size), and each depth
of a chunk in one stack with core._predict, its test sets padded to the
largest with copies of each client's own last row.  A depth's run holds
the same clients and pads to the same length in any order, so each
client's logits do not depend on the order.  A chunk that is the cohort
the workspace holds since its scatter is gathered without a copy and
predicted where it trained, so a round of run_rounds copies rows once,
and a chunk listed as the workspace's record was, at the same data
version, predicts on the test sets it stacked then.  Unlike a padded
training batch, a padded test set is not held to its unpadded bits: the
padding can move a logit in its last place, which changes a prediction
only where two logits lie that close, and the padded rows' labels (-1)
count no hit (tests/reference.py evaluates each client on its own unpadded
test set, and has found no such flip).  A chunk that fails takes
training's failure path (_replayed), so the error raised is that of the
lowest-id client that fails.  Finite checks live in the training step
and _predict (core), which raise a TrainingDiverged; _replayed raises it
again naming the client, and run_rounds naming the round.
"""

from __future__ import annotations

import math
import warnings
from bisect import bisect_left, bisect_right
from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

from .core import InferenceVariant, LearningRates, LossWeights, Mode, Projector, TrainingDiverged
from .core import _BUFFERS, _carve, _mean, _plan, _predict, _projector_drawn, _train, _views
from .data import LabeledDataset, PartitionPlan
from .metrics import RoundReport, _training_flops, comm_cost_round, forward_flops_per_sample
from .models import Extractor, ModelConfig, Net, _drawn, _length, _padded, _positions, _signature
from .models import _uniform, _view, init_model
from .numerics import ShapeError, derive_rng

# Substream tags: every source of randomness in a run is a named stream
# of the run seed, so replays are bit-identical and mode never shifts
# another component's stream.
_SERVER_STREAM = 10
_GLOBAL_INIT_STREAM = 20
_CLIENT_INIT_STREAM = 30
_CLIENT_TRAIN_STREAM = 40

# The ClientState fields whose assignment changes the data sets a population holds:
# the four sets, and population, which a new client is built on.
_DATA = ("train_x", "train_y", "test_x", "test_y", "population")


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
        self.lrs, self.loss_weights  # built for their checks
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
    one way to record a write into the rows.  data_version counts the
    assignments of its clients' data sets (ClientState), which the
    workspace keys what it keeps of them on.  _views caches each client's
    models, views of its rows, _flops the per-sample training FLOPs of
    each (kind, mode), and _workspace is the room every cohort trains and
    every evaluation predicts in (_Workspace, made by _room).  A deep or
    pickled copy views its own buffers and memo and starts without cached
    views or workspace.

    It is made from the shared model, each client's private ModelConfig
    (equal configs are one architecture, numbered in order of first
    appearance) and each client's init rng: client i's private rows and
    projector row are init_model(private[i], rngs[i])'s and then
    init_projector's, of widths shared.rep_dim and private[i].rep_dim, on
    the same rng, bit for bit.  Each client draws its units with one
    rng.random call, and each architecture's rows are one transform of
    them (models._drawn, models._uniform): no model is built per client.
    """

    def __init__(self, shared: Net, private: list[ModelConfig], rngs: list[np.random.Generator]):
        kinds: dict[ModelConfig, list[int]] = {}
        for ident, shape in enumerate(private):
            kinds.setdefault(shape, []).append(ident)
        self.place = {i: (kind, rank) for kind, ids in enumerate(kinds.values())
                      for rank, i in enumerate(ids)}
        n, d2 = len(private), private[0].rep_dim
        # Models of each layout, to build views of the rows with.
        self.shared_layout, self.private_layouts, self.blocks = shared, [], []
        self.projector_layout, projector_bounds = _projector_drawn(shared.rep_dim, d2)
        self.shared = np.repeat(_vector(shared)[None], n, axis=0)
        self.projectors = np.empty((n, projector_bounds.size))
        self.headers = np.empty((n, private[0].classes * d2))
        for shape, ids in kinds.items():
            layout, at, bounds = _drawn(shape)
            # Each client's draws in init_model's order, then in init_projector's.
            units = np.empty((len(ids), at.size + projector_bounds.size))
            for row, ident in zip(units, ids):
                rngs[ident].random(out=row)
            vectors = np.repeat(_vector(layout)[None], len(ids), axis=0)
            vectors[:, at] = _uniform(bounds, units[:, : at.size])
            cut = layout.extractor._flat.size
            self.blocks.append(vectors[:, :cut].copy())
            self.headers[ids] = vectors[:, cut:]
            self.projectors[ids] = _uniform(projector_bounds, units[:, at.size :])
            self.private_layouts.append(layout)
        self.accuracy: dict[InferenceVariant, np.ndarray] = {}
        self._views: dict[int, tuple[Net, Net, Projector]] = {}
        self._flops: dict[Mode, list[int]] = {}
        self._workspace: _Workspace | None = None
        self.data_version = 0

    def wrote(self, ids, shared_only: bool = False) -> None:
        """Forget the accuracies of clients ids: their rows were written, so the
        workspace's may no longer equal them.  shared_only says that only their
        shared rows were (a broadcast), so the workspace's other rows still do."""
        for memo in self.accuracy.values():
            memo[ids] = np.nan
        if self._workspace is not None:
            self._workspace.synced = False
            self._workspace.local_synced &= shared_only

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

    def _flops_per_sample(self, mode: Mode) -> list[int]:
        """Every client's forward FLOPs per sample under mode, by id, counted once per
        (kind, mode)."""
        per_client = self._flops.get(mode)
        if per_client is None:
            per_kind = [forward_flops_per_sample(self.shared_layout, layout, self.projector_layout,
                                                 mode) for layout in self.private_layouts]
            per_client = self._flops[mode] = [
                per_kind[self.place[i][0]] for i in range(len(self.place))]
        return per_client

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
    Assigning a test set forgets the client's memoized accuracies too; the
    training set reaches them only through training, whose scatter does.
    The data sets (train_x, train_y, test_x, test_y) change by assignment
    only: each assignment, and building a client on a population, adds one
    to population.data_version, so the workspace builds again what it kept
    of them.  An in-place write into a data array is not seen.
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

    def __setattr__(self, name, value):
        super().__setattr__(name, value)
        if name in _DATA and "population" in self.__dict__:
            self.population.data_version += 1
            if name in ("test_x", "test_y"):
                self.population.wrote(self.client_id)

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
    """Materialize the server and all clients (one Population) from a split partition plan.

    The server's model is init_model's on the global init stream.  Client
    i's private model (local_hidden entry i mod len) and projector are
    init_model's and then init_projector's on its own init stream, drawn
    by the population straight into its rows (Population), one model
    layout per distinct stack and no model object per client.
    """
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
    shapes = [ModelConfig(dataset.dim, tuple(hidden), config.d2, dataset.classes)
              for hidden in config.local_hidden]
    ids = range(config.n_clients)
    population = Population(server.global_model, [shapes[i % len(shapes)] for i in ids],
                            [derive_rng(config.seed, _CLIENT_INIT_STREAM, i) for i in ids])
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
    """Copy the current shared model into every listed client's row: one row
    assignment, a write of their shared rows only."""
    if not clients:
        return
    population = _population(clients)
    if _architecture(server.global_model) != _architecture(population.shared_layout):
        raise ShapeError(f"the server's model does not fit: {_shapes(server.global_model)}")
    ids = [c.client_id for c in clients]
    population.shared[ids] = _vector(server.global_model)
    population.wrote(ids, shared_only=True)


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
    for one without training samples, with labels out of range, or with
    training data that is not 2-D features of the models' input width, one
    row per label of 1-D labels,
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
    means = _trained(population, clients, epochs, batch_size, lrs, mode, weights).tolist()
    if mode is Mode.STANDALONE:
        return [(None, client_means) for client_means in means]
    # Uploads view one copy of the trained shared rows, not the population's,
    # which a later broadcast or cohort writes.
    split = population.shared_layout._split
    return [(Upload(c.client_id, c.n_samples, split(row)), client_means)
            for c, row, client_means in zip(clients, population.shared[ids], means)]


def _trained(population: Population, clients: list[ClientState], epochs: int, batch_size: int,
             lrs: LearningRates, mode: Mode, weights: LossWeights):
    """cohort_update's training of clients, distinct clients of population: their
    (clients, epochs) epoch means, in the order listed.  Their trained rows are
    scattered into the population's."""
    workspace = population._room()
    epoch_means = _replayed(lambda members: workspace.train(
        population, members, epochs, batch_size, mode, lrs, weights), clients,
        [c.rng.bit_generator.state for c in clients])
    workspace.scatter(population)
    return epoch_means


def _replayed(run, clients: list[ClientState], states=()):
    """run(clients), a stack of them in the workspace; if it fails, the error that
    running each client alone, in ascending id order, raises first.

    A failed stack of several clients (TrainingDiverged or ValueError)
    restores the rng states they started with, states (training passes
    them; evaluation draws nothing and passes none), and runs each client
    alone, in the workspace, until one fails; a lone run restores nothing.  If
    every client alone succeeds, the stack's own error is raised again as
    it is, each rng where the client's lone run left it.  A failed stack of
    one is that client's failure: a TrainingDiverged is raised again naming
    it, a ValueError as it is.  No run scatters, so no population row
    changes, and every rng ends where a sequential pass leaves it.
    """
    try:
        return run(clients)
    except (TrainingDiverged, ValueError) as exc:
        if len(clients) > 1:
            for client, state in zip(clients, states):
                client.rng.bit_generator.state = state
            for client in sorted(clients, key=lambda c: c.client_id):
                _replayed(run, [client])
            raise
        if isinstance(exc, ValueError):
            raise
        ident = clients[0].client_id
        raise TrainingDiverged(f"client {ident}: {exc}", exc.group, ident) from exc


# What the workspace keeps of the clients it was last listed (_Workspace.hold): key
# is their ids as listed and population.data_version; order[s] is the listed index
# of the client in slot s and back[k] the slot of listed client k; rows and depths
# are each slot's client id and depth, and runs the (first, stop, 1) of each run of
# slots of one depth.
# copies lists the gather's (population buffer, its rows of the gathered clients,
# the workspace's rows, where in them they sit): first one per slot, the client's
# row of its architecture's block into the slot's row of its depth's block at
# maps[kind], in slot order, then one per other buffer, the two shared buffers
# last.  kept maps each split whose data sets passed check to what was built from
# them: for "train" the concatenated training sets ("sets"), then per (batch_size,
# standalone) the epoch's batch arrays x and y, ledger, steps, groups and the
# shuffle's index (source, into, first); for "test" each run's stacked test sets,
# by its first slot (_stacked).
_Cohort = namedtuple("_Cohort", "key order back rows depths runs copies kept")


class _Workspace:
    """The population's room for a cohort: its rows, gathered in slot order, their
    gradient scratch, and the plans on them, for training and for evaluation.

    The private extractors sit in one zero-padded block per depth (see
    the module docstring).  The architectures of a depth share its number
    of layers, each layer's bias and activation (as all of init_model's
    do) and the input width: one models._signature.  nets[depth] is the
    depth's padded layout, a Net whose extractor is laid out by
    models._padded (the widest of the depth's widths at each hidden
    position), depth[kind] is an architecture's depth and maps[kind] the
    position of each entry of its vector in the padded one
    (models._positions).  layouts holds the population's shared and
    projector layouts, depth_of and inputs each client's depth and input
    width, by id.

    flat is one (2, total) array of rows and their gradient scratch, with
    room for the largest cohort so far, which core._carve cuts into the
    buffers in core._BUFFERS order: buffers maps each depth to its block,
    then "headers", "projectors", "shared extractor" and "shared header" to
    the other buffers, each a (2, room, width) view of one range of flat.
    starts maps each buffer to its (start in flat, width).  Every buffer is
    slot-indexed: slot i's private rows sit at row i of its depth's block.
    A cohort gathers into the first rows; a larger one regrows flat and
    drops every plan.  plans maps (a, b, depth, standalone) to the plan of
    slots a to b, which share that depth, for both models or (standalone:
    standalone training, and single_large evaluation) the private one alone:
    core._plan of the layouts' models over rows a to b and of their
    gradient models over the rows' scratch, which steps rows a to b of the
    buffers it trains, the private block and header, then outside
    standalone the projector and the shared model, last its header.
    cohort is the record of the clients last listed (_Cohort, made by
    hold): their slot order, the gather's copies and what was built from
    their data sets.  What the workspace built for a cohort is kept while
    the same clients are listed in the same order at the same data version
    (stack); a record of other clients, or of another version, whose slots
    are the same keeps the copies.  After train, stepped is the number of
    copies scatter writes back: those of the buffers the steps trained,
    which come first.

    A gather that copies every buffer leaves the rows equal to the
    population's from then to the first step, and a scatter from then to
    the next write: synced records that, set by gather and scatter and
    cleared by train before its first step, by Population.wrote and by a
    record of other slots; then a gather copies nothing.  local_synced
    records that every row but the shared ones does: it is set and cleared
    with synced, except that a write of shared rows only (broadcast) leaves
    it, and a gather then copies the two shared buffers alone
    (shared-stale).  checked maps (split, client id) to the
    population.data_version at which the client's data sets of that split
    last passed check, which skips the client while the version holds.  A
    failed step leaves the rows half-trained, and not synced, for the next
    gather to write over.  Rows beyond a cohort stay as an earlier one left
    them: no step touches or checks a row outside its slots.  The workspace
    holds arrays, ids, views and layout models only: a client or the
    population here would make a reference cycle.
    """

    def __init__(self, population: Population):
        own = [model.extractor._spans for model in population.private_layouts]
        signatures: dict[tuple, list[int]] = {}
        for kind, spans in enumerate(own):
            signatures.setdefault(_signature(spans), []).append(kind)
        self.depth, self.maps, self.nets = {}, {}, []
        for kinds in signatures.values():
            spans = _padded([own[kind] for kind in kinds])
            for kind in kinds:
                self.depth[kind], self.maps[kind] = len(self.nets), _positions(own[kind], spans)
            extractor = _view(Extractor, _flat=np.zeros(_length(spans)), _spans=spans)
            self.nets.append(Net(extractor, population.private_layouts[kinds[0]].header))
        self.layouts = population.shared_layout, population.projector_layout
        self.depth_of = [self.depth[population.place[i][0]] for i in range(len(population.place))]
        self.inputs = [self.nets[depth].extractor.input_dim for depth in self.depth_of]
        self.size, self.synced, self.local_synced, self.cohort, self.checked = 0, False, False, None, {}

    def hold(self, population: Population, key: tuple[list[int], int], sizes: list[int]) -> None:
        """Make the record (cohort) of clients key[0], listed at data version key[1] with
        training sets of sizes: their slots go by depth, then by size, largest first,
        then by id.  A record of the same slots as the last keeps its copies and the
        sync state; for other slots the copies are listed again (_Cohort), and the
        rows hold nothing of them (not synced).  A cohort larger than the room
        regrows flat first, and drops every plan."""
        ids = key[0]
        order = sorted(range(len(ids)), key=lambda k: (self.depth_of[ids[k]], -sizes[k], ids[k]))
        rows, back = [ids[k] for k in order], np.argsort(order)
        if self.cohort is not None and self.cohort.rows == rows:
            self.cohort = self.cohort._replace(key=key, order=order, back=back, kept={})
            return
        n, place, cut = len(rows), population.place, population.shared_layout.extractor._flat.size
        sources = {"headers": population.headers, "projectors": population.projectors,
                   "shared extractor": population.shared[:, :cut],
                   "shared header": population.shared[:, cut:]}
        if n > self.size:
            widths = {**{depth: net.extractor._flat.size for depth, net in enumerate(self.nets)},
                      **{name: sources[name].shape[1] for name in list(_BUFFERS)[1:]}}
            self.flat, buffers, starts = _carve(list(widths.values()), n)
            self.buffers = dict(zip(widths, buffers))
            self.starts = dict(zip(widths, zip(starts, widths.values())))
            self.size, self.plans = n, {}
        depths, index = [self.depth_of[i] for i in rows], np.array(rows)
        # Each slot's private row sits at its architecture's positions in its depth's
        # block; the other copies follow in sources' order, the shared ones last.
        copies = [(population.blocks[kind], rank, self.buffers[self.depth[kind]][0, slot],
                   self.maps[kind]) for slot, (kind, rank) in enumerate(map(place.get, rows))]
        copies += [(source, index, self.buffers[name][0][:n], ...)
                   for name, source in sources.items()]
        self.cohort = _Cohort(key, order, back, rows, depths, _runs([1] * n, depths), copies, {})
        self.synced = self.local_synced = False

    def gather(self) -> None:
        """Make the first rows hold the cohort's as the population has them: every
        buffer, the blocks zeroed first, unless the rows hold all but the shared ones
        (local_synced); then only the two shared buffers, unless they hold those too
        (synced), and then nothing."""
        if not self.local_synced:
            self.flat[0, : self.starts["headers"][0]] = 0.0  # every block, the first buffers
        copies = self.cohort.copies[-2:] if self.local_synced else self.cohort.copies
        for source, index, rows, at in [] if self.synced else copies:
            rows[at] = source[index]
        self.synced = self.local_synced = True

    def scatter(self, population: Population) -> None:
        """Write the rows back into the population: the gather's copies, reversed.  The
        rows then equal the population's (synced) until the next write or step."""
        for source, index, rows, at in self.cohort.copies[: self.stepped]:
            source[index] = rows[at]
        population.wrote(self.cohort.rows)
        self.synced = self.local_synced = True

    def plan(self, a: int, b: int, standalone: bool):
        """The plan of slots a to b, which share a depth (core._plan), for both models or
        (standalone) the private one alone: of the models, and their gradients, over
        rows a to b of that depth's block and of the other buffers, and over their
        scratch, and of those rows' ranges of flat, built the first time it is asked
        for."""
        key = a, b, self.cohort.depths[a], standalone
        plan = self.plans.get(key)
        if plan is None:
            # Without the shared model and the projector to train the private model alone.
            names = [key[2], *list(_BUFFERS)[1:]][: 2 if standalone else 5]
            g, p = (None, None) if standalone else self.layouts
            models = [_views((g, self.nets[key[2]], p), r)
                      for r in zip(*(self.buffers[name][:, a:b] for name in names))]  # rows, scratch
            spans = [(start + a * width, start + b * width, group) for name, group
                     in zip(names, _BUFFERS.values()) for start, width in [self.starts[name]]]
            plan = self.plans[key] = _plan(*models, self.flat, spans)
        return plan

    def check(self, population: Population, clients: list[ClientState], split: str,
              empty: str) -> None:
        """Raise ValueError("client i ...") if a client's split ("train" or "test") is not
        2-D features of its models' input width, one row per label of 1-D labels,
        ValueError("client i <empty>") if it is empty, and for "train" if a label lies
        outside [0, classes), as the steps read labels unchecked.  A client that passed
        for split at population.data_version is skipped (checked)."""
        version, classes = population.data_version, population.private_layouts[0].classes
        for c in clients:
            if self.checked.get((split, c.client_id)) == version:
                continue
            x, y = getattr(c, split + "_x"), getattr(c, split + "_y")
            width = self.inputs[c.client_id]
            if y.ndim != 1 or x.shape != (len(y), width):
                raise ValueError(f"client {c.client_id} has {split}_x of shape {x.shape} "
                                 f"and {split}_y of shape {y.shape}, not (n, {width}) and (n,)")
            if not len(y):
                raise ValueError(f"client {c.client_id} {empty}")
            labels = np.asarray(y, np.int64) if split == "train" else None
            if labels is not None and (labels.min() < 0 or labels.max() >= classes):
                raise ValueError(f"client {c.client_id} has labels outside [0, {classes})")
            self.checked[split, c.client_id] = version

    def stack(self, population: Population, clients: list[ClientState], split: str,
              empty: str) -> tuple[list[ClientState], np.ndarray, dict]:
        """clients in slot order, their split ("train" or "test") checked (check), and
        gathered (gather), with each listed client's slot (back) and what the caller
        builds from the split's data sets (kept).  Slots go by depth, then by
        training-set size, largest first, then by id, so the clients of one depth fill
        a contiguous run of slots, and those of them with more than a given number of
        training samples its first slots.

        What the workspace builds for a cohort is kept while the same clients are
        listed in the same order at the same data version: the record (cohort, made
        by hold) is keyed on their ids as listed and population.data_version, and
        its kept dict of a split exists once the split has passed check.  So a held
        cohort is not sorted, checked or built from again, and only gathered."""
        key = [c.client_id for c in clients], population.data_version
        if self.cohort is None or self.cohort.key != key:
            self.hold(population, key, [c.n_samples for c in clients])
        cohort = self.cohort
        if split not in cohort.kept:
            self.check(population, clients, split, empty)
            cohort.kept[split] = {}
        self.gather()
        return [clients[k] for k in cohort.order], cohort.back, cohort.kept[split]

    def train(self, population: Population, clients: list[ClientState], epochs: int,
              batch_size: int, mode: Mode, lrs: LearningRates, weights: LossWeights):
        """Train clients for epochs in the workspace, in place on the rows.  A client's
        batches hold min(batch_size, its shard size) rows, and a short final batch
        after a full one is padded with zero rows to batch_size, which its step masks
        out of the loss and the gradients (core._train).  An epoch takes at each
        offset one step of a plan per run of slots of one depth and batch size
        (_steps): per depth the clients that still have a batch there (the first
        slots of its run), and at offset 0 each size of shards smaller than a batch.
        Each client takes its batches in their order.  Once stack has checked the
        clients' training sets, they are concatenated in slot order, and the
        schedule, the batch arrays, whose padded rows stay 0, the ledger and the
        steps are built for each batch size and standalone, all kept in the
        cohort's record (kept) while stack keeps it.  An epoch's shuffle is one
        take per batch array from the concatenation: source holds the row of it
        that fills each batch row, the padding's a zero row, and each epoch writes
        the clients' permutations, drawn in slot order and shifted by where each
        client's rows start (first), into its real rows (into).  The buffers the
        steps write are recorded for scatter (stepped).
        The rows are not synced from the first step on, so a failed step
        leaves them half-trained for the next gather to write over.

        Returns the clients' (clients, epochs) epoch mean losses, in the order
        listed.  An epoch's ledger holds the loss of each slot's batches, so a
        client's losses are the first `count` entries of its row, and their mean
        (core._mean: a sum of the row, then one division) is np.mean of the list of
        them bit for bit.
        """
        clients, back, kept = self.stack(population, clients, "train", "has no training samples")
        sizes, width = [c.n_samples for c in clients], clients[0].train_x.shape[1]
        if "sets" not in kept:
            # The cohort's training sets, in slot order, and a zero row (label 0) for padding.
            kept["sets"] = (np.concatenate([*(c.train_x for c in clients), np.zeros((1, width))]),
                            np.asarray(np.concatenate([*(c.train_y for c in clients), [0]]), np.int64))
        features, labels = kept["sets"]
        self.synced = self.local_synced = False  # the steps write the rows
        standalone, depths = mode is Mode.STANDALONE, self.cohort.depths
        weights = LossWeights(0.0, 1.0) if mode is Mode.NO_MRL else weights  # the ablation
        # The buffers the steps write, which scatter copies back: no shared or projector
        # row in standalone, and no shared header when the global head weighs 0.
        self.stepped = len(self.cohort.copies) - (3 if standalone else 0 if weights.global_head else 1)
        if (batch_size, standalone) not in kept:
            batches = [-(-size // batch_size) for size in sizes]
            schedule = _steps(sizes, depths, batch_size)
            shape = (len(sizes), max(start + rows for _, _, start, rows, _ in schedule))
            x, y = np.zeros((*shape, width)), np.zeros(shape, dtype=np.int64)
            ledger = np.empty((len(sizes), max(batches)))
            steps = [(self.plan(a, b, standalone), x[a:b, start : start + rows],
                      y[a:b, start : start + rows], real, ledger[a:b, start // batch_size])
                     for a, b, start, rows, real in schedule]
            groups = _runs(batches, depths)  # runs of slots with equal batch counts
            # The row of features that fills each row of x: the padding row, and through
            # `into` (each client's rows of x, in slot order) a client's permuted rows,
            # which sit `first` rows into features.
            source = np.full(x.shape[:2], sum(sizes)).reshape(-1)
            counts = np.array(sizes)
            first = np.repeat(np.cumsum(counts) - counts, counts)
            into = np.flatnonzero(np.arange(shape[1]) < counts[:, None])
            kept[batch_size, standalone] = x, y, ledger, steps, groups, source, into, first
        x, y, ledger, steps, groups, source, into, first = kept[batch_size, standalone]
        epoch_means = np.empty((len(sizes), epochs))
        for epoch in range(epochs):
            source[into] = np.concatenate(
                [c.rng.permutation(n) for c, n in zip(clients, sizes)]) + first
            features.take(source, axis=0, out=x.reshape(-1, width), mode="clip")
            labels.take(source, out=y.reshape(-1), mode="clip")
            for plan, xs, ys, real, losses in steps:
                losses[...], _ = _train(plan, xs, ys, weights, lrs, real)
            for a, b, count in groups:
                epoch_means[a:b, epoch] = _mean(ledger[a:b, :count])
        return epoch_means[back]

    def evaluate(self, population: Population, clients: list[ClientState],
                 variant: InferenceVariant) -> list[float]:
        """The test accuracies of clients of population, listed in ascending id order,
        each a count of hits over its test-set size (float(np.mean(hits)) bit for bit).

        The clients are predicted in chunks no larger than the room the
        workspace has (one client if it has none yet), and each depth of a
        chunk in one stack (_predicted).
        A chunk that fails is replayed client by client (_replayed), so the
        error raised is that of the lowest-id client that fails: a
        ValueError for an empty test set or test data that does not fit
        (check), or a TrainingDiverged naming it for non-finite logits.
        """
        room, accuracies = max(self.size, 1), []
        for start in range(0, len(clients), room):
            accuracies += _replayed(lambda chunk: self._predicted(population, chunk, variant),
                                    clients[start : start + room])
        return accuracies

    def _predicted(self, population: Population, clients: list[ClientState],
                   variant: InferenceVariant) -> list[float]:
        """The test accuracies of clients, in the order listed, each depth's run of slots
        predicted at once (core._predict on its plan), in training's slot order (stack),
        where they sit if they are the synced cohort (gather).

        A run's test sets are padded to its largest with copies of
        each client's last row, and their labels with -1, which no prediction
        hits: a client's accuracy is its hits over its own test-set size.  A
        padded row gives only values a real row gives, so the finite check
        sees nothing new.  The padding can change how OpenBLAS rounds a
        real row's logits, in the last place, and an accuracy reads only
        their argmax.  Each run's stack (_stacked) is built once and kept in the
        cohort's record (kept) while stack keeps it.
        """
        chunk, back, kept = self.stack(population, clients, "test", "has an empty test set")
        accuracies = np.empty(len(chunk))
        for a, b, _ in self.cohort.runs:  # the runs of one depth
            if a not in kept:
                kept[a] = _stacked(chunk[a:b])
            x, labels, sizes = kept[a]
            preds = _predict(self.plan(a, b, variant is InferenceVariant.SINGLE_LARGE), x, variant)
            accuracies[a:b] = np.add.reduce(preds == labels, axis=-1) / sizes
        return accuracies[back].tolist()


def _runs(widths: list[int], depths: list[int]) -> list[list[int]]:
    """[first, stop, width] of each run of slots of one depth and one width above 0."""
    runs: list[list[int]] = []
    for i, width in enumerate(widths):
        if not width:
            continue
        if runs and runs[-1][1] == i and runs[-1][2] == width and depths[i] == depths[i - 1]:
            runs[-1][1] = i + 1
        else:
            runs.append([i, i + 1, width])
    return runs


def _steps(sizes: list[int], depths: list[int], batch_size: int) -> list[tuple]:
    """The steps of an epoch over slots of these shard sizes and depths, each depth's
    slots sorted by size, largest first: (first, stop, start, rows, real) trains
    slots first to stop on batches of rows rows from row start, offset by offset
    and, at an offset, in slot order.  real is None if every batch is full, else
    each slot's real row count, the rest of its batch padding.

    One pass per depth's run of slots: at each offset the slots whose shards
    reach past it (at offset 0, those that fill a batch) are a prefix of the
    run, found by bisection, and at offset 0 each size of the shards smaller
    than a batch steps on its own."""
    steps = []
    for a, b, _ in _runs([1] * len(sizes), depths):
        below = [-size for size in sizes[a:b]]  # ascending
        for start in range(0, sizes[a], batch_size):
            stop = a + bisect_left(below, -max(start, batch_size - 1))
            if stop > a:
                real = None if sizes[stop - 1] - start >= batch_size else \
                    np.minimum(np.array(sizes[a:stop]) - start, batch_size)
                steps.append((a, stop, start, batch_size, real))
            while not start and stop < b:  # the shards of one size smaller than a batch
                first, stop = stop, a + bisect_right(below, -sizes[stop])
                steps.append((first, stop, 0, sizes[first], None))
    steps.sort(key=lambda step: step[2])  # offset by offset, each depth's in slot order
    return steps


def _stacked(clients: list[ClientState]) -> tuple:
    """The (x, labels, sizes) of the test sets of clients, one depth's run of slots
    (_Workspace._predicted): each test set padded to the largest with copies of its
    last row and its labels with -1, and the test-set sizes."""
    sizes = np.array([c.test_y.size for c in clients])
    steps = np.arange(sizes.max())
    # Row r of a client's padded test set: its row r, or its last row.
    rows = np.minimum(steps, sizes[:, None] - 1) + (np.cumsum(sizes) - sizes)[:, None]
    labels = np.concatenate([c.test_y for c in clients])[rows]
    labels[steps >= sizes[:, None]] = -1
    return np.concatenate([c.test_x for c in clients])[rows], labels, sizes


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
    rows = np.stack([_vector(upload.model) for upload in ordered])
    server.global_model = server.global_model._split(
        _anchored(rows, [upload.n_samples for upload in ordered]))


def _anchored(rows: np.ndarray, counts: list[int]) -> np.ndarray:
    """aggregate's mean of rows (K, P), weighted by counts and anchored at the first
    row: rows[0] + sum over k of (counts[k] / sum(counts)) * (rows[k] - rows[0]),
    the terms added one row after another in row order (np.add.reduce over the rows
    would sum them pairwise), so a single row comes back bit for bit."""
    counts = np.array(counts)
    terms = rows - rows[0]
    terms *= (counts / counts.sum())[:, None]
    merged = rows[0].copy()
    for term in terms[1:]:
        merged += term
    return merged


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
    the server's rounds, those of earlier calls included.  Raises
    ValueError, before any round, unless clients are all their
    population's, in id order, and config.n_clients of them.
    """
    if len(clients) != config.n_clients:
        raise ValueError(f"the config wants {config.n_clients} clients, got {len(clients)}")
    ids = [c.client_id for c in clients]
    population = _population(clients)
    if ids != list(range(len(population.headers))):
        raise ValueError(f"the clients must be all their population's, in id order: got ids {ids}")
    standalone = config.mode is Mode.STANDALONE
    variant = InferenceVariant.SINGLE_LARGE if standalone else config.inference
    shared_params = server.global_model.param_count()
    flops = population._flops_per_sample(config.mode)
    train = (config.local_epochs, config.batch_size, config.lrs, config.mode, config.loss_weights)
    reports = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for round_index in range(1, config.rounds + 1):
            try:
                if standalone:
                    participants, members = ids, clients
                else:
                    participants = sample_clients(server, config.n_clients, config.participants)
                    members = [clients[i] for i in participants]
                    broadcast(server, members)
                losses = _trained(population, members, *train)  # (K, epochs), in id order
                counts = [c.n_samples for c in members]
                round_flops = sum(_training_flops(flops[i], count, config.local_epochs)
                                  for i, count in zip(participants, counts))

                if standalone:
                    uplink = downlink = 0
                else:
                    # The uploads: the participants' trained shared rows, in id order.
                    rows = population.shared[participants]
                    server.global_model = server.global_model._split(_anchored(rows, counts))
                    uplink, downlink = comm_cost_round(shared_params, len(participants))

                accuracies = _accuracies(population, clients, variant)
            except TrainingDiverged as exc:
                where = f"round {server.round + 1}: {exc}"
                raise TrainingDiverged(where, exc.group, exc.client, server.round + 1) from exc
            reports.append(
                RoundReport(
                    round=round_index,
                    avg_test_accuracy=float(_mean(np.array(accuracies))),  # np.mean's bits
                    per_client_accuracy=accuracies,
                    # _mean of a row is np.mean of the client's epoch means, bit for bit.
                    mean_train_loss=float(_mean(_mean(losses))) if losses.size else math.nan,
                    uplink_params=uplink,
                    downlink_params=downlink,
                    flops=round_flops,
                )
            )
            server.round += 1
    return reports


def _accuracies(population: Population, clients: list[ClientState],
                variant: InferenceVariant) -> tuple[float, ...]:
    """Every client's test accuracy, clients all population's in id order, from its
    memo: the stale ones are evaluated on the population's workspace
    (_Workspace.evaluate), which raises the error of the lowest-id client that fails."""
    memo = population.accuracy.get(variant)
    if memo is None:
        memo = population.accuracy[variant] = np.full(len(population.headers), np.nan)
    stale = np.isnan(memo).nonzero()[0].tolist()
    if stale:
        memo[stale] = population._room().evaluate(
            population, [clients[i] for i in stale], variant)
    return tuple(memo.tolist())
