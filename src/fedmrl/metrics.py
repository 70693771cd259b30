"""Round reports, evaluation, and the communication / computation ledgers.

Ledger conventions, applied uniformly:

* Communication counts parameters, not bytes.  Each participating client
  downloads the shared model once and uploads it once per round, so a
  round moves K * |shared| parameters each way.  The standalone baseline
  moves nothing.
* FLOPs count multiply-adds of affine maps only: a forward pass of an
  (in -> out) map costs 2 * in * out per sample, a backward pass twice
  that (gradients w.r.t. weights and inputs), so one training pass costs
  3x forward.  Activations and bias additions are ignored.  Totals scale
  with samples seen, so an epoch over n samples costs n times one sample.

Exports are byte-stable: floats are written with repr (which round-trips
float64 exactly), so identical runs produce identical files.  They are
atomic: the text goes to a temporary file beside the target, which then
replaces it, so a failed write leaves the old file as it was.
"""

from __future__ import annotations

import json
import os
import uuid
from dataclasses import dataclass, fields
from pathlib import Path
from typing import TYPE_CHECKING

from .core import InferenceVariant, Mode, Projector
from .models import Net

if TYPE_CHECKING:  # pragma: no cover - only for annotations
    from .federation import ClientState

REPORT_SCHEMA_VERSION = 1

_CSV_FIXED_COLUMNS = ("round", "avg_acc", "mean_loss", "uplink", "downlink", "flops")


@dataclass(frozen=True)
class RoundReport:
    """Everything recorded about one communication round."""

    round: int
    avg_test_accuracy: float
    per_client_accuracy: tuple[float, ...]
    mean_train_loss: float
    uplink_params: int
    downlink_params: int
    flops: int


def evaluate(client: "ClientState", variant: InferenceVariant) -> float:
    """Fraction of the client's test samples predicted correctly.

    Predicts on the client's population's workspace, the one path every
    evaluation takes (federation._Workspace.evaluate).  The count of hits
    over the size is float(np.mean(hits)) bit for bit: a sum of 0s and 1s
    is exact, then one division.  Raises ValueError for an empty test
    set or one that is not 2-D features of the models' input width, one
    row per label of 1-D labels, and TrainingDiverged naming the client if its logits are not
    finite.
    """
    population = client.population
    (accuracy,) = population._room().evaluate(population, [client], variant)
    return accuracy


def comm_cost_round(shared_params: int, participants: int) -> tuple[int, int]:
    """(uplink, downlink) parameter totals for one round.

    Only the shared small model ever crosses the wire; private models and
    projectors stay on their clients.
    """
    if shared_params < 0 or participants < 0:
        raise ValueError("parameter and participant counts must be non-negative")
    return participants * shared_params, participants * shared_params


def affine_forward_flops(in_dim: int, out_dim: int, samples: int = 1) -> int:
    """2 * in * out multiply-adds per sample."""
    if in_dim < 1 or out_dim < 1 or samples < 0:
        raise ValueError("dimensions must be positive and samples non-negative")
    return 2 * in_dim * out_dim * samples


def _extractor_forward_flops(extractor) -> int:
    """Read from the extractor's layout (see models): (.., out, in, ..) per layer."""
    return sum(affine_forward_flops(inp, out) for _, _, _, out, inp, _ in extractor._spans)


def forward_flops_per_sample(
    global_model: Net,
    local_model: Net,
    projector: Projector,
    mode: Mode,
) -> int:
    """Affine forward cost of one sample through the mode's training graph."""
    local = _extractor_forward_flops(local_model.extractor) + affine_forward_flops(
        local_model.header.in_dim, local_model.header.classes
    )
    if mode is Mode.STANDALONE:
        return local
    shared_extractor = _extractor_forward_flops(global_model.extractor)
    mix = affine_forward_flops(projector.weight.shape[1], projector.weight.shape[0])
    if mode is Mode.NO_MRL:  # the shared header is out of the ablated graph
        return local + shared_extractor + mix
    shared_header = affine_forward_flops(
        global_model.header.in_dim, global_model.header.classes
    )
    return local + shared_extractor + mix + shared_header


def flops_round(
    global_model: Net,
    local_model: Net,
    projector: Projector,
    n_samples: int,
    epochs: int,
    mode: Mode,
) -> int:
    """Training FLOPs one client spends in one round: 3x forward per sample seen."""
    if n_samples < 0 or epochs < 0:
        raise ValueError("sample and epoch counts must be non-negative")
    return _training_flops(forward_flops_per_sample(global_model, local_model, projector, mode),
                           n_samples, epochs)


def _training_flops(per_sample: int, n_samples: int, epochs: int) -> int:
    """Training FLOPs of one client in one round from its forward FLOPs per sample:
    3x forward per sample seen (flops_round)."""
    return 3 * per_sample * n_samples * epochs


def first_round_reaching(reports: list[RoundReport], target: float) -> int | None:
    """Earliest round whose average test accuracy meets the target, if any."""
    for report in reports:
        if report.avg_test_accuracy >= target:
            return report.round
    return None


def _float_repr(value: float) -> str:
    return repr(float(value))


def export_reports(
    reports: list[RoundReport],
    path: str | Path,
    format: str = "csv",
    meta: dict | None = None,
) -> None:
    """Write round reports as CSV or JSON.

    CSV columns: round,avg_acc,mean_loss,uplink,downlink,flops, then one
    client{i}_acc column per client.  An empty report list writes the
    fixed header only.  JSON mirrors the same values row for row under
    "reports", one object of RoundReport's fields per round, and carries
    schema_version plus any meta entries verbatim.
    """
    path = Path(path)
    if format == "csv":
        n_clients = len(reports[0].per_client_accuracy) if reports else 0
        header = list(_CSV_FIXED_COLUMNS) + [f"client{i}_acc" for i in range(n_clients)]
        lines = [",".join(header)]
        for r in reports:
            cells = [
                str(r.round),
                _float_repr(r.avg_test_accuracy),
                _float_repr(r.mean_train_loss),
                str(r.uplink_params),
                str(r.downlink_params),
                str(r.flops),
            ]
            cells += [_float_repr(a) for a in r.per_client_accuracy]
            lines.append(",".join(cells))
        text = "\n".join(lines) + "\n"
    elif format == "json":
        doc = {"schema_version": REPORT_SCHEMA_VERSION}
        doc.update(meta or {})
        doc["reports"] = [{f.name: getattr(r, f.name) for f in fields(r)} for r in reports]
        text = json.dumps(doc, indent=2) + "\n"
    else:
        raise ValueError(f"unknown export format {format!r} (use 'csv' or 'json')")
    temporary = path.with_name(f".{path.name}.{uuid.uuid4().hex}.tmp")
    try:
        temporary.write_text(text, encoding="utf-8")
        os.replace(temporary, path)
    except BaseException:
        temporary.unlink(missing_ok=True)
        raise


def load_reports_json(path: str | Path) -> tuple[dict, list[RoundReport]]:
    """Read back a JSON export; values round-trip exactly."""
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    if doc.get("schema_version") != REPORT_SCHEMA_VERSION:
        raise ValueError(f"unsupported report schema {doc.get('schema_version')!r}")
    reports = []
    for entry in doc["reports"]:
        values = {f.name: entry[f.name] for f in fields(RoundReport)}
        values["per_client_accuracy"] = tuple(values["per_client_accuracy"])
        reports.append(RoundReport(**values))
    meta = {k: v for k, v in doc.items() if k != "reports"}
    return meta, reports
