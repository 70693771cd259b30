"""End-to-end experiment runner: dataset, partition, training, report files.

One invocation runs a config (optionally once per sweep value) and writes
a CSV and a JSON report per run into the config's output directory.  All
outputs are deterministic functions of the config, so re-running produces
byte-identical files.
"""

from __future__ import annotations

import sys
from pathlib import Path

from .config import (
    ConfigError,
    ExperimentConfig,
    _build,
    load_config,
    override,
    parse_mode,
    parse_sweep,
)
from .data import (
    ClassCountSpec,
    CsvFormatError,
    DirichletSpec,
    LabeledDataset,
    PartitionError,
    PartitionPlan,
    gen_synthetic,
    load_csv,
    partition_class_count,
    partition_dirichlet,
    split_train_test,
    standardize_features,
)
from .federation import run_training
from .metrics import export_reports, first_round_reaching
from .numerics import NonFiniteError, derive_rng

# Substream tag for synthetic data generation (partitioning and splitting
# derive their own streams inside the data module).
_DATA_STREAM = 3


def load_dataset(config: ExperimentConfig) -> LabeledDataset:
    """Materialize the dataset a config describes."""
    if config.dataset == "csv":
        dataset = load_csv(config.csv_path)
    else:
        dataset = gen_synthetic(
            config.classes,
            config.input_dim,
            config.per_class,
            config.spread,
            derive_rng(config.seed, _DATA_STREAM),
        )
    if config.standardize:
        dataset = standardize_features(dataset)
    return dataset


def build_partition(config: ExperimentConfig, dataset: LabeledDataset) -> PartitionPlan:
    """Partition per the config and split each client 8:2."""
    if config.partition == "class_count":
        plan = partition_class_count(
            dataset, config.n_clients, ClassCountSpec(config.classes_per_client, config.seed)
        )
    else:
        plan = partition_dirichlet(
            dataset, config.n_clients, DirichletSpec(config.alpha, config.seed)
        )
    return split_train_test(plan)


def execute(config: ExperimentConfig):
    """Run one experiment; returns (reports, meta) without touching disk."""
    dataset = load_dataset(config)
    plan = build_partition(config, dataset)
    reports = run_training(config, dataset, plan)
    reached = (
        first_round_reaching(reports, config.target_accuracy)
        if config.target_accuracy is not None
        else None
    )
    meta = {
        "mode": config.mode.value,
        "seed": config.seed,
        "partition": config.partition,
        "partition_fingerprint": plan.fingerprint(),
        "target_accuracy": config.target_accuracy,
        "first_round_reaching_target": reached,
    }
    return reports, meta


def _safe_token(token: str) -> str:
    return "".join(c if (c.isalnum() or c in "._-") else "-" for c in token)


def run_experiment(
    config_path: str | Path,
    mode: str | None = None,
    seed: int | None = None,
    sweep: str | None = None,
    out_dir: str | None = None,
) -> int:
    """Load a config, apply overrides, run (sweeping if asked), write reports.

    Returns a process exit code: 0 on success, 1 on any config, data or
    I/O failure or on a diverging run (with the reason on stderr).
    """
    try:
        config = load_config(config_path)
        changes, flags = {}, []
        if mode is not None:
            flags.append(f"--mode {mode}")
            changes["mode"] = _build(flags[-1], parse_mode, mode)
        if seed is not None:
            changes["seed"] = seed
            flags.append(f"--seed {seed}")
        if out_dir is not None:
            changes["out_dir"] = out_dir
            flags.append(f"--out {out_dir}")
        if changes:
            config = override(config, " ".join(flags), **changes)

        if sweep is not None:
            key, pairs = parse_sweep(sweep)
            runs = [
                (
                    override(config, f"--sweep {key}={token}", **{key: value}),
                    f"{config.report_name}_{key}_{_safe_token(token)}",
                )
                for token, value in pairs
            ]
        else:
            runs = [(config, config.report_name)]

        out = Path(config.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        for run_config, name in runs:
            reports, meta = execute(run_config)
            export_reports(reports, out / f"{name}.csv", "csv")
            export_reports(reports, out / f"{name}.json", "json", meta=meta)
            final = reports[-1].avg_test_accuracy if reports else float("nan")
            print(
                f"{name}: mode={meta['mode']} seed={meta['seed']} "
                f"rounds={len(reports)} final_avg_acc={final:.4f}"
            )
        return 0
    except (ConfigError, PartitionError, CsvFormatError, NonFiniteError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
