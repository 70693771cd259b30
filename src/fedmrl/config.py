"""Flat key=value experiment configs with a versioned, closed schema.

A config file is plain text: one `key = value` per line, `#` starts a
comment line, blank lines are ignored.  Unknown keys are rejected (with
their line number) rather than silently ignored, and schema_version must
match the version this code understands.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

from .core import InferenceVariant, Mode
from .federation import RunConfig

CONFIG_SCHEMA_VERSION = 1


class ConfigError(ValueError):
    """A config file cannot be parsed or fails validation."""


def _parse_bool(text: str) -> bool:
    lowered = text.lower()
    if lowered in ("true", "yes", "1"):
        return True
    if lowered in ("false", "no", "0"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


def _parse_widths(text: str) -> tuple[int, ...]:
    """Comma list of layer widths; empty string means no hidden layers."""
    if not text.strip():
        return ()
    return tuple(int(part) for part in text.split(","))


def _parse_width_stacks(text: str) -> tuple[tuple[int, ...], ...]:
    """Semicolon-separated width lists, one per heterogeneous model shape."""
    stacks = tuple(_parse_widths(part) for part in text.split(";"))
    if not stacks:
        raise ValueError("need at least one width stack")
    return stacks


def parse_mode(text: str) -> Mode:
    """Mode from a config or CLI token; hyphen and underscore both accepted."""
    normalized = text.strip().lower().replace("-", "_")
    try:
        return Mode(normalized)
    except ValueError:
        raise ValueError(
            f"unknown mode {text!r} (use fedmrl, standalone or no_mrl)"
        ) from None


def _parse_inference(text: str) -> InferenceVariant:
    normalized = text.strip().lower().replace("-", "_")
    try:
        return InferenceVariant(normalized)
    except ValueError:
        raise ValueError(f"unknown inference variant {text!r}") from None


def _parse_optional_float(text: str) -> float | None:
    return None if text.lower() == "none" else float(text)


# key -> (parser, default); _REQUIRED marks keys every config must set.
_REQUIRED = object()
_SCHEMA: dict[str, tuple] = {
    "schema_version": (int, _REQUIRED),
    # dataset
    "dataset": (str, "synthetic"),
    "csv_path": (str, ""),
    "classes": (int, 10),
    "input_dim": (int, 16),
    "per_class": (int, 60),
    "spread": (float, 1.0),
    "standardize": (_parse_bool, False),
    # partition
    "partition": (str, _REQUIRED),
    "classes_per_client": (int, 2),
    "alpha": (float, 0.5),
    # federation
    "n_clients": (int, _REQUIRED),
    "participation": (float, 1.0),
    "rounds": (int, _REQUIRED),
    "local_epochs": (int, 1),
    "batch_size": (int, 8),
    "lr": (float, 0.05),
    "lr_global": (_parse_optional_float, None),
    "lr_local": (_parse_optional_float, None),
    "lr_projector": (_parse_optional_float, None),
    "d1": (int, _REQUIRED),
    "d2": (int, _REQUIRED),
    "m_global": (float, 1.0),
    "m_local": (float, 1.0),
    "mode": (parse_mode, Mode.FEDMRL),
    "seed": (int, 0),
    "global_hidden": (_parse_widths, (16,)),
    "local_hidden": (_parse_width_stacks, ((32,), (28,), (24,), (20,), (16,))),
    # evaluation and reporting
    "inference": (_parse_inference, InferenceVariant.MIX_LARGE),
    "target_accuracy": (_parse_optional_float, None),
    "report_name": (str, "report"),
    "out_dir": (str, "reports"),
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Typed view of one parsed config file."""

    schema_version: int
    dataset: str
    csv_path: str
    classes: int
    input_dim: int
    per_class: int
    spread: float
    standardize: bool
    partition: str
    classes_per_client: int
    alpha: float
    n_clients: int
    participation: float
    rounds: int
    local_epochs: int
    batch_size: int
    lr: float
    lr_global: float | None
    lr_local: float | None
    lr_projector: float | None
    d1: int
    d2: int
    m_global: float
    m_local: float
    mode: Mode
    seed: int
    global_hidden: tuple[int, ...]
    local_hidden: tuple[tuple[int, ...], ...]
    inference: InferenceVariant
    target_accuracy: float | None
    report_name: str
    out_dir: str


def parse_config_text(text: str, source: str = "<config>") -> ExperimentConfig:
    """Parse and validate config text; errors carry source and line number."""
    values: dict = {}
    seen: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{source}: line {lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _SCHEMA:
            raise ConfigError(f"{source}: line {lineno}: unknown key {key!r}")
        if key in seen:
            raise ConfigError(
                f"{source}: line {lineno}: duplicate key {key!r} "
                f"(first set on line {seen[key]})"
            )
        seen[key] = lineno
        parser, _ = _SCHEMA[key]
        try:
            values[key] = parser(value)
        except ValueError as exc:
            raise ConfigError(f"{source}: line {lineno}: {key}: {exc}") from None

    for key, (_, default) in _SCHEMA.items():
        if key in values:
            continue
        if default is _REQUIRED:
            raise ConfigError(f"{source}: missing required key {key!r}")
        values[key] = default

    config = ExperimentConfig(**values)
    _validate(config, source)
    return config


def _validate(config: ExperimentConfig, source: str) -> None:
    if config.schema_version != CONFIG_SCHEMA_VERSION:
        raise ConfigError(
            f"{source}: schema_version {config.schema_version} is not supported "
            f"(this build reads version {CONFIG_SCHEMA_VERSION})"
        )
    if config.dataset not in ("synthetic", "csv"):
        raise ConfigError(f"{source}: dataset must be 'synthetic' or 'csv'")
    if config.dataset == "csv" and not config.csv_path:
        raise ConfigError(f"{source}: dataset=csv requires csv_path")
    if config.partition not in ("class_count", "dirichlet"):
        raise ConfigError(f"{source}: partition must be 'class_count' or 'dirichlet'")
    if config.target_accuracy is not None and not 0.0 < config.target_accuracy <= 1.0:
        raise ConfigError(f"{source}: target_accuracy must lie in (0, 1]")
    try:
        build_run_config(config)
    except ValueError as exc:
        raise ConfigError(f"{source}: {exc}") from None


def load_config(path: str | Path) -> ExperimentConfig:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    return parse_config_text(text, source=str(path))


def build_run_config(config: ExperimentConfig) -> RunConfig:
    """Map an experiment config onto the simulator's RunConfig."""
    return RunConfig(
        n_clients=config.n_clients,
        rounds=config.rounds,
        d1=config.d1,
        d2=config.d2,
        participation=config.participation,
        local_epochs=config.local_epochs,
        batch_size=config.batch_size,
        lr_global=config.lr_global if config.lr_global is not None else config.lr,
        lr_local=config.lr_local if config.lr_local is not None else config.lr,
        lr_projector=config.lr_projector if config.lr_projector is not None else config.lr,
        m_global=config.m_global,
        m_local=config.m_local,
        mode=config.mode,
        seed=config.seed,
        global_hidden=config.global_hidden,
        local_hidden=config.local_hidden,
        inference=config.inference,
    )


def override(config: ExperimentConfig, **changes) -> ExperimentConfig:
    """Return a copy with fields replaced, re-running validation."""
    updated = replace(config, **changes)
    _validate(updated, "<override>")
    return updated


_UNSWEEPABLE = ("schema_version", "out_dir", "report_name")


def parse_sweep(text: str) -> tuple[str, list[tuple[str, object]]]:
    """Parse 'key=v1,v2,...' into the key and (token, parsed value) pairs.

    The token is kept verbatim for report file names; values parse with
    the same parser the config schema uses for that key.
    """
    if "=" not in text:
        raise ConfigError(f"sweep must look like key=v1,v2,..., got {text!r}")
    key, _, rest = text.partition("=")
    key = key.strip()
    if key not in _SCHEMA or key in _UNSWEEPABLE:
        raise ConfigError(f"cannot sweep key {key!r}")
    parser, _ = _SCHEMA[key]
    tokens = [t.strip() for t in rest.split(",") if t.strip()]
    if not tokens:
        raise ConfigError(f"sweep over {key!r} needs at least one value")
    pairs = []
    for token in tokens:
        try:
            pairs.append((token, parser(token)))
        except ValueError as exc:
            raise ConfigError(f"sweep value {token!r} for {key}: {exc}") from None
    return key, pairs
