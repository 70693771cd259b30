"""Flat key=value experiment configs with a versioned, closed schema.

A config file is plain text: one `key = value` per line, `#` starts a
comment line, blank lines are ignored.  The keys are the fields of
ExperimentConfig, RunConfig's plus the experiment's own: a field without
a default is a required key, and a value parses by its field's type.
Unknown keys are rejected (with their line number) rather than silently
ignored, and schema_version must match the version this code understands.
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, fields, replace
from pathlib import Path
from typing import get_type_hints

from .core import InferenceVariant, LearningRates, Mode
from .data import DirichletSpec, _check_synthetic
from .federation import RunConfig

CONFIG_SCHEMA_VERSION = 1


class ConfigError(ValueError):
    """A config file cannot be parsed or fails validation."""


@dataclass(frozen=True, kw_only=True)
class ExperimentConfig(RunConfig):
    """Typed view of one parsed config file.

    It is a RunConfig whose learning rates left at None take lr.
    """

    schema_version: int
    dataset: str = "synthetic"
    csv_path: str = ""
    classes: int = 10
    input_dim: int = 16
    per_class: int = 60
    spread: float = 1.0
    standardize: bool = False
    partition: str
    classes_per_client: int = 2
    alpha: float = 0.5
    lr: float = 0.05
    lr_global: float | None = None
    lr_local: float | None = None
    lr_projector: float | None = None
    target_accuracy: float | None = None
    report_name: str = "report"
    out_dir: str = "reports"

    def __post_init__(self):
        if self.schema_version != CONFIG_SCHEMA_VERSION:
            raise ValueError(
                f"schema_version {self.schema_version} is not supported "
                f"(this build reads version {CONFIG_SCHEMA_VERSION})"
            )
        if self.dataset not in ("synthetic", "csv"):
            raise ValueError("dataset must be 'synthetic' or 'csv'")
        if self.dataset == "csv" and not self.csv_path:
            raise ValueError("dataset=csv requires csv_path")
        if self.partition not in ("class_count", "dirichlet"):
            raise ValueError("partition must be 'class_count' or 'dirichlet'")
        if self.dataset == "synthetic":
            _check_synthetic(self.classes, self.input_dim, self.per_class, self.spread)
        if self.partition == "dirichlet":
            DirichletSpec(self.alpha, self.seed)  # for its check of alpha
        if self.target_accuracy is not None and not 0.0 < self.target_accuracy <= 1.0:
            raise ValueError("target_accuracy must lie in (0, 1]")
        super().__post_init__()

    @property
    def lrs(self) -> LearningRates:
        rates = (self.lr_global, self.lr_local, self.lr_projector)
        return LearningRates(*(self.lr if lr is None else lr for lr in rates))


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
    return tuple(_parse_widths(part) for part in text.split(";"))


def _parse_enum(cls, text: str, message: str):
    """Enum member from a config or CLI token; message formats the token's repr."""
    try:
        return cls(text.strip().lower().replace("-", "_"))
    except ValueError:
        raise ValueError(message.format(text)) from None


def parse_mode(text: str) -> Mode:
    """Mode from a config or CLI token; hyphen and underscore both accepted."""
    return _parse_enum(Mode, text, "unknown mode {!r} (use fedmrl, standalone or no_mrl)")


def _parse_optional_float(text: str) -> float | None:
    return None if text.lower() == "none" else float(text)


# field type -> parser of a config value of that type
_PARSERS = {
    int: int,
    float: float,
    str: str,
    bool: _parse_bool,
    float | None: _parse_optional_float,
    Mode: parse_mode,
    InferenceVariant: lambda text: _parse_enum(
        InferenceVariant, text, "unknown inference variant {!r}"
    ),
    tuple[int, ...]: _parse_widths,
    tuple[tuple[int, ...], ...]: _parse_width_stacks,
}

# key -> (parser, default), MISSING for a required key.  The experiment's
# keys come first, so a missing schema_version is named before the rest.
_TYPES = get_type_hints(ExperimentConfig)
_RUN_KEYS = {f.name for f in fields(RunConfig)}
_SCHEMA: dict[str, tuple] = {
    f.name: (_PARSERS[_TYPES[f.name]], f.default)
    for f in sorted(fields(ExperimentConfig), key=lambda f: f.name in _RUN_KEYS)
}


def _build(source: str, make, *args, **kwargs):
    """make(*args, **kwargs), its ValueError raised as a ConfigError from source."""
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"{source}: {exc}") from None


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
        values[key] = _build(f"{source}: line {lineno}: {key}", _SCHEMA[key][0], value)

    for key, (_, default) in _SCHEMA.items():
        if default is MISSING and key not in values:
            raise ConfigError(f"{source}: missing required key {key!r}")
    return _build(source, ExperimentConfig, **values)


def load_config(path: str | Path) -> ExperimentConfig:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    return parse_config_text(text, source=str(path))


def build_run_config(config: ExperimentConfig) -> RunConfig:
    """The simulator's RunConfig of an experiment config, its rates resolved."""
    lrs = config.lrs
    values = {key: getattr(config, key) for key in _RUN_KEYS}
    values.update(lr_global=lrs.global_model, lr_local=lrs.local_model, lr_projector=lrs.projector)
    return RunConfig(**values)


def override(config: ExperimentConfig, source: str = "<override>", /, **changes):
    """Return a copy with fields replaced, re-running validation; errors name source."""
    return _build(source, replace, config, **changes)


_UNSWEEPABLE = ("schema_version", "out_dir", "report_name")


def parse_sweep(text: str) -> tuple[str, list[tuple[str, object]]]:
    """Parse 'key=v1,v2,...' into the key and (token, parsed value) pairs.

    The token is kept verbatim for report file names; values parse with
    the same parser the config schema uses for that key.  Values split on
    every comma, so a value is one comma-free token: global_hidden=16,8
    sweeps (16,) and (8,), and a multi-layer width cannot be swept.
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
    return key, [(token, _build(f"sweep value {token!r} for {key}", parser, token))
                 for token in tokens]
