"""The config schema is ExperimentConfig's fields: round trips, check order, docs."""

import re
import string
from dataclasses import MISSING, fields
from pathlib import Path
from typing import get_type_hints

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedmrl.config import (
    ConfigError,
    ExperimentConfig,
    build_run_config,
    override,
    parse_config_text,
    parse_sweep,
)
from fedmrl.core import InferenceVariant, LearningRates, Mode
from fedmrl.experiment import build_partition, load_dataset
from fedmrl.federation import run_training
from fedmrl.metrics import export_reports

README = Path(__file__).parents[1] / "README.md"
TYPES = get_type_hints(ExperimentConfig)
UNSWEEPABLE = {"schema_version", "out_dir", "report_name"}

GOOD = """\
schema_version = 1
partition = dirichlet
alpha = 2.0
n_clients = 3
rounds = 2
d1 = 2
d2 = 4
classes = 3
input_dim = 4
per_class = 30
spread = 0.5
global_hidden = 6
local_hidden = 8;7
seed = 1
"""


def _widths(widths):
    return ",".join(map(str, widths))


# field type -> how the value is written in a config file
FORMATS = {
    int: str,
    float: repr,
    str: str,
    bool: lambda value: "true" if value else "false",
    float | None: lambda value: "none" if value is None else repr(value),
    Mode: lambda value: value.value,
    InferenceVariant: lambda value: value.value,
    tuple[int, ...]: _widths,
    tuple[tuple[int, ...], ...]: lambda stacks: ";".join(map(_widths, stacks)),
}

finite = st.floats(0.0, 1e6, allow_nan=False, allow_infinity=False)
widths = st.lists(st.integers(1, 64), max_size=3).map(tuple)
# field type -> values of that type every config accepts
VALUES = {
    int: st.integers(0, 10**6),
    float: finite,
    str: st.text(string.ascii_letters + string.digits + "._/-", min_size=1, max_size=12),
    bool: st.booleans(),
    float | None: st.none() | finite,
    Mode: st.sampled_from(Mode),
    InferenceVariant: st.sampled_from(InferenceVariant),
    tuple[int, ...]: widths,
    tuple[tuple[int, ...], ...]: st.lists(widths, min_size=1, max_size=4).map(tuple),
}
# key -> values, for the keys a check constrains
CONSTRAINED = {
    "schema_version": st.just(1),
    "dataset": st.sampled_from(["synthetic", "csv"]),
    "partition": st.sampled_from(["class_count", "dirichlet"]),
    "n_clients": st.integers(1, 10**6),
    "batch_size": st.integers(1, 10**6),
    "participation": st.floats(0.0, 1.0, exclude_min=True),
    "target_accuracy": st.none() | st.floats(0.0, 1.0, exclude_min=True),
    "classes": st.integers(2, 10**6),
    "input_dim": st.integers(1, 10**6),
    "per_class": st.integers(1, 10**6),
    "spread": st.floats(0.0, 1e6, exclude_min=True),
    "alpha": st.floats(0.0, 1e6, exclude_min=True),
}


@st.composite
def configs(draw):
    values = {
        f.name: draw(CONSTRAINED.get(f.name, VALUES[TYPES[f.name]]))
        for f in fields(ExperimentConfig)
    }
    width = st.integers(1, 10**6)
    values["d1"], values["d2"] = sorted(draw(st.tuples(width, width)))
    return ExperimentConfig(**values)


def config_text(config):
    return "".join(
        f"{f.name} = {FORMATS[TYPES[f.name]](getattr(config, f.name))}\n"
        for f in fields(ExperimentConfig)
    )


@settings(max_examples=150, deadline=None)
@given(configs())
def test_every_key_round_trips_through_config_text(config):
    assert parse_config_text(config_text(config)) == config


@settings(max_examples=60, deadline=None)
@given(configs())
def test_a_sweep_value_parses_as_the_same_key_in_a_file(config):
    parsed = parse_config_text(config_text(config))
    for f in fields(ExperimentConfig):
        token = FORMATS[TYPES[f.name]](getattr(config, f.name))
        if f.name in UNSWEEPABLE:
            with pytest.raises(ConfigError, match="cannot sweep"):
                parse_sweep(f"{f.name}={token}")
        elif "," in token:  # a sweep value is one comma-free token: each part is a value
            parts = token.split(",")
            line = re.compile(rf"(?m)^{f.name} = .*$")
            texts = [line.sub(f"{f.name} = {part}", config_text(config)) for part in parts]
            values = [getattr(parse_config_text(text), f.name) for text in texts]
            assert parse_sweep(f"{f.name}={token}") == (f.name, list(zip(parts, values)))
        elif token:
            value = getattr(parsed, f.name)
            assert parse_sweep(f"{f.name}={token}") == (f.name, [(token, value)])


def test_experiment_checks_come_before_run_checks():
    bad_version = GOOD.replace("schema_version = 1", "schema_version = 2")
    with pytest.raises(ConfigError, match="schema_version 2 is not supported"):
        parse_config_text(bad_version.replace("d1 = 2", "d1 = 9"))
    with pytest.raises(ConfigError, match="dataset=csv requires csv_path"):
        parse_config_text(GOOD.replace("d1 = 2", "d1 = 9") + "dataset = csv\n")


def test_override_errors_name_the_override():
    with pytest.raises(ConfigError, match="^<override>: need 0 < d1 <= d2"):
        override(parse_config_text(GOOD), d1=99)


def test_sweeping_lr_moves_every_rate_left_at_none():
    config = parse_config_text(GOOD + "lr_projector = 0.01\n")
    swept = override(config, lr=0.2)
    assert swept.lrs == LearningRates(0.2, 0.2, 0.01)
    run = build_run_config(swept)
    assert (run.lr_global, run.lr_local, run.lr_projector) == (0.2, 0.2, 0.01)


@pytest.mark.parametrize("mode", list(Mode))
def test_an_experiment_config_runs_as_its_run_config(tmp_path, mode):
    config = override(parse_config_text(GOOD + "lr_local = 0.1\n"), mode=mode)
    dataset = load_dataset(config)
    plan = build_partition(config, dataset)
    for name, run_config in (("direct", config), ("built", build_run_config(config))):
        export_reports(run_training(run_config, dataset, plan), tmp_path / f"{name}.csv", "csv")
    assert (tmp_path / "direct.csv").read_bytes() == (tmp_path / "built.csv").read_bytes()


def test_readme_lists_every_config_key():
    section = README.read_text(encoding="utf-8").split("## Config files")[1].split("\n## ")[0]
    required = set(re.findall(r"`(\w+)`", section.split("Required keys:")[1].split(".")[0]))
    rows = [row for row in section.splitlines() if row.startswith("| `")]
    table_keys = [re.findall(r"`(\w+)`", row.split("|")[1]) for row in rows]
    assert required == {f.name for f in fields(ExperimentConfig) if f.default is MISSING}
    assert required.union(*table_keys) == {f.name for f in fields(ExperimentConfig)}
