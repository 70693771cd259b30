import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fedmrl.cli import main
from fedmrl.config import (
    ConfigError,
    build_run_config,
    load_config,
    override,
    parse_config_text,
    parse_mode,
    parse_sweep,
)
from fedmrl.core import InferenceVariant
from fedmrl.experiment import run_experiment
from fedmrl.federation import Mode

GOOD_CONFIG = """\
# minimal working experiment
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


def write_config(tmp_path, text=GOOD_CONFIG, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_parse_good_config():
    cfg = parse_config_text(GOOD_CONFIG)
    assert cfg.partition == "dirichlet" and cfg.alpha == 2.0
    assert cfg.global_hidden == (6,)
    assert cfg.local_hidden == ((8,), (7,))
    assert cfg.mode is Mode.FEDMRL
    assert cfg.inference is InferenceVariant.MIX_LARGE
    assert cfg.target_accuracy is None


def test_defaults_are_applied():
    cfg = parse_config_text(GOOD_CONFIG)
    assert cfg.participation == 1.0
    assert cfg.batch_size == 8
    assert cfg.lr == 0.05 and cfg.lr_global is None
    run = build_run_config(cfg)
    assert run.lr_global == run.lr_local == run.lr_projector == 0.05


def test_lr_overrides_take_precedence():
    cfg = parse_config_text(GOOD_CONFIG + "lr = 0.1\nlr_projector = 0.01\n")
    run = build_run_config(cfg)
    assert run.lr_global == 0.1 and run.lr_local == 0.1 and run.lr_projector == 0.01


def test_unknown_key_is_rejected_with_line_number():
    with pytest.raises(ConfigError, match="line 2: unknown key 'learning_rate'"):
        parse_config_text("schema_version = 1\nlearning_rate = 0.1\n")


def test_duplicate_key_is_rejected():
    with pytest.raises(ConfigError, match="duplicate key"):
        parse_config_text(GOOD_CONFIG + "alpha = 3.0\n")


def test_missing_required_key():
    with pytest.raises(ConfigError, match="missing required key 'rounds'"):
        parse_config_text("schema_version = 1\npartition = dirichlet\nn_clients = 2\nd1 = 2\nd2 = 4\n")


def test_wrong_schema_version():
    with pytest.raises(ConfigError, match="schema_version"):
        parse_config_text(GOOD_CONFIG.replace("schema_version = 1", "schema_version = 2"))


def test_bad_value_carries_line_number():
    bad = GOOD_CONFIG.replace("alpha = 2.0", "alpha = lots")
    with pytest.raises(ConfigError, match="line 4: alpha"):
        parse_config_text(bad)


def test_semantic_validation_via_run_config():
    with pytest.raises(ConfigError, match="d1"):
        parse_config_text(GOOD_CONFIG.replace("d1 = 2", "d1 = 9"))


def test_mode_tokens():
    assert parse_mode("no-mrl") is Mode.NO_MRL
    assert parse_mode("NO_MRL") is Mode.NO_MRL
    assert parse_mode("standalone") is Mode.STANDALONE
    with pytest.raises(ValueError):
        parse_mode("federated")


def test_parse_sweep():
    key, pairs = parse_sweep("d1=2,3,4")
    assert key == "d1" and pairs == [("2", 2), ("3", 3), ("4", 4)]
    key, pairs = parse_sweep("alpha=0.1,1000")
    assert pairs[0] == ("0.1", 0.1)
    with pytest.raises(ConfigError):
        parse_sweep("nope=1")
    with pytest.raises(ConfigError):
        parse_sweep("schema_version=2")
    with pytest.raises(ConfigError):
        parse_sweep("d1")
    with pytest.raises(ConfigError):
        parse_sweep("d1=two")
    # A sweep value is one comma-free token, so a multi-layer width cannot be swept.
    assert parse_sweep("global_hidden=16,8") == ("global_hidden", [("16", (16,)), ("8", (8,))])


def test_override_revalidates():
    cfg = parse_config_text(GOOD_CONFIG)
    with pytest.raises(ConfigError):
        override(cfg, d1=100)
    assert override(cfg, seed=9).seed == 9


def test_load_config_missing_file():
    with pytest.raises(ConfigError, match="cannot read"):
        load_config("/nonexistent/path.cfg")


def test_cli_run_writes_reports(tmp_path, capsys):
    config = write_config(tmp_path)
    out = tmp_path / "out"
    code = main(["run", "--config", str(config), "--out", str(out)])
    assert code == 0
    assert (out / "report.csv").exists()
    assert (out / "report.json").exists()
    doc = json.loads((out / "report.json").read_text())
    assert doc["mode"] == "fedmrl"
    assert len(doc["reports"]) == 2
    assert "final_avg_acc" in capsys.readouterr().out


def test_cli_mode_and_seed_overrides(tmp_path):
    config = write_config(tmp_path)
    out = tmp_path / "out"
    code = main(
        ["run", "--config", str(config), "--mode", "no-mrl", "--seed", "7", "--out", str(out)]
    )
    assert code == 0
    doc = json.loads((out / "report.json").read_text())
    assert doc["mode"] == "no_mrl"
    assert doc["seed"] == 7
    assert doc["reports"][0]["uplink_params"] > 0  # ablation still communicates


def test_cli_standalone_reports_zero_communication(tmp_path):
    config = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["run", "--config", str(config), "--mode", "standalone", "--out", str(out)]) == 0
    doc = json.loads((out / "report.json").read_text())
    assert all(r["uplink_params"] == 0 and r["downlink_params"] == 0 for r in doc["reports"])


def test_cli_sweep_writes_one_file_pair_per_value(tmp_path):
    config = write_config(tmp_path)
    out = tmp_path / "out"
    code = main(
        ["run", "--config", str(config), "--sweep", "d1=2,4", "--out", str(out)]
    )
    assert code == 0
    for token in ("2", "4"):
        assert (out / f"report_d1_{token}.csv").exists()
        assert (out / f"report_d1_{token}.json").exists()


def test_cli_rerun_is_byte_identical(tmp_path):
    config = write_config(tmp_path)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--config", str(config), "--out", str(out_a)]) == 0
    assert main(["run", "--config", str(config), "--out", str(out_b)]) == 0
    assert (out_a / "report.csv").read_bytes() == (out_b / "report.csv").read_bytes()
    assert (out_a / "report.json").read_bytes() == (out_b / "report.json").read_bytes()


def test_cli_ablation_pair_shares_partition_fingerprint(tmp_path):
    config = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["run", "--config", str(config), "--mode", "fedmrl", "--out", str(out)]) == 0
    fed = json.loads((out / "report.json").read_text())
    assert main(["run", "--config", str(config), "--mode", "no-mrl", "--out", str(out)]) == 0
    abl = json.loads((out / "report.json").read_text())
    assert fed["partition_fingerprint"] == abl["partition_fingerprint"]


def test_cli_failure_paths_return_nonzero(tmp_path, capsys):
    missing = main(["run", "--config", str(tmp_path / "absent.cfg")])
    assert missing == 1
    assert "error:" in capsys.readouterr().err
    bad = write_config(tmp_path, GOOD_CONFIG + "bogus = 1\n", name="bad.cfg")
    assert main(["run", "--config", str(bad)]) == 1
    capsys.readouterr()
    config = write_config(tmp_path)
    assert main(["run", "--config", str(config), "--sweep", "nope=1"]) == 1


def test_cli_diverging_run_exits_one_without_a_traceback(tmp_path):
    # lr 50 makes client 1 of the quickstart diverge in round 1.
    root = Path(__file__).parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p
    )
    done = subprocess.run(
        [
            sys.executable, "-m", "fedmrl.cli", "run",
            "--config", str(root / "demos" / "quickstart.cfg"),
            "--sweep", "lr=50", "--out", str(tmp_path / "out"),
        ],
        capture_output=True, text=True, env=env, timeout=300, check=False,
    )
    assert done.returncode == 1
    assert done.stderr == "error: round 1: client 1: non-finite loss (nan)\n"


@pytest.mark.parametrize(
    "config,edit,flags,source,named",
    [
        ("demos/quickstart.cfg", None, ["--sweep", "lr=nan"], "--sweep lr=nan", "got nan"),
        ("demos/quickstart.cfg", None, ["--sweep", "lr_global=inf"], "--sweep lr_global=inf", "got inf"),
        ("demos/quickstart.cfg", None, ["--sweep", "m_global=nan"], "--sweep m_global=nan", "got (nan, 1.0)"),
        ("bench/workloads/many-dirichlet.cfg", None, ["--sweep", "alpha=0"], "--sweep alpha=0", "got 0.0"),
        ("bench/workloads/many-dirichlet.cfg", None, ["--sweep", "spread=0"], "--sweep spread=0", "got 0.0"),
        ("bench/workloads/many-dirichlet.cfg", None, ["--sweep", "per_class=0"], "--sweep per_class=0",
         "got 10, 16 and 0"),
        ("bench/workloads/many-dirichlet.cfg", None, ["--sweep", "classes=1"], "--sweep classes=1",
         "got 1, 16 and 400"),
        ("bench/workloads/many-dirichlet.cfg", None, ["--sweep", "input_dim=0"], "--sweep input_dim=0",
         "got 10, 0 and 400"),
        ("demos/quickstart.cfg", None, ["--seed", "-1"], "--seed -1 --out {out}", "got -1"),
        ("demos/quickstart.cfg", ("seed = 0", "seed = -3"), [], "{config}", "got -3"),
        ("demos/quickstart.cfg", ("local_hidden = 24;22;20;18;16", "local_hidden = 0"), [], "{config}",
         "local_hidden widths must be positive, got ((0,),)"),
        ("demos/quickstart.cfg", ("global_hidden = 16", "global_hidden = -3"), [], "{config}",
         "global_hidden widths must be positive, got (-3,)"),
        ("demos/quickstart.cfg", None, ["--sweep", "local_hidden=0"], "--sweep local_hidden=0",
         "local_hidden widths must be positive, got ((0,),)"),
    ],
)
def test_cli_rejects_bad_values_with_one_error_line(tmp_path, capsys, config, edit, flags, source, named):
    # The error line names where the bad value came from: the sweep value,
    # the flags that were applied, or the config file.
    path = Path(__file__).parents[1] / config
    if edit is not None:
        path = write_config(tmp_path, path.read_text(encoding="utf-8").replace(*edit), name="bad.cfg")
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), *flags, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {source.format(out=out, config=path)}: ") and err.count("\n") == 1
    assert err.endswith(f"{named}\n") and "Traceback" not in err
    assert not out.exists()


def test_run_experiment_rejects_an_unknown_mode_with_one_error_line(tmp_path, capsys):
    # The CLI limits --mode to its choices; the Python entry point does not.
    out = tmp_path / "out"
    config = Path(__file__).parents[1] / "demos" / "quickstart.cfg"
    assert run_experiment(config, mode="bogus", out_dir=str(out)) == 1
    err = capsys.readouterr().err
    assert err == "error: --mode bogus: unknown mode 'bogus' (use fedmrl, standalone or no_mrl)\n"
    assert not out.exists()


def test_cli_target_accuracy_round_recorded(tmp_path):
    # target so low the first round reaches it
    config = write_config(tmp_path, GOOD_CONFIG + "target_accuracy = 0.01\n")
    out = tmp_path / "out"
    assert main(["run", "--config", str(config), "--out", str(out)]) == 0
    doc = json.loads((out / "report.json").read_text())
    assert doc["target_accuracy"] == 0.01
    assert doc["first_round_reaching_target"] == 1


def test_csv_dataset_source(tmp_path):
    from fedmrl.data import gen_synthetic, save_csv
    from fedmrl.numerics import make_rng

    ds = gen_synthetic(3, 4, 30, 0.5, make_rng(0))
    csv_path = tmp_path / "data.csv"
    save_csv(ds, csv_path)
    text = GOOD_CONFIG + f"dataset = csv\ncsv_path = {csv_path}\n"
    config = write_config(tmp_path, text)
    out = tmp_path / "out"
    assert main(["run", "--config", str(config), "--out", str(out)]) == 0
    doc = json.loads((out / "report.json").read_text())
    assert len(doc["reports"]) == 2


def test_cli_runs_on_checked_in_fixture(tmp_path):
    from pathlib import Path

    fixture = Path(__file__).parent / "fixtures" / "tiny.csv"
    text = (
        "schema_version = 1\n"
        "partition = class_count\n"
        "classes_per_client = 1\n"
        "n_clients = 2\n"
        "rounds = 3\n"
        "d1 = 2\n"
        "d2 = 4\n"
        "dataset = csv\n"
        f"csv_path = {fixture}\n"
    )
    config = write_config(tmp_path, text)
    out = tmp_path / "out"
    assert main(["run", "--config", str(config), "--out", str(out)]) == 0
    doc = json.loads((out / "report.json").read_text())
    assert len(doc["reports"]) == 3
    assert len(doc["reports"][0]["per_client_accuracy"]) == 2


def test_sweep_alpha_filenames_keep_decimal_token(tmp_path):
    config = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["run", "--config", str(config), "--sweep", "alpha=0.1,1000", "--out", str(out)]) == 0
    assert (out / "report_alpha_0.1.json").exists()
    assert (out / "report_alpha_1000.json").exists()
    # the swept value actually differs between the runs
    lo = json.loads((out / "report_alpha_0.1.json").read_text())
    hi = json.loads((out / "report_alpha_1000.json").read_text())
    assert lo["partition_fingerprint"] != hi["partition_fingerprint"]
