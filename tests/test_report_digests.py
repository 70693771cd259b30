"""Report bytes of the benchmark workloads, pinned.

Each config in bench/workloads/ runs on seeds 0 and 1 in every mode the
benchmark trains on it, through the same calls the benchmark makes (config
text, seed override, dataset, split partition, run config, run_training,
CSV export), and the sha256 of each CSV must equal the digest recorded
before flat parameter buffers replaced stacked per-client models.  The
digests were recorded on numpy 2.4.6 with OpenBLAS 0.3.31: a change that
moves a single bit of any report fails here, not only in a benchmark run.
The benchmark's timed runs call run_rounds once per round on states from
build_clients, which keeps state between calls (the population's cohort
workspace, the accuracy memo), so that path must give the same digests.
The CLI's CSV and JSON reports of demos/quickstart.cfg are pinned too.
"""

import dataclasses
import hashlib
from pathlib import Path

import pytest

from fedmrl.cli import main
from fedmrl.config import build_run_config, override, parse_config_text, parse_mode
from fedmrl.experiment import build_partition, load_dataset
from fedmrl.federation import build_clients, run_rounds, run_training
from fedmrl.metrics import export_reports

ROOT = Path(__file__).parents[1]
WORKLOADS = ROOT / "bench" / "workloads"

# (workload, seed, mode) -> sha256 of the CSV report.
DIGESTS = {
    ("quickstart-3mode", 0, "fedmrl"): "a2fdfad5241048c41c5b783b08f5c44534f09a3b25be445d8a67e79c309a6c45",
    ("quickstart-3mode", 0, "no_mrl"): "13cb19ed6175f43ee57e9d790090bf8a7bb191b3a8ea1fedde80658417e02b78",
    ("quickstart-3mode", 0, "standalone"): "a4b9322adce81cf8c7f175f0685b238990884f2b2fdb505bdab25aab7a4e96b8",
    ("quickstart-3mode", 1, "fedmrl"): "6de33565b9cf9b81d39064deabe5ad9d3981fc4a7bffec32893223ce9b48d6c8",
    ("quickstart-3mode", 1, "no_mrl"): "2425899627c1abbc4ed15758142860776a6d45a2e81df291a78b20b26b2865dc",
    ("quickstart-3mode", 1, "standalone"): "7732246edb110fc5b728cf3c6992504c4c0eb826863810e483842da525fbfd52",
    ("many-dirichlet", 0, "fedmrl"): "5b6184daeb1fb9011975a29d60b29b19854d26487c9dbf4f4811dc79ba943c8c",
    ("many-dirichlet", 1, "fedmrl"): "124fee95632d34dd65a06856ea64d5e6f6dccdb4b341690f2062f927b1f445c7",
}


def test_every_workload_is_pinned():
    assert {path.stem for path in WORKLOADS.glob("*.cfg")} == {key[0] for key in DIGESTS}


def _check_digests(tmp_path, workload, seed, train):
    """train(run_config, dataset, plan) -> reports, checked against the pinned digests."""
    path = WORKLOADS / f"{workload}.cfg"
    config = override(parse_config_text(path.read_text(encoding="utf-8"), path.name), seed=seed)
    dataset = load_dataset(config)
    plan = build_partition(config, dataset)
    modes = [mode for (name, s, mode) in DIGESTS if (name, s) == (workload, seed)]
    for mode in modes:
        run_config = build_run_config(override(config, mode=parse_mode(mode)))
        report = tmp_path / f"{mode}.csv"
        export_reports(train(run_config, dataset, plan), report, "csv")
        digest = hashlib.sha256(report.read_bytes()).hexdigest()
        assert digest == DIGESTS[(workload, seed, mode)], mode


@pytest.mark.parametrize("workload,seed", sorted({key[:2] for key in DIGESTS}))
def test_workload_reports_are_byte_identical(tmp_path, workload, seed):
    _check_digests(tmp_path, workload, seed, run_training)


def _one_round_per_call(run_config, dataset, plan):
    """The benchmark's timed run: build_clients, then run_rounds one round at a time."""
    server, clients = build_clients(run_config, dataset, plan)
    one_round = dataclasses.replace(run_config, rounds=1)
    reports = []
    for r in range(1, run_config.rounds + 1):
        (report,) = run_rounds(server, clients, one_round)
        reports.append(dataclasses.replace(report, round=r))
    return reports


@pytest.mark.parametrize("workload,seed", sorted({key[:2] for key in DIGESTS}))
def test_workload_reports_one_round_per_call_are_byte_identical(tmp_path, workload, seed):
    _check_digests(tmp_path, workload, seed, _one_round_per_call)


# mode -> sha256 of the CLI's (CSV, JSON) reports of demos/quickstart.cfg.
CLI_DIGESTS = {
    "fedmrl": (
        "a2fdfad5241048c41c5b783b08f5c44534f09a3b25be445d8a67e79c309a6c45",
        "493a6223e9189b8ff83465ddfb8ba3a09cd9076afb820b55b905015e7b270687",
    ),
    "no_mrl": (
        "13cb19ed6175f43ee57e9d790090bf8a7bb191b3a8ea1fedde80658417e02b78",
        "ea1c66cd5b06a0a5dd5fa1a2d230f4499975046b6c9f5871c0b69cbcc2009d9e",
    ),
    "standalone": (
        "a4b9322adce81cf8c7f175f0685b238990884f2b2fdb505bdab25aab7a4e96b8",
        "6b597cf72378fc8d5fd40a039c2415c8584cf05040259c8868a33e90a2efdfe5",
    ),
}


@pytest.mark.parametrize("mode", sorted(CLI_DIGESTS))
def test_quickstart_cli_reports_are_byte_identical(tmp_path, capsys, mode):
    config = ROOT / "demos" / "quickstart.cfg"
    assert main(["run", "--config", str(config), "--mode", mode, "--out", str(tmp_path)]) == 0
    digests = tuple(
        hashlib.sha256((tmp_path / f"report.{ext}").read_bytes()).hexdigest()
        for ext in ("csv", "json")
    )
    assert digests == CLI_DIGESTS[mode]
