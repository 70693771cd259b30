"""Report bytes of the benchmark workloads, pinned.

Each config in bench/workloads/ runs on seeds 0 and 1 in every mode the
benchmark trains on it, through the same calls the benchmark makes (config
text, seed override, dataset, split partition, run config, run_training,
CSV export), and the sha256 of each CSV must equal the pinned digest.  The
digests were recorded on numpy 2.4.6 with OpenBLAS 0.3.31: a change that
moves a single bit of any report fails here, not only in a benchmark run.
They were re-pinned once the cohort workspace padded each depth's hidden
widths to their widest (one private part per step): a padded model is
the configured one in exact arithmetic, but OpenBLAS sums the longer
products in another order.  Against the reports before the padding, over
seeds 0-9 of both workloads (40 runs), every accuracy, FLOP and
communication cell was identical and 532 of the 1,000 mean_loss cells
moved, by at most 3.0e-15 relative.  A quickstart with one private
architecture pads nothing, and its digests, recorded before the padding,
still hold.
The many-dirichlet digests were re-pinned again once a short final batch
after a full one was padded with zero rows to the batch size and masked
out of the loss and the gradients (see federation): OpenBLAS can round a
padded product's real rows differently, and the loss of a batch of 8 or
more rows is summed over the padded rows too.  Against the reports
before, over seeds 0-9 of both workloads, every mode and inference
variant (180 runs), every accuracy, FLOP and communication cell was
identical, and 1,257 of the 3,600 many-dirichlet mean_loss cells moved,
by at most 1.6e-15 relative.  Every quickstart shard holds 48 = 6 x 8
samples, so nothing is padded and its digests hold, as does a
many-dirichlet run in batches at or above every shard, pinned before the
change.
The benchmark's timed runs call run_rounds once per round on states from
build_clients, which keeps state between calls (the population's cohort
workspace, the accuracy memo), so that path must give the same digests.
A ragged many-dirichlet run of two epochs and two depths, and the CLI's CSV
and JSON reports of demos/quickstart.cfg, are pinned too.
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
    ("quickstart-3mode", 0, "fedmrl"): "cc8646d76373860c1d516e849e02d1551d6fd2ecb062ce1b80aa5f8a29818d27",
    ("quickstart-3mode", 0, "no_mrl"): "2803084742952ddeef0ffd80cdeb3f856d7684f15388c41f8bd113d6bfc96aae",
    ("quickstart-3mode", 0, "standalone"): "59eaa104009208ae48586123c3d5e444f6a4edf62731a55d86e1afc8f89abb1a",
    ("quickstart-3mode", 1, "fedmrl"): "d51ae338f268fb11b7aff29dffb438085f17f3dd36b75cfff99948d6aef33729",
    ("quickstart-3mode", 1, "no_mrl"): "8400391d1fddafa5f2dcf4fa176012a102a1fe63d55f362b12c200bcd432c25f",
    ("quickstart-3mode", 1, "standalone"): "8e0ed5070d9175a46c6874fab296322b3d76d44f93676a9d47f7e66266ffaf6a",
    ("many-dirichlet", 0, "fedmrl"): "449ddcee64fa0f968527835de34b512021c859ff5d4d55686d20b1cabc1d8d51",
    ("many-dirichlet", 1, "fedmrl"): "a396b4d1a0940bf9e24fef9fe60a35a3179253c21aa15372d6ba75454b664453",
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


# (seed, mode) -> sha256 of the CSV report of quickstart-3mode with one private
# architecture (local_hidden = 24), recorded before the cohort workspace padded
# each depth's hidden widths to their widest: a depth with one architecture
# pads nothing, so these hold unchanged.
SINGLE_ARCHITECTURE_DIGESTS = {
    (0, "fedmrl"): "d272361fe194945ce10d152f50635d1483c620fb1f46906f64d232ea6ae80b19",
    (0, "no_mrl"): "b4632af024eea429cd6bd0971b7d5c4d38bb797eede1143581fb9c8881534ce3",
    (0, "standalone"): "b93355d994c6840d1b86f7fd3ca2c9f354238d769388818d3777ceedd8b9e402",
    (1, "fedmrl"): "49a2d769a770a64d8ba13f61897b6746e077271ebe936b4ad7a86c2e94ef74d1",
    (1, "no_mrl"): "ce03814393fed8dca0ffd6c9b1f186d1db3c15b10210504e54d4439c43443a51",
    (1, "standalone"): "98cba2ab2645d8871cd20c75afe00d064556d93ecbf63e1806c98a01e4147d93",
}


@pytest.mark.parametrize("seed", [0, 1])
def test_a_single_architecture_quickstart_is_byte_identical(tmp_path, seed):
    path = WORKLOADS / "quickstart-3mode.cfg"
    text = path.read_text(encoding="utf-8")
    config = override(parse_config_text(text, path.name), seed=seed, local_hidden=((24,),))
    dataset = load_dataset(config)
    plan = build_partition(config, dataset)
    for mode in ("fedmrl", "no_mrl", "standalone"):
        run_config = build_run_config(override(config, mode=parse_mode(mode)))
        report = tmp_path / f"{mode}.csv"
        export_reports(run_training(run_config, dataset, plan), report, "csv")
        digest = hashlib.sha256(report.read_bytes()).hexdigest()
        assert digest == SINGLE_ARCHITECTURE_DIGESTS[(seed, mode)], mode


# mode -> sha256 of the CSV report of many-dirichlet, seed 0, over 10 rounds of
# 2 local epochs in batches of 5, with private extractors of two depths: ragged
# shards whose short final batches have every remainder, trained again after
# each epoch.  Re-pinned when those batches were padded to the batch size:
# against the reports before, every accuracy, FLOP and communication cell
# held, and 13 of the 30 mean_loss cells moved, by at most 3.2e-16 relative.
RAGGED_DIGESTS = {
    "fedmrl": "f9dfbf13b7573a01d2648ab3e943374aa67da3f81d0698454f2bbe718b4b4c1c",
    "no_mrl": "e2052a21d79ab07f2a5c9fd83bfc0a1968da2360e22aac1bd9bde95e430be2da",
    "standalone": "bb4873a7642d00b3fafcc1375dfdf241ec95f220213c81d9412fb1a163da8fc5",
}


def test_a_ragged_two_epoch_two_depth_run_is_byte_identical(tmp_path):
    path = WORKLOADS / "many-dirichlet.cfg"
    config = override(
        parse_config_text(path.read_text(encoding="utf-8"), path.name), seed=0, rounds=10,
        local_epochs=2, batch_size=5, local_hidden=((24,), (20, 12), (18,), (16, 10)),
    )
    dataset = load_dataset(config)
    plan = build_partition(config, dataset)
    for mode, pinned in RAGGED_DIGESTS.items():
        run_config = build_run_config(override(config, mode=parse_mode(mode)))
        report = tmp_path / f"{mode}.csv"
        export_reports(run_training(run_config, dataset, plan), report, "csv")
        assert hashlib.sha256(report.read_bytes()).hexdigest() == pinned, mode


# mode -> sha256 of the CSV report of many-dirichlet, seed 0, in batches of 96,
# at or above every shard (6 to 89 training samples): each client takes its
# whole shard as one batch, so no batch is short of another and none is padded.
FULL_BATCH_DIGESTS = {
    "fedmrl": "cd861d1e098f5b28ca641f2473fe7f8ea6806efe2c67697f892d3389a8ca72c3",
    "no_mrl": "56ac5cc0ff17a3bc9b98f35ec25ed062757f0ece8631c394be427ca50470ddcf",
    "standalone": "350d0c9a42006ac789345d58d598e823d31a33de77971c7166b527adc53ba6b3",
}


def test_a_full_batch_ragged_run_is_byte_identical(tmp_path):
    path = WORKLOADS / "many-dirichlet.cfg"
    config = override(
        parse_config_text(path.read_text(encoding="utf-8"), path.name), seed=0, batch_size=96
    )
    dataset = load_dataset(config)
    plan = build_partition(config, dataset)
    assert max(len(shard.train) for shard in plan.clients) <= config.batch_size
    for mode, pinned in FULL_BATCH_DIGESTS.items():
        run_config = build_run_config(override(config, mode=parse_mode(mode)))
        report = tmp_path / f"{mode}.csv"
        export_reports(run_training(run_config, dataset, plan), report, "csv")
        assert hashlib.sha256(report.read_bytes()).hexdigest() == pinned, mode


# mode -> sha256 of the CLI's (CSV, JSON) reports of demos/quickstart.cfg.
CLI_DIGESTS = {
    "fedmrl": (
        "cc8646d76373860c1d516e849e02d1551d6fd2ecb062ce1b80aa5f8a29818d27",
        "c57cd9b5a85f9c08499a1fb084d3b6a71988202efddbf46efda3f1848af92dde",
    ),
    "no_mrl": (
        "2803084742952ddeef0ffd80cdeb3f856d7684f15388c41f8bd113d6bfc96aae",
        "24a4350c45ffb59ec97818fbfe746c180e8f7fce2824e95b3eb03004a5af2fac",
    ),
    "standalone": (
        "59eaa104009208ae48586123c3d5e444f6a4edf62731a55d86e1afc8f89abb1a",
        "050b6ab99f8f08b5bb2f1329b7ce368c47ce10bec412b97be5d0ab50cb5fefe9",
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
