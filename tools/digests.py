"""Print one sha256 over the reports of many runs, to show that a change keeps them.

The runs cover seeds 0-9 of every config in bench/workloads/ (read, never
written), each in every mode and, outside standalone, every inference
variant (standalone always predicts with the private model alone, so one
variant covers it), in the workload's own shape, in two local epochs of
batches of 5, and in a split shape: private models of two depths (one and
two hidden layers) and three unequal learning rates, which a workload's one
depth and equal rates never reach; the split shape runs once more in fedmrl
mode with m_global = 0, a frozen global header.  A seed whose partition
cannot be split draws seed + 1000, + 2000, ... instead, as bench/run.py
does.  The digest is taken over repr(run_training(...)) of every run in
that order, so a single bit of any report moves it.  The package is
imported from this checkout's src/.  Run from the repository root, on the
parent commit and on the change:

    python tools/digests.py     # prints "<sha256>  <n> runs"
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from fedmrl.config import build_run_config, override, parse_config_text  # noqa: E402
from fedmrl.core import InferenceVariant, Mode  # noqa: E402
from fedmrl.data import PartitionError  # noqa: E402
from fedmrl.experiment import build_partition, load_dataset  # noqa: E402
from fedmrl.federation import run_training  # noqa: E402

SEEDS = range(10)
SEED_REDRAW_STRIDE = 1000
MAX_SEED_REDRAWS = 10
SPLIT = {"local_hidden": ((24,), (20, 12), (16,), (18, 10)),
         "lr_global": 0.03, "lr_local": 0.05, "lr_projector": 0.08}
# Each shape's overrides and the modes it runs in.
SHAPES = (({}, tuple(Mode)), ({"local_epochs": 2, "batch_size": 5}, tuple(Mode)),
          (SPLIT, tuple(Mode)), ({**SPLIT, "m_global": 0.0}, (Mode.FEDMRL,)))


def set_up(path: Path, seed: int):
    """(config, dataset, split plan) of a workload on seed, redrawn as the bench does."""
    text = path.read_text(encoding="utf-8")
    for draw in range(MAX_SEED_REDRAWS):
        config = override(parse_config_text(text, path.name), seed=seed + draw * SEED_REDRAW_STRIDE)
        dataset = load_dataset(config)
        try:
            return config, dataset, build_partition(config, dataset)
        except PartitionError:
            continue
    raise SystemExit(f"digests: {path.name}: no seed of {MAX_SEED_REDRAWS} draws from {seed}")


def runs():
    """The reports of every run, in a fixed order."""
    for path in sorted((ROOT / "bench" / "workloads").glob("*.cfg")):
        for seed in SEEDS:
            config, dataset, plan = set_up(path, seed)
            for shape, modes in SHAPES:
                for mode in modes:
                    variants = [InferenceVariant.SINGLE_LARGE] if mode is Mode.STANDALONE else list(
                        InferenceVariant)
                    for variant in variants:
                        changed = override(config, mode=mode, inference=variant, **shape)
                        yield run_training(build_run_config(changed), dataset, plan)


def main() -> int:
    total, count = hashlib.sha256(), 0
    for reports in runs():
        total.update(repr(reports).encode())
        count += 1
    print(f"{total.hexdigest()}  {count} runs")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
