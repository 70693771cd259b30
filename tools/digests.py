"""Print one sha256 over the reports of many runs, to show that a change keeps them.

The runs cover seeds 0-9 of every bench workload, each set up by
bench/run.py's load_workload (its config in bench/workloads/, read, never
written, and a seed whose partition cannot be split redrawn as the bench
redraws it), in every mode and, outside standalone, every inference
variant (standalone always predicts with the private model alone, so one
variant covers it), in the workload's own shape, in two local epochs of
batches of 5, and in a split shape: private models of two depths (one and
two hidden layers) and three unequal learning rates, which a workload's one
depth and equal rates never reach; the split shape runs once more in fedmrl
mode with m_global = 0, a frozen global header.  Each run passes its config
straight to run_training, as experiment.execute does.  The digest is taken
over repr(run_training(...)) of every run in that order, so a single bit of
any report moves it.  The package is imported from this checkout's src/, as
bench/run.py imports it.  Run from the repository root, on the parent commit
and on the change:

    python tools/digests.py     # prints "<sha256>  <n> runs"
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import run as bench  # noqa: E402  (imports fedmrl from this checkout's src/)
from fedmrl.config import override  # noqa: E402
from fedmrl.core import InferenceVariant, Mode  # noqa: E402
from fedmrl.federation import run_training  # noqa: E402

SEEDS = range(10)
SPLIT = {"local_hidden": ((24,), (20, 12), (16,), (18, 10)),
         "lr_global": 0.03, "lr_local": 0.05, "lr_projector": 0.08}
# Each shape's overrides and the modes it runs in.
SHAPES = (({}, tuple(Mode)), ({"local_epochs": 2, "batch_size": 5}, tuple(Mode)),
          (SPLIT, tuple(Mode)), ({**SPLIT, "m_global": 0.0}, (Mode.FEDMRL,)))


def runs():
    """The reports of every run, in a fixed order."""
    for name in sorted(bench.WORKLOADS):
        for seed in SEEDS:
            w = bench.load_workload(name, seed)
            for shape, modes in SHAPES:
                for mode in modes:
                    variants = [InferenceVariant.SINGLE_LARGE] if mode is Mode.STANDALONE else list(
                        InferenceVariant)
                    for variant in variants:
                        config = override(w.config, mode=mode, inference=variant, **shape)
                        yield run_training(config, w.dataset, w.plan)


def main() -> int:
    total, count = hashlib.sha256(), 0
    for reports in runs():
        total.update(repr(reports).encode())
        count += 1
    print(f"{total.hexdigest()}  {count} runs")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
