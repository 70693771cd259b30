"""Print where a run of a bench workload spends its time, function by function.

Each named function is wrapped in an inclusive timer: a timed function
called inside another counts in both, and every timer's own overhead is
included.  Both the workload and its runs are the bench's: bench/run.py's
load_workload sets it up on the seed, and its Runner trains it as the
bench times it, build_clients and then one run_rounds call per round, in
each of its modes, first once untimed and then --runs times.  For each
function the tool prints its time in the fastest of the runs (the
smallest per-run total over the runs), its calls per run and its share of
the fastest whole run; then the fastest whole run, and the fastest run's
time outside core._train (the training steps), which is the round's
bookkeeping.  A name that this checkout does not define is listed as
absent, so one command reads two trees.  The workload is read from
bench/workloads/ and never written; the package is imported from this
checkout's src/, as bench/run.py imports it.  Run from the repository
root:

    python tools/where.py                                      # quickstart-3mode, seed 3, 15 runs
    python tools/where.py --workload many-dirichlet --seed 40 --runs 8
    python tools/where.py core._predict federation._Workspace.gather   # only these functions
"""

from __future__ import annotations

import argparse
import sys
import time
from collections import defaultdict
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import run as bench  # noqa: E402  (imports fedmrl from this checkout's src/)

STEPS = "core._train"
NAMES = (
    "federation.build_clients", STEPS, "core._predict", "federation.sample_clients",
    "federation.broadcast", "federation._trained", "federation._Workspace.train",
    "federation._Workspace.stack", "federation._Workspace.check", "federation._Workspace.gather",
    "federation._Workspace.scatter", "federation._steps",
    "federation._anchored", "federation._accuracies", "federation._Workspace.evaluate",
)


def wrap(name: str, totals: dict, calls: dict) -> list[tuple[object, str, object]]:
    """Wrap the function called name ("module.function" or "module.Class.method" of
    fedmrl) wherever the package holds it.  Returns the (holder, attribute,
    function) bindings it replaced, none if this checkout has no such function."""
    module, *path = name.split(".")
    owner = sys.modules[f"fedmrl.{module}"]
    for part in path[:-1]:
        owner = getattr(owner, part, None)
    original = getattr(owner, path[-1], None)
    if original is None:
        return []

    def timed(*args, **kwargs):
        start = time.perf_counter()
        try:
            return original(*args, **kwargs)
        finally:
            totals[name] += time.perf_counter() - start
            calls[name] += 1

    if len(path) > 1:  # a method: its class is the one place it is looked up
        bindings = [(owner, path[-1], original)]
    else:  # the module itself, and every `from .module import` of it
        bindings = [(held, attribute, value)
                    for key, held in list(sys.modules.items()) if key.split(".")[0] == "fedmrl"
                    for attribute, value in vars(held).items() if value is original]
    for holder, attribute, _ in bindings:
        setattr(holder, attribute, timed)
    return bindings


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("names", nargs="*", default=NAMES,
                        help="functions to time, as module.function or module.Class.method")
    parser.add_argument("--workload", default="quickstart-3mode", choices=sorted(bench.WORKLOADS))
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--runs", type=int, default=15)
    args = parser.parse_args(argv)
    runner = bench.Runner(bench.load_workload(args.workload, args.seed))
    names = list(dict.fromkeys([*args.names, STEPS]))
    totals, calls = defaultdict(float), defaultdict(int)
    present = [name for name in names if wrap(name, totals, calls)]
    runner.train([], whole=False)  # untimed warm-up: the first run of a process is slower
    per_run = []  # (whole run, {name: (seconds, calls)}) of each timed run
    for _ in range(args.runs):
        totals.clear()
        calls.clear()
        start = time.perf_counter()
        runner.train([], whole=False)
        per_run.append((time.perf_counter() - start, {n: (totals[n], calls[n]) for n in present}))
    whole = min(total for total, _ in per_run)
    print(f"{args.workload}, seed {args.seed}, fastest of {args.runs} runs; ms per run, "
          f"calls per run, share of the fastest whole run")
    for name in names:
        if name not in present:
            print(f"{'absent':>9}  {'':>6}  {'':>5}  {name}")
            continue
        fastest = min(functions[name][0] for _, functions in per_run)
        count = per_run[0][1][name][1]
        print(f"{fastest * 1e3:9.2f}  {count:6d}  {fastest / whole:5.1%}  {name}")
    outside = min(total - functions[STEPS][0] for total, functions in per_run) if STEPS in present \
        else whole
    print(f"{whole * 1e3:9.2f}  {'':>6}  {1:5.1%}  whole run")
    print(f"{outside * 1e3:9.2f}  {'':>6}  {outside / whole:5.1%}  outside {STEPS}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
