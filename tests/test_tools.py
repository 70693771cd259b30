"""tools/where.py times only functions that a run of a bench workload calls."""

import sys
from collections import defaultdict
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parents[1] / "tools"))

import where  # noqa: E402  (imports bench/run.py as where.bench)


@pytest.mark.parametrize("workload", sorted(where.bench.WORKLOADS))
def test_every_default_name_of_where_is_called_in_a_bench_run(workload):
    runner = where.bench.Runner(where.bench.load_workload(workload, 0))
    totals, calls = defaultdict(float), defaultdict(int)
    replaced = [binding for name in where.NAMES for binding in where.wrap(name, totals, calls)]
    try:
        runner.train([], whole=False)
    finally:
        for holder, attribute, original in reversed(replaced):
            setattr(holder, attribute, original)
    assert [name for name in where.NAMES if calls[name] == 0] == []
