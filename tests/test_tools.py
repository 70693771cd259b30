"""tools/where.py times only functions that a run of a bench workload calls, and each
seeded bug of tools/mutants.json still applies to the code it names."""

import sys
from collections import defaultdict
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parents[1] / "tools"))

import mutants  # noqa: E402
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


@pytest.mark.parametrize("entry", mutants.load(), ids=lambda entry: entry["name"])
def test_each_seeded_bug_replaces_text_found_once_in_its_file(entry):
    # tools/mutants.py applies an entry by replacing its old text, so the text
    # must still name exactly one place in the code: a rewrite that moves it
    # must move the entry too.
    source = (Path(__file__).parents[1] / entry["file"]).read_text(encoding="utf-8")
    assert source.count(entry["old"]) == 1
    assert entry["old"] != entry["new"] and entry["reason"] and entry["test"]
