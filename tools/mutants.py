"""Run the checked-in seeded bugs against tier-1 and print which of them it kills.

Each entry of tools/mutants.json names a file, the exact old text (it must
occur once in that file), the new text that replaces it, the reason the
change is a bug, and the test expected to kill it.  The tool extracts the
commit at HEAD with `git archive` (reading local objects only) into a
temporary directory and reads the list from that copy, so the list and the
code always come from one commit; uncommitted edits are not tested.  For
each entry it extracts a fresh copy, applies the entry there and runs
tier-1 on it with -x and --hypothesis-seed=0.  It prints "killed" with the
first failing test, "survived", or "error" for an entry that does not
apply.  The unmutated copy runs first: if it fails, no verdict means
anything, and the tool stops.  The working tree is never written.  Run
from the repository root:

    python tools/mutants.py            # every entry, one at a time
    python tools/mutants.py --jobs 2   # two at once

It exits 0 if every entry was killed by its listed test, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LIST = Path(__file__).with_name("mutants.json")
FIELDS = ("name", "file", "old", "new", "reason", "test")
SEED = 0


def load(path: Path = LIST) -> list[dict]:
    """The entries of the list, each checked to hold exactly FIELDS."""
    entries = json.loads(path.read_text(encoding="utf-8"))
    for entry in entries:
        if sorted(entry) != sorted(FIELDS):
            raise ValueError(f"entry {entry.get('name')!r} needs exactly the fields {FIELDS}")
    return entries


def git(*args: str) -> bytes:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                          capture_output=True).stdout


def extract(commit: str, into: Path) -> None:
    """Write the files of commit under into, as `git archive commit | tar -x` does."""
    subprocess.run(["tar", "-x", "-C", str(into)], input=git("archive", commit), check=True)


def apply(tree: Path, entry: dict) -> None:
    """Replace the entry's old text with its new text in its file of tree.  Raises
    ValueError unless the old text occurs once and the result compiles: a mutant
    that tier-1 cannot import would be killed by nothing it tests."""
    path = tree / entry["file"]
    source = path.read_text(encoding="utf-8")
    count = source.count(entry["old"])
    if count != 1:
        raise ValueError(f"the old text occurs {count} times in {entry['file']}")
    source = source.replace(entry["old"], entry["new"])
    try:
        compile(source, str(path), "exec")
    except SyntaxError as exc:
        raise ValueError(f"the mutated {entry['file']} does not compile") from exc
    path.write_text(source, encoding="utf-8")


def tier1(tree: Path) -> tuple[bool, str]:
    """Run tier-1 on tree with -x: (passed, the first failing test or 'exit N')."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         f"--hypothesis-seed={SEED}", "--continue-on-collection-errors"],
        cwd=tree, env=env, capture_output=True, text=True)
    failed = re.search(r"^(?:FAILED|ERROR) (.+?)(?: - .*)?$", run.stdout, re.MULTILINE)
    return run.returncode == 0, failed.group(1) if failed else f"exit {run.returncode}"


def verdict(commit: str, entry: dict) -> tuple[bool, str, float]:
    """(killed by the entry's listed test, the outcome line, seconds) of tier-1 on a
    fresh copy of commit with the entry applied."""
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="fedmrl-mutant-") as scratch:
        tree = Path(scratch)
        extract(commit, tree)
        try:
            apply(tree, entry)
        except ValueError as exc:
            return False, f"error: {exc}", time.perf_counter() - start
        passed, first = tier1(tree)
    seconds = time.perf_counter() - start
    if passed:
        return False, "survived", seconds
    if first.split("[")[0] != entry["test"]:
        return False, f"killed by {first}, not by its listed {entry['test']}", seconds
    return True, f"killed by {first}", seconds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--jobs", type=int, default=1, choices=(1, 2),
                        help="mutants run at once (default 1)")
    args = parser.parse_args(argv)
    commit = git("rev-parse", "HEAD").decode().strip()
    if git("status", "--porcelain", "--untracked-files=no"):
        print("note: the working tree has uncommitted edits; they are not tested")

    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="fedmrl-mutant-") as scratch:
        tree = Path(scratch)
        extract(commit, tree)
        entries = load(tree / "tools" / LIST.name)
        passed, first = tier1(tree)
    if not passed:
        print(f"HEAD {commit[:12]} fails tier-1 unmutated ({first}); no verdict is meaningful")
        return 1
    print(f"HEAD {commit[:12]} passes tier-1 unmutated in {time.perf_counter() - start:.0f} s; "
          f"{len(entries)} entries, --hypothesis-seed={SEED}")
    killed = 0
    with ThreadPoolExecutor(args.jobs) as pool:
        runs = pool.map(lambda entry: verdict(commit, entry), entries)
        for entry, (listed, outcome, seconds) in zip(entries, runs):
            killed += listed
            print(f"{seconds:5.0f} s  {entry['name']}: {outcome}", flush=True)
    print(f"{killed} of {len(entries)} killed by their listed tests")
    return 0 if killed == len(entries) else 1


if __name__ == "__main__":
    raise SystemExit(main())
