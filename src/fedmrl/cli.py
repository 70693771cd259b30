"""Command line entry point.

Usage:
    fedmrl run --config experiment.cfg [--mode fedmrl|standalone|no-mrl]
               [--seed N] [--sweep key=v1,v2,...] [--out dir]
"""

from __future__ import annotations

import argparse
import sys

from .experiment import run_experiment


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="fedmrl",
        description=(
            "Desk-scale federated learning simulator with heterogeneous "
            "client models and nested dual-granularity heads."
        ),
    )
    commands = parser.add_subparsers(dest="command", required=True)
    run = commands.add_parser("run", help="run an experiment described by a config file")
    run.add_argument("--config", required=True, help="path to a key=value config file")
    run.add_argument(
        "--mode",
        choices=["fedmrl", "standalone", "no-mrl", "no_mrl"],
        help="override the config's training mode",
    )
    run.add_argument("--seed", type=int, help="override the config's seed")
    run.add_argument(
        "--sweep",
        metavar="KEY=V1,V2,...",
        help="run once per value of a config key; file names carry key and value. A value is "
        "one comma-free token: global_hidden=16,8 runs (16,) and (8,), not (16, 8)",
    )
    run.add_argument("--out", metavar="DIR", help="override the output directory")

    args = parser.parse_args(argv)  # "run" is the one command, and a command is required
    return run_experiment(
        args.config, mode=args.mode, seed=args.seed, sweep=args.sweep, out_dir=args.out
    )


if __name__ == "__main__":
    sys.exit(main())
