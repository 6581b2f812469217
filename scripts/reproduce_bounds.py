#!/usr/bin/env python3
"""Run every reproduction target and collect the JSON reports in one directory.

Thin wrapper over the package CLI so a full sweep is one command:

    python3 scripts/reproduce_bounds.py --outdir results --seed 7
"""

import argparse
import pathlib
import sys

from ptbounds.cli import _REPRO_TARGETS, main as cli_main


def run(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--outdir", default="results",
                        help="directory for the JSON reports (default results)")
    parser.add_argument("--seed", type=int, default=0,
                        help="random seed passed to every target (default 0)")
    parser.add_argument("--restarts", type=int, default=32,
                        help="random seesaw restarts per target, plus one "
                             "from a deterministic strategy (default 32)")
    args = parser.parse_args(argv)

    outdir = pathlib.Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    worst = 0
    for target in _REPRO_TARGETS:
        out_file = outdir / f"{target}.json"
        code = cli_main([
            "repro", target,
            "--seed", str(args.seed),
            "--restarts", str(args.restarts),
            "--output", str(out_file),
        ])
        status = "ok" if code == 0 else f"exit {code}"
        print(f"{target}: {status} -> {out_file}")
        worst = max(worst, code)
    return worst


if __name__ == "__main__":
    sys.exit(run())
