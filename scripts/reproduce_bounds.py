#!/usr/bin/env python3
"""Run every reproduction target and collect the JSON reports in one directory.

Thin wrapper over the package CLI so a full sweep is one command:

    python3 scripts/reproduce_bounds.py --outdir results --seed 7

Every flag other than --outdir is passed unchanged to each
``ptbounds repro`` run, so the CLI alone declares them and their defaults.
All flags are checked before the output directory is created.
"""

import argparse
import pathlib
import sys

from ptbounds.cli import _REPRO_TARGETS, _add_repro_flags, main as cli_main


def run(argv=None) -> int:
    outdir_parser = argparse.ArgumentParser(add_help=False, allow_abbrev=False)
    outdir_parser.add_argument("--outdir", default="results",
                               help="directory for the JSON reports (default results)")
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0], parents=[outdir_parser], allow_abbrev=False,
        epilog="The other flags go to every `ptbounds repro` run.")
    _add_repro_flags(parser)
    parser.parse_args(argv)  # a misspelt flag exits 2 here, with this script's usage
    args, repro_flags = outdir_parser.parse_known_args(argv)

    outdir = pathlib.Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    worst = 0
    for target in _REPRO_TARGETS:
        out_file = outdir / f"{target}.json"
        code = cli_main(["repro", target, *repro_flags, "--output", str(out_file)])
        status = "ok" if code == 0 else f"exit {code}"
        print(f"{target}: {status} -> {out_file}")
        worst = max(worst, code)
    return worst


if __name__ == "__main__":
    sys.exit(run())
