#!/usr/bin/env python3
"""Run every reproduction target and collect the reports in one directory.

Thin wrapper over the package CLI so a full sweep is one command:

    python3 scripts/reproduce_bounds.py --outdir results --seed 7

Each target runs its default grid.  The other flags are those every
``ptbounds repro`` target reads, as the CLI declares them, and go to each
run; each report is named ``<target>.<out>`` (``eq8.json``, ``eq8.csv``).
All flags are checked before the output directory is created, and an
output directory that cannot be created exits 2 before any target runs.
"""

import argparse
import pathlib
import sys

from ptbounds.cli import _REPRO_TARGETS, _add_repro_flags, main as cli_main


def run(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0], allow_abbrev=False,
                                     epilog="The other flags go to every `ptbounds repro` run.")
    parser.add_argument("--outdir", default="results",
                        help="directory for the reports (default results)")
    _add_repro_flags(parser)
    args = parser.parse_args(argv)  # a misspelt flag exits 2 here, with this script's usage
    repro_flags = [f"--{key}={value}" for key, value in vars(args).items() if key != "outdir"]

    if not args.outdir:  # pathlib reads "" as the current directory
        print("error: cannot create --outdir : empty path", file=sys.stderr)
        return 2
    outdir = pathlib.Path(args.outdir)
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # a file at the path or on the way to it
        print(f"error: cannot create --outdir {args.outdir}: {exc.strerror}", file=sys.stderr)
        return 2

    worst = 0
    for target in _REPRO_TARGETS:
        out_file = outdir / f"{target}.{args.out}"
        code = cli_main(["repro", target, *repro_flags, "--output", str(out_file)])
        status = "ok" if code == 0 else f"exit {code}"
        print(f"{target}: {status} -> {out_file}")
        worst = max(worst, code)
    return worst


if __name__ == "__main__":
    sys.exit(run())
