"""Command-line front end: reproduction targets, their sweep and ad-hoc library calls.

Each flag and its default are declared once.  Each command, ``repro``
target and ``make-state`` family takes only the flags it reads, after its
name, and no parser takes abbreviations; a target's or family's entry in
``_REPRO_TARGETS`` or ``_FAMILIES`` lists its flags next to its builder.
Commands read the parsed namespace directly.  ``build_parser`` is cached,
so a process that calls ``main`` many times (``sweep``, which runs every
repro target through it, or a benchmark) builds the parser once; parsing
leaves it unchanged, and ``main`` finds the ``cmd_*`` function by the
command's name when it runs.  A repro target's entry parses its grid into
keyword dicts of the library's ``certificate_rows``, which checks the whole
grid and builds its rows in one call; ``cmd_repro`` formats them.

Commands return (payload, CSV lines or None, exit code) and write nothing;
``main`` alone writes the CSV (under ``--out csv``) or JSON to ``--output``
or stdout, so the file holds exactly the bytes stdout would.  ``make-state``
payloads keep their matrices as CMatrix, and ``main`` writes each one as
``matrix_to_json`` of it: its nonzero entries.  An ``--output`` path that
cannot be written exits 2 before the command runs.

Exit codes: 0 when every emitted verdict is true, 1 when a verdict is false
or a ``nonlocality`` solve did not converge (its report is still written),
2 for validation or parse failures and for a numpy LinAlgError, 3 when a
construction would exceed the dense-dimension cap (PTBOUND_DIM_CAP raises it)
or memory runs out; the cap also applies to the doubled state rho x rho^PT of
``repro prop1``; ``sweep`` exits with the worst of its targets' codes.  Each
failure, a parse error included, writes one ``error:`` line to stderr and
no usage block, cut to 200 characters with its newline (ending in "...")
when the message echoes a huge input.

All JSON output is canonical and compact: one line with sorted keys, the
separators "," and ":" and no timestamps, so identical invocations produce
byte-identical reports.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from numpy.linalg import LinAlgError

from .config import DimensionCapError, ValidationError
from .linalg import CMatrix, _canonical_json, assert_density, matrix_from_json, matrix_to_json
from .bell import BellFunctional, BoundReport, Box, certificate_rows, chsh, seesaw
from .states import (
    fourier_xy,
    hiding_state,
    max_entangled,
    ppt_pbit,
    private_bit,
    swap_x,
    werner_state,
)
from .nonlocality import nonlocality_N

__all__ = ["main"]

_ERROR_WIDTH = 200  # characters of an error line, its newline included


def _parse_list(text: str) -> list[int]:
    """Nonempty comma-separated list of integers; empty parts are skipped."""
    try:
        values = [int(part) for part in text.split(",") if part != ""]
    except ValueError:
        values = []
    if not values:
        raise ValidationError(f"expected comma-separated integers, got {text!r}")
    return values


def _key_value_csv(rows: dict) -> list[str]:
    """The CSV lines of ``seesaw`` and ``nonlocality``: a key,value header, one row per item."""
    return ["key,value", *(f"{key},{value}" for key, value in rows.items())]


# Flags that only some choices read, as (name, add_argument keywords)
_D_GRID = ("--d", dict(default="2,3,4", help="comma-separated local dimensions (default 2,3,4)"))
_DS_GRID = ("--ds", dict(default="4", help="comma-separated shield dimensions (default 4)"))
_M = ("--m", dict(type=int, default=1, help="shield repetition count (default 1)"))
_Q = ("--q", dict(type=float, default=1.0 / 3.0, help="corner weight in (0, 1/2), default 1/3: "
                  "the state is PPT only for q <= 1/3, and delta <= 2^-m for every m only "
                  "for q >= 1/3"))
_D = ("--d", dict(type=int, default=2, help="local dimension (default 2)"))
_DS = ("--ds", dict(type=int, default=4, help="shield dimension (default 4)"))
_D_PAIR = ("--d", dict(type=int, default=2, help="each Werner pair's local dimension (default 2)"))


# repro targets: name -> (the flags it reads, its grid as certificate_rows takes it)
_REPRO_TARGETS = {
    "eq8": ((_D_GRID,), lambda a: [{"d": d} for d in _parse_list(a.d)]),
    "eq10": ((_DS_GRID,), lambda a: [{"ds": ds} for ds in _parse_list(a.ds)]),
    "prop1": ((_M, _Q), lambda a: [{"m": a.m, "q": a.q}]),
}


def cmd_repro(args: argparse.Namespace) -> tuple[dict, list[str], int]:
    reports = certificate_rows(args.target, args.restarts, args.seed,
                               _REPRO_TARGETS[args.target][1](args))
    payload = {"command": args.command, "target": args.target, "seed": args.seed,
               "restarts": args.restarts, "reports": [r.to_json() for r in reports]}
    lines = [BoundReport.csv_header(), *(r.csv_row() for r in reports)]
    return payload, lines, 0 if all(r.verdict for r in reports) else 1


def _load_json(path: str) -> dict:
    """The parsed file; ValidationError naming it if it is not UTF-8 JSON."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (ValueError, RecursionError) as exc:  # decoding, over-long ints, deep nesting
        raise ValidationError(f"{path}: {exc}") from None


def cmd_seesaw(args: argparse.Namespace) -> tuple[dict, list[str], int]:
    obj = _load_json(args.state_file)
    if isinstance(obj, dict) and isinstance(obj.get("rho"), dict):
        obj = obj["rho"]  # accept make-state payloads directly
    state = matrix_from_json(obj)
    assert_density(state, "seesaw state")
    if args.functional_file:
        functional = BellFunctional.from_json(_load_json(args.functional_file))
    else:
        functional = chsh()
    result = seesaw(state, functional, restarts=args.restarts, seed=args.seed)
    payload = {
        "command": "seesaw",
        "value": result.value,
        "converged": result.converged,
        "iterations": result.iterations,
        "restart_values": list(result.restart_values),
        "measurements": result.measurements.to_json(),
    }
    rows = {
        "value": result.value,
        "converged": result.converged,
        "iterations": result.iterations,
        "best_restart": max(result.restart_values),
        "worst_restart": min(result.restart_values),
    }
    return payload, _key_value_csv(rows), 0


def cmd_nonlocality(args: argparse.Namespace) -> tuple[dict, list[str], int]:
    box = Box.from_json(_load_json(args.box_file))
    result = nonlocality_N(box, mode=args.mode)
    payload = {"command": "nonlocality", "mode": args.mode, "result": result.to_json()}
    rows = {"value": result.value, "converged": result.converged,
            "iterations": result.iterations, "gap": result.gap, "upper": result.upper}
    return payload, _key_value_csv(rows), 0 if result.converged else 1


# make-state families: name -> (the flags it reads, namespace -> payload fields,
# matrices as CMatrix).  The entries look their builders up by name at call
# time, so a rebound module attribute (a timing wrapper, say) is what runs.
_FAMILIES = {
    "max-entangled": ((_D,), lambda a: {"rho": max_entangled(a.d), "params": {"d": a.d}}),
    "werner-symmetric": ((_D,), lambda a: {
        "rho": werner_state(a.d, "symmetric"), "params": {"d": a.d}}),
    "werner-antisymmetric": ((_D,), lambda a: {
        "rho": werner_state(a.d, "antisymmetric"), "params": {"d": a.d}}),
    "swap-x": ((_D,), lambda a: {"operator": swap_x(a.d), "params": {"d": a.d}}),
    "fourier-xy": ((_DS,), lambda a: dict(zip("XY", fourier_xy(a.ds)), params={"d_s": a.ds})),
    "private-bit": ((_D,), lambda a: {"rho": private_bit(swap_x(a.d)), "params": {"d": a.d}}),
    "ppt-pbit": ((_DS,), lambda a: vars(ppt_pbit(a.ds))),
    "hiding": ((_D_PAIR, _M, _Q), lambda a: vars(hiding_state(m=a.m, d_shield=a.d, q=a.q))),
}


def cmd_make_state(args: argparse.Namespace) -> tuple[dict, None, int]:
    fields = _FAMILIES[args.family][1](args)
    payload = {"command": "make-state", "family": args.family}
    # a family without a separable companion has None there; matrices stay
    # CMatrix, and main encodes them
    payload.update((key, value) for key, value in fields.items() if value is not None)
    return payload, None, 0


def cmd_sweep(args: argparse.Namespace) -> tuple[dict, list[str], int]:
    """Every repro target at its default grid, each report to <outdir>/<target>.<out>."""
    if not args.outdir:  # os.makedirs("") would say "No such file or directory"
        raise ValidationError("cannot create --outdir : empty path")
    try:
        os.makedirs(args.outdir, exist_ok=True)
    except OSError as exc:  # a file at the path or on the way to it
        raise ValidationError(f"cannot create --outdir {args.outdir}: {exc.strerror}") from None
    codes = {target: main(["repro", target, f"--restarts={args.restarts}", f"--seed={args.seed}",
                           f"--out={args.out}", "--output",
                           os.path.join(args.outdir, f"{target}.{args.out}")])
             for target in _REPRO_TARGETS}  # a failing target writes its own error line
    payload = {"command": "sweep", "outdir": args.outdir, "exit_codes": codes}
    lines = ["target,exit", *(f"{target},{code}" for target, code in codes.items())]
    return payload, lines, max(codes.values())


class _Parser(argparse.ArgumentParser):
    """A parser whose usage errors are ValidationErrors, written by ``main`` as any other."""

    def error(self, message):
        raise ValidationError(f"{self.prog}: {message}")


def _subcommand(subs, name: str, help: str | None = None, flags=()) -> argparse.ArgumentParser:
    """A subcommand parser without abbreviations, taking the flags and --output."""
    sub = subs.add_parser(name, help=help, allow_abbrev=False)
    for flag, spec in flags:
        sub.add_argument(flag, **spec)
    sub.add_argument("--output", help="write output to this path instead of stdout")
    return sub


def _add_report_flags(sub: argparse.ArgumentParser, seesaw: bool) -> None:
    """--out, plus --restarts and --seed where the seesaw runs: ``seesaw``, each repro
    target and ``sweep``.  No flag loosens a verdict's tolerance, TOL.verdict."""
    if seesaw:
        sub.add_argument("--restarts", type=int, default=32, help="random seesaw restarts, "
                         "plus one from a deterministic strategy (default 32)")
        sub.add_argument("--seed", type=int, default=0, help="random seed (default 0)")
    sub.add_argument("--out", choices=("json", "csv"), default="json",
                     help="output format (default json)")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="ptbounds",
        description="Transposition-based bounds on Bell-inequality violation: "
                    "reproduction targets and library access.",
        allow_abbrev=False,
    )
    subs = parser.add_subparsers(dest="command", required=True)

    rep = subs.add_parser("repro", help="run a named reproduction target", allow_abbrev=False)
    targets = rep.add_subparsers(dest="target", required=True)
    for target, (flags, _) in _REPRO_TARGETS.items():
        _add_report_flags(_subcommand(targets, target, flags=flags), seesaw=True)

    see = _subcommand(subs, "seesaw", "optimize measurements for a state file")
    see.add_argument("state_file", help="matrix JSON for the state")
    see.add_argument("functional_file", nargs="?", default=None,
                     help="functional JSON (default: built-in CHSH)")
    _add_report_flags(see, seesaw=True)

    non = _subcommand(subs, "nonlocality", "evaluate the KL nonlocality of a box file")
    non.add_argument("box_file", help="box JSON")
    non.add_argument("--mode", choices=("uniform", "optimize"), default="uniform",
                     help="input-distribution handling (default uniform)")
    _add_report_flags(non, seesaw=False)

    mk = subs.add_parser("make-state", help="emit a state family as matrix JSON",
                         allow_abbrev=False)
    families = mk.add_subparsers(dest="family", required=True)
    for family, (flags, _) in _FAMILIES.items():
        _subcommand(families, family, flags=flags)

    sweep = subs.add_parser("sweep", help="run every repro target, one report file each",
                            allow_abbrev=False)
    sweep.add_argument("--outdir", default="results",
                       help="directory for the reports (default results)")
    _add_report_flags(sweep, seesaw=True)

    return parser


def _check_output(path: str) -> None:
    """Refuse an --output path that cannot be written, before the command runs."""
    if not path:
        raise ValidationError("--output needs a path, got ''")
    parent = os.path.dirname(path) or "."
    if os.path.isdir(path):
        raise ValidationError(f"--output {path} is a directory")
    if not os.path.isdir(parent):
        raise ValidationError(f"--output {path}: no directory {parent}")
    if not os.access(path if os.path.exists(path) else parent, os.W_OK):
        raise ValidationError(f"--output {path} is not writable")


def _json_text(payload: dict) -> str:
    """``_canonical_json(payload)`` with each CMatrix value as ``matrix_to_json`` of it."""
    return _canonical_json({key: matrix_to_json(value) if isinstance(value, CMatrix) else value
                            for key, value in payload.items()})


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        # looked up by name at call time, so a rebound cmd_* attribute is what
        # runs although the parser is built once
        command = globals()["cmd_" + args.command.replace("-", "_")]
        output = getattr(args, "output", None)  # sweep names its own files
        if output is not None:
            _check_output(output)
        # only the commands that read --restarts and --seed have them
        if "restarts" in args and args.restarts < 1:
            raise ValidationError("restarts must be at least 1")
        if "seed" in args and args.seed < 0:
            raise ValidationError("seed must be non-negative")
        payload, csv_lines, code = command(args)
        text = ("\n".join(csv_lines) if "out" in args and args.out == "csv"
                else _json_text(payload))
        if output:
            with open(output, "w", encoding="utf-8") as fh:
                print(text, file=fh)
        else:
            print(text)
        return code
    except (DimensionCapError, MemoryError) as exc:
        message, code = str(exc) or "out of memory", 3
    except (ValidationError, OSError, LinAlgError) as exc:
        message, code = str(exc), 2
    line = f"error: {message}"  # a message that echoes a huge input is cut
    print(line if len(line) < _ERROR_WIDTH else line[:_ERROR_WIDTH - 4] + "...", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
