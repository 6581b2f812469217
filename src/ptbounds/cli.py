"""Command-line front end: reproduction targets and ad-hoc library calls.

Exit codes: 0 when every emitted verdict is true, 1 when a verdict is false,
2 for validation or parse failures, 3 when a construction would exceed the
dense-dimension cap (PTBOUND_DIM_CAP raises it).

All JSON output is canonical and compact: one line with sorted keys, the
separators "," and ":" and no timestamps, so identical invocations produce
byte-identical reports.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .config import TOL, DimensionCapError, ValidationError
from .linalg import assert_density, matrix_from_json, matrix_to_json, partial_transpose, tensor
from .bell import (
    BellFunctional,
    BoundReport,
    Box,
    chsh,
    classical_value,
    d_eps_membership,
    seesaw,
)
from .states import (
    StateFamilyResult,
    fourier_xy,
    hiding_state,
    max_entangled,
    ppt_pbit,
    private_bit,
    swap_x,
    werner_state,
)
from .nonlocality import continuity_bound, nonlocality_N

__all__ = ["RunConfig", "main"]

CHSH_Q = 2.0 * math.sqrt(2.0)


@dataclass
class RunConfig:
    """Validated bundle of command-line choices."""

    command: str
    d_list: list[int] = field(default_factory=lambda: [2, 3, 4])
    ds_list: list[int] = field(default_factory=lambda: [4])
    m: int = 1
    q: float = 1.0 / 3.0
    eps_list: list[float] = field(default_factory=lambda: [0.0, 0.1, 0.25, 0.4])
    restarts: int = 32
    seed: int = 0
    tol: float = TOL.verdict
    out: str = "json"
    output: str | None = None
    mode: str = "uniform"

    def __post_init__(self):
        if self.restarts < 1:
            raise ValidationError("restarts must be at least 1")
        if self.tol <= 0.0:
            raise ValidationError("tol must be positive")
        if self.out not in ("json", "csv"):
            raise ValidationError(f"unknown output format {self.out!r}")
        if self.mode not in ("uniform", "optimize"):
            raise ValidationError(f"unknown mode {self.mode!r}")


def _parse_int_list(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part != ""]
    except ValueError as exc:
        raise ValidationError(f"expected comma-separated integers, got {text!r}") from exc


def _parse_float_list(text: str) -> list[float]:
    try:
        return [float(part) for part in text.split(",") if part != ""]
    except ValueError as exc:
        raise ValidationError(f"expected comma-separated numbers, got {text!r}") from exc


def _config_from(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig(command=args.command)
    if getattr(args, "d", None) is not None:
        cfg.d_list = _parse_int_list(args.d)
    if getattr(args, "ds", None) is not None:
        cfg.ds_list = _parse_int_list(args.ds)
    if getattr(args, "m", None) is not None:
        cfg.m = args.m
    if getattr(args, "q", None) is not None:
        cfg.q = args.q
    if getattr(args, "eps", None) is not None:
        cfg.eps_list = _parse_float_list(args.eps)
    for name in ("restarts", "seed", "tol", "out", "output", "mode"):
        value = getattr(args, name, None)
        if value is not None:
            setattr(cfg, name, value)
    cfg.__post_init__()
    return cfg


def _emit(text: str, cfg: RunConfig) -> None:
    if cfg.output:
        with open(cfg.output, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _dump_json(payload: dict) -> str:
    # one dumps call without indent stays on CPython's C encoder
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _emit_reports(reports: list[BoundReport], cfg: RunConfig, target: str) -> int:
    if cfg.out == "csv":
        lines = [BoundReport.csv_header()] + [r.csv_row() for r in reports]
        _emit("\n".join(lines), cfg)
    else:
        payload = {
            "command": cfg.command,
            "target": target,
            "seed": cfg.seed,
            "restarts": cfg.restarts,
            "reports": [r.to_json() for r in reports],
        }
        _emit(_dump_json(payload), cfg)
    return 0 if all(r.verdict for r in reports) else 1


def _min_eig_pt(state) -> float:
    return float(np.linalg.eigvalsh(partial_transpose(state).mat).min())


def _repro_eq8(cfg: RunConfig) -> list[BoundReport]:
    functional = chsh()
    c_value = classical_value(functional)
    reports = []
    for d in cfg.d_list:
        gamma = private_bit(swap_x(d))
        value = seesaw(gamma, functional, restarts=cfg.restarts, seed=cfg.seed).value
        rhs = c_value + (math.sqrt(2.0) + 1.0) / (2.0 * math.sqrt(2.0) * d)
        reports.append(BoundReport(f"eq8 d={d}", value, rhs, tol=cfg.tol))
    return reports


def _repro_eq10(cfg: RunConfig) -> list[BoundReport]:
    functional = chsh()
    c_value = classical_value(functional)
    reports = []
    for ds in cfg.ds_list:
        fam = ppt_pbit(ds)
        value = seesaw(fam.rho, functional, restarts=cfg.restarts, seed=cfg.seed).value
        rhs = c_value + CHSH_Q / math.sqrt(ds)
        reports.append(BoundReport(f"eq10 ds={ds}", value, rhs, tol=cfg.tol))
        reports.append(BoundReport(f"eq10 ds={ds} ppt", -_min_eig_pt(fam.rho), TOL.psd, tol=0.0))
        eps = d_eps_membership(fam.rho, fam.sigma_candidate)
        reports.append(
            BoundReport(f"eq10 ds={ds} distance", eps, 1.0 / math.sqrt(ds), tol=cfg.tol)
        )
    return reports


def _repro_prop1(cfg: RunConfig) -> list[BoundReport]:
    functional = chsh()
    c_value = classical_value(functional)
    fam = hiding_state(m=cfg.m, d_shield=2, k=1, q=cfg.q)
    rho_pt = partial_transpose(fam.rho)
    doubled = tensor(fam.rho, rho_pt)
    value = seesaw(doubled, functional, restarts=cfg.restarts, seed=cfg.seed).value
    rhs = c_value + CHSH_Q / 2.0 ** (cfg.m - 1)
    reports = [
        BoundReport(f"prop1 m={cfg.m}", value, rhs, tol=cfg.tol),
        BoundReport(f"prop1 m={cfg.m} ppt", -_min_eig_pt(fam.rho), TOL.psd, tol=0.0),
        BoundReport(
            f"prop1 m={cfg.m} delta", fam.params["delta"], 0.5**cfg.m, tol=cfg.tol
        ),
    ]
    return reports


def _repro_eq13(cfg: RunConfig) -> list[BoundReport]:
    reports = []
    grid = {}
    for eps in cfg.eps_list:
        for d in cfg.d_list:
            value = continuity_bound(eps, d)
            grid[(eps, d)] = value
            reports.append(BoundReport(f"eq13 eps={eps} d={d}", value, value, tol=cfg.tol))
    violation = 0.0
    eps_sorted = sorted(set(cfg.eps_list))
    d_sorted = sorted(set(cfg.d_list))
    for d in d_sorted:
        for lo, hi in zip(eps_sorted, eps_sorted[1:]):
            violation = max(violation, grid[(lo, d)] - grid[(hi, d)])
    for eps in eps_sorted:
        for lo, hi in zip(d_sorted, d_sorted[1:]):
            violation = max(violation, grid[(eps, lo)] - grid[(eps, hi)])
    reports.append(BoundReport("eq13 monotone", violation, 0.0, tol=cfg.tol))
    return reports


_REPRO_TARGETS = {
    "eq8": _repro_eq8,
    "eq10": _repro_eq10,
    "prop1": _repro_prop1,
    "eq13": _repro_eq13,
}


def cmd_repro(args: argparse.Namespace) -> int:
    cfg = _config_from(args)
    reports = _REPRO_TARGETS[args.target](cfg)
    return _emit_reports(reports, cfg, args.target)


def _load_json(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def cmd_seesaw(args: argparse.Namespace) -> int:
    cfg = _config_from(args)
    obj = _load_json(args.state_file)
    if isinstance(obj, dict) and isinstance(obj.get("rho"), dict):
        obj = obj["rho"]  # accept make-state payloads directly
    state = matrix_from_json(obj)
    assert_density(state, "seesaw state")
    if args.functional_file:
        functional = BellFunctional.from_json(_load_json(args.functional_file))
    else:
        functional = chsh()
    result = seesaw(state, functional, restarts=cfg.restarts, seed=cfg.seed)
    if cfg.out == "csv":
        lines = [
            "key,value",
            f"value,{result.value!r}",
            f"converged,{result.converged}",
            f"iterations,{result.iterations}",
            f"best_restart,{max(result.restart_values)!r}",
            f"worst_restart,{min(result.restart_values)!r}",
        ]
        _emit("\n".join(lines), cfg)
    else:
        payload = {
            "command": "seesaw",
            "value": result.value,
            "converged": result.converged,
            "iterations": result.iterations,
            "restart_values": list(result.restart_values),
            "measurements": result.measurements.to_json(),
        }
        _emit(_dump_json(payload), cfg)
    return 0


def cmd_nonlocality(args: argparse.Namespace) -> int:
    cfg = _config_from(args)
    box = Box.from_json(_load_json(args.box_file))
    result = nonlocality_N(box, mode=cfg.mode, restarts=cfg.restarts, seed=cfg.seed)
    if cfg.out == "csv":
        lines = [
            "key,value",
            f"value,{result.value!r}",
            f"converged,{result.converged}",
            f"iterations,{result.iterations}",
        ]
        _emit("\n".join(lines), cfg)
    else:
        payload = {"command": "nonlocality", "mode": cfg.mode, "result": result.to_json()}
        _emit(_dump_json(payload), cfg)
    return 0


def _family_payload(name: str, cfg: RunConfig) -> dict:
    d = cfg.d_list[0]
    ds = cfg.ds_list[0]
    if name == "max-entangled":
        return {"rho": matrix_to_json(max_entangled(d)), "params": {"d": d}}
    if name == "werner-symmetric":
        return {"rho": matrix_to_json(werner_state(d, "symmetric")), "params": {"d": d}}
    if name == "werner-antisymmetric":
        return {"rho": matrix_to_json(werner_state(d, "antisymmetric")), "params": {"d": d}}
    if name == "swap-x":
        return {"operator": matrix_to_json(swap_x(d)), "params": {"d": d}}
    if name == "fourier-xy":
        x, y = fourier_xy(ds)
        return {"X": matrix_to_json(x), "Y": matrix_to_json(y), "params": {"d_s": ds}}
    if name == "private-bit":
        return {"rho": matrix_to_json(private_bit(swap_x(d))), "params": {"d": d}}
    if name == "ppt-pbit":
        return _family_result_payload(ppt_pbit(ds))
    if name == "hiding":
        return _family_result_payload(hiding_state(m=cfg.m, d_shield=d, k=1, q=cfg.q))
    raise ValidationError(f"unknown state family {name!r}")


def _family_result_payload(fam: StateFamilyResult) -> dict:
    payload = {
        "rho": matrix_to_json(fam.rho),
        "params": fam.params,
        "notes": fam.notes,
    }
    if fam.sigma_candidate is not None:
        payload["sigma_candidate"] = matrix_to_json(fam.sigma_candidate)
    return payload


def cmd_make_state(args: argparse.Namespace) -> int:
    cfg = _config_from(args)
    if cfg.out == "csv":
        raise ValidationError("make-state emits JSON only")
    payload = {"command": "make-state", "family": args.family}
    payload.update(_family_payload(args.family, cfg))
    _emit(_dump_json(payload), cfg)
    return 0


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--restarts", type=int, help="seesaw restarts (default 32)")
    sub.add_argument("--seed", type=int, help="random seed (default 0)")
    sub.add_argument("--tol", type=float, help="verdict tolerance (default 1e-9)")
    sub.add_argument("--out", choices=("json", "csv"), help="output format (default json)")
    sub.add_argument("--output", help="write output to this path instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ptbounds",
        description="Transposition-based bounds on Bell-inequality violation: "
                    "reproduction targets and library access.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    rep = subs.add_parser("repro", help="run a named reproduction target")
    rep.add_argument("target", choices=sorted(_REPRO_TARGETS))
    rep.add_argument("--d", help="comma-separated local dimensions (default 2,3,4)")
    rep.add_argument("--ds", help="comma-separated shield dimensions (default 4)")
    rep.add_argument("--m", type=int, help="shield repetition count (default 1)")
    rep.add_argument("--q", type=float, help="corner weight in (0, 1/2), default 1/3: the state "
                     "is PPT only for q <= 1/3, and delta <= 2^-m for every m only for q >= 1/3")
    rep.add_argument("--eps", help="comma-separated epsilon grid (default 0,0.1,0.25,0.4)")
    _add_common(rep)
    rep.set_defaults(func=cmd_repro)

    see = subs.add_parser("seesaw", help="optimize measurements for a state file")
    see.add_argument("state_file", help="matrix JSON for the state")
    see.add_argument("functional_file", nargs="?", default=None,
                     help="functional JSON (default: built-in CHSH)")
    _add_common(see)
    see.set_defaults(func=cmd_seesaw)

    non = subs.add_parser("nonlocality", help="evaluate the KL nonlocality of a box file")
    non.add_argument("box_file", help="box JSON")
    non.add_argument("--mode", choices=("uniform", "optimize"),
                     help="input-distribution handling (default uniform)")
    _add_common(non)
    non.set_defaults(func=cmd_nonlocality)

    mk = subs.add_parser("make-state", help="emit a state family as matrix JSON")
    mk.add_argument("family", choices=(
        "max-entangled", "werner-symmetric", "werner-antisymmetric", "swap-x",
        "fourier-xy", "private-bit", "ppt-pbit", "hiding",
    ))
    mk.add_argument("--d", help="local dimension (first entry used, default 2)")
    mk.add_argument("--ds", help="shield dimension (first entry used, default 4)")
    mk.add_argument("--m", type=int, help="shield repetition count (default 1)")
    mk.add_argument("--q", type=float, help="corner weight (default 1/3)")
    _add_common(mk)
    mk.set_defaults(func=cmd_make_state)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DimensionCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValidationError, json.JSONDecodeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
