"""The three benchmark workloads, their output checks and the closed loop that runs them.

Each workload is a list of cycles of ops.  The loop runs whole cycles back to
back, one op at a time.  The number of cycles is fixed by the requested
seconds and the workload's nominal cycle time, not by the clock, so two runs
with the same seed time exactly the same ops even when the machine's speed
drifts during a run.  An op's ``run`` is the timed call into ptbounds; its
``check`` validates the outcome afterwards against the paper's identities
and returns the problems found (an empty list means the op succeeded).
"""

from __future__ import annotations

import gc
import json
import math
import os
import re
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from spans import OP, Tracer

# repro-seesaw: one CLI repro call per grid point.  prop1 m=2 is left out
# because it takes minutes per op at this commit.
REPRO_GRID: tuple[tuple[str, str, int], ...] = (
    ("eq8", "--d", 2), ("eq8", "--d", 3), ("eq8", "--d", 4), ("eq8", "--d", 6),
    ("eq8", "--d", 8), ("eq10", "--ds", 4), ("eq10", "--ds", 9), ("eq10", "--ds", 16),
    ("prop1", "--m", 1),
)
SEESAW_ROW = re.compile(r"(eq8 d|eq10 ds|prop1 m)=\d+")
# Ops per cycle for each grid point.  The weights put each order statistic
# in the middle of a group of ops of one cost: the median among the 16 ops of
# eq8 d=4 and eq10 ds=4 (20 cheaper ops, 19 dearer), and op_tail_s, the 11th
# largest, among the 12 ops of eq8 d=8 and prop1 m=1 (3 dearer ops).
REPRO_WEIGHT = {
    "eq8 d=2": 10, "eq8 d=3": 10, "eq8 d=4": 8, "eq10 ds=4": 8, "eq8 d=6": 4,
    "eq8 d=8": 10, "prop1 m=1": 2, "eq10 ds=9": 2, "eq10 ds=16": 1,
}
# The k-th repeat of a grid point runs with --seed 100 * seed + k // 2: each
# CLI seed runs twice, so every report can be compared byte for byte with an
# earlier one, and the repeats spread over several seesaw seeds.  The cost of
# eq8 d=2, d=6, d=8, eq10 ds=9 and prop1 m=1 moves by up to 40% with the
# seesaw seed, so a cost taken from one seed would differ between runs.
REPRO_SEED_STRIDE = 100

# nonlocality-kl: (mode, inputs per party) per op.  "chain" is a
# thm2_chain_check.  A cycle is the pattern below, on fresh boxes drawn from
# the seed, with the ops of the optimize panel spread evenly through it.
# Uniform-mode 4-input ops are most of the pattern, so over 7 cycles the
# median falls in the middle of their 168 draws.  The 14 panel ops are the
# dearest, and op_tail_s, the 11th largest, is the middle one of the 7 ops on
# the cheaper panel box.  Optimize mode is used on 2-input boxes only,
# because it takes tens of seconds per op on 3- and 4-input boxes.
NL_PATTERN: tuple[tuple[str, int], ...] = (
    (("uniform", 4),) * 12 + (("uniform", 3),)
    + (("uniform", 4),) * 12 + (("uniform", 3), ("chain", 3))
)
NL_CYCLES = 7
NL_OPTIMIZE_RESTARTS = 4
# The optimize panel is the same in every run: a run holds only 14 such ops,
# and boxes drawn from the run's seed made ops_per_s differ by 30% between
# seeds.
NL_PANEL_SEED = 0
NL_PANEL_VISIBILITIES = (0.75, 0.85)

# certify-io: make-state families with dims 16 to 324, one op per entry in a
# cycle.  ppt-pbit ds=16 is left out: it writes an 88 MB file and needs about
# 1 GB of memory per op.  The repeated entries place the order statistics:
# over 5 cycles the median op falls among the 10 ops of hiding m=2 and
# ppt-pbit ds=4, which cost about the same (20 cheaper ops, 25 dearer), and
# op_tail_s, the 11th largest, in the middle of the 10 hiding m=3 ops (only
# the 5 ppt-pbit ds=9 ops cost more).
CERTIFY_FAMILIES: tuple[tuple[str, str, int], ...] = (
    ("ppt-pbit", "--ds", 4), ("ppt-pbit", "--ds", 9),
    ("hiding", "--m", 1), ("hiding", "--m", 2), ("hiding", "--m", 3), ("hiding", "--m", 3),
    ("private-bit", "--d", 2), ("private-bit", "--d", 2), ("private-bit", "--d", 4),
    ("private-bit", "--d", 6), ("private-bit", "--d", 8),
)
CERTIFY_CYCLES = 5

# Seconds of op time per cycle at the commit that defined the benchmark, on
# 2 cores with one BLAS thread; they turn --seconds into a cycle count (30 s
# gives 1, 7 and 5 cycles).
NOMINAL_CYCLE_S = {"repro-seesaw": 21.0, "nonlocality-kl": 4.5, "certify-io": 5.6}
# A run whose ops have become much slower than nominal stops after the cycle
# that passes this many times --seconds.
OVERRUN = 1.5

PSD_TOL = 1e-10
IDENTITY_TOL = 1e-9


@dataclass
class Op:
    label: str
    run: Callable[[], object]
    check: Callable[[object], list[str]]


@dataclass
class Workload:
    name: str
    warmup: Op
    cycles: list[list[Op]]
    # filled in by the checks: seesaw lhs per (row, CLI seed), final
    # Frank-Wolfe gaps, matrix JSON bytes written
    lhs: dict[tuple[str, int], float] = field(default_factory=dict)
    gaps: list[float] = field(default_factory=list)
    bytes_written: int = 0

    def cycle(self, i: int) -> list[Op]:
        return self.cycles[i % len(self.cycles)]


@dataclass
class OpRecord:
    label: str
    start: float  # perf_counter() when the op began
    seconds: float
    problems: list[str]


def run_op(op: Op, tracer: Tracer | None = None) -> OpRecord:
    """Time one op, then validate it.  Any exception counts as a failed op.

    The garbage of earlier ops is collected before the clock starts, so that
    no op pays for a collection its predecessors made due.
    """
    outcome = None
    problems: list[str] = []
    gc.collect()
    start = time.perf_counter()
    try:
        if tracer is None:
            outcome = op.run()
        else:
            tracer.active = True
            try:
                with tracer.span(OP):
                    outcome = op.run()
            finally:
                tracer.active = False
    except (Exception, SystemExit) as exc:
        problems.append(f"raised {type(exc).__name__}: {exc}")
    seconds = time.perf_counter() - start
    if not problems:
        try:
            problems = op.check(outcome)
        except Exception as exc:
            problems = [f"check raised {type(exc).__name__}: {exc}"]
    return OpRecord(op.label, start, seconds, problems)


def cycles_for(workload: Workload, seconds: float) -> int:
    return max(1, round(seconds / NOMINAL_CYCLE_S[workload.name]))


def closed_loop(workload: Workload, seconds: float,
                tracer: Tracer | None = None) -> list[OpRecord]:
    """Run ``cycles_for(seconds)`` whole cycles, one op after another.

    A run whose ops have become much slower than nominal stops after the
    cycle that passes ``OVERRUN * seconds``, so it still ends in bounded time.
    """
    records: list[OpRecord] = []
    start = time.perf_counter()
    for i in range(cycles_for(workload, seconds)):
        for op in workload.cycle(i):
            records.append(run_op(op, tracer))
        if time.perf_counter() - start >= OVERRUN * seconds:
            break
    return records


def _finite(*values: float) -> bool:
    return all(math.isfinite(v) for v in values)


# ---------------------------------------------------------------- repro-seesaw

def check_repro(rc: int, raw: bytes, reference: bytes) -> list[str]:
    """A repro report must exit 0, hold only true verdicts over finite numbers,
    and repeat byte for byte for the same op and seed."""
    problems = []
    if rc != 0:
        problems.append(f"exit code {rc}")
    if raw != reference:
        problems.append("report bytes differ from the first run of this op")
    rows = json.loads(raw)["reports"]
    if not rows:
        problems.append("report has no rows")
    for row in rows:
        if not row["verdict"]:
            problems.append(f"{row['context']}: verdict false")
        if not _finite(row["lhs"], row["rhs"]):
            problems.append(f"{row['context']}: non-finite lhs or rhs")
    return problems


def seesaw_rows(raw: bytes) -> dict[str, float]:
    """lhs of the rows whose lhs is a seesaw value."""
    return {row["context"]: row["lhs"] for row in json.loads(raw)["reports"]
            if SEESAW_ROW.fullmatch(row["context"])}


def repro_seesaw(seed: int, outdir: str, grid=REPRO_GRID, weight=REPRO_WEIGHT) -> Workload:
    from ptbounds import cli

    references: dict[tuple[str, int], bytes] = {}
    workload = Workload("repro-seesaw", warmup=None, cycles=[])

    def make(label: str, target: str, flag: str, value: int, op_seed: int) -> Op:
        path = os.path.join(outdir, f"repro-{target}-{value}.json")
        argv = ["repro", target, flag, str(value), "--seed", str(op_seed), "--output", path]

        def check(rc):
            with open(path, "rb") as fh:
                raw = fh.read()
            problems = check_repro(rc, raw, references.setdefault((label, op_seed), raw))
            workload.lhs.update({(row, op_seed): lhs for row, lhs in seesaw_rows(raw).items()})
            return problems

        return Op(label, lambda: cli.main(argv), check)

    cycle = []
    for target, flag, value in grid:
        label = f"{target} {flag.lstrip('-')}={value}"
        cycle += [make(label, target, flag, value, REPRO_SEED_STRIDE * seed + k // 2)
                  for k in range(weight.get(label, 1))]
    workload.cycles = [[cycle[i] for i in np.random.default_rng(seed).permutation(len(cycle))]]
    workload.warmup = cycle[0]  # the grid starts with its cheapest point
    return workload


# -------------------------------------------------------------- nonlocality-kl

def fw_gap(box, result) -> float:
    """Final Frank-Wolfe linearization gap of the inner solve, recomputed from
    the public fields of NlResult: w.grad - min_v grad_v at the returned weights."""
    from ptbounds.nonlocality import LocalPolytope

    vertices = LocalPolytope.for_scenario(box.nx, box.ny, box.na, box.nb).vertices
    pg = box.p.reshape(-1)
    pw = np.repeat(np.asarray(result.input_dist).reshape(-1), box.na * box.nb)
    mask = (pg > 0.0) & (pw > 0.0)
    w = np.asarray(result.inner_weights)
    q = w @ vertices
    grad = -(vertices[:, mask] @ (pw[mask] * pg[mask] / np.maximum(q[mask], 1e-300)))
    grad /= math.log(2.0)
    return float(w @ grad - grad.min())


def check_nl(result) -> list[str]:
    problems = []
    if not _finite(result.value):
        problems.append("non-finite measure")
    elif result.value < -IDENTITY_TOL:
        problems.append(f"negative measure {result.value}")
    if not result.converged:
        problems.append("inner solve did not converge")
    return problems


def check_chain(chain) -> list[str]:
    problems = []
    if not _finite(chain.lhs, chain.mid, chain.rhs):
        problems.append("non-finite chain term")
    if not chain.verdict:
        problems.append("chain verdict false")
    return problems


def _noisy_phi(v: float):
    """|Phi+><Phi+| mixed with white noise at visibility v, and its dephased
    (diagonal, hence separable) companion."""
    from ptbounds.linalg import CMatrix, SystemLayout

    phi = np.zeros((4, 4), dtype=np.complex128)
    phi[np.ix_([0, 3], [0, 3])] = 0.5
    noise = (1.0 - v) * np.eye(4) / 4.0
    layout = SystemLayout.bipartite(2, 2)
    return (CMatrix(v * phi + noise, layout, hermitian=True),
            CMatrix(v * np.diag(np.diag(phi)) + noise, layout, hermitian=True))


def nonlocality_kl(seed: int, outdir: str, cycles: int = NL_CYCLES,
                   pattern=NL_PATTERN, panel=NL_PANEL_VISIBILITIES) -> Workload:
    from ptbounds import bell, nonlocality
    from ptbounds.rand import random_binary_projective

    workload = Workload("nonlocality-kl", warmup=None, cycles=[])

    def make(rng, mode: str, n: int, label: str, v: float | None = None) -> Op:
        v = float(rng.uniform(0.5, 1.0)) if v is None else v
        rho, sigma = _noisy_phi(v)
        meas = bell.MeasurementFamily(
            [random_binary_projective(rng, 2) for _ in range(n)],
            [random_binary_projective(rng, 2) for _ in range(n)],
        )
        if mode == "chain":
            return Op(label, lambda: nonlocality.thm2_chain_check(rho, sigma, meas), check_chain)

        restarts = NL_OPTIMIZE_RESTARTS if mode == "optimize" else 1

        def run():
            box = bell.box_from(rho, meas)
            return box, nonlocality.nonlocality_N(box, mode=mode, restarts=restarts)

        def check(outcome):
            box, result = outcome
            workload.gaps.append(fw_gap(box, result))
            return check_nl(result)

        return Op(label, run, check)

    panel_rng = np.random.default_rng(NL_PANEL_SEED)
    panel_ops = [make(panel_rng, "optimize", 2, f"optimize 2-input v={v}", v) for v in panel]
    rng = np.random.default_rng(seed)
    stride = math.ceil(len(pattern) / len(panel_ops)) if panel_ops else 0
    for _ in range(cycles):
        fast = [make(rng, mode, n, f"{mode} {n}-input") for mode, n in pattern]
        cycle = []
        for j, op in enumerate(panel_ops):
            cycle += [op] + fast[j * stride:(j + 1) * stride]
        workload.cycles.append(cycle + fast[len(panel_ops) * stride:])
    workload.warmup = make(rng, "uniform", 3, "uniform 3-input warmup")
    return workload


# ------------------------------------------------------------------ certify-io

@dataclass
class Certified:
    rc: int
    payload: dict
    rho: object
    sigma: object
    sigma_from_file: bool
    d_eps: float
    min_eig_pt: float
    er: float


def key_dephased(rho):
    """Zero every block of rho that is off-diagonal in the key basis.

    For a private bit with factors (2,A),(d,A),(2,B),(d,B) this is its
    separable companion: (|00><00| + |11><11|)/2 tensored with the shield's
    moduli.
    """
    from ptbounds.linalg import CMatrix

    dims = rho.layout.dims
    keep = np.zeros((2, 2, 2, 2))
    keep[0, 0, 0, 0] = keep[0, 1, 0, 1] = keep[1, 0, 1, 0] = keep[1, 1, 1, 1] = 1.0
    t = rho.mat.reshape(dims + dims)
    masked = t * keep[:, None, :, None, :, None, :, None]
    return CMatrix(masked.reshape(rho.dim, rho.dim), rho.layout, hermitian=True)


def check_certify(family: str, value: int, out: Certified) -> list[str]:
    """Re-serialization, finiteness and the family's identities from the paper."""
    from ptbounds.linalg import matrix_to_json

    problems = []
    if out.rc != 0:
        problems.append(f"exit code {out.rc}")
    if matrix_to_json(out.rho)["data"] != out.payload["rho"]["data"]:
        problems.append("rho does not re-serialize to the file's entries")
    if out.sigma_from_file and (
            matrix_to_json(out.sigma)["data"] != out.payload["sigma_candidate"]["data"]):
        problems.append("sigma does not re-serialize to the file's entries")
    if not _finite(out.d_eps, out.min_eig_pt, out.er):
        problems.append("non-finite certificate")
        return problems
    if out.er < 0.0:
        problems.append(f"er_upper negative: {out.er}")
    params = out.payload.get("params", {})
    if family == "ppt-pbit":
        bound = 1.0 / math.sqrt(value)
        if out.min_eig_pt < -PSD_TOL:
            problems.append(f"not PPT: min eig {out.min_eig_pt}")
        if not out.d_eps <= bound:
            problems.append(f"d_eps {out.d_eps} above 1/sqrt(ds) = {bound}")
        if abs(params["x_pt_trace_norm"] - bound) > IDENTITY_TOL:
            problems.append(f"||X^PT||_1 = {params['x_pt_trace_norm']}, expected {bound}")
    elif family == "hiding":
        if out.min_eig_pt < -PSD_TOL:
            problems.append(f"not PPT: min eig {out.min_eig_pt}")
        if not params["delta"] <= 0.5 ** value:
            problems.append(f"delta {params['delta']} above 2^-m")
    elif family == "private-bit":
        # X = swap/d^2: ||X^PT||_1 = 1/d, rho^PT has eigenvalue -1/(2d), and the
        # key-dephased companion is exactly one bit away.
        if abs(out.d_eps - 1.0 / value) > IDENTITY_TOL:
            problems.append(f"d_eps {out.d_eps}, expected 1/d = {1.0 / value}")
        if abs(out.min_eig_pt + 0.5 / value) > IDENTITY_TOL:
            problems.append(f"min eig of rho^PT {out.min_eig_pt}, expected -1/(2d)")
        if abs(out.er - 1.0) > IDENTITY_TOL:
            problems.append(f"er_upper {out.er}, expected 1 bit")
    return problems


def make_state_and_certify(cli, argv: list[str], path: str) -> Certified:
    """Write a state with the CLI, read it back, and certify the loaded state."""
    from ptbounds import bell, linalg, nonlocality

    rc = cli.main(argv)
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    rho = linalg.matrix_from_json(payload["rho"])
    from_file = "sigma_candidate" in payload
    sigma = (linalg.matrix_from_json(payload["sigma_candidate"]) if from_file
             else key_dephased(rho))
    d_eps = bell.d_eps_membership(rho, sigma)
    min_eig = float(np.linalg.eigvalsh(linalg.partial_transpose(rho).mat).min())
    er = nonlocality.er_upper(rho, sigma)
    return Certified(rc, payload, rho, sigma, from_file, d_eps, min_eig, er)


def certify_io(seed: int, outdir: str, cycles: int = CERTIFY_CYCLES,
               families=CERTIFY_FAMILIES) -> Workload:
    from ptbounds import cli

    rng = np.random.default_rng(seed)
    workload = Workload("certify-io", warmup=None, cycles=[])

    def make(family: str, flag: str, value: int) -> Op:
        path = os.path.join(outdir, f"state-{family}-{value}.json")
        argv = ["make-state", family, flag, str(value), "--output", path]

        def check(out):
            workload.bytes_written += os.path.getsize(path)
            return check_certify(family, value, out)

        return Op(f"{family} {flag.lstrip('-')}={value}",
                  lambda: make_state_and_certify(cli, argv, path), check)

    # The seed orders each cycle.  hiding keeps the CLI's q = 1/3: the family
    # is PPT only up to q = 1/3, and for m = 3 its delta exceeds 2^-m below
    # q = 0.3, although hiding_state accepts any q in (0, 1/2).
    for _ in range(cycles):
        workload.cycles.append([make(*families[i]) for i in rng.permutation(len(families))])
    workload.warmup = make("hiding", "--m", 1)
    return workload


BUILDERS = {
    "repro-seesaw": repro_seesaw,
    "nonlocality-kl": nonlocality_kl,
    "certify-io": certify_io,
}
