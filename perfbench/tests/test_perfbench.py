"""Tests of the benchmark harness: statistics, span arithmetic, validators, smoke runs.

Run from the repository root with ``python3 -m pytest perfbench/tests -q``.
"""

import json
import math
import os
import shutil
import subprocess
import sys
from types import SimpleNamespace

import pytest

import summary
import workloads
from spans import OP, Span, Tracer, self_times
from workloads import (
    check_certify,
    check_chain,
    check_nl,
    check_repro,
    closed_loop,
    make_state_and_certify,
)

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
RUN = os.path.join(BENCH, "run.py")


# ------------------------------------------------------------------ statistics

@pytest.mark.parametrize("n, rank", [(27, 17), (20, 10), (19, 10), (300, 290), (1, 1)])
def test_tail_is_the_highest_percentile_with_ten_beyond(n, rank):
    out = summary.timing_summary([float(i) for i in range(n, 0, -1)])
    assert out["tail_s"] == float(rank)
    assert out["tail_percentile"] == pytest.approx(100.0 * rank / n)
    assert out["tail_samples_beyond"] == n - rank
    assert out["p50_s"] == float(math.ceil(n / 2))
    assert out["samples"] == n
    if n >= 20:
        assert out["tail_samples_beyond"] == 10  # one rank higher would leave 9


# ------------------------------------------------------------------ self times

def test_self_times_on_nested_spans():
    spans = [
        Span(OP, 0.0, 10.0, -1),
        Span("a", 1.0, 6.0, 0),
        Span("b", 2.0, 3.0, 1),
        Span("b", 4.0, 5.0, 1),
        Span("c", 7.0, 9.0, 0),
        Span(OP, 20.0, 21.0, -1),
        Span("c", 20.5, 20.75, 5),
    ]
    selfs = self_times(spans)
    assert selfs == pytest.approx({OP: 3.0 + 0.75, "a": 3.0, "b": 2.0, "c": 2.25})
    # self times partition the top-level spans
    assert sum(selfs.values()) == pytest.approx(11.0)


def test_tracer_wraps_every_importer_and_restores():
    from ptbounds import bell, linalg, states

    original = linalg.partial_transpose
    fam = states.ppt_pbit(4)
    tracer = Tracer()
    tracer.install()
    try:
        assert bell.partial_transpose is not original
        assert linalg.partial_transpose is not original
        tracer.active = True
        with tracer.span(OP):
            bell.d_eps_membership(fam.rho, fam.sigma_candidate)
        tracer.active = False
        bell.d_eps_membership(fam.rho, fam.sigma_candidate)  # inactive: no spans
    finally:
        tracer.restore()
    assert linalg.partial_transpose is original and bell.partial_transpose is original
    names = [s.name for s in tracer.spans]
    assert names.count("linalg.partial_transpose") == 2
    assert names.count("linalg.trace_norm") == 1
    d_eps = names.index("bell.d_eps_membership")
    assert all(s.parent == d_eps for s in tracer.spans if s.name.startswith("linalg."))
    op = tracer.spans[0]
    assert sum(self_times(tracer.spans).values()) == pytest.approx(op.end - op.start)


# ------------------------------------------------------------------ validators

def _report(verdict=True, lhs=1.8):
    payload = {"reports": [
        {"context": "eq8 d=2", "lhs": lhs, "rhs": 2.6, "slack": 2.6 - lhs, "verdict": verdict},
        {"context": "eq10 ds=4 ppt", "lhs": 0.0, "rhs": 1e-10, "slack": 1e-10, "verdict": True},
    ]}
    return json.dumps(payload).encode()


def test_check_repro_accepts_a_good_report():
    raw = _report()
    assert check_repro(0, raw, raw) == []
    assert workloads.seesaw_rows(raw) == {"eq8 d=2": 1.8}


@pytest.mark.parametrize("rc, raw, reference", [
    (1, _report(), _report()),
    (0, _report(verdict=False), _report(verdict=False)),
    (0, _report(lhs=float("nan")), _report(lhs=float("nan"))),
    (0, _report(lhs=1.7), _report(lhs=1.8)),
])
def test_check_repro_flags_a_wrong_report(rc, raw, reference):
    assert check_repro(rc, raw, reference)


def test_check_nl_and_chain_flag_bad_results():
    good = SimpleNamespace(value=0.01, converged=True)
    assert check_nl(good) == []
    assert check_nl(SimpleNamespace(value=-1e-3, converged=True))
    assert check_nl(SimpleNamespace(value=math.inf, converged=True))
    assert check_nl(SimpleNamespace(value=0.01, converged=False))
    assert check_chain(SimpleNamespace(lhs=0.0, mid=0.1, rhs=0.2, verdict=True)) == []
    assert check_chain(SimpleNamespace(lhs=0.3, mid=0.1, rhs=0.2, verdict=False))


def _certified(tmp_path, *args):
    from ptbounds import cli

    path = str(tmp_path / "state.json")
    argv = ["make-state", *args, "--output", path]
    return make_state_and_certify(cli, argv, path)


def test_check_certify_accepts_the_shipped_families(tmp_path):
    assert check_certify("ppt-pbit", 4, _certified(tmp_path, "ppt-pbit", "--ds", "4")) == []
    assert check_certify("hiding", 2, _certified(tmp_path, "hiding", "--m", "2")) == []
    assert check_certify("private-bit", 4, _certified(tmp_path, "private-bit", "--d", "4")) == []


def test_check_certify_flags_a_hiding_state_outside_its_range(tmp_path):
    # hiding_state accepts q = 0.2, but then delta exceeds 2^-m for m = 3
    out = _certified(tmp_path, "hiding", "--m", "3", "--q", "0.2")
    assert any("delta" in p for p in check_certify("hiding", 3, out))


def test_check_certify_flags_a_tampered_file_and_a_wrong_identity(tmp_path):
    out = _certified(tmp_path, "private-bit", "--d", "4")
    out.payload["rho"]["data"][0][0] += 1e-15
    assert any("re-serialize" in p for p in check_certify("private-bit", 4, out))
    out = _certified(tmp_path, "private-bit", "--d", "4")
    assert any("1/d" in p for p in check_certify("private-bit", 6, out))


# ------------------------------------------------------------------ smoke runs

def test_repro_cycle_follows_the_weights(tmp_path):
    from collections import Counter

    wl = workloads.repro_seesaw(3, str(tmp_path))
    assert len(wl.cycles) == 1
    assert Counter(op.label for op in wl.cycles[0]) == workloads.REPRO_WEIGHT
    assert wl.warmup.label == "eq8 d=2"


def test_smoke_repro_seesaw_traced(tmp_path):
    grid = (("eq8", "--d", 2), ("eq8", "--d", 6))
    wl = workloads.repro_seesaw(5, str(tmp_path), grid=grid,
                                weight={"eq8 d=2": 3, "eq8 d=6": 1})
    tracer = Tracer()
    tracer.install()
    try:
        records = closed_loop(wl, 0.0, tracer) + closed_loop(wl, 0.0, tracer)
    finally:
        tracer.restore()
    # eq8 d=2 runs three times per cycle, with CLI seeds 500, 500 and 501;
    # every repeat of a seed must reproduce its first report byte for byte
    assert sorted(r.label for r in records) == ["eq8 d=2"] * 6 + ["eq8 d=6"] * 2
    assert [r.problems for r in records] == [[]] * 8
    assert set(wl.lhs) == {("eq8 d=2", 500), ("eq8 d=2", 501), ("eq8 d=6", 500)}
    names = [s.name for s in tracer.spans]
    assert names.count("cli.main") == 8 and names.count("bell.seesaw") == 8
    selfs = self_times(tracer.spans)
    op_s = sum(s.end - s.start for s in tracer.spans if s.name == OP)
    assert sum(selfs.values()) == pytest.approx(op_s)


def test_smoke_nonlocality_kl(tmp_path):
    pattern = (("uniform", 3), ("uniform", 4), ("chain", 3))
    wl = workloads.nonlocality_kl(5, str(tmp_path), cycles=1, pattern=pattern, panel=(0.9,))
    records = closed_loop(wl, 0.0)
    assert [r.label.split()[0] for r in records] == ["optimize", "uniform", "uniform", "chain"]
    assert [r.problems for r in records] == [[]] * len(records)
    assert wl.gaps and max(wl.gaps) <= 1e-6


def test_smoke_certify_io(tmp_path):
    families = (("ppt-pbit", "--ds", 4), ("hiding", "--m", 1), ("private-bit", "--d", 2))
    wl = workloads.certify_io(5, str(tmp_path), cycles=1, families=families)
    records = closed_loop(wl, 0.0)
    assert [r.problems for r in records] == [[]] * 3
    assert wl.bytes_written > 0


def test_same_seed_same_inputs(tmp_path):
    def labels(wl):
        return [[op.label for op in cycle] for cycle in wl.cycles]

    a = workloads.certify_io(7, str(tmp_path))
    b = workloads.certify_io(7, str(tmp_path))
    c = workloads.certify_io(8, str(tmp_path))
    assert labels(a) == labels(b) != labels(c)

    def nl_outcomes(seed):
        wl = workloads.nonlocality_kl(seed, str(tmp_path), cycles=1,
                                      pattern=(("uniform", 3),) * 3, panel=())
        return [op.run()[0].p.tolist() for op in wl.cycles[0]]

    assert nl_outcomes(7) == nl_outcomes(7) != nl_outcomes(8)


# ------------------------------------------------------------ the command line

@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_command_prints_the_declared_metrics(trace, section):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = {m["name"]: m["unit"] for m in json.load(fh)[section]}
    proc = subprocess.run([sys.executable, RUN, "--workload", "nonlocality-kl", "--seed", "3",
                           "--seconds", "0", "--trace", trace],
                          cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared


def test_command_fails_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__", "tests"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "certify-io",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
