"""Acceptance suite: one test per shipped guarantee, one PASS/FAIL line each.

Each test collects its sub-checks into a failure list, prints a single
verdict line for the criterion, and then asserts. Frozen numeric anchors
were computed with independent oracles before being pinned here.
"""

import math
import subprocess
import sys
import time

import numpy as np

from ptbounds import (
    Box,
    CMatrix,
    LocalPolytope,
    MeasurementFamily,
    SystemLayout,
    ValidationError,
    assert_density,
    box_from,
    chsh,
    classical_value,
    d_eps_membership,
    er_upper,
    hiding_state,
    max_entangled,
    nonlocality_N,
    op_norm,
    partial_transpose,
    ppt_pbit,
    private_bit,
    seesaw,
    seesaw_bound,
    swap_x,
    tensor,
    thm2_chain_check,
    trace_norm,
)
from ptbounds.bell import BellFunctional

from conftest import (
    dense_bell_operator,
    dense_filter,
    key_lifted_measurements,
    random_binary_povm,
    random_bipartite_density,
    random_filter,
    random_separable,
    transposition_bound,
    tsirelson_measurements,
)

TSIRELSON = 2.0 * math.sqrt(2.0)
# independently optimized KL distance from the Tsirelson box to the local
# polytope at uniform inputs, frozen before the solver below existed
TSIRELSON_BOX_N = 0.0462738469


def _report(num: int, desc: str, failures: list) -> None:
    ok = not failures
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {desc}")
    assert ok, f"criterion {num}: " + "; ".join(failures)


def _check(failures: list, cond: bool, msg: str) -> None:
    if not cond:
        failures.append(msg)


def _random_meas(rng, d: int, nx: int = 2, ny: int = 2) -> MeasurementFamily:
    return MeasurementFamily(
        [random_binary_povm(rng, d) for _ in range(nx)],
        [random_binary_povm(rng, d) for _ in range(ny)],
    )


def test_criterion_01_classical_value():
    failures = []
    f = chsh()
    _check(failures, classical_value(f) == 2.0, "classical value is not exactly 2")
    best = math.inf
    for _ in range(10):
        t0 = time.perf_counter()
        classical_value(f)
        best = min(best, time.perf_counter() - t0)
    _check(failures, best < 1e-3, f"enumeration took {best:.2e} s")
    _report(1, "CHSH classical value is exactly 2 in under 1 ms", failures)


def test_criterion_02_tsirelson_recovery():
    failures = []
    t0 = time.perf_counter()
    res = seesaw(max_entangled(2), chsh(), restarts=64, seed=0)
    elapsed = time.perf_counter() - t0
    _check(failures, res.value >= TSIRELSON - 1e-4,
           f"seesaw reached only {res.value:.10f}")
    cert = op_norm(dense_bell_operator(chsh(), res.measurements))
    _check(failures, abs(cert - res.value) <= 1e-8,
           f"certificate gap {abs(cert - res.value):.2e}")
    _check(failures, elapsed < 1.0, f"seesaw took {elapsed:.2f} s")
    _report(2, "seesaw recovers the Tsirelson value with a matching certificate",
            failures)


def test_criterion_03_transposition_bound_sweep():
    failures = []
    rng = np.random.default_rng(2024)
    t0 = time.perf_counter()
    worst = math.inf
    for _ in range(200):
        f = BellFunctional(rng.normal(size=(2, 2, 2, 2)))
        lhs, rhs = transposition_bound(f, _random_meas(rng, 2),
                                       random_bipartite_density(rng, 2, 2),
                                       random_bipartite_density(rng, 2, 2))
        worst = min(worst, rhs - lhs)
    for _ in range(50):
        f = BellFunctional(rng.normal(size=(2, 2, 2, 2)))
        lhs, rhs = transposition_bound(f, _random_meas(rng, 3),
                                       random_bipartite_density(rng, 3, 3),
                                       random_bipartite_density(rng, 3, 3))
        worst = min(worst, rhs - lhs)
    elapsed = time.perf_counter() - t0
    _check(failures, worst >= -1e-9, f"worst slack {worst:.2e}")
    _check(failures, elapsed < 30.0, f"sweep took {elapsed:.1f} s")
    _report(3, "value gap never exceeds the transposition product on 250 instances",
            failures)


def test_criterion_04_swap_private_bit_family():
    failures = []
    t0 = time.perf_counter()
    for d in (2, 3, 4):
        x = swap_x(d)
        value = seesaw(private_bit(x), chsh(), restarts=64, seed=0).value
        tight_rhs = 2.0 + (math.sqrt(2.0) + 1.0) / (2.0 * math.sqrt(2.0) * d)
        obs_rhs = 2.0 + TSIRELSON * trace_norm(partial_transpose(x))
        _check(failures, value <= tight_rhs + 1e-6,
               f"d={d}: value {value:.8f} exceeds {tight_rhs:.8f}")
        _check(failures, value <= obs_rhs + 1e-6,
               f"d={d}: value {value:.8f} exceeds observation rhs {obs_rhs:.8f}")
    elapsed = time.perf_counter() - t0
    _check(failures, elapsed < 60.0, f"sweep took {elapsed:.1f} s")
    _report(4, "swap-family private bits stay below both dimension-decay bounds",
            failures)


def test_criterion_05_ppt_private_bit_family():
    failures = []
    t0 = time.perf_counter()
    for ds in (4, 9):
        fam = ppt_pbit(ds)
        try:
            assert_density(fam.rho, f"padded private bit ds={ds}")
        except (ValidationError, ValueError) as exc:
            failures.append(f"ds={ds}: state invalid ({exc})")
            continue
        min_eig = float(np.linalg.eigvalsh(partial_transpose(fam.rho).mat).min())
        _check(failures, min_eig >= -1e-10, f"ds={ds}: PT min eig {min_eig:.2e}")
        dist = trace_norm(
            CMatrix(
                partial_transpose(fam.rho).mat
                - partial_transpose(fam.sigma_candidate).mat,
                fam.rho.layout,
                hermitian=True,
            )
        )
        _check(failures, dist <= 1.0 / math.sqrt(ds) + 1e-9,
               f"ds={ds}: PT distance {dist:.8f}")
        rep = seesaw_bound(chsh(), fam.rho,
                           TSIRELSON * d_eps_membership(fam.rho, fam.sigma_candidate),
                           "candidate-relaxed violation bound", 4, 0)
        _check(failures, rep.verdict, f"ds={ds}: report verdict false")
    elapsed = time.perf_counter() - t0
    _check(failures, elapsed < 30.0, f"checks took {elapsed:.1f} s")
    _report(5, "padded private bits are PPT and satisfy the relaxed bound", failures)


def test_criterion_06_hiding_family_structure():
    failures = []
    t0 = time.perf_counter()
    fam = hiding_state(m=1, d_shield=2, q=1.0 / 3.0)
    try:
        assert_density(fam.rho, "hiding state")
    except (ValidationError, ValueError) as exc:
        failures.append(f"state invalid ({exc})")
    rho_pt = partial_transpose(fam.rho)
    min_eig = float(np.linalg.eigvalsh(rho_pt.mat).min())
    _check(failures, min_eig >= -1e-10, f"PT min eig {min_eig:.2e}")
    delta = fam.params["delta"]
    _check(failures, abs(delta - 1.0 / 6.0) <= 1e-12, f"delta {delta!r}")
    _check(failures, delta <= 0.5, "delta exceeds 1/2")
    doubled = tensor(fam.rho, rho_pt)
    eps = d_eps_membership(doubled, tensor(fam.sigma_candidate,
                                           partial_transpose(fam.sigma_candidate)))
    rep = seesaw_bound(chsh(), doubled, TSIRELSON * eps, "candidate-relaxed violation bound",
                       8, 0)
    _check(failures, rep.verdict, "doubled-state report verdict false")
    _check(failures, rep.rhs <= 2.0 + TSIRELSON + 1e-9,
           f"rhs {rep.rhs:.8f} exceeds classical plus full quantum gap")
    elapsed = time.perf_counter() - t0
    _check(failures, elapsed < 30.0, f"checks took {elapsed:.1f} s")
    _report(6, "recursive hiding family passes structural and bound checks", failures)


def test_criterion_07_nonlocality_measure():
    failures = []
    rng = np.random.default_rng(2025)
    t0 = time.perf_counter()
    poly = LocalPolytope.for_scenario(2, 2, 2, 2)
    worst = 0.0
    for _ in range(50):
        w = rng.dirichlet(np.ones(poly.vertices.shape[0]))
        p = (w @ poly.vertices).reshape(2, 2, 2, 2)
        worst = max(worst, nonlocality_N(Box(p)).value)
    _check(failures, worst <= 1e-7, f"local mixture measured {worst:.2e}")
    box = box_from(max_entangled(2), tsirelson_measurements())
    uni = nonlocality_N(box, mode="uniform").value
    opt = nonlocality_N(box, mode="optimize").value
    _check(failures, uni > 0.0, "uniform-input value is not positive")
    _check(failures, abs(uni - TSIRELSON_BOX_N) <= 1e-3,
           f"uniform value {uni:.10f} off the oracle")
    _check(failures, abs(opt - TSIRELSON_BOX_N) <= 1e-3,
           f"optimized value {opt:.10f} off the oracle")
    elapsed = time.perf_counter() - t0
    _check(failures, elapsed < 60.0, f"checks took {elapsed:.1f} s")
    _report(7, "nonlocality vanishes on local boxes and matches the oracle", failures)


def test_criterion_08_single_copy_chain():
    failures = []
    rng = np.random.default_rng(2026)
    t0 = time.perf_counter()
    fam = ppt_pbit(4)
    chain = thm2_chain_check(fam.rho, fam.sigma_candidate, key_lifted_measurements(4))
    _check(failures, chain.verdict, "padded private bit chain verdict false")
    for i in range(50):
        rho = random_bipartite_density(rng, 2, 2)
        sigma = random_separable(rng, 2, 2)
        chain = thm2_chain_check(rho, sigma, _random_meas(rng, 2))
        _check(failures, chain.verdict, f"instance {i}: chain verdict false")
    elapsed = time.perf_counter() - t0
    _check(failures, elapsed < 60.0, f"checks took {elapsed:.1f} s")
    _report(8, "measured divergence chain holds on 51 single-copy instances",
            failures)


def test_criterion_09_filtered_chain():
    failures = []
    rng = np.random.default_rng(2027)
    t0 = time.perf_counter()
    fam = ppt_pbit(4)
    meas = key_lifted_measurements(4)
    rhs = er_upper(partial_transpose(fam.rho),
                   partial_transpose(fam.sigma_candidate))
    for i in range(20):
        fa = random_filter(rng, 8)
        fb = random_filter(rng, 8)
        filtered, prob = dense_filter(fam.rho, fa, fb)
        lhs = prob * nonlocality_N(box_from(filtered, meas)).value
        _check(failures, lhs <= rhs + 1e-7,
               f"filter {i}: {lhs:.2e} exceeds {rhs:.2e}")
    elapsed = time.perf_counter() - t0
    _check(failures, elapsed < 60.0, f"checks took {elapsed:.1f} s")
    _report(9, "filtered nonlocality stays below the transposed-pair entropy",
            failures)


def test_criterion_10_entropy_upper_bounds():
    failures = []
    t0 = time.perf_counter()
    cc = np.zeros((4, 4))
    cc[0, 0] = 0.5
    cc[3, 3] = 0.5
    sigma = CMatrix(cc, SystemLayout.bipartite(2, 2), hermitian=True)
    val = er_upper(max_entangled(2), sigma)
    _check(failures, abs(val - 1.0) <= 1e-9, f"candidate entropy {val:.10f}")
    elapsed = time.perf_counter() - t0
    _check(failures, elapsed < 5.0, f"checks took {elapsed:.1f} s")
    _report(10, "entropy upper bound behaves as stated", failures)


def test_criterion_11_cli_determinism():
    failures = []
    cmd = [sys.executable, "-m", "ptbounds.cli", "repro", "eq8", "--seed", "7"]
    first = subprocess.run(cmd, capture_output=True, timeout=300)
    second = subprocess.run(cmd, capture_output=True, timeout=300)
    _check(failures, first.returncode == 0, f"first run exited {first.returncode}")
    _check(failures, second.returncode == 0, f"second run exited {second.returncode}")
    _check(failures, first.stdout == second.stdout, "stdout differs between runs")
    _report(11, "seeded reproduction output is byte-identical across runs", failures)
