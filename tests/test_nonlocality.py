"""Tests for the nonlocality measure, entropy chains, and filtered statistics."""

import itertools
import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ptbounds import (
    Box,
    CMatrix,
    LocalPolytope,
    MeasurementFamily,
    SystemLayout,
    ValidationError,
    box_from,
    chsh,
    er_upper,
    hiding_state,
    max_entangled,
    nonlocality_N,
    partial_transpose,
    permute_factors,
    ppt_pbit,
    rel_entropy,
    seesaw,
    thm2_chain_check,
)
import ptbounds.nonlocality as nonlocality_module
from ptbounds.nonlocality import (
    _LOG_CLAMP,
    _face_direction,
    _inner_infimum,
    _line_search,
    _pair_kl,
)

from conftest import (
    dense_filter,
    key_lifted_measurements,
    random_binary_povm,
    random_bipartite_density,
    random_filter,
    random_separable,
    tsirelson_measurements,
)

TSIRELSON_BOX_N = 0.0462738469
DATA = Path(__file__).parent / "data"


def tsirelson_box() -> Box:
    phi = max_entangled(2)
    return box_from(phi, tsirelson_measurements())


def vertex_box(sizes: tuple[int, int, int, int], index: int) -> Box:
    """The deterministic box of row ``index`` of the polytope of scenario ``sizes``."""
    return Box(LocalPolytope.for_scenario(*sizes).vertices[index].reshape(sizes))


def test_kl_basic_values():
    p = np.array([[0.5, 0.5], [1.0, 0.0], [0.5, 0.5], [0.0, 1.0]])
    q = np.array([[0.5, 0.5], [0.5, 0.5], [1.0, 0.0], [0.0, 1.0]])
    values = _pair_kl(p, q)
    assert values[0] == 0.0
    assert values[1] == pytest.approx(1.0, abs=1e-12)
    assert values[2] == math.inf
    assert values[3] == 0.0


def test_local_polytope_chsh_vertices():
    poly = LocalPolytope.for_scenario(2, 2, 2, 2)
    assert poly.vertices.shape == (16, 16)
    seen = set()
    for i in range(poly.vertices.shape[0]):
        box = vertex_box((2, 2, 2, 2), i)
        table = box.p
        assert set(np.unique(table)).issubset({0.0, 1.0})
        assert np.abs(table.sum(axis=(2, 3)) - 1.0).max() <= 1e-12
        seen.add(table.tobytes())
    assert len(seen) == 16


def test_local_polytope_vertex_guard():
    with pytest.raises(ValidationError):
        LocalPolytope.for_scenario(5, 5, 4, 4)


def test_nonlocality_vanishes_on_vertices():
    for i in (0, 5, 10, 15):
        res = nonlocality_N(vertex_box((2, 2, 2, 2), i))
        assert res.value <= 1e-9
        assert res.converged


def test_nonlocality_vanishes_on_local_mixtures():
    rng = np.random.default_rng(50)
    poly = LocalPolytope.for_scenario(2, 2, 2, 2)
    for _ in range(10):
        w = rng.dirichlet(np.ones(16))
        p = (w @ poly.vertices).reshape(2, 2, 2, 2)
        res = nonlocality_N(Box(p))
        assert res.value <= 1e-7


def test_nonlocality_of_tsirelson_box_uniform_inputs():
    res = nonlocality_N(tsirelson_box(), mode="uniform")
    assert res.value == pytest.approx(TSIRELSON_BOX_N, abs=1e-7)
    assert res.converged
    assert np.abs(res.input_dist - 0.25).max() <= 1e-12


def test_nonlocality_optimized_inputs_dominate_uniform():
    box = tsirelson_box()
    uniform = nonlocality_N(box, mode="uniform")
    opt = nonlocality_N(box, mode="optimize")
    assert opt.value >= uniform.value - 1e-9
    assert opt.input_dist.min() >= -1e-15
    assert opt.input_dist.sum() == pytest.approx(1.0, abs=1e-9)


def test_nonlocality_result_json():
    res = nonlocality_N(tsirelson_box(), mode="uniform")
    payload = res.to_json()
    assert payload["value"] == pytest.approx(res.value)
    assert payload["converged"] is True
    assert len(payload["input_dist"]) == 4


def test_nonlocality_classical_data_processing():
    # post-processing outputs with local stochastic maps cannot raise the measure
    rng = np.random.default_rng(51)
    box = tsirelson_box()
    base = nonlocality_N(box).value
    for _ in range(5):
        ka = rng.random(size=(2, 2))
        ka /= ka.sum(axis=0, keepdims=True)
        kb = rng.random(size=(2, 2))
        kb /= kb.sum(axis=0, keepdims=True)
        q = np.einsum("ca,db,xyab->xycd", ka, kb, box.p)
        processed = nonlocality_N(Box(q)).value
        assert processed <= base + 1e-9


def test_kl_classical_data_processing():
    # coarse-graining through a stochastic map cannot increase the divergence
    rng = np.random.default_rng(56)
    for _ in range(20):
        p = rng.dirichlet(np.ones(6))
        q = rng.dirichlet(np.ones(6))
        k = rng.random(size=(4, 6))
        k /= k.sum(axis=0, keepdims=True)
        assert _pair_kl((k @ p)[None], (k @ q)[None])[0] <= _pair_kl(p[None], q[None])[0] + 1e-9


def test_measured_kl_is_bounded_by_relative_entropy():
    rng = np.random.default_rng(52)
    for _ in range(20):
        rho = random_bipartite_density(rng, 2, 2)
        sigma = random_bipartite_density(rng, 2, 2)
        meas = MeasurementFamily(
            [random_binary_povm(rng, 2) for _ in range(2)],
            [random_binary_povm(rng, 2) for _ in range(2)],
        )
        p = box_from(rho, meas).p.reshape(4, 4)
        q = box_from(sigma, meas).p.reshape(4, 4)
        assert _pair_kl(p, q).mean() <= rel_entropy(rho, sigma) + 1e-9


def test_er_upper_values(phi_plus):
    assert er_upper(phi_plus, phi_plus) == pytest.approx(0.0, abs=1e-9)
    cc = np.zeros((4, 4))
    cc[0, 0] = 0.5
    cc[3, 3] = 0.5
    sigma = CMatrix(cc, SystemLayout.bipartite(2, 2), hermitian=True)
    assert er_upper(phi_plus, sigma) == pytest.approx(1.0, abs=1e-9)


def test_er_upper_warns_on_support_violation(phi_plus):
    pure_prod = np.zeros((4, 4))
    pure_prod[0, 0] = 1.0
    sigma = CMatrix(pure_prod, SystemLayout.bipartite(2, 2), hermitian=True)
    with pytest.warns(RuntimeWarning):
        assert er_upper(phi_plus, sigma) == math.inf


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, complex(0.0, math.inf)],
                         ids=["nan", "inf", "-inf", "inf_imag"])
@pytest.mark.parametrize("which", ["rho", "sigma"])
def test_er_upper_refuses_non_finite_states(which, bad):
    # refused before any warning: the bound is not read as an infinite one
    layout = SystemLayout.bipartite(2, 2)
    arr = np.eye(4, dtype=np.complex128) / 4
    arr[0, 1] = bad
    states = [CMatrix(arr, layout), CMatrix(np.eye(4) / 4, layout)]
    if which == "sigma":
        states.reverse()
    with pytest.raises(ValidationError, match=f"^rel_entropy {which} expects a finite matrix$"):
        er_upper(*states)


def test_er_upper_on_transposed_private_bit_pair():
    fam = ppt_pbit(4)
    rho_pt = partial_transpose(fam.rho)
    sigma_pt = partial_transpose(fam.sigma_candidate)
    assert er_upper(rho_pt, sigma_pt) == pytest.approx(1.0 / 3.0, abs=1e-9)


def test_rel_entropy_refuses_states_on_different_layouts():
    # equal dimension, the shield and key factors swapped: this returned inf
    # (and so did er_upper and the chain's rhs), against 2/3 on one layout
    fam = ppt_pbit(4)
    rho, sigma = fam.rho, fam.sigma_candidate
    swapped = permute_factors(sigma, [1, 0, 3, 2])
    assert rel_entropy(rho, sigma) == pytest.approx(2.0 / 3.0, abs=1e-9)
    message = (r"^rel_entropy needs both states on one layout, got "
               r"\(\(2, 'A'\), \(4, 'A'\), \(2, 'B'\), \(4, 'B'\)\) and "
               r"\(\(4, 'A'\), \(2, 'A'\), \(4, 'B'\), \(2, 'B'\)\)$")
    for call in (lambda: rel_entropy(rho, swapped), lambda: er_upper(rho, swapped),
                 lambda: thm2_chain_check(rho, swapped, key_lifted_measurements(4))):
        with pytest.raises(ValidationError, match=message):
            call()
    # a matrix without a layout is read as it is
    assert rel_entropy(CMatrix(rho.mat), sigma) == rel_entropy(rho, sigma)
    assert rel_entropy(rho, CMatrix(swapped.mat)) == math.inf


def test_chain_check_on_identical_separable_states(tsirelson_meas):
    rng = np.random.default_rng(55)
    rho = random_separable(rng, 2, 2)
    chain = thm2_chain_check(rho, rho, tsirelson_meas)
    assert chain.lhs <= 1e-7
    assert chain.mid == pytest.approx(0.0, abs=1e-9)
    assert chain.rhs == pytest.approx(0.0, abs=1e-9)
    assert chain.verdict


def test_chain_check_on_ppt_private_bit():
    fam = ppt_pbit(4)
    meas = key_lifted_measurements(4)
    chain = thm2_chain_check(fam.rho, fam.sigma_candidate, meas)
    assert chain.verdict
    assert chain.lhs <= chain.mid + 1e-7
    assert chain.mid <= chain.rhs + 1e-7
    payload = chain.to_json()
    assert payload["verdict"] is True


@pytest.mark.parametrize("build", [lambda: hiding_state(m=1), lambda: hiding_state(m=2),
                                   lambda: ppt_pbit(4)], ids=["hiding-m1", "hiding-m2", "ppt-pbit-4"])
def test_chain_check_at_the_seesaw_measurements(build):
    fam = build()
    meas = seesaw(fam.rho, chsh(), restarts=32, seed=0).measurements
    chain = thm2_chain_check(fam.rho, fam.sigma_candidate, meas)
    assert chain.verdict
    assert math.isfinite(chain.lhs) and math.isfinite(chain.mid)


def seesaw_box(m: int) -> Box:
    """The box of hiding_state(m) under its CHSH seesaw measurements (seed 0,
    32 restarts), saved as produced.  It equals the box of the separable
    companion to rounding, so it is local, and it has rows like
    (1, 0, 0, 8e-33): an entry at rounding level next to exact zeros."""
    return Box.from_json(json.loads((DATA / f"hiding_m{m}_chsh_seesaw_box.json").read_text()))


@pytest.mark.parametrize("mode", ["uniform", "optimize"])
@pytest.mark.parametrize("m", [1, 2])
def test_nonlocality_vanishes_on_the_seesaw_boxes_of_hiding_states(m, mode):
    res = nonlocality_N(seesaw_box(m), mode=mode)
    assert res.converged
    assert abs(res.value) <= 1e-12


def chained_box(n: int = 3, v: float = 0.95) -> Box:
    """Noisy Phi+ at visibility v under the n-input chained-Bell settings:
    observables cos(t) Z + sin(t) X at t = 2k pi / 2n for Alice and
    (2k + 1) pi / 2n for Bob, so neighbouring settings correlate as
    v cos(pi / 2n)."""
    rho = CMatrix(v * max_entangled(2).mat + (1.0 - v) * np.eye(4) / 4.0,
                  SystemLayout.bipartite(2, 2), hermitian=True)

    def povm(t):
        obs = np.array([[math.cos(t), math.sin(t)], [math.sin(t), -math.cos(t)]])
        return [(np.eye(2) + obs) / 2.0, (np.eye(2) - obs) / 2.0]

    return box_from(rho, MeasurementFamily(
        [povm(2 * k * math.pi / (2 * n)) for k in range(n)],
        [povm((2 * k + 1) * math.pi / (2 * n)) for k in range(n)]))


def test_the_chained_box_fixture_is_nonlocal_in_both_modes():
    # the box the CI runs through `ptbounds nonlocality --mode optimize`
    saved = Box.from_json(json.loads((DATA / "noisy_phi_plus_chained3_box.json").read_text()))
    assert np.abs(saved.p - chained_box().p).max() <= 1e-15
    uniform = nonlocality_N(saved)
    opt = nonlocality_N(saved, mode="optimize")
    assert uniform.converged and opt.converged
    assert uniform.value >= 1e-3
    assert opt.value >= uniform.value - 1e-9


# N of the chained boxes at visibility 0.9, to ten digits
_CHAINED_N = {3: 0.0183307769, 4: 0.0121819699}


def _width(res) -> float:
    return res.upper - (res.value - res.gap)


@pytest.mark.parametrize("n", sorted(_CHAINED_N))
def test_optimize_mode_certifies_the_chained_boxes(n):
    # the supergradient ascent with restarts returned 0.0178195 and 0.0107441
    # here, both below N and reported as converged
    res = nonlocality_N(chained_box(n, 0.9), mode="optimize")
    assert res.converged
    assert res.value - res.gap <= _CHAINED_N[n] <= res.upper
    assert _width(res) <= 1e-7


def test_the_chained4_box_fixture_is_its_construction():
    # the box the CI runs through `ptbounds nonlocality --mode optimize`,
    # checking that its interval contains N
    saved = Box.from_json(json.loads((DATA / "noisy_phi_plus_chained4_box.json").read_text()))
    assert np.array_equal(saved.p, chained_box(4, 0.9).p)


@pytest.mark.parametrize("box", [lambda: chained_box(2, 0.9), lambda: chained_box(3, 0.9),
                                 lambda: chained_box(4, 0.9), tsirelson_box],
                         ids=["chained2", "chained3", "chained4", "tsirelson"])
def test_optimize_mode_returns_an_equalizer(box):
    # at the optimum the per-pair KLs equal N on the support of p and are no
    # larger off it.  The returned weights minimize at the p of the best lower
    # end while the upper end may come from another step, so the KLs at them
    # are held to a few widths: they came within 1.8 widths on these boxes.
    box = box()
    res = nonlocality_N(box, mode="optimize")
    poly = LocalPolytope.for_scenario(box.nx, box.ny, box.na, box.nb)
    rows = box.p.reshape(box.nx * box.ny, -1)
    per_pair = _pair_kl(rows, (res.inner_weights @ poly.vertices).reshape(rows.shape))
    tol = 3.0 * _width(res) + 1e-12
    support = res.input_dist >= 1e-3
    assert np.abs(per_pair[support] - res.value).max() <= tol
    assert per_pair.max() <= res.value + tol
    # the chained inequality weighs the 2n neighbouring pairs (all 4 at n = 2)
    assert np.count_nonzero(support) == min(2 * box.nx, box.nx * box.ny)


def _optimize_panel():
    yield from (tsirelson_box(), chained_box(), chained_box(4, 0.9), seesaw_box(1), seesaw_box(2))
    yield from _pr_vertex_mixtures(63, 3, (0.2, 0.8))
    # its optimal p is zero on 8 of 16 pairs: the interval does not close
    yield Box.from_json(json.loads((DATA / "zero_entry_4input_box.json").read_text()))


def test_optimize_mode_converges_exactly_when_its_interval_closes():
    results = [nonlocality_N(box, mode="optimize") for box in _optimize_panel()]
    for res in results:
        assert res.value - res.gap <= res.upper
        assert res.converged == (_width(res) <= 1e-7)
    assert not results[-1].converged
    assert all(res.converged for res in results[:-1])


def test_optimize_mode_is_deterministic():
    first, second = (nonlocality_N(chained_box(4, 0.9), mode="optimize") for _ in range(2))
    assert (first.value, first.gap, first.upper, first.iterations, first.converged) == (
        second.value, second.gap, second.upper, second.iterations, second.converged)
    assert first.inner_weights.tobytes() == second.inner_weights.tobytes()
    assert first.input_dist.tobytes() == second.input_dist.tobytes()


def _em_measure(box: Box, tol: float = 1e-13, max_iters: int = 100_000) -> float:
    """The measure at uniform inputs by the multiplicative update of the local
    weights, w_j <- w_j sum_i p_i V_ij / (V w)_i (Cover, IEEE TIT 30, 369
    (1984)), which maximizes sum_i p_i log (V w)_i and never zeroes a weight.
    It stops at the optimality condition max_j sum_i p_i V_ij / (V w)_i <= 1 + tol."""
    poly = LocalPolytope.for_scenario(box.nx, box.ny, box.na, box.nb)
    pg = box.p.reshape(-1)
    on = pg > 0.0
    pg = pg[on]
    p = pg / (box.nx * box.ny)
    v = poly.vertices[:, on].T
    w = np.full(v.shape[1], 1.0 / v.shape[1])
    for _ in range(max_iters):
        ratio = v.T @ (p / (v @ w))
        if ratio.max() <= 1.0 + tol:
            return float(p @ np.log2(pg / (v @ w)))
        w = w * ratio
    raise AssertionError("EM oracle did not converge")


def _tiny_entry_boxes(eps: float) -> list[Box]:
    """Boxes with one row (1 - eps, 0, 0, eps): the pattern of the hiding seesaw
    boxes, whose optimum puts weight of order eps on one vertex, a deterministic
    box and a noisy PR box."""
    pattern = np.array([[0.5, 0.5, 0, 0], [1 - eps, 0, 0, eps], [0, 0, 0.5, 0.5], [0, 0, 1, 0]])
    deterministic = np.array([[1.0, 0, 0, 0]] * 4)
    deterministic[0] = [1 - eps, 0, 0, eps]
    noisy_pr = 0.8 * np.array([[0.5, 0, 0, 0.5]] * 3 + [[0, 0.5, 0.5, 0]]) + 0.05
    noisy_pr[0] = [1 - eps, 0, 0, eps]
    return [Box(rows.reshape(2, 2, 2, 2))
            for rows in (pattern, deterministic, noisy_pr)]


def _uniform_solve(box: Box, gap_tol: float) -> tuple[float, float]:
    """The uniform-input solve that nonlocality_N runs, to the gap target gap_tol: (value, gap)."""
    poly = LocalPolytope.for_scenario(2, 2, 2, 2)
    w, gap, _ = _inner_infimum(box.p.reshape(-1), np.full(16, 0.25), poly.vertices,
                               poly.start, gap_tol=gap_tol)
    rows = box.p.reshape(4, 4)
    return float(_pair_kl(rows, (w @ poly.vertices).reshape(4, 4)).mean()), gap


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("exponent", [3, 10, 30, 100, 200, 250, 299, 300])
def test_nonlocality_matches_the_em_oracle_on_a_tiny_entry(exponent):
    for box in _tiny_entry_boxes(10.0 ** -exponent):
        value, gap = _uniform_solve(box, gap_tol=1e-10)
        assert gap <= 1e-10
        assert value == pytest.approx(_em_measure(box), rel=0.0, abs=1e-9)


@pytest.mark.parametrize("eps", [1e-308, 1e-310, 1e-320])
def test_a_subnormal_entry_reads_as_zero(eps):
    # the entry eps is below _LOG_CLAMP, where a pairwise step of the clamped
    # solve could empty it and give N = inf; read as 0 it moves N by less than
    # 1e-300, and both local boxes give a finite, converged value at the EM
    # oracle's (about 1e-13 on the first box, 0 on the one-input box)
    pattern = _tiny_entry_boxes(eps)[0]
    one_input = Box(np.array([eps, 0.0, 0.0, 1.0]).reshape(1, 1, 2, 2))
    for box in (pattern, one_input):
        for mode in ("uniform", "optimize"):
            res = nonlocality_N(box, mode=mode)
            assert math.isfinite(res.value)
            assert res.converged is True
            assert res.value == pytest.approx(_em_measure(box), rel=0.0, abs=1e-9)


@pytest.mark.parametrize("exponent", [4, 5, 6])
def test_inner_infimum_converges_on_the_tiny_entry_boxes_at_moderate_eps(exponent):
    # the optimum puts weight of order eps on one vertex, where the curvature
    # is of order 1/eps: pairwise steps alone leave the gap near 1e-6 here for
    # 50,000 iterations, and the face Newton steps must close it
    poly = LocalPolytope.for_scenario(2, 2, 2, 2)
    for box in _tiny_entry_boxes(10.0 ** -exponent):
        _, gap, _ = _inner_infimum(box.p.reshape(-1), np.full(16, 0.25), poly.vertices,
                                   poly.start, max_iters=5_000)
        assert gap <= 1e-7


def test_chain_check_random_instances():
    rng = np.random.default_rng(53)
    for _ in range(5):
        rho = random_bipartite_density(rng, 2, 2)
        sigma = random_separable(rng, 2, 2)
        meas = MeasurementFamily(
            [random_binary_povm(rng, 2) for _ in range(2)],
            [random_binary_povm(rng, 2) for _ in range(2)],
        )
        assert thm2_chain_check(rho, sigma, meas).verdict


def test_chain_check_tolerates_infinite_entropy(tsirelson_meas, phi_plus):
    pure_prod = np.zeros((4, 4))
    pure_prod[0, 0] = 1.0
    sigma = CMatrix(pure_prod, SystemLayout.bipartite(2, 2), hermitian=True)
    chain = thm2_chain_check(phi_plus, sigma, tsirelson_meas)
    assert chain.rhs == math.inf
    assert chain.verdict
    assert "infinite" in chain.context


def test_dense_filter_identity_keeps_state(phi_plus):
    # the dense filter checks criterion 9's filtered chain
    out, prob = dense_filter(phi_plus, np.eye(2), np.eye(2))
    assert prob == pytest.approx(1.0, abs=1e-12)
    assert np.abs(out.mat - phi_plus.mat).max() <= 1e-12


def test_dense_filter_rank_one_projects(phi_plus):
    proj = np.diag([1.0, 0.0])
    out, prob = dense_filter(phi_plus, proj, np.eye(2))
    assert prob == pytest.approx(0.5, abs=1e-12)
    target = np.zeros((4, 4))
    target[0, 0] = 1.0
    assert np.abs(out.mat - target).max() <= 1e-12
    assert float(np.trace(out.mat).real) == pytest.approx(1.0, abs=1e-12)
    assert out.layout == SystemLayout.bipartite(2, 2)


def test_filtered_nonlocality_stays_below_transposed_entropy():
    fam = ppt_pbit(4)
    meas = key_lifted_measurements(4)
    rhs = er_upper(partial_transpose(fam.rho), partial_transpose(fam.sigma_candidate))
    rng = np.random.default_rng(54)
    for _ in range(5):
        fa = random_filter(rng, 8)
        fb = random_filter(rng, 8)
        filtered, prob = dense_filter(fam.rho, fa, fb)
        res = nonlocality_N(box_from(filtered, meas))
        assert prob * res.value <= rhs + 1e-7


@settings(deadline=None, max_examples=20)
@given(st.integers(0, 10_000))
def test_kl_nonnegative_property(seed):
    rng = np.random.default_rng(seed)
    p = rng.dirichlet(np.ones(4))
    q = rng.dirichlet(np.ones(4))
    assert _pair_kl(p[None], q[None])[0] >= -1e-12


@settings(deadline=None, max_examples=15)
@given(st.integers(0, 10_000))
def test_nonlocality_below_max_pair_kl_property(seed):
    # the measure is an infimum over local boxes, so any single vertex caps it
    rng = np.random.default_rng(seed)
    p = rng.random(size=(2, 2, 2, 2))
    p /= p.sum(axis=(2, 3), keepdims=True)
    box = Box(p)
    res = nonlocality_N(box)
    poly = LocalPolytope.for_scenario(2, 2, 2, 2)
    best = min(_pair_kl(p.reshape(4, 4), q.reshape(4, 4)).mean() for q in poly.vertices)
    assert res.value <= best + 1e-7


# The routines the KL kernel replaced, kept as its reference: the weighted sum
# over all entries that gave the measure's value, and the per-pair loop that
# gave its supergradient and the chain's middle term.
def _weighted_kl(pw, pg, qg):
    mask = (pg > 0.0) & (pw > 0.0)
    if np.any(qg[mask] <= 0.0):
        return math.inf
    out = pw[mask] * pg[mask] * (np.log2(pg[mask]) - np.log2(np.maximum(qg[mask], 1e-300)))
    return float(out.sum())


def _per_pair_kl(pg, qg, shape):
    nx, ny, na, nb = shape
    block = na * nb
    out = np.empty(nx * ny)
    for i in range(nx * ny):
        sl = slice(i * block, (i + 1) * block)
        ps, qs = pg[sl], qg[sl]
        m = ps > 0.0
        if np.any(qs[m] <= 0.0):
            out[i] = math.inf
        else:
            out[i] = float((ps[m] * (np.log2(ps[m]) - np.log2(np.maximum(qs[m], 1e-300)))).sum())
    return out


def _sparse_rows(rng, n_rows, n_cols):
    """Probability rows with about a third of their entries exactly zero."""
    rows = rng.dirichlet(np.ones(n_cols), size=n_rows)
    rows[rng.random(rows.shape) < 0.35] = 0.0
    rows[np.arange(n_rows), rng.integers(n_cols, size=n_rows)] += 0.5
    return rows / rows.sum(axis=1, keepdims=True)


@pytest.mark.parametrize("shape", [(2, 2, 2, 2), (3, 2, 2, 3), (4, 4, 2, 2)])
def test_pair_kl_matches_the_replaced_routines(shape):
    rng = np.random.default_rng(sum(shape))
    nx, ny, na, nb = shape
    inf_rows = 0
    for _ in range(50):
        p = _sparse_rows(rng, nx * ny, na * nb)
        q = _sparse_rows(rng, nx * ny, na * nb)
        got = _pair_kl(p, q)
        want = _per_pair_kl(p.reshape(-1), q.reshape(-1), shape)
        assert np.array_equal(np.isinf(got), np.isinf(want))
        finite = np.isfinite(want)
        assert np.abs(got[finite] - want[finite]).max(initial=0.0) <= 1e-15
        inf_rows += int((~finite).sum())
        for row_p, row_q, row_want in zip(p, q, want):
            assert row_want == pytest.approx(_weighted_kl(np.ones_like(row_p), row_p, row_q),
                                             rel=0.0, abs=1e-15)
    assert inf_rows > 0  # the p > 0 over q = 0 convention was exercised


def _pr_vertex_mixtures(seed, count, t_range):
    """PR box mixed with two local vertices: boxes with exactly zero entries."""
    rng = np.random.default_rng(seed)
    poly = LocalPolytope.for_scenario(2, 2, 2, 2)
    pr = np.array([[[[0.5 * ((a ^ b) == (x & y)) for b in range(2)] for a in range(2)]
                    for y in range(2)] for x in range(2)]).reshape(-1)
    for _ in range(count):
        w = np.zeros(16)
        w[rng.choice(16, size=2, replace=False)] = rng.dirichlet(np.ones(2))
        t = rng.uniform(*t_range)
        box = Box(((1.0 - t) * (w @ poly.vertices) + t * pr).reshape(2, 2, 2, 2))
        assert (box.p == 0.0).any()
        yield box


@pytest.mark.parametrize("mode", ["uniform", "optimize"])
def test_nonlocality_value_matches_the_replaced_weighted_kl(mode):
    poly = LocalPolytope.for_scenario(2, 2, 2, 2)
    for box in _pr_vertex_mixtures(57, 4, (0.2, 0.6)):
        res = nonlocality_N(box, mode=mode)
        pw = np.repeat(res.input_dist, 4)
        want = _weighted_kl(pw, box.p.reshape(-1), res.inner_weights @ poly.vertices)
        assert res.value == pytest.approx(want, rel=0.0, abs=1e-15)


def test_nonlocality_ignores_pairs_without_input_weight():
    # the inner solve ignores a pair without input weight and may leave q = 0
    # under its support; the pair's infinite KL must contribute nothing
    # rather than 0 * inf = nan
    for box in _pr_vertex_mixtures(1, 8, (0.05, 0.9)):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            res = nonlocality_N(box, mode="optimize")
        assert math.isfinite(res.value)


def _vertex_table_loops(nx, ny, na, nb):
    rows = np.zeros((na**nx * nb**ny, nx, ny, na, nb))
    i = 0
    for fa in itertools.product(range(na), repeat=nx):
        for fb in itertools.product(range(nb), repeat=ny):
            for x in range(nx):
                for y in range(ny):
                    rows[i, x, y, fa[x], fb[y]] = 1.0
            i += 1
    return rows.reshape(rows.shape[0], -1)


_SCENARIOS = [(2, 2, 2, 2), (3, 3, 2, 2), (4, 4, 2, 2), (2, 3, 3, 2), (1, 2, 2, 3)]


@pytest.mark.parametrize("scenario", _SCENARIOS)
def test_local_polytope_matches_the_loop_construction(scenario):
    vertices = LocalPolytope.for_scenario(*scenario).vertices
    assert np.array_equal(vertices, _vertex_table_loops(*scenario))


@pytest.mark.parametrize("scenario", _SCENARIOS)
def test_local_polytope_start_is_the_uniform_box_on_constant_strategies(scenario):
    # the cold start of the inner solve: the point of uniform weight on every
    # vertex (so the same first objective and gap) on a face of na*nb vertices
    _, _, na, nb = scenario
    poly = LocalPolytope.for_scenario(*scenario)
    assert np.count_nonzero(poly.start) == na * nb
    assert poly.start.sum() == pytest.approx(1.0, rel=0.0, abs=1e-15)
    assert np.allclose(poly.start @ poly.vertices, 1.0 / (na * nb), rtol=0.0, atol=1e-15)


def test_local_polytope_is_built_once_per_scenario():
    poly = LocalPolytope.for_scenario(4, 4, 2, 2)
    assert LocalPolytope.for_scenario(4, 4, 2, 2) is poly
    fresh = LocalPolytope.for_scenario.__wrapped__(4, 4, 2, 2)
    assert fresh is not poly
    assert np.array_equal(poly.vertices, fresh.vertices)
    assert np.array_equal(poly.start, fresh.start)
    # every caller shares the arrays, so none may write them
    for arr in (poly.vertices, poly.start):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0.5
    with pytest.raises(AttributeError):
        poly.vertices = fresh.vertices


# The inner solver as it stood with scipy's brentq as its line search, kept as
# the reference for the Newton line search that replaced it: same gradient,
# gap and vertex choice, step root to brentq's tolerance.  With ``trace`` a
# list, it appends (dm, t, near_tie) for every step; near_tie says whether a
# relative change of 1e-9 in the gradient or in the slope at t_max could
# have changed the step (another vertex with other masked entries that close
# to the chosen pair, or a slope at t_max that close to 0).
def _inner_infimum_brentq(pg, pw, vertices, w0, gap_tol=1e-7, max_iters=50_000,
                          trace=None):
    w = w0.copy()
    mask = (pg > 0.0) & (pw > 0.0)
    pm = (pw * pg)[mask]
    vm = vertices[:, mask]
    q = w @ vertices
    ln2 = math.log(2.0)
    gap = math.inf
    it = 0
    for it in range(1, max_iters + 1):
        qm = np.maximum(q[mask], 1e-300)
        grad = -(vm @ (pm / qm)) / ln2
        s = int(grad.argmin())
        active = np.nonzero(w > 0.0)[0]
        away = active[int(grad[active].argmax())]
        gap = float(w @ grad - grad[s])
        if gap <= gap_tol:
            break
        dm = (vertices[s] - vertices[away])[mask]
        t = _brentq_step(pm, qm, dm, float(w[away]))
        if trace is not None:
            close = 1e-9 * np.abs(grad).max()
            other_s = np.any(vm != vm[s], axis=1)
            other_away = np.any(vm != vm[away], axis=1) & (w > 0.0)
            slope_max = float((pm * dm / np.maximum(qm + w[away] * dm, 1e-300)).sum())
            near_tie = (np.any(grad[other_s] <= grad[s] + close)
                        or np.any(grad[other_away] >= grad[away] - close)
                        or abs(slope_max) <= 1e-9 * float(np.abs(pm * dm / qm).sum()))
            trace.append((dm, t, near_tie))
        if t is None:
            break
        w[s] += t
        w[away] -= t
        if w[away] < 1e-17:
            w[away] = 0.0
        q = w @ vertices
    return w, gap, it


def _brentq_step(pm, qm, dm, t_max):
    """Root in [0, t_max] of the derivative of -sum pm log2(qm + t dm), by brentq."""
    from scipy.optimize import brentq

    def dphi(t):
        return -float((pm * dm / np.maximum(qm + t * dm, 1e-300)).sum()) / math.log(2.0)

    if dphi(0.0) >= 0.0:
        return None
    if dphi(t_max) <= 0.0:
        return t_max
    return float(brentq(dphi, 0.0, t_max, xtol=1e-16, rtol=8.9e-16))


def _solver_problems():
    """(pg, pw, polytope): random 2-, 3- and 4-input boxes under uniform inputs
    and under input distributions that give one pair no weight, random boxes
    with two entries set to zero under both, and PR-vertex mixtures.  The
    4-input box with zero entries under the inputs that give a pair no
    weight was the slowest from uniform weight on all 256 vertices: 11,953
    pairwise steps, with a face of more vertices than entries throughout, so
    no Newton step applied.  From the constant-strategy start it takes a few
    dozen."""
    rng = np.random.default_rng(58)
    for n in (2, 3, 4):
        poly = LocalPolytope.for_scenario(n, n, 2, 2)
        uniform = np.full(poly.vertices.shape[1], 1.0 / (n * n))
        boxes = [box_from(random_bipartite_density(rng, 2, 2), MeasurementFamily(
            [random_binary_povm(rng, 2) for _ in range(n)],
            [random_binary_povm(rng, 2) for _ in range(n)],
        )).p.reshape(n * n, 4) for _ in range(2)]
        p_xy = rng.dirichlet(np.ones(n * n))
        p_xy[rng.choice(n * n)] = 0.0
        yield boxes[0].reshape(-1), uniform, poly
        yield boxes[0].reshape(-1), np.repeat(p_xy / p_xy.sum(), 4), poly
        rows = boxes[1].copy()
        rows[rng.choice(n * n, size=2, replace=False), rng.choice(4, size=2)] = 0.0
        zeroed = (rows / rows.sum(axis=1, keepdims=True)).reshape(-1)
        yield zeroed, uniform, poly
        yield zeroed, np.repeat(p_xy / p_xy.sum(), 4), poly
    poly = LocalPolytope.for_scenario(2, 2, 2, 2)
    for box in _pr_vertex_mixtures(59, 4, (0.1, 0.9)):
        yield box.p.reshape(-1), np.full(16, 0.25), poly


def _certified_against_reference(pg, pw, vertices, w0, **kwargs) -> np.ndarray:
    """The solver against the brentq reference from the same start.

    The face Newton steps change the path by design, so only the
    certificates are compared: the solver converges wherever the reference
    does, and both objectives lie within the larger final gap of each other
    (each is within its own gap of the same optimum).  Returns the
    reference's weights.
    """
    tol = kwargs.get("gap_tol", 1e-7)
    w, gap, _ = _inner_infimum(pg, pw, vertices, w0, **kwargs)
    w_ref, gap_ref, _ = _inner_infimum_brentq(pg, pw, vertices, w0, **kwargs)
    if gap_ref <= tol:
        assert gap <= tol
    value = _weighted_kl(pw, pg, w @ vertices)
    value_ref = _weighted_kl(pw, pg, w_ref @ vertices)
    assert abs(value - value_ref) <= max(gap, gap_ref) + 1e-12
    return w_ref


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_inner_infimum_matches_the_brentq_reference():
    rng = np.random.default_rng(60)
    for pg, pw, poly in _solver_problems():
        w_opt = _certified_against_reference(pg, pw, poly.vertices, poly.start)
        # warm starts from the optimum at another input distribution, as the
        # steps of mode="optimize" do, at two tolerances and with caps
        pw2 = np.repeat(rng.dirichlet(np.ones(pw.size // 4)), 4)
        for tol, cap in ((1e-9, 300), (1e-7, 3)):
            _certified_against_reference(pg, pw2, poly.vertices, w_opt, gap_tol=tol, max_iters=cap)


def test_inner_infimum_converges_in_few_iterations_from_the_cold_start():
    # from uniform weight on all 256 vertices the zero-entry 4-input box took
    # 11,953 iterations: the face stayed too large for any Newton step
    for pg, pw, poly in _solver_problems():
        _, gap, iterations = _inner_infimum(pg, pw, poly.vertices, poly.start)
        assert gap <= 1e-7
        assert iterations <= 50


def test_the_zero_entry_box_fixture_converges_in_few_iterations():
    # the box the CI runs through `ptbounds nonlocality`, checking iterations
    saved = Box.from_json(json.loads((DATA / "zero_entry_4input_box.json").read_text()))
    pg, _, _ = list(_solver_problems())[10]
    assert np.array_equal(saved.p.reshape(-1), pg)
    res = nonlocality_N(saved)
    assert res.converged and res.iterations <= 50


def _gap_at(pg, pw, vertices, w) -> float:
    """The linearization gap w.grad - min grad, recomputed from the weights."""
    mask = (pg > 0.0) & (pw > 0.0)
    q = np.maximum((w @ vertices)[mask], 1e-300)
    grad = -(vertices[:, mask] @ (pw[mask] * pg[mask] / q)) / math.log(2.0)
    return float(w @ grad - grad.min())


@pytest.mark.parametrize("cap", [0, 1, 3])
def test_inner_infimum_returns_the_gap_of_its_weights_at_the_iteration_cap(cap):
    # the zero-entry 4-input box under inputs that give one pair no weight
    pg, pw, poly = list(_solver_problems())[11]
    w, gap, iterations = _inner_infimum(pg, pw, poly.vertices, poly.start, max_iters=cap)
    assert iterations == cap
    assert gap > 1e-7
    assert gap == pytest.approx(_gap_at(pg, pw, poly.vertices, w), rel=0.0, abs=1e-12)


def _line_search_case(rng, n=12):
    """pm > 0, qm > 0 and a pairwise direction dm in {-1, 0, 1}."""
    pm = rng.dirichlet(np.ones(n))
    qm = rng.uniform(0.05, 1.0, size=n)
    dm = rng.choice([-1.0, 0.0, 1.0], size=n)
    dm[:2] = (-1.0, 1.0)
    return pm, qm, dm


def _nats_slope(pm, qm, dm):
    return -float((pm * dm / qm).sum())


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_line_search_matches_brentq():
    rng = np.random.default_rng(61)
    seen = {"interior": 0, "t_max": 0, "pole": 0, "flat": 0}
    for _ in range(400):
        pm, qm, dm = _line_search_case(rng)
        g0 = _nats_slope(pm, qm, dm)
        pole = float(qm[dm < 0.0].min())  # qm + t dm reaches 0 here
        for t_max, kind in ((pole, "pole"), (pole * rng.uniform(0.05, 1.0), None)):
            want = _brentq_step(pm, qm, dm, t_max)
            got = _line_search(pm, qm, dm, t_max, g0)
            if want is None:
                assert got is None
                seen["flat"] += 1
                continue
            kind = kind or ("t_max" if want == t_max else "interior")
            seen[kind] += 1
            if want == t_max:
                assert got == t_max
            else:
                # both within brentq's tolerance of the root
                assert abs(got - want) <= 2.0 * (1e-16 + 8.9e-16 * want)
    assert min(seen.values()) >= 20, seen


def test_nonlocality_reports_its_final_gap():
    poly = LocalPolytope.for_scenario(2, 2, 2, 2)
    boxes = [tsirelson_box(), *_pr_vertex_mixtures(63, 3, (0.2, 0.8))]
    for box, mode in itertools.product(boxes, ["uniform", "optimize"]):
        res = nonlocality_N(box, mode=mode)
        if mode == "optimize":
            assert res.converged == (_width(res) <= 1e-7)
        else:
            assert res.converged == (res.gap <= 1e-7) and res.upper == res.value
        assert res.to_json()["gap"] == res.gap
        # the gap recomputed from the public fields
        gap = _gap_at(box.p.reshape(-1), np.repeat(res.input_dist, 4), poly.vertices,
                      res.inner_weights)
        assert res.gap == pytest.approx(gap, rel=0.0, abs=1e-12)


@pytest.mark.parametrize("kwargs", [{"restarts": 0}, {"restarts": -1}, {"mode": "bogus"}])
def test_nonlocality_rejects_bad_ascent_arguments(kwargs):
    with pytest.raises(ValidationError):
        nonlocality_N(tsirelson_box(), **{"mode": "optimize", **kwargs})


# The face Newton direction solves its least-squares problem from the normal
# equations behind a Cholesky check; lstsq, the only solve before, stays the
# oracle: a threshold of inf sends every face to it.

def _spy_lstsq(monkeypatch) -> list:
    """Record every np.linalg.lstsq call from here on."""
    calls = []
    lstsq = np.linalg.lstsq

    def spy(*args, **kwargs):
        calls.append(args[0].shape)
        return lstsq(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "lstsq", spy)
    return calls


def _directions(monkeypatch, calls, wa, va, pm):
    """(direction, whether it took lstsq, lstsq-only direction) on a face."""
    q, sqrt_pm = wa @ va, np.sqrt(pm)
    calls.clear()
    dw = _face_direction(wa, va, q, sqrt_pm)
    took_lstsq = bool(calls)
    with monkeypatch.context() as mp:
        mp.setattr(nonlocality_module, "_CHOLESKY_PIVOT_MIN", math.inf)
        oracle = _face_direction(wa, va, q, sqrt_pm)
    assert calls  # the oracle did call lstsq
    return dw, took_lstsq, oracle


def _deficient(wa, va) -> bool:
    """Whether the columns v_j - v_heaviest are linearly dependent (exact 0/1 rows)."""
    heavy = int(wa.argmax())
    return np.linalg.matrix_rank(np.delete(va, heavy, axis=0) - va[heavy]) < wa.size - 1


def test_face_direction_matches_lstsq_on_random_faces(monkeypatch):
    calls = _spy_lstsq(monkeypatch)
    rng = np.random.default_rng(70)
    seen = {"normal equations": 0, "deficient": 0}
    for _ in range(300):
        n = int(rng.integers(2, 5))
        poly = LocalPolytope.for_scenario(n, n, 2, 2)
        k = int(rng.integers(2, min(poly.vertices.shape[0], 21) + 1))
        va = poly.vertices[rng.choice(poly.vertices.shape[0], size=k, replace=False)]
        wa = rng.dirichlet(np.ones(k))
        va = va[:, wa @ va > 0.0]  # the entries the face supports
        if k > va.shape[1]:
            continue  # a face the Newton step skips
        pm = rng.dirichlet(np.ones(va.shape[1]))
        dw, took_lstsq, oracle = _directions(monkeypatch, calls, wa, va, pm)
        if _deficient(wa, va):
            seen["deficient"] += 1
            assert took_lstsq
            assert np.array_equal(dw, oracle)
        else:
            assert not took_lstsq  # every full-rank random face is well conditioned
            seen["normal equations"] += 1
            assert np.abs(dw - oracle).max() <= 1e-12 * np.abs(oracle).max()
    assert seen["normal equations"] >= 100 and seen["deficient"] >= 30, seen


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("repeat", ["another vertex", "the heaviest vertex"])
def test_face_direction_sends_dependent_faces_to_lstsq(monkeypatch, repeat):
    # a repeated vertex gives two equal columns, a repeat of the heaviest one
    # a zero column: the Gram matrix is singular either way
    calls = _spy_lstsq(monkeypatch)
    rng = np.random.default_rng(71)
    poly = LocalPolytope.for_scenario(2, 2, 2, 2)
    for _ in range(20):
        idx = list(rng.choice(16, size=5, replace=False))
        wa = np.array([0.4, 0.2, 0.15, 0.1, 0.1, 0.05])
        idx.append(idx[0] if repeat == "the heaviest vertex" else idx[1])
        va = poly.vertices[idx]
        va = va[:, wa @ va > 0.0]
        pm = rng.dirichlet(np.ones(va.shape[1]))
        assert _deficient(wa, va)
        dw, took_lstsq, oracle = _directions(monkeypatch, calls, wa, va, pm)
        assert took_lstsq
        assert np.array_equal(dw, oracle)


def test_face_direction_matches_lstsq_on_tiny_entry_faces(monkeypatch):
    # the faces met while solving boxes with an entry of 1e-30 and below,
    # next to weights of that order: columns 1e15 times larger than the rest
    faces = []

    def record(wa, va, q, sqrt_pm):
        faces.append((wa.copy(), va.copy(), sqrt_pm ** 2))
        return _face_direction(wa, va, q, sqrt_pm)

    with monkeypatch.context() as mp:
        mp.setattr(nonlocality_module, "_face_direction", record)
        for exponent in (30, 100, 300):
            for box in _tiny_entry_boxes(10.0 ** -exponent):
                _uniform_solve(box, gap_tol=1e-10)
    assert len(faces) >= 500
    assert sum(np.sqrt(pm).min() < 1e-15 for *_, pm in faces) >= 500
    calls = _spy_lstsq(monkeypatch)
    for wa, va, pm in faces:
        dw, _, oracle = _directions(monkeypatch, calls, wa, va, pm)
        # compared as J dw = diag(sqrt(pm)/q) va^T dw, the change the step
        # makes to the least-squares model, whose right-hand side has unit
        # norm: near the optimum dw itself is of order 1e-10, so rounding of
        # order 1e-16 in the solve is a large part of it
        scale = np.sqrt(pm) / (wa @ va)
        assert np.abs(((dw - oracle) @ va) * scale).max() <= 1e-13


@pytest.mark.parametrize("name", sorted(p.name for p in DATA.glob("*_box.json")))
def test_nonlocality_matches_the_lstsq_only_solve_on_the_fixture_boxes(monkeypatch, name):
    box = Box.from_json(json.loads((DATA / name).read_text()))
    res = nonlocality_N(box)
    monkeypatch.setattr(nonlocality_module, "_CHOLESKY_PIVOT_MIN", math.inf)
    oracle = nonlocality_N(box)
    assert res.value == pytest.approx(oracle.value, rel=0.0, abs=1e-12)
    assert (res.iterations, res.converged) == (oracle.iterations, oracle.converged)


# The solver's iteration as it stood before its numpy calls were trimmed, kept
# as the reference for the trimmed one: the same floating-point operations in
# the same order, so every iterate must match bit for bit.

def _line_search_reference(pm, qm, dm, t_max, g0):
    if g0 >= 0.0:
        return None
    on = dm != 0.0
    p, q, d = pm[on], qm[on], dm[on]
    lo, hi, t, g = 0.0, t_max, 0.0, g0
    at_max = False
    with np.errstate(over="ignore"):
        h = float((p / q) @ (1.0 / q))
        while True:
            t_new = t - g / h if 0.0 < h < math.inf else math.nan
            if t_new >= t_max:
                if not at_max:
                    at_max = True
                    if float(d @ (p / np.maximum(q + t_max * d, _LOG_CLAMP))) >= 0.0:
                        return t_max
                t_new = math.nan
            if not lo <= t_new <= hi:
                t_new = 0.5 * (lo + hi)
            if abs(t_new - t) <= 1e-16 + 8.9e-16 * abs(t_new):
                return t_new
            t = t_new
            den = np.maximum(q + t * d, _LOG_CLAMP)
            r = p / den
            g = -float(d @ r)
            h = float(r @ (1.0 / den))
            if g < 0.0:
                lo = t
            else:
                hi = t


def _inner_infimum_reference(pg, pw, vertices, w0, gap_tol=1e-7, max_iters=50_000):
    w = w0.copy()
    mask = (pg > 0.0) & (pw > 0.0)
    pm = (pw * pg)[mask]
    vm = vertices[:, mask]
    sqrt_pm = np.sqrt(pm)
    ln2 = math.log(2.0)
    for it in range(1, max_iters + 2):
        qc = np.maximum(w @ vm, _LOG_CLAMP)
        grad = -(vm @ (pm / qc)) / ln2
        s = int(grad.argmin())
        gap = float(w @ grad - grad[s])
        if gap <= gap_tol or it > max_iters:
            break
        away = int(np.where(w > 0.0, grad, -np.inf).argmax())
        t = _line_search_reference(pm, qc, vm[s] - vm[away], float(w[away]),
                                   ln2 * float(grad[s] - grad[away]))
        if t is None:
            break
        w[s] += t
        w[away] -= t
        while _face_newton_step_reference(w, pm, sqrt_pm, vm):
            pass
    return w, gap, min(it, max_iters)


def _face_newton_step_reference(w, pm, sqrt_pm, vm):
    if not 2 <= np.count_nonzero(w) <= pm.size:
        return False
    face = w.nonzero()[0]
    wa, va = w[face], vm[face]
    q = wa @ va
    if not np.all(q > 0.0):
        return False
    dw = _face_direction_reference(wa, va, q, sqrt_pm)
    slope = -float((pm / q) @ (dw @ va))
    if not slope < 0.0:
        return False
    shrink = np.flatnonzero(dw < 0.0)
    ratios = wa[shrink] / -dw[shrink]
    block = int(ratios.argmin())
    alpha = min(1.0, float(ratios[block]))
    blocked = shrink[block] if ratios[block] <= 1.0 else None
    for _ in range(30):
        trial = np.maximum(wa + alpha * dw, 0.0)
        if blocked is not None:
            trial[blocked] = 0.0
        qt = trial @ va
        if np.all(qt > 0.0):
            change = -float(pm @ np.log(qt / q))
            if change < 0.0 and change <= 1e-4 * alpha * slope:
                w[face] = trial
                return blocked is not None
        alpha *= 0.5
        blocked = None
    return False


def _face_direction_reference(wa, va, q, sqrt_pm):
    heavy = int(wa.argmax())
    rest = np.arange(wa.size) != heavy
    cols = (va[rest] - va[heavy]) * (sqrt_pm / q)
    norms = np.sqrt((cols * cols).sum(axis=1))
    norms[norms == 0.0] = 1.0
    cols /= norms[:, None]
    gram = cols @ cols.T
    try:
        pivot = float(np.linalg.cholesky(gram).diagonal().min())
    except np.linalg.LinAlgError:
        pivot = 0.0
    if pivot > nonlocality_module._CHOLESKY_PIVOT_MIN:
        x = np.linalg.solve(gram, cols @ sqrt_pm)
    else:
        x = np.linalg.lstsq(cols.T, sqrt_pm, rcond=None)[0]
    dw = np.empty_like(wa)
    dw[rest] = x / norms
    dw[heavy] = -dw[rest].sum()
    return dw


def _solve_bits(solve, pg, pw, vertices, w0, **kwargs) -> tuple[bytes, bytes, int]:
    w, gap, iterations = solve(pg, pw, vertices, w0, **kwargs)
    return w.tobytes(), np.float64(gap).tobytes(), iterations


def _result_bits(res) -> tuple:
    """Every field of an NlResult as bytes."""
    floats = np.array([res.value, res.gap, res.upper], dtype=np.float64)
    return (floats.tobytes(), res.inner_weights.tobytes(), res.input_dist.tobytes(),
            res.iterations, res.converged)


def _assert_solves_match_the_reference(problems, **kwargs):
    for pg, pw, vertices, w0 in problems:
        assert (_solve_bits(_inner_infimum, pg, pw, vertices, w0, **kwargs)
                == _solve_bits(_inner_infimum_reference, pg, pw, vertices, w0, **kwargs))


def _noisy_phi_boxes(seed, count, inputs):
    """Noisy Phi+ boxes under random projective measurements, drawn as the
    benchmark's nonlocality-kl workload draws them: visibility in [0.5, 1)."""
    from ptbounds.rand import random_binary_projective

    rng = np.random.default_rng(seed)
    for _ in range(count):
        v = float(rng.uniform(0.5, 1.0))
        rho = CMatrix(v * max_entangled(2).mat + (1.0 - v) * np.eye(4) / 4.0,
                      SystemLayout.bipartite(2, 2), hermitian=True)
        yield box_from(rho, MeasurementFamily(
            [random_binary_projective(rng, 2) for _ in range(inputs)],
            [random_binary_projective(rng, 2) for _ in range(inputs)]))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_inner_infimum_matches_the_reference_bit_for_bit_on_the_solver_problems():
    problems = [(pg, pw, poly.vertices, poly.start) for pg, pw, poly in _solver_problems()]
    _assert_solves_match_the_reference(problems)
    # stopped by the iteration cap, with the weights mid-path
    _assert_solves_match_the_reference(problems, max_iters=3)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("eps", [1e-3, 1e-30, 1e-100, 1e-300])
def test_inner_infimum_matches_the_reference_bit_for_bit_on_tiny_entries(eps):
    poly = LocalPolytope.for_scenario(2, 2, 2, 2)
    problems = [(box.p.reshape(-1), np.full(16, 0.25), poly.vertices, poly.start)
                for box in _tiny_entry_boxes(eps)]
    for gap_tol in (1e-7, 1e-10):
        _assert_solves_match_the_reference(problems, gap_tol=gap_tol)


@pytest.mark.parametrize("inputs", [3, 4])
def test_inner_infimum_matches_the_reference_bit_for_bit_on_noisy_phi_boxes(inputs):
    for box in _noisy_phi_boxes(80 + inputs, 20, inputs):
        poly = LocalPolytope.for_scenario(inputs, inputs, 2, 2)
        pw = np.full(poly.vertices.shape[1], 1.0 / inputs**2)
        _assert_solves_match_the_reference([(box.p.reshape(-1), pw, poly.vertices, poly.start)])


@pytest.mark.parametrize("mode", ["uniform", "optimize"])
@pytest.mark.parametrize("name", sorted(p.name for p in DATA.glob("*_box.json")))
def test_nonlocality_matches_the_reference_bit_for_bit_on_the_fixture_boxes(monkeypatch, name,
                                                                           mode):
    box = Box.from_json(json.loads((DATA / name).read_text()))
    res = nonlocality_N(box, mode=mode)
    monkeypatch.setattr(nonlocality_module, "_inner_infimum", _inner_infimum_reference)
    assert _result_bits(res) == _result_bits(nonlocality_N(box, mode=mode))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_line_search_matches_the_reference_bit_for_bit():
    rng = np.random.default_rng(62)
    seen = {"interior": 0, "t_max": 0, "pole": 0, "flat": 0}
    for _ in range(300):
        pm, qm, dm = _line_search_case(rng)
        g0 = _nats_slope(pm, qm, dm)
        pole = float(qm[dm < 0.0].min())
        for t_max, kind in ((pole, "pole"), (pole * rng.uniform(0.05, 1.0), None)):
            want = _line_search_reference(pm, qm, dm, t_max, g0)
            got = _line_search(pm, qm, dm, t_max, g0)
            if want is None:
                assert got is None
                seen["flat"] += 1
                continue
            seen[kind or ("t_max" if want == t_max else "interior")] += 1
            assert np.float64(got).tobytes() == np.float64(want).tobytes()
    assert min(seen.values()) >= 20, seen
