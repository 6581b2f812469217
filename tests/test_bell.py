"""Tests for functionals, boxes, the seesaw, and the transposition bound reports."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ptbounds import (
    BellFunctional,
    BoundReport,
    Box,
    CMatrix,
    MeasurementFamily,
    SystemLayout,
    TOL,
    ValidationError,
    bell_operator,
    box_from,
    chsh,
    classical_value,
    collect_parties,
    cor1_bound,
    d_eps_membership,
    functional_value,
    hiding_state,
    max_entangled,
    nonnegativize,
    op_norm,
    partial_transpose,
    pbit_observation_bound,
    ppt_pbit,
    private_bit,
    seesaw,
    seesaw_bound,
    swap_x,
    tensor,
    thm1_bound,
)
from ptbounds.bell import _realigned
from ptbounds.rand import (
    random_binary_povm,
    random_binary_projective,
    random_bipartite_density,
    random_density,
    random_seesaw_starts,
    random_separable,
)

from conftest import tsirelson_measurements

TSIRELSON = 2.0 * math.sqrt(2.0)


def random_box(rng, nx=2, ny=2, na=2, nb=2) -> Box:
    p = rng.random(size=(nx, ny, na, nb))
    p /= p.sum(axis=(2, 3), keepdims=True)
    return Box(nx, ny, na, nb, p)


def brute_force_classical(f: BellFunctional) -> float:
    best = -math.inf
    for sa in itertools.product(range(f.na), repeat=f.nx):
        for sb in itertools.product(range(f.nb), repeat=f.ny):
            val = sum(
                f.coeffs[x, y, sa[x], sb[y]] for x in range(f.nx) for y in range(f.ny)
            )
            best = max(best, float(val))
    return best


def test_chsh_classical_value_is_exactly_two():
    assert classical_value(chsh()) == 2.0


def test_classical_value_trivial_scenarios():
    zero = BellFunctional(2, 2, 2, 2, np.zeros((2, 2, 2, 2)))
    assert classical_value(zero) == 0.0
    single = BellFunctional(1, 1, 1, 1, np.full((1, 1, 1, 1), 7.0))
    assert classical_value(single) == 7.0


def test_classical_value_matches_brute_force_on_asymmetric_scenarios():
    rng = np.random.default_rng(31)
    for nx, ny, na, nb in ((1, 2, 3, 2), (2, 1, 2, 3), (2, 2, 3, 2)):
        f = BellFunctional(nx, ny, na, nb, rng.normal(size=(nx, ny, na, nb)))
        assert classical_value(f) == pytest.approx(brute_force_classical(f), abs=1e-12)


def test_classical_value_enumeration_guard():
    # the guard counts the strategies enumerated, the smaller party's: 2 here
    lopsided = BellFunctional(23, 1, 2, 2, np.zeros((23, 1, 2, 2)))
    assert classical_value(lopsided) == 0.0
    big = BellFunctional(17, 17, 2, 2, np.zeros((17, 17, 2, 2)))
    with pytest.raises(ValidationError, match="131072 deterministic strategies"):
        classical_value(big)
    with pytest.raises(ValidationError, match="131072 deterministic strategies"):
        seesaw(max_entangled(2), big, restarts=1)


def test_classical_value_and_seesaw_reach_a_planted_optimum():
    # 12 inputs a side: 4,096 strategies to enumerate, 2^24 strategy pairs
    rng = np.random.default_rng(41)
    alice_out, bob_out = rng.integers(0, 2, size=12), rng.integers(0, 2, size=12)
    coeffs = np.zeros((12, 12, 2, 2))
    coeffs[np.arange(12)[:, None], np.arange(12), alice_out[:, None], bob_out] = 1.0
    f = BellFunctional(12, 12, 2, 2, coeffs)
    assert classical_value(f) == 144.0
    assert seesaw(max_entangled(2), f, restarts=1).value >= 144.0 - 1e-9


@pytest.mark.parametrize("sizes", [(0, 2, 2, 2), (2, 0, 2, 2), (2, 2, 0, 2), (2, 2, 2, 0)])
@pytest.mark.parametrize("kind", [Box, BellFunctional])
def test_box_and_functional_refuse_sizes_below_one(kind, sizes):
    with pytest.raises(ValidationError, match="at least 1"):
        kind(*sizes, np.zeros(sizes))


def test_functional_refuses_coefficients_whose_sum_overflows():
    # each 1e308 is finite, their sum is not: box values and s_0 - s_1 could overflow
    with pytest.raises(ValidationError, match="finite absolute sum"):
        BellFunctional(2, 2, 2, 2, np.full((2, 2, 2, 2), 1e308))
    BellFunctional(2, 2, 2, 2, np.full((2, 2, 2, 2), 1e307))


def test_nonnegativize_makes_coefficients_nonnegative():
    f = chsh()
    g = nonnegativize(f)
    assert g.coeffs.min() >= 0.0
    assert g.offset == pytest.approx(4.0, abs=1e-12)
    h = nonnegativize(g)
    assert np.array_equal(h.coeffs, g.coeffs)
    assert h.offset == g.offset


def test_nonnegativize_shifts_box_values_by_offset():
    rng = np.random.default_rng(32)
    f = chsh()
    g = nonnegativize(f)
    for _ in range(100):
        box = random_box(rng)
        assert functional_value(g, box) == pytest.approx(
            functional_value(f, box) + g.offset, abs=1e-10
        )


def test_nonnegativize_commutes_with_classical_value():
    rng = np.random.default_rng(33)
    f = BellFunctional(2, 2, 2, 2, rng.normal(size=(2, 2, 2, 2)))
    g = nonnegativize(f)
    assert classical_value(g) == pytest.approx(classical_value(f) + g.offset, abs=1e-10)


def test_functional_and_box_json_roundtrip():
    rng = np.random.default_rng(34)
    f = BellFunctional(2, 2, 2, 2, rng.normal(size=(2, 2, 2, 2)), offset=1.5)
    back = BellFunctional.from_json(f.to_json())
    assert np.array_equal(back.coeffs, f.coeffs)
    assert back.offset == f.offset
    box = random_box(rng)
    box_back = Box.from_json(box.to_json())
    assert np.abs(box_back.p - box.p).max() == 0.0
    with pytest.raises(ValidationError):
        Box.from_json({"nx": 2, "ny": 2, "na": 2, "nb": 2, "p": [0.1, 0.2]})
    with pytest.raises(ValidationError):
        BellFunctional.from_json({"nx": 2, "ny": 2})


def test_box_validation_rejects_bad_tables():
    good = np.full((2, 2, 2, 2), 0.25)
    Box(2, 2, 2, 2, good)
    with pytest.raises(ValidationError):
        Box(2, 2, 2, 2, good * 2.0)
    bad = good.copy()
    bad[0, 0, 0, 0] = -0.1
    bad[0, 0, 1, 1] = 0.6
    with pytest.raises(ValidationError):
        Box(2, 2, 2, 2, bad)


def test_measurement_family_validation():
    eye = np.eye(2)
    MeasurementFamily([[eye / 2, eye / 2]], [[eye]])
    with pytest.raises(ValidationError):
        MeasurementFamily([[eye, eye]], [[eye]])  # sums to 2I
    neg = np.diag([1.5, -0.5])
    with pytest.raises(ValidationError):
        MeasurementFamily([[neg, eye - neg]], [[eye]])
    # every POVM of a party needs the same outcome count, or box_from cannot stack them
    with pytest.raises(ValidationError, match="^alice input 1: 1 outcomes, input 0 has 2$"):
        MeasurementFamily([[eye / 2, eye / 2], [eye]], [[eye / 2, eye / 2], [eye / 2, eye / 2]])
    with pytest.raises(ValidationError, match="^bob input 1: 3 outcomes"):
        MeasurementFamily([[eye]], [[eye / 2, eye / 2], [eye / 2, eye / 4, eye / 4]])
    # an empty party or POVM is refused before any effect is read
    with pytest.raises(ValidationError, match="^alice has no inputs$"):
        MeasurementFamily([], [[eye]])
    with pytest.raises(ValidationError, match="^bob has no inputs$"):
        MeasurementFamily([[eye]], [])
    with pytest.raises(ValidationError, match="^alice input 0: POVM has no outcomes$"):
        MeasurementFamily([[]], [[eye]])
    with pytest.raises(ValidationError, match="^bob input 1: 0 outcomes, input 0 has 1$"):
        MeasurementFamily([[eye]], [[eye], []])
    # the first effect sets the dimension, so its shape is checked before it is read
    with pytest.raises(ValidationError, match=r"^alice input 0: effect shape \(\)$"):
        MeasurementFamily([[np.float64(1.0)]], [[eye]])
    with pytest.raises(ValidationError, match=r"^bob input 0: effect shape \(\)$"):
        MeasurementFamily([[eye]], [[1.0]])
    with pytest.raises(ValidationError, match=r"^alice input 0: effect shape \(2,\)$"):
        MeasurementFamily([[np.ones(2)]], [[eye]])


def test_measurement_family_rejects_non_hermitian_effects():
    # (E + E^+)/2 = I/2 is a fine effect, but E itself is not hermitian
    e = np.array([[0.5, 0.3], [-0.3, 0.5]])
    with pytest.raises(ValidationError, match="not hermitian"):
        MeasurementFamily([[e, np.eye(2) - e]], [[e, np.eye(2) - e]])


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
def test_measurement_family_rejects_non_finite_effects(bad):
    # NaN > tol is false, so each of the hermitian, eigenvalue and sum checks
    # let such an effect through with only RuntimeWarnings
    eye, zero = np.eye(2), np.zeros((2, 2))
    e = np.diag([bad, 0.0])
    with pytest.raises(ValidationError, match="^alice input 0: effect is not finite$"):
        MeasurementFamily([[e, eye - e]], [[eye, zero]])
    with pytest.raises(ValidationError, match="^bob input 1: effect is not finite$"):
        MeasurementFamily([[eye, zero]], [[eye, zero], [eye - e, e]])


def test_box_from_maximally_mixed_is_uniform(tsirelson_meas):
    mixed = CMatrix(np.eye(4) / 4.0, SystemLayout.bipartite(2, 2), hermitian=True)
    box = box_from(mixed, tsirelson_meas)
    assert np.abs(box.p - 0.25).max() <= 1e-12


def test_box_from_product_state_factorizes():
    rng = np.random.default_rng(35)
    ra = random_density(rng, 2)
    rb = random_density(rng, 2)
    rho = CMatrix(np.kron(ra, rb), SystemLayout.bipartite(2, 2), hermitian=True)
    meas = MeasurementFamily(
        [random_binary_povm(rng, 2) for _ in range(2)],
        [random_binary_povm(rng, 2) for _ in range(2)],
    )
    box = box_from(rho, meas)
    pa = np.einsum("xyab->xa", box.p) / 2.0
    pb = np.einsum("xyab->yb", box.p) / 2.0
    for x, y, a, b in itertools.product(range(2), repeat=4):
        assert box.p[x, y, a, b] == pytest.approx(pa[x, a] * pb[y, b], abs=1e-10)


def test_box_from_reaches_tsirelson(phi_plus, tsirelson_meas, chsh_functional):
    box = box_from(phi_plus, tsirelson_meas)
    assert functional_value(chsh_functional, box) == pytest.approx(TSIRELSON, abs=1e-9)


def test_bell_operator_matches_box_value(chsh_functional):
    rng = np.random.default_rng(36)
    rho = random_bipartite_density(rng, 2, 2)
    meas = MeasurementFamily(
        [random_binary_povm(rng, 2) for _ in range(2)],
        [random_binary_povm(rng, 2) for _ in range(2)],
    )
    s_op = bell_operator(chsh_functional, meas)
    direct = float(np.trace(s_op.mat @ rho.mat).real)
    assert direct == pytest.approx(
        functional_value(chsh_functional, box_from(rho, meas)), abs=1e-10
    )


def test_bell_operator_of_transposed_bob_equals_partial_transpose(chsh_functional):
    # S^PT is the Bell operator of Bob's transposed effects, themselves a POVM
    rng = np.random.default_rng(38)
    alice = [random_binary_povm(rng, 2) for _ in range(2)]
    bob = [random_binary_povm(rng, 3) for _ in range(2)]
    plain = bell_operator(chsh_functional, MeasurementFamily(alice, bob))
    transposed = bell_operator(chsh_functional,
                               MeasurementFamily(alice, [[e.T for e in povm] for povm in bob]))
    assert np.abs(plain.mat - partial_transpose(plain).mat).max() > 0.1
    assert np.abs(partial_transpose(plain).mat - transposed.mat).max() <= 1e-14


def test_bell_operator_nonnegative_coefficients_give_psd():
    rng = np.random.default_rng(37)
    for _ in range(10):
        f = BellFunctional(2, 2, 2, 2, rng.random(size=(2, 2, 2, 2)))
        meas = MeasurementFamily(
            [random_binary_povm(rng, 2) for _ in range(2)],
            [random_binary_povm(rng, 2) for _ in range(2)],
        )
        w = np.linalg.eigvalsh(bell_operator(f, meas).mat)
        assert float(w.min()) >= -1e-10


def test_bell_operator_tsirelson_certificate(tsirelson_meas, chsh_functional):
    assert op_norm(bell_operator(chsh_functional, tsirelson_meas)) == pytest.approx(
        TSIRELSON, abs=1e-9
    )


def test_seesaw_is_monotone_and_deterministic(phi_plus, chsh_functional):
    res = seesaw(phi_plus, chsh_functional, restarts=8, seed=3)
    for earlier, later in zip(res.history, res.history[1:]):
        assert later - earlier >= -1e-12
    again = seesaw(phi_plus, chsh_functional, restarts=8, seed=3)
    assert again.value == res.value
    assert again.restart_values == res.restart_values
    value, meas = res
    assert value == res.value
    assert isinstance(meas, MeasurementFamily)


def test_seesaw_rejects_non_binary_outcomes(phi_plus):
    f = BellFunctional(2, 2, 3, 2, np.zeros((2, 2, 3, 2)))
    with pytest.raises(ValidationError):
        seesaw(phi_plus, f)


def test_seesaw_on_product_state_stays_classical(chsh_functional):
    rng = np.random.default_rng(38)
    rho = CMatrix(
        np.kron(random_density(rng, 2), random_density(rng, 2)),
        SystemLayout.bipartite(2, 2),
        hermitian=True,
    )
    res = seesaw(rho, chsh_functional, restarts=16, seed=0)
    assert res.value <= 2.0 + 1e-9


def test_seesaw_value_is_achieved_by_reported_measurements(phi_plus, chsh_functional):
    res = seesaw(phi_plus, chsh_functional, restarts=16, seed=0)
    box = box_from(phi_plus, res.measurements)
    assert functional_value(chsh_functional, box) == pytest.approx(res.value, abs=1e-10)


def dense_half_step(r4, coeffs, own, other, alice_side):
    """Reference best response: explicit partial-trace einsums, one per effect."""
    if alice_side:
        reduced = [[np.einsum("jm,ambj->ab", e, r4) for e in povm] for povm in other]
    else:
        reduced = [[np.einsum("in,nmik->mk", e, r4) for e in povm] for povm in other]
    d = own[0][0].shape[0]
    for x in range(len(own)):
        k0 = np.zeros((d, d), dtype=np.complex128)
        k1 = np.zeros((d, d), dtype=np.complex128)
        for y in range(len(other)):
            for b in range(2):
                if alice_side:
                    k0 += coeffs[x, y, 0, b] * reduced[y][b]
                    k1 += coeffs[x, y, 1, b] * reduced[y][b]
                else:
                    k0 += coeffs[y, x, b, 0] * reduced[y][b]
                    k1 += coeffs[y, x, b, 1] * reduced[y][b]
        diff = k0 - k1
        w, v = np.linalg.eigh((diff + diff.conj().T) / 2)
        pos = v[:, w > 0.0]
        proj = pos @ pos.conj().T
        own[x] = [proj, np.eye(d) - proj]


def dense_objective(r4, coeffs, alice, bob):
    val = 0.0
    for y in range(len(bob)):
        for b in range(2):
            kb = np.einsum("jm,ambj->ab", bob[y][b], r4)
            for x in range(len(alice)):
                for a in range(2):
                    val += float(coeffs[x, y, a, b]) * float(np.trace(alice[x][a] @ kb).real)
    return val


def optimal_bob_outputs(f):
    """Bob's outputs in the first optimal deterministic pair, Bob's strategies
    enumerated in product order; Alice answers input by input."""
    best, best_bob = -math.inf, None
    for bob in itertools.product(range(f.nb), repeat=f.ny):
        value = sum(max(sum(f.coeffs[x, y, a, bob[y]] for y in range(f.ny))
                        for a in range(f.na)) for x in range(f.nx))
        if value > best:
            best, best_bob = value, bob
    return best_bob


def seesaw_starts(f, da, db, restarts, rng):
    """The library's starting measurements: random draws from rng, one at a time,
    Alice before Bob in each restart, then Bob at an optimal deterministic strategy."""
    for _ in range(restarts):
        alice = [random_binary_projective(rng, da) for _ in range(f.nx)]
        yield alice, [random_binary_projective(rng, db) for _ in range(f.ny)]
    # Alice's start is replaced by her first best response, as in every restart
    alice = [[np.eye(da), np.zeros((da, da))] for _ in range(f.nx)]
    eye, zero = np.eye(db), np.zeros((db, db))
    yield alice, [[eye, zero] if b == 0 else [zero, eye] for b in optimal_bob_outputs(f)]


def dense_restart_values(rho, f, restarts, seed, max_iters=400, step_tol=1e-13):
    """Reference seesaw with the library's starts and stopping rule."""
    coll = collect_parties(rho)
    da, db = coll.layout.dim_of("A"), coll.layout.dim_of("B")
    r4 = coll.mat.reshape(da, db, da, db)
    finals = []
    for alice, bob in seesaw_starts(f, da, db, restarts, np.random.default_rng(seed)):
        prev = -math.inf
        for _ in range(max_iters):
            dense_half_step(r4, f.coeffs, alice, bob, alice_side=True)
            dense_half_step(r4, f.coeffs, bob, alice, alice_side=False)
            val = dense_objective(r4, f.coeffs, alice, bob)
            if val - prev < step_tol:
                break
            prev = val
        finals.append(val)
    return finals


def random_2x3_state():
    return random_bipartite_density(np.random.default_rng(42), 2, 3)


def doubled_hiding_state():
    rho = hiding_state().rho
    return tensor(rho, partial_transpose(rho))


def test_realigned_equals_the_collect_parties_route_on_interleaved_factors():
    rho = doubled_hiding_state()  # factors A A B B A A B B
    coll = collect_parties(rho)
    da, db = coll.layout.dim_of("A"), coll.layout.dim_of("B")
    expected = coll.mat.reshape(da, db, da, db).transpose(0, 2, 1, 3).reshape(da * da, db * db)
    r, *dims = _realigned(rho)
    assert dims == [da, db]
    assert np.array_equal(r, expected)


def test_seesaw_refuses_states_without_a_bipartite_layout(chsh_functional):
    with pytest.raises(ValidationError, match="extra parties"):
        seesaw(CMatrix(np.eye(4) / 4, SystemLayout(((2, "A"), (2, "C")))), chsh_functional)
    with pytest.raises(ValidationError, match="needs a CMatrix with a layout"):
        seesaw(CMatrix(np.eye(4) / 4), chsh_functional)


SHIPPED_STATES = {
    "eq8 d=2": lambda: private_bit(swap_x(2)),
    "eq8 d=3": lambda: private_bit(swap_x(3)),
    "eq8 d=4": lambda: private_bit(swap_x(4)),
    "eq10 ds=4": lambda: ppt_pbit(4).rho,
    "prop1 m=1": doubled_hiding_state,
}


@pytest.mark.parametrize("name", sorted(SHIPPED_STATES))
def test_seesaw_reaches_classical_value_on_shipped_states(name, chsh_functional):
    value = seesaw(SHIPPED_STATES[name](), chsh_functional, restarts=32, seed=0).value
    assert value >= classical_value(chsh_functional) - 1e-9


def test_seesaw_runs_on_unequal_local_dimensions(chsh_functional):
    rho = random_2x3_state()
    res = seesaw(rho, chsh_functional, restarts=4, seed=0)
    assert (res.measurements.dim_a, res.measurements.dim_b) == (2, 3)
    box = box_from(rho, res.measurements)
    assert functional_value(chsh_functional, box) == pytest.approx(res.value, abs=1e-10)


def asymmetric_functional():
    """Two Alice inputs, three Bob inputs, no symmetry between the parties."""
    return BellFunctional(2, 3, 2, 2, np.random.default_rng(44).normal(size=(2, 3, 2, 2)))


@pytest.mark.parametrize("da, db", [(2, 1), (1, 2), (3, 2), (2, 3), (2, 8), (8, 3)])
@pytest.mark.parametrize("f", [chsh(), asymmetric_functional()], ids=["chsh", "2x3"])
def test_random_seesaw_starts_equal_one_draw_at_a_time(f, da, db):
    # bit for bit, not to a tolerance: the seesaw's output is pinned to the
    # starts the one-draw path gives, and so is every later draw
    restarts, seed = 7, 5
    one_rng, stacked_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    starts = list(seesaw_starts(f, da, db, restarts, one_rng))[:-1]
    expected = np.array([[povm[0] for povm in bob] for _, bob in starts])
    stacked = random_seesaw_starts(stacked_rng, restarts, f.nx, da, f.ny, db)
    assert stacked.shape == (restarts, f.ny, db, db)
    assert np.array_equal(stacked, expected)
    assert np.array_equal(stacked_rng.normal(size=3), one_rng.normal(size=3))


@pytest.mark.parametrize("make_state, make_functional", [
    (SHIPPED_STATES["eq8 d=2"], chsh),
    (SHIPPED_STATES["eq10 ds=4"], chsh),
    (random_2x3_state, chsh),
    (random_2x3_state, asymmetric_functional),
], ids=["eq8 d=2", "eq10 ds=4", "2x3", "2x3 asymmetric"])
def test_seesaw_restart_values_match_dense_reference(make_state, make_functional):
    rho, f = make_state(), make_functional()
    res = seesaw(rho, f, restarts=6, seed=0)
    expected = dense_restart_values(rho, f, restarts=6, seed=0)
    assert np.abs(np.array(res.restart_values) - expected).max() <= 1e-10


def sequential_seesaw(rho, f, restarts, seed, max_iters=400, step_tol=1e-13):
    """Reference seesaw: one restart after another, one best response per party
    and half-step.  Returns per restart (final value, history, sweeps, converged)."""

    def best_response(r, coeffs, other):
        d, d_other = math.isqrt(r.shape[0]), math.isqrt(r.shape[1])
        cols = np.stack([e0.T.reshape(-1) for e0, _ in other]
                        + [np.eye(d_other).reshape(-1)], axis=1)
        weights = np.concatenate([(coeffs[..., 0] - coeffs[..., 1]).transpose(1, 0, 2),
                                  coeffs[..., 1].sum(axis=1)[None]])
        k = ((r @ cols) @ weights.reshape(cols.shape[1], -1)).reshape(d, d, -1, 2)
        own, value = [], 0.0
        for x in range(k.shape[2]):
            diff = k[:, :, x, 0] - k[:, :, x, 1]
            w, v = np.linalg.eigh((diff + diff.conj().T) / 2)
            pos = v[:, w > 0.0]
            proj = pos @ pos.conj().T
            own.append([proj, np.eye(d) - proj])
            value += float(np.trace(k[:, :, x, 1]).real + w[w > 0.0].sum())
        return own, value

    coll = collect_parties(rho)
    da, db = coll.layout.dim_of("A"), coll.layout.dim_of("B")
    r = coll.mat.reshape(da, db, da, db).transpose(0, 2, 1, 3).reshape(da * da, db * db)
    coeffs_bob = f.coeffs.transpose(1, 0, 3, 2)
    runs = []
    for alice, bob in seesaw_starts(f, da, db, restarts, np.random.default_rng(seed)):
        history, prev, converged = [], -math.inf, False
        for sweeps in range(1, max_iters + 1):
            alice, val = best_response(r, f.coeffs, bob)
            history.append(val)
            bob, val = best_response(r.T, coeffs_bob, alice)
            history.append(val)
            if val - prev < step_tol:
                converged = True
                break
            prev = val
        runs.append((history[-1], history, sweeps, converged))
    return runs


def assert_matches_sequential(rho, f, restarts, seed=0, **knobs):
    """Lockstep and sequential restarts agree; returns the reference runs."""
    res = seesaw(rho, f, restarts=restarts, seed=seed, **knobs)
    runs = sequential_seesaw(rho, f, restarts, seed, **knobs)
    assert len(res.restart_values) == len(runs) == restarts + 1
    assert np.abs(np.array(res.restart_values) - [run[0] for run in runs]).max() <= 1e-12
    # the best restart's audit trail, taken at the index the library chose: a
    # tie at rounding level may make the reference pick another restart
    _, history, sweeps, converged = runs[res.restart_values.index(res.value)]
    assert (res.iterations, res.converged) == (sweeps, converged)
    assert len(res.history) == len(history)
    assert np.abs(np.array(res.history) - history).max() <= 1e-12
    return runs


@pytest.mark.parametrize("name", sorted(SHIPPED_STATES))
def test_seesaw_matches_sequential_reference_on_shipped_states(name, chsh_functional):
    assert_matches_sequential(SHIPPED_STATES[name](), chsh_functional, restarts=6)


@pytest.mark.parametrize("restarts, max_iters", [(6, 400), (1, 400), (6, 1), (1, 1)])
def test_seesaw_matches_sequential_reference_on_asymmetric_functional(restarts, max_iters):
    runs = assert_matches_sequential(random_2x3_state(), asymmetric_functional(),
                                     restarts=restarts, max_iters=max_iters)
    if max_iters == 1:
        assert all(sweeps == 1 for *_, sweeps, _ in runs)


def test_seesaw_matches_sequential_reference_when_restarts_stop_apart(chsh_functional):
    runs = assert_matches_sequential(SHIPPED_STATES["eq8 d=2"](), chsh_functional,
                                     restarts=6, seed=1)
    assert len({sweeps for *_, sweeps, _ in runs}) > 2


def test_seesaw_deterministic_restart_reaches_the_classical_value(chsh_functional):
    # the single random restart of this seed ends at 5/6; the deterministic one
    # starts Alice's first best response at the classical value
    res = seesaw(ppt_pbit(4).rho, chsh_functional, restarts=1, seed=417)
    assert res.restart_values[0] < 1.0
    assert res.value >= classical_value(chsh_functional) - 1e-9


def test_seesaw_rejects_fewer_than_one_iteration(phi_plus, chsh_functional):
    with pytest.raises(ValidationError):
        seesaw(phi_plus, chsh_functional, max_iters=0)


def test_box_from_matches_kron_trace_on_unequal_dimensions():
    rng = np.random.default_rng(43)
    rho = random_bipartite_density(rng, 2, 3)
    meas = MeasurementFamily(
        [random_binary_povm(rng, 2) for _ in range(2)],
        [random_binary_povm(rng, 3) for _ in range(3)],
    )
    box = box_from(rho, meas)
    for x, y, a, b in itertools.product(range(2), range(3), range(2), range(2)):
        expected = np.trace(np.kron(meas.alice[x][a], meas.bob[y][b]) @ rho.mat).real
        assert box.p[x, y, a, b] == pytest.approx(expected, abs=1e-12)


def test_bound_report_invariants():
    rep = BoundReport("sample", 1.0, 2.5)
    assert rep.slack == pytest.approx(1.5)
    assert rep.verdict
    assert BoundReport("tight", 1.0, 1.0).verdict
    assert not BoundReport("violated", 2.0, 1.0).verdict
    assert rep.to_json() == {
        "context": "sample", "lhs": 1.0, "rhs": 2.5, "slack": 1.5, "verdict": True
    }
    assert BoundReport.csv_header() == "context,lhs,rhs,slack,verdict"
    assert rep.csv_row() == "sample,1.0,2.5,1.5,True"


def test_thm1_equal_states_gives_zero(tsirelson_meas, chsh_functional, phi_plus):
    rep = thm1_bound(chsh_functional, tsirelson_meas, phi_plus, phi_plus)
    assert rep.lhs == pytest.approx(0.0, abs=1e-12)
    assert rep.verdict


def test_thm1_max_entangled_versus_mixed(tsirelson_meas, chsh_functional, phi_plus):
    mixed = CMatrix(np.eye(4) / 4.0, SystemLayout.bipartite(2, 2), hermitian=True)
    rep = thm1_bound(chsh_functional, tsirelson_meas, phi_plus, mixed)
    assert rep.lhs == pytest.approx(TSIRELSON, abs=1e-9)
    assert rep.rhs == pytest.approx(3.0 * math.sqrt(2.0), abs=1e-9)
    assert rep.verdict


def test_thm1_random_sweep_small():
    rng = np.random.default_rng(39)
    f = chsh()
    for _ in range(20):
        rho = random_bipartite_density(rng, 2, 2)
        sigma = random_bipartite_density(rng, 2, 2)
        meas = MeasurementFamily(
            [random_binary_povm(rng, 2) for _ in range(2)],
            [random_binary_povm(rng, 2) for _ in range(2)],
        )
        rep = thm1_bound(f, meas, rho, sigma)
        assert rep.verdict
        assert rep.slack >= -1e-9


def test_cor1_zero_distance_candidate_gives_classical_rhs(chsh_functional):
    rng = np.random.default_rng(40)
    rho = random_separable(rng, 2, 2)
    rep = cor1_bound(chsh_functional, rho, rho, TSIRELSON, restarts=8, seed=0)
    assert rep.rhs == pytest.approx(2.0, abs=1e-12)
    assert rep.verdict


def test_cor1_rhs_monotone_in_candidate_distance(chsh_functional, phi_plus):
    fam = ppt_pbit(4)
    near = cor1_bound(chsh_functional, fam.rho, fam.rho, TSIRELSON, restarts=4, seed=0)
    far = cor1_bound(chsh_functional, fam.rho, fam.sigma_candidate, TSIRELSON,
                     restarts=4, seed=0)
    assert near.rhs <= far.rhs + 1e-12


def test_cor1_on_ppt_padded_private_bit(chsh_functional):
    fam = ppt_pbit(4)
    rep = cor1_bound(chsh_functional, fam.rho, fam.sigma_candidate, TSIRELSON,
                     restarts=16, seed=0)
    assert rep.verdict
    assert rep.rhs <= 2.0 + TSIRELSON * 0.5 + 1e-9


def test_certified_epsilon_scales_the_quantum_gap(chsh_functional):
    fam = ppt_pbit(4)
    eps = d_eps_membership(fam.rho, fam.sigma_candidate)
    value = seesaw(fam.rho, chsh_functional, restarts=16, seed=0).value
    assert value <= 2.0 + eps * TSIRELSON + 1e-6


def test_pbit_observation_bound_rhs_values(chsh_functional):
    rep2 = pbit_observation_bound(swap_x(2), chsh_functional, TSIRELSON,
                                  restarts=24, seed=0)
    assert rep2.rhs == pytest.approx(2.0 + TSIRELSON * 0.5, abs=1e-9)
    assert rep2.verdict
    rep4 = pbit_observation_bound(swap_x(4), chsh_functional, TSIRELSON,
                                  restarts=24, seed=0)
    assert rep4.rhs == pytest.approx(2.0 + TSIRELSON * 0.25, abs=1e-9)
    assert rep4.verdict


def test_seesaw_bound_is_the_seesaw_value_against_classical_plus_excess(chsh_functional):
    fam = ppt_pbit(4)
    rep = seesaw_bound(chsh_functional, fam.rho, 0.25, "row", 4, 3, 1e-6)
    assert (rep.context, rep.tol) == ("row", 1e-6)
    assert rep.lhs == seesaw(fam.rho, chsh_functional, restarts=4, seed=3).value
    assert rep.rhs == classical_value(chsh_functional) + 0.25
    # the library bounds are this row with their own excess
    excess = TSIRELSON * d_eps_membership(fam.rho, fam.sigma_candidate)
    cor1 = cor1_bound(chsh_functional, fam.rho, fam.sigma_candidate, TSIRELSON,
                      restarts=4, seed=3)
    assert cor1 == seesaw_bound(chsh_functional, fam.rho, excess,
                                "candidate-relaxed violation bound", 4, 3, TOL.verdict)


def test_d_eps_membership_values(chsh_functional):
    rng = np.random.default_rng(41)
    sep = random_separable(rng, 2, 2)
    assert d_eps_membership(sep, sep) == pytest.approx(0.0, abs=1e-12)
    fam = ppt_pbit(4)
    assert d_eps_membership(fam.rho, fam.sigma_candidate) <= 0.5 + 1e-9
    # the corners-zeroed companion of the recursive family certifies twice the
    # recorded key-corner weight: both corners survive transposition
    hid = hiding_state()
    eps = d_eps_membership(hid.rho, hid.sigma_candidate)
    assert eps == pytest.approx(2.0 * hid.params["delta"], abs=1e-9)


def test_seesaw_chain_consistency_on_tensor_pair(chsh_functional):
    hid = hiding_state()
    rho_pt = partial_transpose(hid.rho)
    doubled = tensor(hid.rho, rho_pt)
    value = seesaw(doubled, chsh_functional, restarts=8, seed=0).value
    assert value <= 2.0 + TSIRELSON / 1.0 + 1e-9


@settings(deadline=None, max_examples=20)
@given(st.integers(0, 10_000))
def test_nonnegativize_preserves_values_property(seed):
    rng = np.random.default_rng(seed)
    f = BellFunctional(2, 2, 2, 2, rng.normal(size=(2, 2, 2, 2)))
    g = nonnegativize(f)
    assert g.coeffs.min() >= 0.0
    box = random_box(rng)
    assert functional_value(g, box) == pytest.approx(
        functional_value(f, box) + (g.offset - f.offset), abs=1e-10
    )


@settings(deadline=None, max_examples=10)
@given(st.integers(0, 10_000))
def test_thm1_property(seed):
    rng = np.random.default_rng(seed)
    f = BellFunctional(2, 2, 2, 2, rng.normal(size=(2, 2, 2, 2)))
    rho = random_bipartite_density(rng, 2, 2)
    sigma = random_bipartite_density(rng, 2, 2)
    meas = MeasurementFamily(
        [random_binary_povm(rng, 2) for _ in range(2)],
        [random_binary_povm(rng, 2) for _ in range(2)],
    )
    assert thm1_bound(f, meas, rho, sigma).verdict
