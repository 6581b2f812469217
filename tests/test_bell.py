"""Tests for functionals, boxes, the seesaw, and the transposition bound reports."""

import itertools
import json
import math
import tracemalloc

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
    box_from,
    certificate_rows,
    chsh,
    classical_value,
    d_eps_membership,
    functional_value,
    hiding_state,
    max_entangled,
    op_norm,
    partial_transpose,
    ppt_pbit,
    private_bit,
    seesaw,
    seesaw_bound,
    swap_x,
    tensor,
    trace_norm,
)
import ptbounds.bell as bell_module
from ptbounds.linalg import _realigned
from ptbounds.rand import random_seesaw_starts

from conftest import (
    bfs_components,
    collected,
    dense_bell_operator,
    dense_of_blocks,
    dense_realigned,
    random_binary_povm,
    random_bipartite_density,
    random_density,
    random_separable,
    transposition_bound,
)

TSIRELSON = 2.0 * math.sqrt(2.0)


def random_box(rng, nx=2, ny=2, na=2, nb=2) -> Box:
    p = rng.random(size=(nx, ny, na, nb))
    p /= p.sum(axis=(2, 3), keepdims=True)
    return Box(p)


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
    zero = BellFunctional(np.zeros((2, 2, 2, 2)))
    assert classical_value(zero) == 0.0
    single = BellFunctional(np.full((1, 1, 1, 1), 7.0))
    assert classical_value(single) == 7.0


def test_classical_value_matches_brute_force_on_asymmetric_scenarios():
    rng = np.random.default_rng(31)
    for nx, ny, na, nb in ((1, 2, 3, 2), (2, 1, 2, 3), (2, 2, 3, 2)):
        f = BellFunctional(rng.normal(size=(nx, ny, na, nb)))
        assert classical_value(f) == pytest.approx(brute_force_classical(f), abs=1e-12)


def test_classical_value_enumeration_guard():
    # the guard counts the strategies enumerated, the smaller party's: 2 here
    lopsided = BellFunctional(np.zeros((23, 1, 2, 2)))
    assert classical_value(lopsided) == 0.0
    big = BellFunctional(np.zeros((17, 17, 2, 2)))
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
    f = BellFunctional(coeffs)
    assert classical_value(f) == 144.0
    assert seesaw(max_entangled(2), f, restarts=1).value >= 144.0 - 1e-9


def loop_optimal_deterministic(f):
    """The enumeration the GEMM replaced: one strategy at a time, in itertools.product order."""
    coeffs = f.coeffs
    bob_enumerated = f.nb ** f.ny <= f.na ** f.nx
    if not bob_enumerated:
        coeffs = coeffs.transpose(1, 0, 3, 2)
    ni, no = coeffs.shape[1], coeffs.shape[3]
    best, best_strat, best_totals = -math.inf, (), None
    for strat in itertools.product(range(no), repeat=ni):
        totals = coeffs[:, range(ni), :, strat].sum(axis=0)
        value = float(totals.max(axis=1).sum())
        if value > best:
            best, best_strat, best_totals = value, strat, totals
    bob = best_strat if bob_enumerated else best_totals.argmax(axis=1)
    return best, [int(b) for b in bob]


@pytest.mark.parametrize("chunk", [1, 7, bell_module._ENUM_CHUNK])
@pytest.mark.parametrize("seed", range(4))
def test_optimal_deterministic_matches_the_strategy_loop_ties_included(monkeypatch, seed, chunk):
    # integer tables are summed exactly in any order, so the values agree bit for
    # bit; entries in {-1, 0, 1} make many strategies tie, and the first one in
    # product order must win, also across GEMM chunks
    monkeypatch.setattr(bell_module, "_ENUM_CHUNK", chunk)
    rng = np.random.default_rng(700 + seed)
    for _ in range(15):
        f = BellFunctional(rng.integers(-1, 2, size=tuple(rng.integers(1, 5, size=4))))
        assert bell_module._optimal_deterministic(f) == loop_optimal_deterministic(f)
    flat = BellFunctional(np.zeros((3, 2, 2, 3)))  # every strategy ties
    assert bell_module._optimal_deterministic(flat) == loop_optimal_deterministic(flat)


@pytest.mark.parametrize("sizes", [(0, 2, 2, 2), (2, 0, 2, 2), (2, 2, 0, 2), (2, 2, 2, 0)])
@pytest.mark.parametrize("kind", [Box, BellFunctional])
def test_box_and_functional_refuse_sizes_below_one(kind, sizes):
    with pytest.raises(ValidationError, match="at least 1"):
        kind(np.zeros(sizes))


@pytest.mark.parametrize("kind, noun", [(Box, "box"), (BellFunctional, "coefficient")])
def test_box_and_functional_refuse_a_table_of_the_wrong_shape(kind, noun):
    # the table's shape is the scenario, so only its number of indices can be wrong
    with pytest.raises(ValidationError, match=rf"^{noun} table must have 4 indices, each of "
                       rf"size at least 1, got shape \(2, 2, 4\)$"):
        kind(np.full((2, 2, 4), 0.25))


def test_functional_refuses_coefficients_whose_sum_overflows():
    # each 1e308 is finite, their sum is not: box values and s_0 - s_1 could overflow
    with pytest.raises(ValidationError, match="finite absolute sum"):
        BellFunctional(np.full((2, 2, 2, 2), 1e308))
    BellFunctional(np.full((2, 2, 2, 2), 1e307))


def test_functional_and_box_json_roundtrip():
    rng = np.random.default_rng(34)
    f = BellFunctional(rng.normal(size=(2, 2, 2, 2)))
    back = BellFunctional.from_json(f.to_json())
    assert np.array_equal(back.coeffs, f.coeffs)
    box = random_box(rng)
    box_back = Box.from_json(box.to_json())
    assert np.abs(box_back.p - box.p).max() == 0.0
    with pytest.raises(ValidationError):
        Box.from_json({"nx": 2, "ny": 2, "na": 2, "nb": 2, "p": [0.1, 0.2]})
    with pytest.raises(ValidationError):
        BellFunctional.from_json({"nx": 2, "ny": 2})


def test_box_validation_rejects_bad_tables():
    good = np.full((2, 2, 2, 2), 0.25)
    Box(good)
    with pytest.raises(ValidationError):
        Box(good * 2.0)
    bad = good.copy()
    bad[0, 0, 0, 0] = -0.1
    bad[0, 0, 1, 1] = 0.6
    with pytest.raises(ValidationError):
        Box(bad)


def test_measurement_family_validation():
    eye = np.eye(2)
    MeasurementFamily([[eye / 2, eye / 2]], [[eye]])
    with pytest.raises(ValidationError):
        MeasurementFamily([[eye, eye]], [[eye]])  # sums to 2I
    neg = np.diag([1.5, -0.5])
    with pytest.raises(ValidationError):
        MeasurementFamily([[neg, eye - neg]], [[eye]])
    # each party must stack as [input, outcome, d, d]: ragged outcome counts,
    # an empty party or POVM, effects that are not square matrices and effects
    # of two dimensions all get one message, before any effect is read
    unstackable = [
        ([[eye / 2, eye / 2], [eye]], [[eye / 2, eye / 2], [eye / 2, eye / 2]], "alice"),
        ([[eye]], [[eye / 2, eye / 2], [eye / 2, eye / 4, eye / 4]], "bob"),
        ([], [[eye]], "alice"),
        ([[eye]], [], "bob"),
        ([[]], [[eye]], "alice"),
        ([[eye]], [[eye], []], "bob"),
        ([[np.float64(1.0)]], [[eye]], "alice"),
        ([[eye]], [[1.0]], "bob"),
        ([[np.ones(2)]], [[eye]], "alice"),
        ([[eye]], [[eye], [np.eye(3)]], "bob"),
        ([[np.ones((2, 3))]], [[eye]], "alice"),
        ([[eye]], np.zeros((1, 1, 0, 0)), "bob"),
        ([["1"]], [[eye]], "alice"),
        ([[eye]], [[10**400]], "bob"),
    ]
    for alice, bob, side in unstackable:
        with pytest.raises(ValidationError,
                           match=rf"^{side} POVMs do not stack as \[input, outcome, d, d\]$"):
            MeasurementFamily(alice, bob)


def test_measurement_family_rejects_non_hermitian_effects():
    # (E + E^+)/2 = I/2 is a fine effect, but E itself is not hermitian
    e = np.array([[0.5, 0.3], [-0.3, 0.5]])
    with pytest.raises(ValidationError, match=r"^alice input 0: effect expects a hermitian "
                       r"matrix, deviation 6\.000e-01$"):
        MeasurementFamily([[e, np.eye(2) - e]], [[e, np.eye(2) - e]])


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
def test_measurement_family_rejects_non_finite_effects(bad):
    # NaN > tol is false, so each of the hermitian, eigenvalue and sum checks
    # let such an effect through with only RuntimeWarnings
    eye, zero = np.eye(2), np.zeros((2, 2))
    e = np.diag([bad, 0.0])
    with pytest.raises(ValidationError, match="^alice input 0: effect expects a finite matrix$"):
        MeasurementFamily([[e, eye - e]], [[eye, zero]])
    with pytest.raises(ValidationError, match="^bob input 1: effect expects a finite matrix$"):
        MeasurementFamily([[eye, zero]], [[eye, zero], [eye - e, e]])


def _check_povms_per_effect(side, povms):
    """The per-effect validation loop that the stacked one replaced, kept as its oracle."""
    for i, povm in enumerate(povms):
        for e in povm:
            with np.errstate(invalid="ignore"):
                diff = e - e.conj().T
            dev = float(np.abs(diff).max())
            if not math.isfinite(dev):
                raise ValidationError(f"{side} input {i}: effect expects a finite matrix")
            if dev > TOL.structural:
                raise ValidationError(f"{side} input {i}: effect expects a hermitian "
                                      f"matrix, deviation {dev:.3e}")
            w = float(np.linalg.eigvalsh(e).min())
            if w < -TOL.psd:
                raise ValidationError(f"{side} input {i}: effect has eigenvalue {w:.3e}")
        if np.abs(povm.sum(axis=0) - np.eye(povms.shape[-1])).max() > TOL.assertion:
            raise ValidationError(f"{side} input {i}: POVM does not sum to identity")


def _oracle_message(alice, bob):
    """The message the per-effect loop gives on the stacked parties, or None."""
    try:
        for side, povms in (("alice", alice), ("bob", bob)):
            _check_povms_per_effect(side, np.asarray(povms, dtype=np.complex128))
    except ValidationError as exc:
        return str(exc)
    return None


def _plant(povms, rng, fault, i, k):
    """Spoil effect k of input i of a stacked party with ``fault``."""
    d = povms.shape[-1]
    e = povms[i, k]
    if fault == "non-finite":
        e[rng.integers(d), rng.integers(d)] = rng.choice([math.nan, math.inf, -math.inf])
    elif fault == "non-hermitian":
        r, c = rng.choice(d, size=2, replace=False) if d > 1 else (0, 0)
        e[r, c] += rng.choice([1e-3, 0.3, 1j * 1e-7])
        if d == 1:
            e[0, 0] += 0.2j
    elif fault == "negative":
        # a negative eigenvalue, with the POVM's sum kept at the identity
        v = np.linalg.qr(rng.normal(size=(d, 1)) + 1j * rng.normal(size=(d, 1)))[0]
        shift = rng.uniform(0.01, 0.5) * (v @ v.conj().T)
        e -= 2.0 * shift
        povms[i, (k + 1) % povms.shape[1]] += 2.0 * shift
    else:  # a sum off the identity, every effect still positive
        with np.errstate(invalid="ignore"):  # an effect spoilt before may hold inf
            e *= 1.0 + rng.uniform(0.01, 0.5)


@settings(deadline=None, max_examples=60)
@given(st.integers(0, 2**32 - 1),
       st.lists(st.tuples(st.sampled_from(["alice", "bob"]),
                          st.sampled_from(["non-finite", "non-hermitian", "negative", "sum"])),
                min_size=1, max_size=3))
def test_stacked_povm_validation_gives_the_per_effect_message(seed, faults):
    rng = np.random.default_rng(seed)
    parties = {}
    for side in ("alice", "bob"):
        d, inputs = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        parties[side] = np.array([random_binary_povm(rng, d) if d > 1 else [np.eye(1) * 0.3,
                                                                            np.eye(1) * 0.7]
                                  for _ in range(inputs)], dtype=np.complex128)
    for side, fault in faults:
        povms = parties[side]
        i, k = int(rng.integers(povms.shape[0])), int(rng.integers(povms.shape[1]))
        if fault == "negative" and povms.shape[1] < 2:
            continue
        _plant(povms, rng, fault, i, k)
    want = _oracle_message(parties["alice"], parties["bob"])
    if want is None:
        MeasurementFamily(parties["alice"], parties["bob"])
    else:
        with pytest.raises(ValidationError) as info:
            MeasurementFamily(parties["alice"], parties["bob"])
        assert str(info.value) == want


def test_measurement_family_json_is_one_pair_per_entry():
    # the oracle is the writer of nested effect lists: [re, im] of each entry in
    # row-major order; the stacked writer must give the same floats, -0.0 included
    rng = np.random.default_rng(46)
    meas = MeasurementFamily([random_binary_povm(rng, 3) for _ in range(2)],
                             [random_binary_povm(rng, 2) for _ in range(3)])
    meas.alice.imag[1, 0, 2, 2] = -0.0
    meas.bob.real[2, 1, 0, 1] = -0.0

    def per_entry(povms):
        return [[[[float(z.real), float(z.imag)] for z in e.reshape(-1)] for e in povm]
                for povm in povms]

    expected = {"dim_a": 3, "dim_b": 2, "alice": per_entry(meas.alice),
                "bob": per_entry(meas.bob)}
    assert json.dumps(meas.to_json()) == json.dumps(expected)
    assert json.dumps(expected).count("-0.0") >= 2


def test_seesaw_measurements_are_stacked_arrays():
    rng = np.random.default_rng(47)
    f = BellFunctional(rng.normal(size=(2, 3, 2, 2)))
    res = seesaw(random_bipartite_density(rng, 3, 2), f, restarts=2, seed=1)
    for povms, shape in ((res.measurements.alice, (2, 2, 3, 3)),
                         (res.measurements.bob, (3, 2, 2, 2))):
        assert isinstance(povms, np.ndarray)
        assert povms.dtype == np.complex128 and povms.shape == shape
        assert np.array_equal(povms[:, 1], np.eye(shape[-1]) - povms[:, 0])
    assert (res.measurements.dim_a, res.measurements.dim_b) == (3, 2)


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
    with pytest.raises(ValidationError, match="^state dimensions 3x3 do not match "
                       "measurements 2x2$"):
        box_from(max_entangled(3), tsirelson_meas)
    with pytest.raises(ValidationError, match=r"^functional_value: functional scenario "
                       r"\(2, 2, 2, 2\) does not match \(1, 1, 1, 1\)$"):
        functional_value(chsh_functional, Box(np.ones((1, 1, 1, 1))))


def test_bell_operator_matches_box_value(chsh_functional):
    rng = np.random.default_rng(36)
    rho = random_bipartite_density(rng, 2, 2)
    meas = MeasurementFamily(
        [random_binary_povm(rng, 2) for _ in range(2)],
        [random_binary_povm(rng, 2) for _ in range(2)],
    )
    s_op = dense_bell_operator(chsh_functional, meas)
    direct = float(np.trace(s_op.mat @ rho.mat).real)
    assert direct == pytest.approx(
        functional_value(chsh_functional, box_from(rho, meas)), abs=1e-10
    )


def test_bell_operator_of_transposed_bob_equals_partial_transpose(chsh_functional):
    # S^PT is the Bell operator of Bob's transposed effects, themselves a POVM
    rng = np.random.default_rng(38)
    alice = [random_binary_povm(rng, 2) for _ in range(2)]
    bob = [random_binary_povm(rng, 3) for _ in range(2)]
    plain = dense_bell_operator(chsh_functional, MeasurementFamily(alice, bob))
    transposed = dense_bell_operator(
        chsh_functional, MeasurementFamily(alice, [[e.T for e in povm] for povm in bob]))
    assert np.abs(plain.mat - partial_transpose(plain).mat).max() > 0.1
    assert np.abs(partial_transpose(plain).mat - transposed.mat).max() <= 1e-14


def test_bell_operator_nonnegative_coefficients_give_psd():
    # the dense Bell operator checks criterion 2 and the fixed-measurement
    # bound: with nonnegative coefficients it is a sum of products of POVM
    # elements, hence positive semidefinite
    rng = np.random.default_rng(37)
    for _ in range(10):
        f = BellFunctional(rng.random(size=(2, 2, 2, 2)))
        meas = MeasurementFamily(
            [random_binary_povm(rng, 2) for _ in range(2)],
            [random_binary_povm(rng, 2) for _ in range(2)],
        )
        w = np.linalg.eigvalsh(dense_bell_operator(f, meas).mat)
        assert float(w.min()) >= -1e-10


def test_bell_operator_tsirelson_certificate(tsirelson_meas, chsh_functional):
    assert op_norm(dense_bell_operator(chsh_functional, tsirelson_meas)) == pytest.approx(
        TSIRELSON, abs=1e-9
    )


def test_seesaw_is_monotone_and_deterministic(phi_plus, chsh_functional):
    res = seesaw(phi_plus, chsh_functional, restarts=8, seed=3)
    for earlier, later in zip(res.history, res.history[1:]):
        assert later - earlier >= -1e-12
    again = seesaw(phi_plus, chsh_functional, restarts=8, seed=3)
    assert again.value == res.value
    assert again.restart_values == res.restart_values
    assert isinstance(res.measurements, MeasurementFamily)


def test_seesaw_rejects_non_binary_outcomes(phi_plus):
    f = BellFunctional(np.zeros((2, 2, 3, 2)))
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


def bob_starts(f, db, restarts, seed):
    """Bob's starting measurements in the library's order: the random starts
    drawn in one group, then an optimal deterministic strategy."""
    eye, zero = np.eye(db), np.zeros((db, db))
    for effects in next(random_seesaw_starts(seed, f.ny, db, [restarts])):
        yield [[e0, eye - e0] for e0 in effects]
    yield [[eye, zero] if b == 0 else [zero, eye] for b in optimal_bob_outputs(f)]


def dense_restart_values(rho, f, restarts, seed, max_iters=400, step_tol=1e-13):
    """Reference seesaw with the library's starts and stopping rule."""
    da, db = rho.layout.dim_of("A"), rho.layout.dim_of("B")
    r4 = collected(rho).mat.reshape(da, db, da, db)
    finals = []
    for bob in bob_starts(f, db, restarts, seed):
        # Alice's start is replaced by her first best response, as in the library
        alice = [[np.eye(da), np.zeros((da, da))] for _ in range(f.nx)]
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


def bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


def bipartite_components(dense):
    """(rows, cols) of each component of the graph that links row i and column j of a
    dense R where R_ij is stored (its bits are not those of +0.0), by breadth-first
    search."""
    na, nb = dense.shape
    stored = (bits(dense).reshape(na, nb, 2) != 0).any(axis=2)
    adj = np.zeros((na + nb, na + nb), dtype=bool)
    adj[:na, na:], adj[na:, :na] = stored, stored.T
    return sorted((tuple(b[b < na].tolist()), tuple((b[b >= na] - na).tolist()))
                  for b in bfs_components(adj)[1])


def assert_blocks_match_dense(rho):
    """_realigned's blocks are the components of the dense realignment, stacked by
    shape, and hold its entries bit for bit; their products are the dense ones."""
    r = _realigned(rho, "seesaw")
    dense = dense_realigned(rho)
    assert (r.da ** 2, r.db ** 2) == dense.shape
    assert np.array_equal(bits(dense_of_blocks(r)), bits(dense))
    shapes = [blocks.shape[1:] for *_, blocks in r.groups]
    assert shapes == sorted(set(shapes))
    found = []
    for idx_r, idx_c, blocks in r.groups:
        assert (np.diff(idx_r[:, 0]) > 0).all()
        assert (np.diff(idx_r, axis=1) > 0).all() and (np.diff(idx_c, axis=1) > 0).all()
        found += zip(map(tuple, idx_r.tolist()), map(tuple, idx_c.tolist()))
    assert sorted(found) == bipartite_components(dense)
    rng = np.random.default_rng(3)
    for width, transpose, full in ((r.da ** 2, False, dense), (r.db ** 2, True, dense.T)):
        x = rng.normal(size=(5, width)) + 1j * rng.normal(size=(5, width))
        assert np.abs(r.times(x, transpose) - x @ full).max() <= 1e-14
    return r


def test_realigned_equals_the_collect_parties_route_on_interleaved_factors():
    r = assert_blocks_match_dense(doubled_hiding_state())  # factors A A B B A A B B
    assert (r.da, r.db) == (16, 16)
    assert sorted(blocks.shape[1:] for *_, blocks in r.groups) == [
        (1, 1), (2, 2), (4, 4), (8, 8), (16, 16)]


def test_seesaw_refuses_states_without_a_bipartite_layout(chsh_functional):
    with pytest.raises(ValidationError, match="extra parties"):
        seesaw(CMatrix(np.eye(4) / 4, SystemLayout(((2, "A"), (2, "C")))), chsh_functional)
    with pytest.raises(ValidationError, match="needs a CMatrix with a layout"):
        seesaw(CMatrix(np.eye(4) / 4), chsh_functional)


def test_box_from_and_seesaw_name_themselves_on_a_state_without_layout(chsh_functional,
                                                                     tsirelson_meas):
    bare = CMatrix(np.eye(4) / 4)
    with pytest.raises(ValidationError, match="^box_from needs a CMatrix with a layout$"):
        box_from(bare, tsirelson_meas)
    with pytest.raises(ValidationError, match="^seesaw needs a CMatrix with a layout$"):
        seesaw(bare, chsh_functional)


SHIPPED_STATES = {
    "eq8 d=2": lambda: private_bit(swap_x(2)),
    "eq8 d=3": lambda: private_bit(swap_x(3)),
    "eq8 d=4": lambda: private_bit(swap_x(4)),
    "eq10 ds=4": lambda: ppt_pbit(4).rho,
    "prop1 m=1": doubled_hiding_state,
}


@pytest.mark.parametrize("name", sorted(SHIPPED_STATES))
def test_realigned_blocks_match_the_dense_realignment_on_shipped_states(name):
    assert_blocks_match_dense(SHIPPED_STATES[name]())


def test_realigned_blocks_of_eq10_ds16():
    # the key corner's 32 x 32 block and the 992 isolated entries of the shield
    r = assert_blocks_match_dense(ppt_pbit(16).rho)
    assert [(len(idx_r), blocks.shape[1:]) for idx_r, _, blocks in r.groups] == [
        (992, (1, 1)), (1, (32, 32))]


def test_realigned_blocks_of_a_rectangular_realignment():
    # no shipped state has a non-square block: here R is 4 x 9, row 0 meets columns
    # 0 and 1, rows 1 and 3 meet column 8, and row 2 and columns 2..7 are in no block
    a = np.zeros((6, 6), dtype=np.complex128)
    a[0, 0], a[0, 1], a[2, 5], a[5, 5] = 0.4, 0.1j, 0.2 - 0.1j, 0.6
    r = assert_blocks_match_dense(CMatrix(a, SystemLayout.bipartite(2, 3)))
    assert [(idx_r.tolist(), idx_c.tolist()) for idx_r, idx_c, _ in r.groups] == [
        ([[0]], [[0, 1]]), ([[1, 3]], [[8]])]


@pytest.mark.parametrize("name", sorted(SHIPPED_STATES))
def test_seesaw_reaches_classical_value_on_shipped_states(name, chsh_functional):
    value = seesaw(SHIPPED_STATES[name](), chsh_functional, restarts=32, seed=0).value
    assert value >= classical_value(chsh_functional) - 1e-9


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("name", sorted(SHIPPED_STATES))
def test_seesaw_measurements_pass_validation_on_shipped_states(name, seed, chsh_functional):
    # the seesaw builds its result's measurements without validating them again
    meas = seesaw(SHIPPED_STATES[name](), chsh_functional, seed=seed).measurements
    again = MeasurementFamily(meas.alice, meas.bob)
    assert again.alice.tobytes() == meas.alice.tobytes()
    assert again.bob.tobytes() == meas.bob.tobytes()


def test_seesaw_runs_on_unequal_local_dimensions(chsh_functional):
    rho = random_2x3_state()
    res = seesaw(rho, chsh_functional, restarts=4, seed=0)
    assert (res.measurements.dim_a, res.measurements.dim_b) == (2, 3)
    box = box_from(rho, res.measurements)
    assert functional_value(chsh_functional, box) == pytest.approx(res.value, abs=1e-10)


def asymmetric_functional():
    """Two Alice inputs, three Bob inputs, no symmetry between the parties."""
    return BellFunctional(np.random.default_rng(44).normal(size=(2, 3, 2, 2)))


def drawn_starts(seed, ny, d, counts):
    """Every group random_seesaw_starts yields for ``counts``, joined in order."""
    return np.concatenate(list(random_seesaw_starts(seed, ny, d, counts)))


@pytest.mark.parametrize("d", [1, 2, 3, 8])
@pytest.mark.parametrize("ny", [1, 3])
def test_random_seesaw_starts_are_projectors_of_rank_one_to_d_minus_one(ny, d):
    starts = drawn_starts(5, ny, d, [7])
    assert starts.shape == (7, ny, d, d) and starts.dtype == np.complex128
    if d == 1:
        assert np.array_equal(starts, np.ones((7, ny, 1, 1)))
        return
    assert np.abs(starts - starts.conj().swapaxes(-1, -2)).max() <= 1e-12
    assert np.abs(starts @ starts - starts).max() <= 1e-12
    traces = np.trace(starts, axis1=-2, axis2=-1)
    ranks = np.rint(traces.real)
    assert np.abs(traces - ranks).max() <= 1e-12
    assert ((ranks >= 1) & (ranks <= d - 1)).all()


def test_random_seesaw_starts_are_seeded():
    same, other = drawn_starts(3, 2, 4, [5]), drawn_starts(4, 2, 4, [5])
    assert np.array_equal(bits(drawn_starts(3, 2, 4, [5])), bits(same))
    assert not np.allclose(same, other)


@pytest.mark.parametrize("d", [2, 5])
def test_random_seesaw_start_depends_only_on_the_seed_and_the_restart_index(d):
    # bit for bit, whatever the number of restarts and however they are grouped
    seven = drawn_starts(11, 2, d, [7])
    assert np.array_equal(bits(drawn_starts(11, 2, d, [1])), bits(seven[:1]))
    for counts in ([1] * 7, [3, 0, 4], [2, 5], [6, 1, 0]):
        assert np.array_equal(bits(drawn_starts(11, 2, d, counts)), bits(seven))


def test_random_seesaw_starts_draw_a_group_only_when_it_is_reached():
    asked = []

    def counts():
        for count in (2, 5):
            asked.append(count)
            yield count

    groups = random_seesaw_starts(0, 2, 4, counts())
    assert asked == [] and next(groups).shape == (2, 2, 4, 4) and asked == [2]


def test_random_seesaw_start_ranks_cover_one_to_d_minus_one():
    # a draw stuck at one rank, or never reaching d - 1, fails
    traces = np.trace(drawn_starts(0, 1, 4, [2000]), axis1=-2, axis2=-1).real
    assert set(np.rint(traces).astype(int).ravel().tolist()) == {1, 2, 3}


@pytest.mark.parametrize("seed", range(4))
def test_seesaw_reaches_sqrt5_on_eq8_d2(seed, chsh_functional):
    # the maximum of CHSH on the private bit of swap_x(2); starts that are all
    # identities leave every restart at the classical value 2
    value = seesaw(SHIPPED_STATES["eq8 d=2"](), chsh_functional, seed=seed).value
    assert abs(value - math.sqrt(5.0)) <= 1e-12


@pytest.mark.parametrize("make_state, make_functional", [
    (SHIPPED_STATES["eq8 d=2"], chsh),
    (SHIPPED_STATES["eq8 d=3"], chsh),
    (SHIPPED_STATES["eq8 d=4"], chsh),
    (lambda: private_bit(swap_x(6)), chsh),
    (lambda: private_bit(swap_x(8)), chsh),
    (SHIPPED_STATES["eq10 ds=4"], chsh),
    (lambda: ppt_pbit(9).rho, chsh),
    (lambda: ppt_pbit(16).rho, chsh),
    (SHIPPED_STATES["prop1 m=1"], chsh),
    (random_2x3_state, chsh),
    (random_2x3_state, asymmetric_functional),
], ids=["eq8 d=2", "eq8 d=3", "eq8 d=4", "eq8 d=6", "eq8 d=8", "eq10 ds=4", "eq10 ds=9",
        "eq10 ds=16", "prop1 m=1", "2x3", "2x3 asymmetric"])
def test_seesaw_restart_values_match_dense_reference(make_state, make_functional):
    # the block products and the score operators formed from them agree with the
    # dense partial-trace einsums to rounding
    rho, f = make_state(), make_functional()
    res = seesaw(rho, f, restarts=6, seed=0)
    expected = dense_restart_values(rho, f, restarts=6, seed=0)
    assert np.abs(np.array(res.restart_values) - expected).max() <= 1e-12


def test_prop1_m2_restart_values_match_the_dense_gemm():
    # the doubled hiding state at m = 2 (dimension 4096, 46,656 nonzeros in 729
    # blocks of 7 shapes) against the seesaw on its dense R
    hid = hiding_state(m=2).rho
    rho, f = tensor(hid, partial_transpose(hid)), chsh()
    res = seesaw(rho, f, restarts=1, seed=0)
    runs = sequential_seesaw(rho, f, restarts=1, seed=0)
    assert np.abs(np.array(res.restart_values) - [run[0] for run in runs]).max() <= 1e-12


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

    r = dense_realigned(rho)
    db = math.isqrt(r.shape[1])
    coeffs_bob = f.coeffs.transpose(1, 0, 3, 2)
    runs = []
    for bob in bob_starts(f, db, restarts, seed):
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


def assert_matches_sequential(rho, f, restarts, seed=0, max_iters=400):
    """Lockstep and sequential restarts agree, the reference capped at
    ``max_iters`` sweeps as the library is at _MAX_SWEEPS; returns the
    reference runs."""
    res = seesaw(rho, f, restarts=restarts, seed=seed)
    runs = sequential_seesaw(rho, f, restarts, seed, max_iters=max_iters)
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
def test_seesaw_matches_sequential_reference_on_asymmetric_functional(monkeypatch, restarts,
                                                                      max_iters):
    monkeypatch.setattr(bell_module, "_MAX_SWEEPS", max_iters)
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
    res = seesaw(ppt_pbit(4).rho, chsh_functional, restarts=1, seed=120)
    assert res.restart_values[0] < 1.0
    assert res.value >= classical_value(chsh_functional) - 1e-9


def seesaw_bits(res):
    """Every field of a SeesawResult as bytes, the measurements' entries included."""
    floats = [res.value, res.iterations, res.converged, *res.history, *res.restart_values]
    return (len(res.history), np.array(floats, dtype=np.float64).tobytes(),
            res.measurements.alice.tobytes(), res.measurements.bob.tobytes())


@pytest.mark.parametrize("seed", [0, 3])
@pytest.mark.parametrize("name", ["eq8 d=3", "eq10 ds=4", "prop1 m=1"])
def test_seesaw_restart_groups_give_the_one_group_result_bit_for_bit(monkeypatch, name, seed,
                                                                    chsh_functional):
    # the budget forces groups of 1 and of 3 (3, 3, 2) on the 8 restarts, the
    # deterministic one last, where the default budget runs them as one group;
    # each group draws the next starts of the seed's streams.  The values
    # agree to rounding on any BLAS; the byte pin checks that the BLAS in use
    # rounds a row of a product the same whatever the product's row count,
    # which OpenBLAS 0.3.31 does and BLAS in general does not promise
    rho = SHIPPED_STATES[name]()
    r = _realigned(rho, "seesaw")
    per_restart = 16 * 2 * max(r.da, r.db) ** 2  # CHSH: two inputs a side
    assert 8 * per_restart <= bell_module._GROUP_BYTES
    sizes, run_group = [], bell_module._seesaw_group
    monkeypatch.setattr(bell_module, "_seesaw_group",
                        lambda r, f, bob: sizes.append(len(bob)) or run_group(r, f, bob))
    one = seesaw(rho, chsh_functional, restarts=7, seed=seed)
    for budget, expected in ((per_restart, [1] * 8), (3 * per_restart, [3, 3, 2])):
        sizes.clear()
        monkeypatch.setattr(bell_module, "_GROUP_BYTES", budget)
        grouped = seesaw(rho, chsh_functional, restarts=7, seed=seed)
        assert sizes == expected
        assert np.allclose(grouped.restart_values, one.restart_values, rtol=0.0, atol=1e-12)
        assert abs(grouped.value - one.value) <= 1e-12
        assert seesaw_bits(grouped) == seesaw_bits(one)


@pytest.mark.parametrize("budget", [bell_module._GROUP_BYTES, 1], ids=["one group", "groups of 1"])
def test_seesaw_tie_goes_to_the_first_restart_reaching_the_best_value(monkeypatch, budget,
                                                                     chsh_functional):
    # at this seed restarts 0 and 4 end at the same best value, above the
    # classical value, in one group or in groups of their own; restart 0 run
    # with only the deterministic restart after it (its start is the seed's
    # first draw either way) gives the reported history
    rho = SHIPPED_STATES["eq8 d=3"]()
    alone = seesaw(rho, chsh_functional, restarts=1, seed=43)
    monkeypatch.setattr(bell_module, "_GROUP_BYTES", budget)
    res = seesaw(rho, chsh_functional, restarts=7, seed=43)
    assert res.restart_values.count(res.value) > 1
    assert res.restart_values.index(res.value) == 0
    assert alone.restart_values[0] == alone.value == res.value
    assert (alone.history, alone.iterations) == (res.history, res.iterations)


def counting_eigh(monkeypatch):
    """Patch np.linalg.eigh to record how many matrices each call diagonalises."""
    eigh, counts = np.linalg.eigh, []

    def counted(a, *args, **kwargs):
        counts.append(math.prod(np.shape(a)[:-2]))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    return counts


def test_best_response_certifies_only_gershgorin_definite_operators(monkeypatch):
    # a one-input functional whose score operator K_0 - K_1 is M_(0|y) itself:
    # s[0, 0, 0, 0] = 1 and every other coefficient 0, with no K_1 trace term,
    # so restart r's operator is ops[r] and its value the operator's gain
    ops = np.array([
        [[4, 1, 1j], [1, 3, -1], [-1j, -1, 5]],  # diagonally dominant, positive
        [[-4, 1 - 1j, 0], [1 + 1j, -3, 0.5], [0, 0.5, -2]],  # diagonally dominant, negative
        [[1, 2, 0], [2, -1, 0], [0, 0, 0.5]],  # indefinite
        np.diag([1, 1, 0]),  # semidefinite, an exact 0 eigenvalue
        [[1, 2, 0], [2, 5, 0], [0, 0, 1]],  # positive definite, not dominant
        -np.diag([1, 0, 2]),  # negative semidefinite
    ], dtype=np.complex128)
    n, d = len(ops), ops.shape[-1]
    coeffs = np.zeros((1, 1, 2, 2))
    coeffs[0, 0, 0, 0] = 1.0

    def times(rows):
        assert rows.shape == (n + 1, 1)
        return np.concatenate([ops.reshape(n, -1), np.zeros((1, d * d))])

    counts = counting_eigh(monkeypatch)
    proj, values = bell_module._best_response(times, coeffs, 1)(np.zeros((n, 1, 1, 1)))
    # only the four operators without a certificate are diagonalised
    assert sum(counts) == 4
    assert np.array_equal(proj[0, 0], np.eye(d)) and np.array_equal(proj[1, 0], np.zeros((d, d)))
    assert values[0] == 12.0 and values[1] == 0.0
    for op, p, value in zip(ops, proj[:, 0], values):
        w, v = np.linalg.eigh(op)
        pos = v[:, w > 0.0]
        assert np.abs(p - pos @ pos.conj().T).max() <= 1e-12
        assert abs(value - w[w > 0.0].sum()) <= 1e-12


def test_best_response_makes_no_eigh_call_when_every_operator_is_certified(monkeypatch):
    # both operators are diagonally dominant, one positive and one negative:
    # the half-step calls no eigensolver, not even on an empty stack
    ops = np.array([[[4, 1], [1, 3]], [[-4, 1j], [-1j, -3]]], dtype=np.complex128)
    n, d = len(ops), ops.shape[-1]
    coeffs = np.zeros((1, 1, 2, 2))
    coeffs[0, 0, 0, 0] = 1.0

    def times(rows):
        return np.concatenate([ops.reshape(n, -1), np.zeros((1, d * d))])

    counts = counting_eigh(monkeypatch)
    proj, values = bell_module._best_response(times, coeffs, 1)(np.zeros((n, 1, 1, 1)))
    assert counts == []
    assert np.array_equal(proj[:, 0], [np.eye(d), np.zeros((d, d))])
    assert values.tolist() == [7.0, 0.0]


def test_seesaw_diagonalises_at_most_half_its_score_operators(monkeypatch, chsh_functional):
    # the sequential reference diagonalises every score operator, one per call;
    # the library skips those Gershgorin certifies definite (113 of 272 are
    # diagonalised on OpenBLAS 0.3.31) and finds the same values
    rho = ppt_pbit(4).rho
    counts = counting_eigh(monkeypatch)
    res = seesaw(rho, chsh_functional, 32, 0)
    diagonalised = sum(counts)
    counts.clear()
    runs = sequential_seesaw(rho, chsh_functional, 32, 0)
    formed = sum(counts)
    assert formed == 4 * sum(sweeps for *_, sweeps, _ in runs)
    assert 0 < 2 * diagonalised <= formed
    assert np.abs(np.array(res.restart_values) - [run[0] for run in runs]).max() <= 1e-12


def test_seesaw_rejects_fewer_than_one_restart(phi_plus, chsh_functional):
    with pytest.raises(ValidationError, match="^seesaw needs at least one restart$"):
        seesaw(phi_plus, chsh_functional, restarts=0)


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
    lhs, rhs = transposition_bound(chsh_functional, tsirelson_meas, phi_plus, phi_plus)
    assert lhs == pytest.approx(0.0, abs=1e-12)
    assert lhs <= rhs + TOL.verdict


def test_thm1_max_entangled_versus_mixed(tsirelson_meas, chsh_functional, phi_plus):
    mixed = CMatrix(np.eye(4) / 4.0, SystemLayout.bipartite(2, 2), hermitian=True)
    lhs, rhs = transposition_bound(chsh_functional, tsirelson_meas, phi_plus, mixed)
    assert lhs == pytest.approx(TSIRELSON, abs=1e-9)
    assert rhs == pytest.approx(3.0 * math.sqrt(2.0), abs=1e-9)
    assert lhs <= rhs + TOL.verdict


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
        lhs, rhs = transposition_bound(f, meas, rho, sigma)
        assert rhs - lhs >= -1e-9


def candidate_relaxed_bound(f, rho, sigma_candidate, restarts):
    """The seesaw value of rho against classical + Tsirelson x its PT distance to the candidate."""
    return seesaw_bound(f, rho, TSIRELSON * d_eps_membership(rho, sigma_candidate),
                        "candidate-relaxed violation bound", restarts, 0)


def test_cor1_zero_distance_candidate_gives_classical_rhs(chsh_functional):
    rng = np.random.default_rng(40)
    rho = random_separable(rng, 2, 2)
    rep = candidate_relaxed_bound(chsh_functional, rho, rho, restarts=8)
    assert rep.rhs == pytest.approx(2.0, abs=1e-12)
    assert rep.verdict


def test_cor1_rhs_monotone_in_candidate_distance(chsh_functional, phi_plus):
    fam = ppt_pbit(4)
    near = candidate_relaxed_bound(chsh_functional, fam.rho, fam.rho, restarts=4)
    far = candidate_relaxed_bound(chsh_functional, fam.rho, fam.sigma_candidate, restarts=4)
    assert near.rhs <= far.rhs + 1e-12


def test_cor1_on_ppt_padded_private_bit(chsh_functional):
    fam = ppt_pbit(4)
    rep = candidate_relaxed_bound(chsh_functional, fam.rho, fam.sigma_candidate, restarts=16)
    assert rep.verdict
    assert rep.rhs <= 2.0 + TSIRELSON * 0.5 + 1e-9


def test_certified_epsilon_scales_the_quantum_gap(chsh_functional):
    fam = ppt_pbit(4)
    eps = d_eps_membership(fam.rho, fam.sigma_candidate)
    value = seesaw(fam.rho, chsh_functional, restarts=16, seed=0).value
    assert value <= 2.0 + eps * TSIRELSON + 1e-6


def test_pbit_observation_bound_rhs_values(chsh_functional):
    def observation_bound(x):
        # the key-correlated state of X against classical + Tsirelson ||X^PT||_1
        return seesaw_bound(chsh_functional, private_bit(x),
                            TSIRELSON * trace_norm(partial_transpose(x)),
                            "key-state observation bound", 24, 0)

    rep2 = observation_bound(swap_x(2))
    assert rep2.rhs == pytest.approx(2.0 + TSIRELSON * 0.5, abs=1e-9)
    assert rep2.verdict
    rep4 = observation_bound(swap_x(4))
    assert rep4.rhs == pytest.approx(2.0 + TSIRELSON * 0.25, abs=1e-9)
    assert rep4.verdict


def test_seesaw_bound_is_the_seesaw_value_against_classical_plus_excess(chsh_functional):
    fam = ppt_pbit(4)
    rep = seesaw_bound(chsh_functional, fam.rho, 0.25, "row", 4, 3)
    assert (rep.context, rep.tol) == ("row", TOL.verdict)
    assert rep.lhs == seesaw(fam.rho, chsh_functional, restarts=4, seed=3).value
    assert rep.rhs == classical_value(chsh_functional) + 0.25


# each target's closed-form excess over the classical value 2, typed out here,
# and its rows' contexts and last rhs
CERTIFICATE_CASES = [
    *[("eq8", {"d": d}, (math.sqrt(2.0) + 1.0) / (2.0 * math.sqrt(2.0) * d), [""], None)
      for d in range(2, 9)],
    # 2 sqrt 2 / sqrt(ds), not 2 sqrt 2 times the recorded 1/sqrt(ds): at ds = 25
    # the two differ in the last bit
    *[("eq10", {"ds": ds}, TSIRELSON / math.sqrt(ds), ["", " ppt", " distance"],
       1.0 / math.sqrt(ds)) for ds in (4, 9, 25)],
    *[("prop1", {"m": m, "q": 1.0 / 3.0}, TSIRELSON / 2.0 ** (m - 1), ["", " ppt", " delta"],
       0.5**m) for m in (1, 2)],
]


def certificate_name(target, point):
    """A row's context: the target and its grid point, prop1's q left out."""
    return f"{target} " + " ".join(f"{key}={value}" for key, value in point.items() if key != "q")


@pytest.mark.parametrize("target, point, excess, suffixes, last_rhs", CERTIFICATE_CASES,
                         ids=[certificate_name(*case[:2]).replace(" ", "-")
                              for case in CERTIFICATE_CASES])
def test_certificate_rows_pin_each_excess_bit_for_bit(target, point, excess, suffixes, last_rhs):
    rows = certificate_rows(target, 1, 0, [point])
    name = certificate_name(target, point)
    assert [row.context for row in rows] == [name + suffix for suffix in suffixes]
    assert rows[0].rhs == 2.0 + excess
    if last_rhs is not None:
        assert rows[-1].rhs == last_rhs


@pytest.mark.parametrize("target, grid", [
    ("eq9", [{"d": 2}]), ("eq9", []), ("eq8", [{}]), ("eq8", [{"ds": 4}]),
    ("eq8", [{"d": 2, "ds": 4}]), ("eq8", [{"d": 2}, {"ds": 4}]), ("eq10", [{"d": 4}]),
    ("prop1", [{"m": 1}]), ("prop1", [{"m": 1, "q": 0.3, "d": 2}]),
])
def test_certificate_rows_refuse_an_unknown_target_or_grid_keyword(monkeypatch, target, grid):
    # every point is checked before any state is built or any seesaw runs
    monkeypatch.setattr(bell_module, "seesaw", None)
    monkeypatch.setattr(bell_module, "private_bit", None)
    with pytest.raises(ValidationError, match="^no target"):
        certificate_rows(target, 1, 0, grid)


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


def test_d_eps_membership_refuses_states_on_different_layouts():
    # equal dimension, different layouts: without the layout check this gave 1.219
    arr = random_density(np.random.default_rng(42), 6)
    rho = CMatrix(arr, SystemLayout.bipartite(2, 3))
    flipped = CMatrix(arr, SystemLayout.bipartite(3, 2))
    message = r"^d_eps_membership needs both states on the layout \(\(2, 'A'\), \(3, 'B'\)\)$"
    for sigma in (flipped, CMatrix(arr), arr):
        with pytest.raises(ValidationError, match=message):
            d_eps_membership(rho, sigma)
    with pytest.raises(ValidationError, match="^d_eps_membership needs a CMatrix with a layout$"):
        d_eps_membership(CMatrix(arr), rho)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, complex(0.0, math.inf)],
                         ids=["nan", "inf", "-inf", "inf_imag"])
@pytest.mark.parametrize("which", ["rho", "sigma"])
def test_d_eps_membership_refuses_non_finite_states(which, bad):
    # a non-finite entry survives the transposes and the difference, and the
    # trace norm refuses it: an epsilon of nan would pass every "<=" check
    layout = SystemLayout.bipartite(2, 2)
    arr = np.eye(4, dtype=np.complex128) / 4
    arr[0, 1] = bad
    states = [CMatrix(arr, layout), CMatrix(np.eye(4) / 4, layout)]
    if which == "sigma":
        states.reverse()
    with pytest.raises(ValidationError, match="^trace_norm expects a finite matrix$"):
        d_eps_membership(*states)


@pytest.mark.parametrize("case", ["view-layout", "ppt-pbit-4", "same-state"])
def test_d_eps_membership_leaves_both_states_unchanged(case):
    if case == "ppt-pbit-4":
        fam = ppt_pbit(4)
        rho, sigma = fam.rho, fam.sigma_candidate
    else:
        # B's one factor has dimension 1, so no entry of rho moves under the transpose
        rng = np.random.default_rng(43)
        layout = SystemLayout(((2, "A"), (1, "B")))
        rho = CMatrix(random_density(rng, 2), layout)
        sigma = rho if case == "same-state" else CMatrix(random_density(rng, 2), layout)
    before = rho.mat.copy(), sigma.mat.copy()
    eps = d_eps_membership(rho, sigma)
    for kept, m in zip(before, (rho, sigma)):
        assert np.array_equal(kept.view(np.uint64), m.mat.view(np.uint64))
    assert eps == trace_norm(CMatrix(partial_transpose(rho).mat - partial_transpose(sigma).mat))


def test_d_eps_membership_holds_two_transposed_matrices():
    # rho^Gamma and sigma^Gamma; a separate difference would be a third
    fam = ppt_pbit(9)
    rho, sigma = fam.rho, fam.sigma_candidate
    d_eps_membership(rho, sigma)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        d_eps_membership(rho, sigma)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * rho.mat.nbytes


def test_seesaw_chain_consistency_on_tensor_pair(chsh_functional):
    hid = hiding_state()
    rho_pt = partial_transpose(hid.rho)
    doubled = tensor(hid.rho, rho_pt)
    value = seesaw(doubled, chsh_functional, restarts=8, seed=0).value
    assert value <= 2.0 + TSIRELSON / 1.0 + 1e-9


@settings(deadline=None, max_examples=10)
@given(st.integers(0, 10_000))
def test_thm1_property(seed):
    rng = np.random.default_rng(seed)
    f = BellFunctional(rng.normal(size=(2, 2, 2, 2)))
    rho = random_bipartite_density(rng, 2, 2)
    sigma = random_bipartite_density(rng, 2, 2)
    meas = MeasurementFamily(
        [random_binary_povm(rng, 2) for _ in range(2)],
        [random_binary_povm(rng, 2) for _ in range(2)],
    )
    lhs, rhs = transposition_bound(f, meas, rho, sigma)
    assert lhs <= rhs + TOL.verdict
