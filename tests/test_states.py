"""Tests for the state-family constructors and their separable companions."""

import itertools
import math
from functools import partial, reduce

import numpy as np
import pytest

from ptbounds import (
    TOL,
    CMatrix,
    DimensionCapError,
    StateFamilyResult,
    SystemLayout,
    ValidationError,
    assert_density,
    d_eps_membership,
    fourier_xy,
    hiding_state,
    max_entangled,
    partial_transpose,
    ppt_pbit,
    private_bit,
    swap_x,
    trace_norm,
    werner_state,
)


def min_eig(mat: np.ndarray) -> float:
    return float(np.linalg.eigvalsh(mat).min())


def rank_of(mat: np.ndarray, tol: float = 1e-10) -> int:
    return int((np.linalg.eigvalsh(mat) > tol).sum())


def test_max_entangled_is_pure_with_mixed_marginal():
    rho = max_entangled(2)
    assert rank_of(rho.mat) == 1
    assert float(np.trace(rho.mat @ rho.mat).real) == pytest.approx(1.0, abs=1e-12)
    marginal = np.einsum("ikjk->ij", rho.mat.reshape(2, 2, 2, 2))
    assert np.abs(marginal - np.eye(2) / 2.0).max() <= 1e-12


@pytest.mark.parametrize("d,expected", [(2, 2.0), (3, 3.0)])
def test_max_entangled_transposed_trace_norm(d, expected):
    rho = max_entangled(d)
    assert trace_norm(partial_transpose(rho)) == pytest.approx(expected, abs=1e-9)


def test_max_entangled_rejects_small_dim():
    with pytest.raises(ValidationError):
        max_entangled(1)


@pytest.mark.parametrize("d,sym_rank,anti_rank", [(2, 3, 1), (3, 6, 3)])
def test_werner_state_ranks(d, sym_rank, anti_rank):
    sym = werner_state(d, "symmetric")
    anti = werner_state(d, "antisymmetric")
    assert rank_of(sym.mat) == sym_rank == d * (d + 1) // 2
    assert rank_of(anti.mat) == anti_rank == d * (d - 1) // 2
    assert np.trace(sym.mat).real == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValidationError):
        werner_state(d, "mixed")


@pytest.mark.parametrize("d", [2, 3, 4])
def test_swap_x_trace_norms(d):
    x = swap_x(d)
    assert trace_norm(x) == pytest.approx(1.0, abs=1e-12)
    xg = partial_transpose(x)
    assert trace_norm(xg) == pytest.approx(1.0 / d, abs=1e-12)
    assert rank_of((xg.mat + xg.mat.conj().T) / 2, tol=1e-12) == 1


def test_fourier_xy_ds4():
    x, y = fourier_xy(4)
    assert trace_norm(x) == pytest.approx(1.0, abs=1e-10)
    xg = partial_transpose(x)
    assert trace_norm(xg) == pytest.approx(0.5, abs=1e-10)
    assert np.abs(y.mat - 2.0 * xg.mat).max() <= 1e-14
    assert trace_norm(y) == pytest.approx(1.0, abs=1e-10)


def test_fourier_xy_ds9():
    x, y = fourier_xy(9)
    assert trace_norm(partial_transpose(x)) == pytest.approx(1.0 / 3.0, abs=1e-9)
    assert trace_norm(y) == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("bad", [3, 5, 8, 12])
def test_fourier_xy_rejects_non_square_dims(bad):
    with pytest.raises(ValidationError):
        fourier_xy(bad)


def test_private_bit_key_marginal_is_a_shared_coin():
    # computational-basis statistics of the two key qubits, shields traced out
    gamma = private_bit(swap_x(2))
    for (ka, kb), expected in (((0, 0), 0.5), ((1, 1), 0.5), ((0, 1), 0.0), ((1, 0), 0.0)):
        pa = np.zeros((2, 2)); pa[ka, ka] = 1.0
        pb = np.zeros((2, 2)); pb[kb, kb] = 1.0
        proj = reduce(np.kron, [pa, np.eye(2), pb, np.eye(2)])
        prob = float(np.trace(proj @ gamma.mat).real)
        assert prob == pytest.approx(expected, abs=1e-10)


def test_private_bit_rank_one_x_gives_pure_state():
    rng = np.random.default_rng(21)
    from ptbounds import CMatrix, SystemLayout

    phi = rng.normal(size=4) + 1j * rng.normal(size=4)
    psi = rng.normal(size=4) + 1j * rng.normal(size=4)
    phi /= np.linalg.norm(phi)
    psi /= np.linalg.norm(psi)
    x = CMatrix(np.outer(phi, psi.conj()), SystemLayout.bipartite(2, 2))
    gamma = private_bit(x)
    eigs = np.linalg.eigvalsh(gamma.mat)
    assert eigs.max() == pytest.approx(1.0, abs=1e-10)
    assert rank_of(gamma.mat) == 1


def test_private_bit_validates_trace_norm():
    from ptbounds import CMatrix, SystemLayout

    bad = CMatrix(np.eye(4) / 2.0, SystemLayout.bipartite(2, 2))
    with pytest.raises(ValidationError):
        private_bit(bad)


@pytest.mark.parametrize("ds", [4, 9])
def test_ppt_pbit_structure(ds):
    fam = ppt_pbit(ds)
    root = math.sqrt(ds)
    assert fam.params["p"] == pytest.approx(1.0 / (root + 1.0), abs=1e-15)
    assert min_eig(partial_transpose(fam.rho).mat) >= -1e-10
    assert fam.sigma_candidate.dim == fam.rho.dim
    assert fam.sigma_candidate.layout.factors == fam.rho.layout.factors
    dist = d_eps_membership(fam.rho, fam.sigma_candidate)
    assert dist <= 1.0 / root + 1e-9
    # the corners carry exactly (1 - p)/2 each of transposed weight
    assert dist == pytest.approx(1.0 / (root + 1.0), abs=1e-9)


def test_ppt_pbit_candidate_is_ppt():
    fam = ppt_pbit(4)
    assert min_eig(partial_transpose(fam.sigma_candidate).mat) >= -1e-10


def test_hiding_state_defaults():
    fam = hiding_state()
    assert fam.params["delta"] == pytest.approx(1.0 / 6.0, abs=1e-15)
    assert fam.params["normalization"] == pytest.approx(1.0, abs=1e-15)
    assert min_eig(partial_transpose(fam.rho).mat) >= -1e-10
    assert fam.rho.layout.factors == ((2, "A"), (2, "A"), (2, "B"), (2, "B"))


@pytest.mark.parametrize("m", [1, 2])
def test_hiding_state_delta_bound_and_distance(m):
    fam = hiding_state(m=m)
    delta = fam.params["delta"]
    assert delta <= 0.5**m + 1e-15
    # the transposed distance to the corners-zeroed companion is twice delta:
    # both corner blocks keep trace norm delta after party-B transposition
    dist = d_eps_membership(fam.rho, fam.sigma_candidate)
    assert dist == pytest.approx(2.0 * delta, abs=1e-9)


def test_hiding_state_m2_delta_value():
    fam = hiding_state(m=2)
    assert fam.params["delta"] == pytest.approx(0.1, abs=1e-12)


def test_hiding_state_validates_parameters():
    for bad_q in (0.0, 0.5, 0.7, -0.1):
        with pytest.raises(ValidationError):
            hiding_state(q=bad_q)
    with pytest.raises(ValidationError):
        hiding_state(m=0)
    with pytest.raises(DimensionCapError):
        hiding_state(m=3, d_shield=4, k=2)


def test_hiding_state_candidate_matches_layout():
    fam = hiding_state(m=2)
    assert fam.sigma_candidate.layout.factors == fam.rho.layout.factors
    assert np.trace(fam.sigma_candidate.mat).real == pytest.approx(1.0, abs=1e-10)


def _random_x(seed: int, da: int, db: int, rank_one: bool) -> CMatrix:
    """A random operator on (da, A) x (db, B) scaled to trace norm one."""
    rng = np.random.default_rng(seed)
    shape = (da * db, 1 if rank_one else da * db)
    g = (rng.normal(size=shape) + 1j * rng.normal(size=shape)) @ (
        rng.normal(size=shape[::-1]) + 1j * rng.normal(size=shape[::-1]))
    return CMatrix(g / trace_norm(g), SystemLayout.bipartite(da, db))


def _private_bit_of(make_x, *args) -> CMatrix:
    return private_bit(make_x(*args))


def _density_cases():
    """Every constructor output that is a state, over the parameter grid whose
    density-matrix property the constructors do not re-check at run time."""
    for m, d, k in itertools.product((1, 2, 3), (2, 3), (1, 2)):
        if 4 * d ** (2 * k * m) <= 1024:
            for q in (0.01, 0.2, 1.0 / 3.0, 0.45, 0.49):
                yield pytest.param(partial(hiding_state, m, d, k, q),
                                   id=f"hiding-m{m}-d{d}-k{k}-q{q:.3g}")
    for ds in (4, 9):
        yield pytest.param(partial(ppt_pbit, ds), id=f"ppt-pbit-{ds}")
    for d in (2, 3, 4):
        yield pytest.param(partial(_private_bit_of, swap_x, d), id=f"private-bit-swap-{d}")
    yield pytest.param(partial(_private_bit_of, lambda ds: fourier_xy(ds)[0], 4),
                       id="private-bit-fourier-4")
    for seed, (da, db), rank_one in itertools.product((0, 1), ((2, 2), (2, 3)), (False, True)):
        yield pytest.param(partial(_private_bit_of, _random_x, seed, da, db, rank_one),
                           id=f"private-bit-random-{seed}-{da}x{db}-rank{1 if rank_one else 'full'}")
    for d in (2, 3):
        yield pytest.param(partial(max_entangled, d), id=f"max-entangled-{d}")
        for kind in ("symmetric", "antisymmetric"):
            yield pytest.param(partial(werner_state, d, kind), id=f"werner-{kind}-{d}")


@pytest.mark.parametrize("build", _density_cases())
def test_constructor_outputs_are_density_matrices(build):
    out = build()
    states = [out.rho, out.sigma_candidate] if isinstance(out, StateFamilyResult) else [out]
    for state in states:
        arr = assert_density(state, "constructor output")
        assert np.abs(arr - arr.conj().T).max() <= TOL.structural
        assert abs(np.trace(arr) - 1.0) <= 1e-10
