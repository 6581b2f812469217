"""Tests for the layout-aware matrix layer: transposition, norms, entropy, JSON."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ptbounds import (
    CMatrix,
    SystemLayout,
    ValidationError,
    assert_density,
    collect_parties,
    matrix_from_json,
    matrix_to_json,
    min_eigenvalue,
    op_norm,
    partial_transpose,
    permute_factors,
    psd_sqrt,
    rel_entropy,
    spectral_norm,
    tensor,
    trace_norm,
)
from ptbounds.linalg import _matrix_json_text, _pair_hash
from ptbounds.rand import random_density, random_hermitian


def random_cmatrix(rng, da, db, hermitian=True):
    arr = random_hermitian(rng, da * db) if hermitian else (
        rng.normal(size=(da * db, da * db)) + 1j * rng.normal(size=(da * db, da * db))
    )
    return CMatrix(arr, SystemLayout.bipartite(da, db), hermitian=hermitian)


def test_partial_transpose_of_product_transposes_b_factor():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    b = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    m = CMatrix(np.kron(a, b), SystemLayout.bipartite(3, 4))
    expected = np.kron(a, b.T)
    assert np.array_equal(partial_transpose(m).mat, expected)


def test_partial_transpose_is_bit_exact_involution():
    rng = np.random.default_rng(1)
    layout = SystemLayout(((2, "A"), (3, "B"), (2, "A"), (2, "B")))
    arr = rng.normal(size=(24, 24)) + 1j * rng.normal(size=(24, 24))
    m = CMatrix(arr, layout)
    back = partial_transpose(partial_transpose(m))
    assert np.array_equal(back.mat, arr)


def test_partial_transpose_max_entangled_spectrum(phi_plus):
    eigs = np.sort(np.linalg.eigvalsh(partial_transpose(phi_plus).mat))
    assert eigs == pytest.approx([-0.5, 0.5, 0.5, 0.5], abs=1e-12)
    assert trace_norm(partial_transpose(phi_plus)) == pytest.approx(2.0, abs=1e-12)


def test_partial_transpose_requires_layout():
    m = CMatrix(np.eye(4))
    with pytest.raises(ValidationError):
        partial_transpose(m)
    with pytest.raises(ValidationError):
        partial_transpose(CMatrix(np.eye(4), SystemLayout(((4, "A"),))))


def test_partial_transpose_preserves_trace_and_hermiticity():
    rng = np.random.default_rng(2)
    splits = [(da, db) for da in range(2, 9) for db in range(2, 9) if da * db <= 64]
    for trial in range(500):
        da, db = splits[trial % len(splits)]
        m = random_cmatrix(rng, da, db)
        g = partial_transpose(m).mat
        assert abs(np.trace(g) - np.trace(m.mat)) <= 1e-14 * max(1.0, abs(np.trace(m.mat)))
        assert np.abs(g - g.conj().T).max() <= 1e-14


def test_trace_identity_under_joint_transposition():
    rng = np.random.default_rng(3)
    for _ in range(50):
        x = random_cmatrix(rng, 2, 3)
        y = random_cmatrix(rng, 2, 3)
        lhs = np.trace(x.mat @ y.mat)
        rhs = np.trace(partial_transpose(x).mat @ partial_transpose(y).mat)
        assert abs(lhs - rhs) <= 1e-10


def test_hoelder_pairing():
    rng = np.random.default_rng(4)
    for _ in range(50):
        m = random_hermitian(rng, 6)
        n = random_hermitian(rng, 6)
        assert abs(np.trace(m @ n)) <= op_norm(m) * trace_norm(n) + 1e-10


def test_trace_norm_of_density_matrices_is_one():
    rng = np.random.default_rng(5)
    for d in (2, 3, 5, 8):
        assert trace_norm(random_density(rng, d)) == pytest.approx(1.0, abs=1e-12)


def test_trace_norm_matches_best_projector_test():
    # For traceless Hermitian differences, the trace norm is twice the best
    # value of Tr P (rho - sigma) over projectors.
    rng = np.random.default_rng(6)
    for _ in range(20):
        diff = random_density(rng, 6) - random_density(rng, 6)
        w, v = np.linalg.eigh(diff)
        plus = v[:, w > 0.0]
        projector_value = float(np.trace(plus.conj().T @ diff @ plus).real)
        assert trace_norm(diff) == pytest.approx(2.0 * projector_value, abs=1e-10)


def test_op_norm_identity_and_homogeneity():
    rng = np.random.default_rng(7)
    assert op_norm(np.eye(9)) == 1.0
    m = random_hermitian(rng, 5)
    assert op_norm(3.0 * m) == pytest.approx(3.0 * op_norm(m), rel=1e-12)


def test_op_norm_rejects_non_hermitian():
    with pytest.raises(ValidationError):
        op_norm(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValidationError, match="^op_norm expects a square matrix$"):
        op_norm(np.eye(2, 3) / 2)


@pytest.mark.parametrize("func, what", [
    (min_eigenvalue, "min_eigenvalue"),
    (psd_sqrt, "psd_sqrt"),
    (lambda m: assert_density(m, "test state"), "test state"),
    (lambda m: rel_entropy(m, m), "rel_entropy rho"),
    (trace_norm, "trace_norm"),
    (op_norm, "op_norm"),
], ids=["min_eigenvalue", "psd_sqrt", "assert_density", "rel_entropy", "trace_norm", "op_norm"])
def test_spectral_functions_refuse_non_square_input(func, what):
    # unit trace, so the trace check passes and the shape must be refused;
    # 1-D and 3-D arrays are refused before the trace is read
    for arr in (np.eye(2, 3) / 2, np.ones(1), np.ones(3), np.ones((2, 2, 2)) / 4):
        with pytest.raises(ValidationError, match=f"^{what} expects a square matrix$"):
            func(arr)


_SPECTRAL = [
    (min_eigenvalue, "min_eigenvalue"),
    (op_norm, "op_norm"),
    (psd_sqrt, "psd_sqrt"),
    (lambda m: assert_density(m, "test state"), "test state"),
    (lambda m: rel_entropy(m, np.eye(4) / 4), "rel_entropy rho"),
    (lambda m: rel_entropy(np.eye(4) / 4, m), "rel_entropy sigma"),
    (trace_norm, "trace_norm"),
]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("func, what", _SPECTRAL, ids=[
    "min_eigenvalue", "op_norm", "psd_sqrt", "assert_density", "rel_entropy_rho",
    "rel_entropy_sigma", "trace_norm"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, complex(0.0, math.inf)],
                         ids=["nan", "inf", "-inf", "inf_imag"])
@pytest.mark.parametrize("where", [(0, 0), (0, 1)], ids=["diagonal", "off_diagonal"])
def test_spectral_functions_refuse_non_finite_entries(func, what, bad, where):
    # a NaN deviation passed "dev > tol": min_eigenvalue returned 0.25, op_norm
    # and rel_entropy nan, psd_sqrt and assert_density arrays with NaN, and
    # trace_norm raised numpy's "SVD did not converge"
    arr = np.eye(4, dtype=np.complex128) / 4
    arr[where] = bad
    message = f"^{what} expects a finite matrix$"
    if where == (0, 0) and bad is not math.nan:
        # an infinite trace fails the unit-trace check, which the density
        # checks make first; a NaN trace passes it
        message += f"|^{what} must have unit trace"
    with pytest.raises(ValidationError, match=message):
        func(arr)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_a_matrix_marked_hermitian_refuses_non_finite_entries():
    for bad in (math.nan, math.inf):
        arr = np.eye(2) / 2
        arr[0, 0] = bad
        with pytest.raises(ValidationError, match="^matrix marked hermitian deviates by"):
            CMatrix(arr, hermitian=True)


def test_spectral_norm_handles_non_hermitian():
    nilpotent = np.array([[0.0, 2.0], [0.0, 0.0]])
    assert spectral_norm(nilpotent) == pytest.approx(2.0, abs=1e-12)


def test_eigensolver_reconstruction():
    rng = np.random.default_rng(8)
    for d in (4, 16, 64):
        m = random_hermitian(rng, d)
        w, v = np.linalg.eigh(m)
        err = np.linalg.norm((v * w) @ v.conj().T - m)
        assert err <= 1e-9 * d


def test_psd_sqrt_squares_back():
    rng = np.random.default_rng(9)
    rho = random_density(rng, 6)
    root = psd_sqrt(rho)
    assert np.abs(root @ root - rho).max() <= 1e-10
    with pytest.raises(ValidationError):
        psd_sqrt(np.diag([1.0, -0.5]))


def test_psd_sqrt_floors_noise_eigenvalues():
    # A rank-one projector plus 1e-16 jitter must keep a clean unit trace.
    proj = np.diag([1.0, 0.0, 0.0, 0.0]).astype(np.complex128)
    jitter = np.full((4, 4), 1e-16)
    root = psd_sqrt(proj + jitter)
    assert abs(np.trace(root).real - 1.0) <= 1e-12


def test_assert_density_rejects_bad_inputs():
    with pytest.raises(ValidationError):
        assert_density(np.eye(2), "doubled trace")
    with pytest.raises(ValidationError):
        assert_density(np.diag([1.5, -0.5]), "negative eigenvalue")


def test_rel_entropy_zero_on_equal_states():
    rng = np.random.default_rng(10)
    rho = random_density(rng, 5)
    assert rel_entropy(rho, rho) == pytest.approx(0.0, abs=1e-10)


def test_rel_entropy_pure_versus_maximally_mixed():
    pure = np.diag([1.0, 0.0]).astype(np.complex128)
    assert rel_entropy(pure, np.eye(2) / 2.0) == pytest.approx(1.0, abs=1e-12)


def test_rel_entropy_support_violation_is_infinite():
    plus = np.full((2, 2), 0.5, dtype=np.complex128)
    pinned = np.diag([1.0, 0.0]).astype(np.complex128)
    assert rel_entropy(plus, pinned) == math.inf


def test_rel_entropy_max_entangled_versus_classical_mixture(phi_plus):
    cc = np.zeros((4, 4), dtype=np.complex128)
    cc[0, 0] = cc[3, 3] = 0.5
    assert rel_entropy(phi_plus, cc) == pytest.approx(1.0, abs=1e-9)


def test_rel_entropy_validates_densities():
    with pytest.raises(ValidationError):
        rel_entropy(np.eye(2), np.eye(2) / 2.0)


def test_hermitian_flag_is_checked():
    with pytest.raises(ValidationError):
        CMatrix(np.array([[0.0, 1.0], [0.0, 0.0]]), hermitian=True)


def test_layout_validation():
    with pytest.raises(ValidationError):
        SystemLayout(())
    with pytest.raises(ValidationError):
        SystemLayout(((0, "A"),))
    with pytest.raises(ValidationError):
        CMatrix(np.eye(4), SystemLayout(((3, "A"), (2, "B"))))


def test_collect_parties_regroups_interleaved_factors():
    rng = np.random.default_rng(11)
    layout = SystemLayout(((2, "B"), (3, "A"), (2, "B")))
    arr = random_hermitian(rng, 12)
    m = CMatrix(arr, layout, hermitian=True)
    coll = collect_parties(m)
    assert coll.layout.factors == ((3, "A"), (4, "B"))
    # transposing B then collecting equals collecting then transposing B
    left = collect_parties(partial_transpose(m)).mat
    right = partial_transpose(coll).mat
    assert np.abs(left - right).max() == 0.0


def test_permute_factors_roundtrip():
    rng = np.random.default_rng(12)
    layout = SystemLayout(((2, "A"), (3, "B"), (2, "A")))
    m = CMatrix(random_hermitian(rng, 12), layout)
    perm = permute_factors(m, [2, 0, 1])
    assert perm.layout.factors == ((2, "A"), (2, "A"), (3, "B"))
    back = permute_factors(perm, [1, 2, 0])
    assert np.array_equal(back.mat, m.mat)


def test_tensor_concatenates_layouts(phi_plus):
    prod = tensor(phi_plus, phi_plus)
    assert prod.layout.factors == ((2, "A"), (2, "B"), (2, "A"), (2, "B"))
    assert prod.dim == 16
    coll = collect_parties(prod)
    assert coll.layout.factors == ((4, "A"), (4, "B"))


def test_matrix_json_roundtrip():
    rng = np.random.default_rng(13)
    m = random_cmatrix(rng, 2, 3, hermitian=False)
    obj = matrix_to_json(m)
    back = matrix_from_json(obj)
    assert np.array_equal(back.mat, m.mat)
    assert back.layout.factors == m.layout.factors


def test_matrix_json_rejects_bad_payloads():
    with pytest.raises(ValidationError):
        matrix_from_json({"dims": [2], "parties": ["A"], "data": [[1.0, 0.0]]})
    with pytest.raises(ValidationError):
        matrix_from_json({"dims": [2], "parties": ["A", "B"], "data": [[0, 0]] * 4})
    with pytest.raises(ValidationError):
        matrix_from_json({"dims": [2], "parties": ["A"]})


def oracle_to_json_data(m):
    """The per-entry writer matrix_to_json replaced, kept as its oracle."""
    return [[float(z.real), float(z.imag)] for z in m.mat.reshape(-1)]


def oracle_from_json_data(data):
    """The per-entry reader matrix_from_json replaced, kept as its oracle."""
    return np.array([complex(re, im) for re, im in data], dtype=np.complex128)


def bits(arr):
    return np.ascontiguousarray(arr, dtype=np.complex128).view(np.uint64)


def canonical_dump(m):
    """The text the encoder must reproduce: the canonical dump of matrix_to_json."""
    return json.dumps(matrix_to_json(m), sort_keys=True, separators=(",", ":"))


def edge_matrix(seed, da, db):
    """Random complex entries with -0.0, subnormals and +-1e308 planted in."""
    rng = np.random.default_rng(seed)
    n = da * db
    arr = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    flat = arr.reshape(-1)
    specials = [-0.0, 5e-324, -2.5e-310, 1e308, -1e308, 0.0]
    for k, idx in enumerate(rng.choice(flat.size, size=min(flat.size, 12), replace=False)):
        re, im = specials[k % 6], specials[(k * 5 + 1) % 6]
        flat[idx] = complex(re, im) if k % 2 else complex(re, flat[idx].imag)
    return CMatrix(arr, SystemLayout.bipartite(da, db))


@pytest.mark.parametrize("seed,da,db", [(0, 1, 1), (1, 2, 2), (2, 2, 3), (3, 4, 3)])
def test_matrix_json_equals_per_entry_oracle(seed, da, db):
    m = edge_matrix(seed, da, db)
    data = matrix_to_json(m)["data"]
    expected = oracle_to_json_data(m)
    assert json.dumps(data) == json.dumps(expected)  # repr keeps -0.0 apart from 0.0
    assert _matrix_json_text(m) == canonical_dump(m)
    assert all(type(x) is float for pair in data for x in pair)
    for payload in (data, json.loads(json.dumps(data))):
        obj = {"dims": [da, db], "parties": ["A", "B"], "data": payload}
        back = matrix_from_json(obj)
        assert np.array_equal(bits(back.mat.reshape(-1)), bits(oracle_from_json_data(payload)))
        assert np.array_equal(bits(back.mat), bits(m.mat))


def nan_with_payload(payload):
    return np.array([0x7FF8000000000000 | payload], dtype=np.uint64).view(np.float64)[0]


def _encoder_cases():
    """Beside the edge_matrix cases: no layout, all entries distinct, NaN and
    inf under several bit patterns, mostly zeros, a hash collision, and the
    empty matrix."""
    rng = np.random.default_rng(21)
    n = 30
    dense = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    specials = np.zeros((4, 4), dtype=np.complex128)
    specials.real[0] = [np.nan, np.inf, -np.inf, -0.0]
    specials.imag[:, 1] = [nan_with_payload(1), -np.nan, np.inf, 5e-324]
    specials[2, 2] = complex(nan_with_payload(7), -np.inf)
    specials[3, 3] = complex(-0.0, -0.0)
    interleaved = SystemLayout(((2, "A"), (3, "B"), (2, "A")))
    # two different pairs with one hash, alternating, so the sort cannot group
    # them: given re, the hash is a bijection of im, so solve for the second im
    pair = np.array([[0x3FF0000000000000, 0x4000000000000000],
                     [0x3FF0000000000001, 0]], dtype=np.uint64)
    target = _pair_hash(pair[:1])[0]
    rotated = target ^ _pair_hash(pair[1:])[0]  # the rotated im that hashes to target
    pair[1, 1] = rotated << np.uint64(32) | rotated >> np.uint64(32)
    assert _pair_hash(pair)[1] == target
    collision = pair[[0, 1, 1, 0, 0, 1, 0, 1, 1]].view(np.complex128)
    return {
        "no-layout": CMatrix(random_density(rng, 5)),
        "dense-distinct": CMatrix(dense, SystemLayout.bipartite(5, 6)),
        "nan-inf": CMatrix(specials, SystemLayout.bipartite(2, 2)),
        "mostly-zero": CMatrix(np.diag(np.arange(12) % 3 - 1.0), interleaved),
        "hash-collision": CMatrix(collision.reshape(3, 3)),
        "empty": CMatrix(np.zeros((0, 0))),
    }


_ENCODER_CASES = _encoder_cases()


@pytest.mark.parametrize("name", list(_ENCODER_CASES))
def test_matrix_json_text_equals_canonical_dump_of_matrix_to_json(name):
    m = _ENCODER_CASES[name]
    assert _matrix_json_text(m) == canonical_dump(m)


def test_matrix_from_json_accepts_ints_like_the_oracle():
    data = [[1, 0], [0, -2], [True, 3], [0.5, 0]]
    back = matrix_from_json({"dims": [2], "parties": ["A"], "data": data})
    assert np.array_equal(bits(back.mat.reshape(-1)), bits(oracle_from_json_data(data)))


@pytest.mark.parametrize("bad", [
    [["1.5", 0.0]],
    [[None, 0.0]],
    [[1.0]],
    [[1.0, 0.0, 0.0]],
    [[[1.0, 2.0], 0.0]],
    [[10**400, 0.0]],
    [[0.0, 0.0, 0.0], [0.0]],
], ids=["string", "none", "one-element", "three-elements", "nested", "400-digit-int",
        "lengths-3-and-1"])
def test_matrix_from_json_rejects_bad_entries(bad):
    data = [[0.5, 0.0], [0.0, 0.0], [0.0, 0.0], [0.5, 0.0]]
    data[1:1 + len(bad)] = bad
    with pytest.raises(ValidationError):
        matrix_from_json({"dims": [2], "parties": ["A"], "data": data})


def test_assert_density_rejects_non_hermitian_input():
    with pytest.raises(ValidationError, match="hermitian"):
        assert_density(np.array([[0.5, 0.3], [0.0, 0.5]]), "lopsided")
    with pytest.raises(ValidationError, match="hermitian"):
        rel_entropy(np.eye(2) / 2.0, np.array([[0.5, 0.3], [0.0, 0.5]]))


def test_rel_entropy_matches_spectral_formula():
    rng = np.random.default_rng(14)
    rho = random_density(rng, 6)
    sigma = random_density(rng, 6)
    wr = np.linalg.eigvalsh(rho)
    ws, vs = np.linalg.eigh(sigma)
    weights = np.einsum("ij,jk,ki->i", vs.conj().T, rho, vs).real
    expected = float((wr * np.log2(wr)).sum()) - float((weights * np.log2(ws)).sum())
    assert rel_entropy(rho, sigma) == expected


@settings(deadline=None, max_examples=25)
@given(st.integers(2, 4), st.integers(2, 4), st.integers(0, 10_000))
def test_partial_transpose_involution_property(da, db, seed):
    rng = np.random.default_rng(seed)
    arr = rng.normal(size=(da * db, da * db)) + 1j * rng.normal(size=(da * db, da * db))
    m = CMatrix(arr, SystemLayout.bipartite(da, db))
    assert np.array_equal(partial_transpose(partial_transpose(m)).mat, arr)


@settings(deadline=None, max_examples=25)
@given(st.integers(0, 10_000))
def test_trace_norm_triangle_property(seed):
    rng = np.random.default_rng(seed)
    a = random_hermitian(rng, 4)
    b = random_hermitian(rng, 4)
    assert trace_norm(a + b) <= trace_norm(a) + trace_norm(b) + 1e-10
