"""Tests for the layout-aware matrix layer: transposition, norms, entropy, JSON."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ptbounds import (
    CMatrix,
    DimensionCapError,
    SystemLayout,
    ValidationError,
    assert_density,
    matrix_from_json,
    matrix_to_json,
    min_eigenvalue,
    op_norm,
    partial_transpose,
    permute_factors,
    psd_sqrt,
    rel_entropy,
    tensor,
    trace_norm,
)
from ptbounds.linalg import _canonical_json, _realigned

from conftest import dense_of_blocks, dense_realigned, random_density, random_hermitian


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
        assert abs(np.trace(m @ n)) <= op_norm(CMatrix(m)) * trace_norm(CMatrix(n)) + 1e-10


def test_trace_norm_of_density_matrices_is_one():
    rng = np.random.default_rng(5)
    for d in (2, 3, 5, 8):
        assert trace_norm(CMatrix(random_density(rng, d))) == pytest.approx(1.0, abs=1e-12)


def test_trace_norm_matches_best_projector_test():
    # For traceless Hermitian differences, the trace norm is twice the best
    # value of Tr P (rho - sigma) over projectors.
    rng = np.random.default_rng(6)
    for _ in range(20):
        diff = random_density(rng, 6) - random_density(rng, 6)
        w, v = np.linalg.eigh(diff)
        plus = v[:, w > 0.0]
        projector_value = float(np.trace(plus.conj().T @ diff @ plus).real)
        assert trace_norm(CMatrix(diff)) == pytest.approx(2.0 * projector_value, abs=1e-10)


def test_op_norm_identity_and_homogeneity():
    rng = np.random.default_rng(7)
    assert op_norm(CMatrix(np.eye(9))) == 1.0
    m = random_hermitian(rng, 5)
    assert op_norm(CMatrix(3.0 * m)) == pytest.approx(3.0 * op_norm(CMatrix(m)), rel=1e-12)


def test_op_norm_rejects_non_hermitian():
    with pytest.raises(ValidationError):
        op_norm(CMatrix(np.array([[0.0, 1.0], [0.0, 0.0]])))
    with pytest.raises(ValidationError, match="^op_norm expects a hermitian matrix, deviation "):
        op_norm(CMatrix(np.array([[0.5, 1e-3], [0.0, 0.5]])))


_ONE_ARGUMENT = [
    (min_eigenvalue, "min_eigenvalue"),
    (psd_sqrt, "psd_sqrt"),
    (lambda m: assert_density(m, "test state"), "assert_density"),
    (lambda m: rel_entropy(m, m), "rel_entropy"),
    (trace_norm, "trace_norm"),
    (op_norm, "op_norm"),
]


@pytest.mark.parametrize("func, name", _ONE_ARGUMENT,
                         ids=["min_eigenvalue", "psd_sqrt", "assert_density", "rel_entropy",
                              "trace_norm", "op_norm"])
def test_spectral_functions_refuse_non_square_input(func, name):
    # a CMatrix is square, and nothing else is read: a non-square array is
    # refused by the constructor and, passed as it is, by the function
    for arr in (np.eye(2, 3) / 2, np.ones(1), np.ones(3), np.ones((2, 2, 2)) / 4):
        with pytest.raises(ValidationError, match=r"^matrix must be square, got shape "):
            CMatrix(arr)
        with pytest.raises(ValidationError, match=f"^{name} needs a CMatrix, got ndarray$"):
            func(arr)


@pytest.mark.parametrize("func, name", _ONE_ARGUMENT + [
    (lambda m: rel_entropy(CMatrix(np.eye(2) / 2), m), "rel_entropy"),
    (lambda m: tensor(m, CMatrix(np.eye(2))), "tensor"),
    (lambda m: tensor(CMatrix(np.eye(2)), m), "tensor"),
], ids=["min_eigenvalue", "psd_sqrt", "assert_density", "rel_entropy_rho", "trace_norm",
        "op_norm", "rel_entropy_sigma", "tensor_left", "tensor_right"])
def test_matrix_functions_refuse_anything_but_a_cmatrix(func, name):
    # a dense square density matrix, as an array, a nested list and a scalar
    for arg, kind in ((np.eye(2) / 2, "ndarray"), ([[0.5, 0.0], [0.0, 0.5]], "list"),
                      (1.0, "float")):
        with pytest.raises(ValidationError, match=f"^{name} needs a CMatrix, got {kind}$"):
            func(arg)


_SPECTRAL = [
    (min_eigenvalue, "min_eigenvalue"),
    (op_norm, "op_norm"),
    (psd_sqrt, "psd_sqrt"),
    (lambda m: assert_density(m, "test state"), "test state"),
    (lambda m: rel_entropy(m, CMatrix(np.eye(4) / 4)), "rel_entropy rho"),
    (lambda m: rel_entropy(CMatrix(np.eye(4) / 4), m), "rel_entropy sigma"),
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
    # the density checks read the trace only after the finiteness check
    with pytest.raises(ValidationError, match=f"^{what} expects a finite matrix$"):
        func(CMatrix(arr))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_a_matrix_marked_hermitian_refuses_non_finite_entries():
    for bad in (math.nan, math.inf):
        arr = np.eye(2) / 2
        arr[0, 0] = bad
        with pytest.raises(ValidationError,
                           match=r"^CMatrix\(hermitian=True\) expects a finite matrix$"):
            CMatrix(arr, hermitian=True)


def test_trace_norm_handles_non_hermitian():
    nilpotent = np.array([[0.0, 2.0], [0.0, 0.0]])
    assert trace_norm(CMatrix(nilpotent)) == pytest.approx(2.0, abs=1e-12)


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
    root = psd_sqrt(CMatrix(rho))
    assert np.abs(root @ root - rho).max() <= 1e-10
    with pytest.raises(ValidationError, match="^psd_sqrt got a matrix with eigenvalue "):
        psd_sqrt(CMatrix(np.diag([1.0, -0.5])))


def test_psd_sqrt_floors_noise_eigenvalues():
    # A rank-one projector plus 1e-16 jitter must keep a clean unit trace.
    proj = np.diag([1.0, 0.0, 0.0, 0.0]).astype(np.complex128)
    jitter = np.full((4, 4), 1e-16)
    root = psd_sqrt(CMatrix(proj + jitter))
    assert abs(np.trace(root).real - 1.0) <= 1e-12


def test_assert_density_rejects_bad_inputs():
    with pytest.raises(ValidationError, match="^doubled trace must have unit trace"):
        assert_density(CMatrix(np.eye(2)), "doubled trace")
    with pytest.raises(ValidationError, match="^negative eigenvalue must be PSD"):
        assert_density(CMatrix(np.diag([1.5, -0.5])), "negative eigenvalue")


def test_rel_entropy_zero_on_equal_states():
    rng = np.random.default_rng(10)
    rho = CMatrix(random_density(rng, 5))
    assert rel_entropy(rho, rho) == pytest.approx(0.0, abs=1e-10)


def test_rel_entropy_pure_versus_maximally_mixed():
    pure = CMatrix(np.diag([1.0, 0.0]))
    assert rel_entropy(pure, CMatrix(np.eye(2) / 2.0)) == pytest.approx(1.0, abs=1e-12)


def test_rel_entropy_support_violation_is_infinite():
    plus = CMatrix(np.full((2, 2), 0.5))
    pinned = CMatrix(np.diag([1.0, 0.0]))
    assert rel_entropy(plus, pinned) == math.inf


def test_rel_entropy_max_entangled_versus_classical_mixture(phi_plus):
    cc = np.zeros((4, 4), dtype=np.complex128)
    cc[0, 0] = cc[3, 3] = 0.5
    assert rel_entropy(phi_plus, CMatrix(cc, phi_plus.layout)) == pytest.approx(1.0, abs=1e-9)


def test_rel_entropy_validates_densities():
    with pytest.raises(ValidationError, match="^rel_entropy rho must have unit trace"):
        rel_entropy(CMatrix(np.eye(2)), CMatrix(np.eye(2) / 2.0))
    with pytest.raises(ValidationError, match="^rel_entropy needs matrices of equal dimension$"):
        rel_entropy(CMatrix(np.eye(2) / 2.0), CMatrix(np.eye(3) / 3.0))


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
    with pytest.raises(ValidationError, match="^factor party label must be non-empty$"):
        SystemLayout(((2, ""),))
    # matrix_to_json would write "dims":[true,2] or "parties":["A",5], which
    # matrix_from_json refuses
    for d in (True, np.int64(2)):
        with pytest.raises(ValidationError, match="^factor dimension must be a positive int"):
            SystemLayout(((d, "A"), (2, "B")))
    for party in (5, ("A",)):
        with pytest.raises(ValidationError, match="^factor party label must be a string"):
            SystemLayout(((2, "A"), (2, party)))
    with pytest.raises(ValidationError, match=r"^\[0, 0\] is not a permutation of the factors$"):
        SystemLayout.bipartite(2, 2).permuted([0, 0])
    with pytest.raises(ValidationError, match=r"^matrix must be square, got shape \(2, 3\)$"):
        CMatrix(np.ones((2, 3)))


def test_a_matrix_does_not_alias_the_arrays_it_is_built_from_or_gives_out():
    # CMatrix once kept a C-contiguous complex128 array as it was and ``mat``
    # returned it: these writes changed the matrix (trace_norm 9.75) and could
    # undo a hermitian check that had passed
    a = np.eye(4, dtype=complex) / 4
    m = CMatrix(a, SystemLayout.bipartite(2, 2), hermitian=True)
    a[0, 0], a[0, 1] = 9, 1
    m.mat[1, 1] = 5
    assert trace_norm(m) == 1.0
    assert np.array_equal(m.mat, np.eye(4) / 4)


@pytest.mark.parametrize("func, what", [
    (trace_norm, "trace_norm"),
    (min_eigenvalue, "min_eigenvalue"),
    (op_norm, "op_norm"),
    (psd_sqrt, "psd_sqrt"),
], ids=["trace_norm", "min_eigenvalue", "op_norm", "psd_sqrt"])
def test_an_empty_matrix_is_refused(func, what):
    # these raised numpy's "need at least one array to concatenate"; a CMatrix
    # is never empty, and nothing else is read
    with pytest.raises(ValidationError, match=rf"^matrix must be non-empty, got shape \(0, 0\)$"):
        CMatrix(np.zeros((0, 0)))
    with pytest.raises(ValidationError, match=f"^{what} needs a CMatrix, got ndarray$"):
        func(np.zeros((0, 0)))


def test_collecting_the_parties_commutes_with_partial_transpose():
    rng = np.random.default_rng(11)
    layout = SystemLayout(((2, "B"), (3, "A"), (2, "B")))
    arr = random_hermitian(rng, 12)
    m = CMatrix(arr, layout, hermitian=True)
    coll = permute_factors(m, [1, 0, 2])
    assert coll.layout.factors == ((3, "A"), (2, "B"), (2, "B"))
    # transposing B then collecting equals collecting then transposing B
    left = permute_factors(partial_transpose(m), [1, 0, 2]).mat
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


def test_factor_reorderings_equal_per_entry_loops():
    """Each reordering against an explicit loop over the multi-indices (i, j) of
    the entries: unequal, interleaved factors, so a wrong axis order fails
    here even when it is an involution or commutes with another reordering."""
    rng = np.random.default_rng(23)
    layout = SystemLayout(((2, "A"), (3, "B"), (2, "A"), (5, "B")))
    dims, a_axes, b_axes, order = layout.dims, (0, 2), (1, 3), (3, 0, 2, 1)
    arr = rng.normal(size=(60, 60)) + 1j * rng.normal(size=(60, 60))
    m = CMatrix(arr, layout)

    def flat(idx, axes):
        return int(np.ravel_multi_index([idx[k] for k in axes], [dims[k] for k in axes]))

    pt, perm, grouped = (np.empty_like(arr) for _ in range(3))
    realigned = np.empty((4 * 4, 15 * 15), dtype=np.complex128)
    for i in np.ndindex(*dims):
        for j in np.ndindex(*dims):
            v = arr[flat(i, range(4)), flat(j, range(4))]
            i_pt = [j[k] if k in b_axes else i[k] for k in range(4)]
            j_pt = [i[k] if k in b_axes else j[k] for k in range(4)]
            pt[flat(i_pt, range(4)), flat(j_pt, range(4))] = v
            perm[flat(i, order), flat(j, order)] = v
            grouped[flat(i, a_axes + b_axes), flat(j, a_axes + b_axes)] = v
            realigned[flat(i, a_axes) * 4 + flat(j, a_axes),
                      flat(i, b_axes) * 15 + flat(j, b_axes)] = v
    assert np.array_equal(bits(partial_transpose(m).mat), bits(pt))
    permuted = permute_factors(m, order)
    assert permuted.layout.factors == ((5, "B"), (2, "A"), (2, "A"), (3, "B"))
    assert np.array_equal(bits(permuted.mat), bits(perm))
    coll = permute_factors(m, a_axes + b_axes)
    assert coll.layout.factors == ((2, "A"), (2, "A"), (3, "B"), (5, "B"))
    assert np.array_equal(bits(coll.mat), bits(grouped))
    # a dense matrix realigns to one block holding the whole of R
    r = _realigned(m, "seesaw")
    assert (r.da, r.db) == (4, 15)
    [(rows, cols, blocks)] = r.groups
    assert rows.tolist() == [list(range(16))] and cols.tolist() == [list(range(225))]
    assert np.array_equal(bits(blocks[0]), bits(realigned))
    assert np.array_equal(bits(dense_of_blocks(r)), bits(dense_realigned(m)))


def test_tensor_concatenates_layouts(phi_plus):
    prod = tensor(phi_plus, phi_plus)
    assert prod.layout.factors == ((2, "A"), (2, "B"), (2, "A"), (2, "B"))
    assert prod.dim == 16


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
    """The per-entry writer of the dense form, kept as the oracle of the dense reader."""
    return [[float(z.real), float(z.imag)] for z in m.mat.reshape(-1)]


def oracle_to_json_entries(m):
    """Per entry of the dense matrix: [i, j, re, im] unless its bits are (+0.0, +0.0)."""
    return [[i, j, float(z.real), float(z.imag)] for (i, j), z in np.ndenumerate(m.mat)
            if bits(np.array([z])).any()]


def oracle_from_json_data(data):
    """The per-entry reader of the dense form, kept as its oracle."""
    return np.array([complex(re, im) for re, im in data], dtype=np.complex128)


def bits(arr):
    return np.ascontiguousarray(arr, dtype=np.complex128).view(np.uint64)


def canonical_dump(obj):
    """The text the module's one encoder must reproduce: json.dumps, canonical."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def assert_same_entries(back, m):
    """Equal positions, values equal as bits, and m's layout (one factor "A" if it has none)."""
    assert np.array_equal(back.pos, m.pos)
    assert np.array_equal(bits(back.vals), bits(m.vals))
    assert back.layout == (m.layout or SystemLayout(((m.dim, "A"),)))


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
    expected = oracle_to_json_entries(m)
    assert json.dumps(data) == json.dumps(expected)  # repr keeps -0.0 apart from 0.0
    assert all(type(i) is int and type(j) is int and type(re) is float and type(im) is float
               for i, j, re, im in data)
    dense = {"dims": [da, db], "parties": ["A", "B"], "data": oracle_to_json_data(m)}
    for obj in ({"dims": [da, db], "parties": ["A", "B"], "data": data}, dense):
        for payload in (obj, json.loads(json.dumps(obj))):
            assert_same_entries(matrix_from_json(payload), m)
    # the dense reader agrees with the per-entry reader it replaced
    back = matrix_from_json(dense)
    assert np.array_equal(bits(back.mat.reshape(-1)), bits(oracle_from_json_data(dense["data"])))


def nan_with_payload(payload):
    return np.array([0x7FF8000000000000 | payload], dtype=np.uint64).view(np.float64)[0]


def _encoder_cases():
    """Beside the edge_matrix cases: no layout, all entries distinct, NaN and
    inf under several bit patterns, mostly zeros, a hash collision, the empty
    matrix, and the zero runs the encoder writes without sorting: all zeros,
    runs at the start and the end, no zero at all, -0.0 inside runs of +0.0,
    1x1 matrices, and NaN and +-inf between runs."""
    rng = np.random.default_rng(21)
    n = 30
    dense = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    specials = np.zeros((4, 4), dtype=np.complex128)
    specials.real[0] = [np.nan, np.inf, -np.inf, -0.0]
    specials.imag[:, 1] = [nan_with_payload(1), -np.nan, np.inf, 5e-324]
    specials[2, 2] = complex(nan_with_payload(7), -np.inf)
    specials[3, 3] = complex(-0.0, -0.0)
    interleaved = SystemLayout(((2, "A"), (3, "B"), (2, "A")))
    # two different pairs that a 64-bit hash of the bit patterns once mapped to
    # one value, alternating, so a sort on that hash could not group them
    pair = np.array([[0x3FF0000000000000, 0x4000000000000000],
                     [0x3FF0000000000001, 0x3F4A7C15625779B9]], dtype=np.uint64)
    collision = pair[[0, 1, 1, 0, 0, 1, 0, 1, 1]].view(np.complex128)
    inner = np.zeros((5, 5), dtype=np.complex128)
    inner[1, 3], inner[2, 0], inner[3, 1] = 0.5, 0.25j, 0.5
    signed_zeros = np.zeros((4, 4), dtype=np.complex128)
    signed_zeros.real[1, 1] = -0.0
    signed_zeros.imag[2, 2] = -0.0
    signed_zeros[3, 0] = complex(-0.0, -0.0)
    between = np.zeros(16, dtype=np.complex128)
    between[[3, 7, 8, 12]] = [np.nan, np.inf, complex(0.0, -np.inf), nan_with_payload(3)]
    return {
        "no-layout": CMatrix(random_density(rng, 5)),
        "dense-distinct": CMatrix(dense, SystemLayout.bipartite(5, 6)),
        "nan-inf": CMatrix(specials, SystemLayout.bipartite(2, 2)),
        "mostly-zero": CMatrix(np.diag(np.arange(12) % 3 - 1.0), interleaved),
        "hash-collision": CMatrix(collision.reshape(3, 3)),
        "all-zero": CMatrix(np.zeros((6, 6)), SystemLayout.bipartite(2, 3)),
        "runs-at-both-ends": CMatrix(inner),
        "all-ones": CMatrix(np.ones((8, 8))),
        "minus-zero-in-runs": CMatrix(signed_zeros),
        "1x1-zero": CMatrix(np.zeros((1, 1))),
        "1x1-nonzero": CMatrix(np.full((1, 1), -1.5 + 2j)),
        "nan-inf-between-runs": CMatrix(between.reshape(4, 4)),
    }


_ENCODER_CASES = _encoder_cases()


@pytest.mark.parametrize("name", list(_ENCODER_CASES))
def test_matrix_json_text_equals_canonical_dump_of_matrix_to_json(name):
    # make-state writes _canonical_json(matrix_to_json(m)); it reloads to the
    # same entries bit for bit, and a non-finite matrix is written but refused
    m = _ENCODER_CASES[name]
    obj = matrix_to_json(m)
    text = _canonical_json(obj)
    assert text == canonical_dump(obj)
    assert len(obj["data"]) == len(m.pos)
    if np.isfinite(m.vals).all():
        assert_same_entries(matrix_from_json(json.loads(text)), m)
    else:
        with pytest.raises(ValidationError, match="^matrix JSON has non-finite entries$"):
            matrix_from_json(json.loads(text))


def test_matrix_from_json_accepts_ints_like_the_oracle():
    data = [[1, 0], [0, -2], [1, 3], [0.5, 0]]
    back = matrix_from_json({"dims": [2], "parties": ["A"], "data": data})
    assert np.array_equal(bits(back.mat.reshape(-1)), bits(oracle_from_json_data(data)))
    entries = [[0, 0, 1, 0], [0, 1, 0, -2], [1, 0, 1, 3], [1, 1, 0.5, 0]]
    assert_same_entries(matrix_from_json({"dims": [2], "parties": ["A"], "data": entries}), back)


@pytest.mark.parametrize("bad", [
    [["1.5", 0.0]],
    [[None, 0.0]],
    [[1.0]],
    [[1.0, 0.0, 0.0]],
    [[[1.0, 2.0], 0.0]],
    [[10**400, 0.0]],
    [[0.0, 0.0, 0.0], [0.0]],
    [1.5],
    [[True, False]],
    [[0.0, True]],
    [[0, 1, 0.0, 0.0], [0.0, 0.0]],
    [[0, 0, True, 0.0]],
    [[0, 0, 0.5, False]],
    [[True, 0, 0.5, 0.0]],
    [[0.0, 0, 0.5, 0.0]],
    [["0", 0, 0.5, 0.0]],
    [[-1, 0, 0.5, 0.0]],
    [[0, 2, 0.5, 0.0]],
    [[10**400, 0, 0.5, 0.0]],
    [[1, 1, 0.5, 0.0], [1, 1, 0.0, 0.0]],
    [[0, 0, "0.5", 0.0]],
    [[0, 0, 0.5, 0.0], [0.5, 0.0]],
], ids=["string", "none", "one-element", "three-elements", "nested", "400-digit-int",
        "lengths-3-and-1", "bare-number", "boolean-pair", "boolean-imaginary-part",
        "one-entry-among-pairs", "entry-boolean-value", "entry-boolean-imaginary-part",
        "entry-boolean-index", "entry-float-index", "entry-string-index",
        "entry-negative-index", "entry-index-out-of-range", "entry-400-digit-index",
        "entry-repeated", "entry-string-value", "pair-among-entries"])
def test_matrix_from_json_rejects_bad_entries(bad):
    if all(isinstance(item, list) and len(item) == 4 for item in bad):
        # the entry form: a valid diagonal entry, then the bad ones
        data = [[0, 0, 0.5, 0.0], *bad]
    else:
        data = [[0.5, 0.0], [0.0, 0.0], [0.0, 0.0], [0.5, 0.0]]
        data[1:1 + len(bad)] = bad
    with pytest.raises(ValidationError):
        matrix_from_json({"dims": [2], "parties": ["A"], "data": data})


def test_matrix_from_json_checks_the_declared_dimension_before_the_items(monkeypatch):
    # the items are not even valid: the cap refuses the dimension first
    monkeypatch.setenv("PTBOUND_DIM_CAP", "3")
    with pytest.raises(DimensionCapError, match="^matrix JSON needs dimension 4, above the cap 3"):
        matrix_from_json({"dims": [2, 2], "parties": ["A", "B"], "data": [[None]]})


def test_matrix_from_json_reads_entries_in_any_order_and_drops_exact_zeros():
    entries = [[1, 0, 0.25, -0.5], [0, 0, 0.0, 0.0], [0, 1, 0.25, 0.5], [1, 1, -0.0, 0.0]]
    m = matrix_from_json({"dims": [2], "parties": ["A"], "data": entries})
    assert m.pos.tolist() == [1, 2, 3]
    assert bits(m.mat).tolist() == bits(np.array([[0, 0.25 + 0.5j], [0.25 - 0.5j, -0.0]])).tolist()
    empty = matrix_from_json({"dims": [2], "parties": ["A"], "data": []})
    assert empty.pos.size == 0 and not empty.mat.any()


def test_assert_density_rejects_non_hermitian_input():
    lopsided = CMatrix(np.array([[0.5, 0.3], [0.0, 0.5]]))
    with pytest.raises(ValidationError, match="^lopsided expects a hermitian matrix"):
        assert_density(lopsided, "lopsided")
    with pytest.raises(ValidationError, match="^rel_entropy sigma expects a hermitian matrix"):
        rel_entropy(CMatrix(np.eye(2) / 2.0), lopsided)


def test_rel_entropy_matches_spectral_formula():
    rng = np.random.default_rng(14)
    rho = random_density(rng, 6)
    sigma = random_density(rng, 6)
    wr = np.linalg.eigvalsh(rho)
    ws, vs = np.linalg.eigh(sigma)
    weights = np.einsum("ij,jk,ki->i", vs.conj().T, rho, vs).real
    expected = float((wr * np.log2(wr)).sum()) - float((weights * np.log2(ws)).sum())
    assert rel_entropy(CMatrix(rho), CMatrix(sigma)) == expected


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
    assert trace_norm(CMatrix(a + b)) <= trace_norm(CMatrix(a)) + trace_norm(CMatrix(b)) + 1e-10
