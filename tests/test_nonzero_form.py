"""Every CMatrix keeps only its nonzeros; here it is checked against dense oracles, bit for bit.

The builders of swap_x, the Werner states and max_entangled compute their
stored values from their entries; their oracle is the dense builders they
replaced, kept in conftest, and so are the hiding shields' Werner factors.
The key families (private bits, PPT-padded private bits, hiding states)
place their key blocks' entries straight into the nonzero form.  The oracle
for their construction is the dense assembly they replaced, kept here: the
key blocks written into a zero matrix of the key-by-shield space and the
factors reordered by numpy reshape and transpose.  The oracle for every
operation on a CMatrix is the same operation on its dense matrix ``x.mat``:
the shared breadth-first oracle of conftest for the spectral functions, and
numpy reshape and transpose for the factor reorderings.
"""

import argparse
import json
import math
import struct
import tracemalloc

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
    chsh,
    d_eps_membership,
    matrix_from_json,
    matrix_to_json,
    min_eigenvalue,
    op_norm,
    partial_transpose,
    psd_sqrt,
    rel_entropy,
    seesaw,
    states,
    tensor,
    trace_norm,
)
from ptbounds import cli
from ptbounds.linalg import _canonical_json, _realigned, _values_at

from conftest import (
    dense_assert_density,
    dense_hiding_blocks,
    dense_max_entangled,
    dense_of_blocks,
    dense_min_eigenvalue,
    dense_op_norm,
    dense_psd_sqrt,
    dense_rel_entropy,
    dense_swap_x,
    dense_trace_norm,
    dense_werner_state,
    random_density,
)


def regrouped(arr, dims, rows, cols):
    """arr on the axes ``dims + dims`` regrouped by numpy: ``rows`` as its row index."""
    dims = tuple(dims) * 2
    shape = (math.prod(dims[i] for i in rows), math.prod(dims[i] for i in cols))
    return np.ascontiguousarray(arr.reshape(dims).transpose(list(rows) + list(cols))
                                .reshape(shape))


def transposed(arr, layout):
    """arr^Gamma: the row and column axes of B's factors swap places."""
    n, b = len(layout.dims), set(layout.axes("B"))
    return regrouped(arr, layout.dims, [n + i if i in b else i for i in range(n)],
                     [i if i in b else n + i for i in range(n)])


def realigned(arr, layout):
    """R[(a',a),(b',b)] = arr[(a',b'),(a,b)]."""
    n, a, b = len(layout.dims), list(layout.axes("A")), list(layout.axes("B"))
    return regrouped(arr, layout.dims, a + [n + i for i in a], b + [n + i for i in b])


def dense_key_shield_canonical(blocks, shield_factors):
    """The dense assembly: sum |r><c|_keys x block, then factors reordered to A-then-B;
    each block is a CMatrix, read as its dense matrix."""
    n = next(iter(blocks.values())).dim
    full = np.zeros((4 * n, 4 * n), dtype=np.complex128)
    for (r, c), blk in blocks.items():
        full[r * n:(r + 1) * n, c * n:(c + 1) * n] = blk.mat
    layout = SystemLayout(((2, "A"), (2, "B")) + shield_factors)
    order = layout.axes("A") + layout.axes("B")
    cols = [len(order) + i for i in order]
    return regrouped(full, layout.dims, order, cols), layout.permuted(order)


def dense_companion(blocks, shield_factors):
    """The dense key-diagonal companion, normalized by np.trace of its dense matrix."""
    sigma, layout = dense_key_shield_canonical(
        {key: blk for key, blk in blocks.items() if key[0] == key[1]}, shield_factors)
    return sigma / np.trace(sigma).real, layout


def reloaded(m):
    """m written as make-state writes it, then read back."""
    return matrix_from_json(json.loads(_canonical_json(matrix_to_json(m))))


def dense_form(m):
    """m's file in the dense form: the layout and every [re, im] pair of ``mat``."""
    return {"dims": list(m.layout.dims), "parties": list(m.layout.parties),
            "data": m.mat.reshape(-1).view(np.float64).reshape(-1, 2).tolist()}


def assert_same_entries(back, m):
    """Equal positions and layouts, and values equal as uint64 bits."""
    assert np.array_equal(back.pos, m.pos)
    assert np.array_equal(back.vals.view(np.uint64), m.vals.view(np.uint64))
    assert back.layout == m.layout


def bits(x):
    """The bit patterns of a float, an array or a CMatrix's dense matrix; anything else as it is."""
    if isinstance(x, CMatrix):
        x = x.mat
    if isinstance(x, float):
        return struct.pack("<d", x)
    if isinstance(x, np.ndarray):
        return np.ascontiguousarray(x).view(np.uint64).tobytes()
    return x


FAMILIES = (
    [("private-bit", d, None) for d in (2, 3, 4)]
    + [("ppt-pbit", ds, None) for ds in (4, 9, 16)]
    + [("hiding", m, q) for m in (1, 2, 3) for q in (0.2, 1.0 / 3.0, 0.4)]
)


def build(family, k, q):
    if family == "private-bit":
        return states.private_bit(states.swap_x(k)), None
    fam = states.ppt_pbit(k) if family == "ppt-pbit" else states.hiding_state(m=k, q=q)
    return fam.rho, fam.sigma_candidate


@pytest.mark.parametrize("family, k, q", FAMILIES)
def test_key_families_match_the_dense_assembly(monkeypatch, family, k, q):
    calls = []
    original = states._key_shield_canonical

    def recording(blocks, shield_factors):
        calls.append((blocks, shield_factors))
        return original(blocks, shield_factors)

    monkeypatch.setattr(states, "_key_shield_canonical", recording)
    rho, sigma = build(family, k, q)
    blocks, shield_factors = calls[0]
    expected, layout = dense_key_shield_canonical(blocks, shield_factors)
    assert rho.layout == layout
    assert bits(rho) == bits(expected)
    if sigma is not None:
        companion, layout = dense_companion(blocks, shield_factors)
        assert sigma.layout == layout
        assert bits(sigma) == bits(companion)


@pytest.mark.parametrize("d", range(2, 9))
def test_builders_match_the_dense_builders(d):
    # each stored value is computed with the dense builder's numpy expression,
    # so the matrices are equal bit for bit, zeros and signs included
    for built, dense in ((states.swap_x(d), dense_swap_x(d)),
                         (states.werner_state(d, "symmetric"), dense_werner_state(d, "symmetric")),
                         (states.werner_state(d, "antisymmetric"),
                          dense_werner_state(d, "antisymmetric")),
                         (states.max_entangled(d), dense_max_entangled(d))):
        assert built.layout == SystemLayout.bipartite(d, d)
        assert bits(built) == bits(dense)


def test_builders_make_no_dense_array():
    # one dense 1024-dim matrix is 16.8 MB, and each builder filled one or more;
    # each stores at most 2 d^2 entries.  Measured at d = 32: 0.06 MB for swap_x
    # and max_entangled, 0.28 MB for either Werner state
    for build_state in (states.swap_x, states.max_entangled,
                        lambda d: states.werner_state(d, "symmetric"),
                        lambda d: states.werner_state(d, "antisymmetric")):
        _, peak = traced_peak(lambda: build_state(32))
        assert peak < 0.5e6


@pytest.mark.parametrize("d_shield, m, q", [(d, m, q) for d in (2, 3, 4) for m in (1, 2)
                                            for q in (0.2, 1.0 / 3.0, 0.4)])
def test_hiding_blocks_match_the_dense_werner_factors(monkeypatch, d_shield, m, q):
    # hiding_state forms its factors on the symmetric Werner state's positions,
    # which cover the antisymmetric one's: the same blocks as from the dense states
    calls = []
    original = states._key_shield_canonical
    monkeypatch.setattr(states, "_key_shield_canonical",
                        lambda blocks, factors: calls.append(blocks) or original(blocks, factors))
    states.hiding_state(m=m, d_shield=d_shield, q=q)
    expected = dense_hiding_blocks(m, d_shield, q)
    assert list(calls[0]) == list(expected)
    for key, block in expected.items():
        assert bits(calls[0][key]) == bits(block), key


def sparse_blocks(rng, n):
    """An n x n matrix of random complex blocks of 1 to 4 rows and columns, on
    permuted rows and columns, so that it has several rectangular blocks."""
    out = np.zeros((n, n), dtype=np.complex128)
    rows, cols = rng.permutation(n), rng.permutation(n)
    r = c = 0
    while r < n - 4 and c < n - 4:
        nr, nc = rng.integers(1, 5, size=2)
        out[np.ix_(rows[r:r + nr], cols[c:c + nc])] = (rng.normal(size=(nr, nc))
                                                       + 1j * rng.normal(size=(nr, nc)))
        r, c = r + nr, c + nc
    return out


def corner_operator(family, k):
    if family == "swap":
        return states.swap_x(k)
    if family == "hadamard":
        # Hadamard blocks of +-1 and +-1j: every product is exact, so the Grams
        # are exactly diagonal, each a multiple of the identity on its block
        h2 = np.array([[1, 1], [1, -1]])
        x = np.zeros((16, 16), dtype=np.complex128)
        x[np.ix_([0, 2, 5, 9], [1, 4, 8, 15])] = np.kron(h2, h2)
        x[np.ix_([3, 12], [6, 11])] = 1j * h2
        x[7, 0] = -1.0
        return CMatrix(x)
    if family == "random":
        return CMatrix(sparse_blocks(np.random.default_rng(k), 16))
    x, y = states.fourier_xy(k)
    return x if family == "fourier-x" else y


@pytest.mark.parametrize("family, k", [(f, ds) for f in ("fourier-x", "fourier-y")
                                       for ds in (4, 9, 16)]
                         + [("swap", d) for d in (2, 3, 4, 8)]
                         + [("hadamard", 0)] + [("random", seed) for seed in range(5)])
def test_private_bit_corners_match_the_dense_oracle(family, k):
    # the key blocks of private_bit and ppt_pbit: sqrt(X X+), X, X+ and
    # sqrt(X+ X), the roots from the breadth-first blocks of the dense
    # products, floored; X+ holds the conjugates of X's stored entries and
    # +0.0 elsewhere.  The library forms the products block by block, so they
    # are bit-exact except at fourier-y ds=16, whose one 16 x 16 block is
    # summed in another order inside the 256 x 256 product, and on the random
    # blocks, whose products the dense oracle also sums in another order.  The
    # Hadamard blocks' Grams are exactly diagonal: the breadth-first search
    # splits them into 1 x 1 blocks, and the library roots them whole
    x = corner_operator(family, k)
    arr = x.mat
    stored = (np.ascontiguousarray(arr).view(np.uint64).reshape(*arr.shape, 2) != 0).any(axis=2)
    expected = {(0, 0): dense_psd_sqrt(arr @ arr.conj().T), (0, 3): arr,
                (3, 0): np.where(stored.T, arr.conj().T, 0.0),
                (3, 3): dense_psd_sqrt(arr.conj().T @ arr)}
    corners = states._pbit_corners(x)
    assert list(corners) == list(expected)
    for key, block in expected.items():
        assert isinstance(corners[key], CMatrix)
        if (family, k) == ("fourier-y", 16) and key in ((0, 0), (3, 3)):
            assert np.abs(corners[key].mat - block).max() <= 1e-15, key
        elif family == "random" and key in ((0, 0), (3, 3)):
            assert np.abs(corners[key].mat - block).max() <= 1e-14, key
        else:
            assert bits(corners[key]) == bits(block), key


def test_signed_zeros_stay_entries():
    # conj of the dense swap private bit at d = 3 turns the +0.0 imaginary part
    # of each of its 1,260 zeros into -0.0: each is stored, and written as such
    arr = states.private_bit(states.swap_x(3)).mat.conj()
    rho = CMatrix(arr, states.private_bit(states.swap_x(3)).layout)
    vals = rho.vals
    assert len(vals) == arr.size
    assert int((vals == 0).sum()) == 1260
    assert np.signbit(vals[vals == 0].imag).all()
    assert bits(rho) == bits(arr)
    # each is written as an entry, its -0.0 kept, and read back bit for bit
    data = matrix_to_json(rho)["data"]
    assert len(data) == arr.size
    assert sum(1 for _, _, re, im in data
               if re == im == 0 and math.copysign(1.0, im) < 0) == 1260
    assert_same_entries(reloaded(rho), rho)
    # the private bit itself stores no zero: its X+ corner comes from X's nonzeros
    assert not (states.private_bit(states.swap_x(3)).vals == 0).any()


def same_outcome(fn, *args):
    """fn's result as comparable bytes, or its ValidationError message."""
    try:
        out = fn(*args)
    except ValidationError as exc:
        return "error", str(exc)
    if isinstance(out, tuple):
        return tuple(map(bits, out))
    return bits(out)


def assert_operations_match_dense(x, y=None):
    """Every operation on x (and y) equals it on their dense matrices: the dense
    spectral oracle, and numpy for the factor reorderings."""
    lay = x.layout
    pairs = [
        (trace_norm, dense_trace_norm), (min_eigenvalue, dense_min_eigenvalue),
        (op_norm, dense_op_norm), (psd_sqrt, dense_psd_sqrt),
        (partial_transpose, lambda a: transposed(a, lay)),
        (lambda m: dense_of_blocks(_realigned(m, "seesaw")), lambda a: realigned(a, lay)),
        (lambda m: min_eigenvalue(partial_transpose(m)),
         lambda a: dense_min_eigenvalue(transposed(a, lay))),
        (lambda m: trace_norm(partial_transpose(m)),
         lambda a: dense_trace_norm(transposed(a, lay))),
    ]
    for on_matrix, on_array in pairs:
        assert same_outcome(on_matrix, x) == same_outcome(on_array, x.mat)
    assert partial_transpose(x).layout == lay
    assert_same_entries(reloaded(x), x)
    assert_same_entries(matrix_from_json(dense_form(x)), x)
    if y is not None:
        pairs = [
            (d_eps_membership,
             lambda a, b: dense_trace_norm(transposed(a, lay) - transposed(b, lay))),
            (rel_entropy, dense_rel_entropy),
            (lambda a, b: rel_entropy(b, a), lambda a, b: dense_rel_entropy(b, a)),
            (lambda a, b: assert_density(b, "state"),
             lambda a, b: dense_assert_density(b, "state")),
        ]
        for on_matrix, on_array in pairs:
            assert same_outcome(on_matrix, x, y) == same_outcome(on_array, x.mat, y.mat)


@pytest.mark.parametrize("family, k, q", [("private-bit", 3, None), ("ppt-pbit", 4, None),
                                          ("ppt-pbit", 9, None), ("hiding", 2, 1.0 / 3.0),
                                          ("hiding", 3, 0.4)])
def test_operations_on_key_families_match_dense(family, k, q):
    rho, sigma = build(family, k, q)
    if sigma is None:
        # the key-dephased companion of a private bit
        keep = np.zeros((2, 2, 2, 2))
        keep[0, 0, 0, 0] = keep[0, 1, 0, 1] = keep[1, 0, 1, 0] = keep[1, 1, 1, 1] = 1.0
        dims = rho.layout.dims
        sigma = CMatrix((rho.mat.reshape(dims * 2)
                         * keep[:, None, :, None, :, None, :, None]).reshape(rho.dim, -1),
                        rho.layout)
    assert_operations_match_dense(rho, sigma)
    assert_operations_match_dense(partial_transpose(rho))


def sparse_hermitian(draw, n):
    """A hermitian n x n matrix of mostly exact zeros, with signed zeros planted on
    and off the diagonal, empty rows and isolated indices."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    density = draw(st.sampled_from([0.0, 0.05, 0.15, 0.4, 1.0]))
    upper = np.triu(rng.random((n, n)) < density, 1)
    a = np.diag(rng.normal(size=n) * (rng.random(n) < 0.7)).astype(np.complex128)
    a[upper] = rng.normal(size=upper.sum()) + 1j * rng.normal(size=upper.sum())
    a = a + np.triu(a, 1).conj().T
    empty = rng.random(n) < 0.2  # rows and columns with no entry at all
    a[empty] = 0.0
    a[:, empty] = 0.0
    for i, j in np.argwhere((a == 0) & (rng.random((n, n)) < 0.3)):
        # -0.0 in either part, on one side of a pair or on both
        a[i, j] = complex(draw(st.sampled_from([0.0, -0.0])), draw(st.sampled_from([0.0, -0.0])))
    if draw(st.booleans()):
        # a dominant diagonal on the indices that have one, so some draws are PSD
        a = a / max(1.0, float(np.abs(a).sum())) + np.diag((np.diag(a) != 0).astype(float))
    return a


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 8), st.sampled_from([(), (7,), (2, 3, 4)]), st.booleans(), st.data())
def test_values_at_reads_what_mat_holds(n, shape, zero, data):
    # bit for bit m.mat.reshape(-1)[pos]: stored -0.0 entries, +0.0 where nothing
    # is stored, the all-zero matrix, and the last position, past the last entry
    # whenever the last row or column is empty
    m = CMatrix(np.zeros((n, n), dtype=np.complex128) if zero else sparse_hermitian(data.draw, n))
    pos = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))).integers(0, n * n, shape)
    if pos.ndim:
        pos.reshape(-1)[-1] = n * n - 1
    expected = np.asarray(m.mat.reshape(-1)[pos])
    got = _values_at(m, pos)
    assert got.shape == expected.shape == shape
    assert bits(got) == bits(expected)


def test_eq10_ds16_rows_match_dense():
    # what repro eq10 --ds 16 reads, on the CMatrix and on the dense matrices;
    # the other operations at this size take 0.7 s and are covered at ds = 4
    # and 9 above
    fam = states.ppt_pbit(16)
    rho, sigma = fam.rho, fam.sigma_candidate
    lay = rho.layout
    rho_pt = transposed(rho.mat, lay)
    assert (bits(d_eps_membership(rho, sigma))
            == bits(dense_trace_norm(rho_pt - transposed(sigma.mat, lay))))
    assert bits(min_eigenvalue(partial_transpose(rho))) == bits(dense_min_eigenvalue(rho_pt))
    assert bits(dense_of_blocks(_realigned(rho, "seesaw"))) == bits(realigned(rho.mat, lay))


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4), st.data())
def test_sparse_hermitian_matrices_match_dense(da, db, data):
    layout = SystemLayout.bipartite(da, db)
    a, b = (sparse_hermitian(data.draw, da * db) for _ in range(2))
    x = CMatrix(a, layout)
    assert bits(x.mat) == bits(a)
    assert_operations_match_dense(x, CMatrix(b, layout))


# the dense oracle of each function below, by the name that starts its messages
DENSE_REFUSALS = {"op_norm": dense_op_norm, "min_eigenvalue": dense_min_eigenvalue,
                  "psd_sqrt": dense_psd_sqrt, "state": lambda a: dense_assert_density(a, "state")}


@pytest.mark.parametrize("fn, what", [(op_norm, "op_norm"), (min_eigenvalue, "min_eigenvalue"),
                                      (psd_sqrt, "psd_sqrt"),
                                      (lambda m: assert_density(m, "state"), "state")])
@pytest.mark.parametrize("kind", ["one-sided", "unequal", "nan"])
def test_nonzero_form_refuses_what_dense_refuses_with_the_same_message(fn, what, kind):
    # the dense oracle reads the hermitian deviation as max |a - a^dagger|
    a = np.diag([0.5, 0.25, 0.25, 0.0]).astype(np.complex128)
    if kind == "one-sided":
        a[3, 1] = 1e-3  # its partner is not stored at all
    elif kind == "unequal":
        a[0, 2], a[2, 0] = 1e-3 + 1e-3j, 2e-3 + 1e-3j
    else:
        a[1, 2] = a[2, 1] = np.nan
    messages = []
    for call in (lambda: fn(CMatrix(a, SystemLayout.bipartite(2, 2))),
                 lambda: DENSE_REFUSALS[what](a)):
        with pytest.raises(ValidationError) as info:
            call()
        messages.append(str(info.value))
    assert messages[0] == messages[1]
    assert messages[0].startswith(what)
    assert ("finite" if kind == "nan" else "hermitian") in messages[0]


def test_nonzero_paths_never_build_a_dense_state(monkeypatch):
    # under a cap below the state's dimension, reading ``mat`` fails, so every
    # call that succeeds here worked from the nonzeros alone
    fam = states.ppt_pbit(4)
    rho, sigma = fam.rho, fam.sigma_candidate
    text = _canonical_json(matrix_to_json(rho))
    monkeypatch.setenv("PTBOUND_DIM_CAP", "32")
    with pytest.raises(DimensionCapError):
        rho.mat
    assert _canonical_json(matrix_to_json(rho)) == text
    # the reader checks the declared dimension against the cap first
    with pytest.raises(DimensionCapError, match="^matrix JSON needs dimension 64"):
        matrix_from_json(json.loads(text))
    assert d_eps_membership(rho, sigma) <= 0.5
    assert min_eigenvalue(partial_transpose(rho)) >= -1e-10
    assert trace_norm(rho) == pytest.approx(1.0)
    assert seesaw(rho, chsh(), restarts=2).value >= 2.0 - 1e-9


def traced_peak(fn):
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        out = fn()
        return out, tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


def signed_zeros_and_subnormals():
    """A sparse hermitian state-sized matrix holding -0.0 and subnormals in both parts."""
    a = np.diag([0.5, 0.25, 0.25, 0.0]).astype(np.complex128)
    a[0, 1], a[1, 0] = complex(5e-324, -2.5e-310), complex(5e-324, 2.5e-310)
    a[2, 3], a[3, 2] = complex(-0.0, 0.0), complex(-0.0, -0.0)
    a[3, 3] = complex(0.0, -0.0)
    return {"rho": CMatrix(a, SystemLayout.bipartite(2, 2))}


# every make-state family, hiding m=3 and ppt-pbit ds=16 among them
ROUND_TRIP_CASES = {
    **{f"{family}-default": (family, {}) for family in cli._FAMILIES},
    "fourier-xy-9": ("fourier-xy", {"ds": 9}),
    "private-bit-8": ("private-bit", {"d": 8}),
    "hiding-m3": ("hiding", {"m": 3}),
    "hiding-d3-m2": ("hiding", {"d": 3, "m": 2, "q": 0.25}),
    "ppt-pbit-16": ("ppt-pbit", {"ds": 16}),
}


@pytest.mark.parametrize("case", [*ROUND_TRIP_CASES, "signed-zeros-and-subnormals"])
def test_matrix_files_round_trip_bit_for_bit_without_a_dense_array(monkeypatch, case):
    if case in ROUND_TRIP_CASES:
        family, sizes = ROUND_TRIP_CASES[case]
        sizes = {"d": 2, "ds": 4, "m": 1, "q": 1.0 / 3.0, **sizes}
        fields = cli._FAMILIES[family][1](argparse.Namespace(**sizes))
    else:
        fields = signed_zeros_and_subnormals()
    matrices = [m for m in fields.values() if isinstance(m, CMatrix)]
    assert matrices
    for m in matrices:
        # under a cap below the dimension, reading ``mat`` fails, so the file
        # is written from the entries alone
        monkeypatch.setenv("PTBOUND_DIM_CAP", str(m.dim - 1))
        obj = json.loads(_canonical_json(matrix_to_json(m)))
        monkeypatch.delenv("PTBOUND_DIM_CAP")
        # the reader checks the declared dimension against the cap, so it runs
        # under the default cap; at dimension 256 and above its peak shows that
        # it builds no dense array (it is at most 0.34 of one)
        back, peak = traced_peak(lambda: matrix_from_json(obj))
        assert_same_entries(back, m)
        if m.dim >= 256:
            assert peak < 0.5 * m.dim * m.dim * 16
        assert len(obj["data"]) == len(m.pos)


def test_ppt_pbit_16_runs_without_a_dense_state():
    # one dense 1024-dim matrix is 16.8 MB.  Measured: 0.24 MB for the build,
    # which roots X X+ and X+ X block by block (11.0 MB with the dense 256-dim
    # X, its products and the dense SVD of X^Gamma), 0.012 matrices for d_eps,
    # 0.094 for the seesaw at 4 restarts, and 3.1 MB at the default 32, whose
    # restarts run in three groups of 11 (9.4 MB as one group of 33 with the
    # projectors of every restart kept); the dense assembly took 3.7 matrices
    # to build the family and 2.0 for d_eps, and the seesaw on a dense R 1.13.
    dense_bytes = 1024 * 1024 * 16
    fam, peak = traced_peak(lambda: states.ppt_pbit(16))
    assert peak <= 0.5e6
    eps, peak = traced_peak(lambda: d_eps_membership(fam.rho, fam.sigma_candidate))
    assert peak <= 0.05 * dense_bytes
    assert eps <= 1.0 / math.sqrt(16)
    result, peak = traced_peak(lambda: seesaw(fam.rho, chsh(), restarts=4))
    assert peak <= 0.15 * dense_bytes
    assert result.value >= 2.0 - 1e-9
    result, peak = traced_peak(lambda: seesaw(fam.rho, chsh()))
    assert peak <= 4e6
    assert result.value >= 2.0 - 1e-9


def test_prop1_m2_seesaw_runs_without_a_dense_realignment():
    # the doubled hiding state at m = 2 has dimension 4096, so its dense R would
    # be one 4096 x 4096 matrix, 268 MB.  Measured: 8.9 MiB, 0.035 of one; the
    # seesaw on the dense R peaked at 1.03.
    hid = states.hiding_state(m=2).rho
    doubled = tensor(hid, partial_transpose(hid))
    result, peak = traced_peak(lambda: seesaw(doubled, chsh(), restarts=4))
    assert peak <= 0.05 * 4096 * 4096 * 16
    assert result.value >= 2.0 - 1e-9


def test_realigned_dense_state_is_one_block_equal_to_the_dense_realignment():
    # a dense state's R is one block, so its products are the dense GEMM bit for
    # bit.  A dense state has n^2 entries, so each int64 array over them is half
    # a dense matrix: the 2k position digits of k factors and the regrouped
    # positions; then the block itself.  Measured 4.50 matrices with four
    # interleaved factors and 2.50 with two, as for the dense R it replaces.
    a = random_density(np.random.default_rng(8), 256)
    x = np.random.default_rng(9).normal(size=(33, 256)) + 1j
    for layout, bound in [(SystemLayout(((4, "A"), (4, "B"), (4, "A"), (4, "B"))), 4.6),
                          (SystemLayout.bipartite(16, 16), 2.6)]:
        rho = CMatrix(a, layout)
        r, peak = traced_peak(lambda: _realigned(rho, "seesaw"))
        assert peak <= bound * a.nbytes
        dense = realigned(a, layout)
        [(rows, cols, blocks)] = r.groups
        assert rows.tolist() == cols.tolist() == [list(range(256))]
        assert bits(blocks[0]) == bits(dense)
        assert bits(r.times(x)) == bits(x @ dense)
        assert bits(r.times(x, transpose=True)) == bits(x @ dense.T)


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 6), st.integers(1, 6), st.data())
def test_tensor_equals_kron_of_the_dense_factors(n_a, n_b, data):
    # equal in value, not in bits: where a factor stores no entry, np.kron
    # may write -0.0 and tensor stores nothing
    a, b = sparse_hermitian(data.draw, n_a), sparse_hermitian(data.draw, n_b)
    expected = np.kron(a, b)
    assert np.array_equal(tensor(CMatrix(a), CMatrix(b)).mat, expected)


@pytest.mark.parametrize("m, restarts, values", [
    (1, 8, (2.0,) * 9),
    (2, 4, (1.9999999999999993,) * 5),
])
def test_prop1_seesaw_values_match_the_dense_kronecker_product(m, restarts, values):
    # the doubled state of repro prop1, rho x rho^Gamma, and its restart values
    # pinned.  At m = 1 the seesaw on np.kron of the dense factors agrees to
    # rounding: np.kron writes -0.0 where tensor stores nothing, and those
    # entries join blocks of R, so the sums run in another order.
    fam = states.hiding_state(m=m)
    rho_pt = partial_transpose(fam.rho)
    doubled = tensor(fam.rho, rho_pt)
    assert seesaw(doubled, chsh(), restarts=restarts, seed=0).restart_values == values
    if m == 1:
        kron = np.kron(fam.rho.mat, rho_pt.mat)
        assert np.array_equal(doubled.mat, kron)
        dense = seesaw(CMatrix(kron, doubled.layout), chsh(), restarts=restarts, seed=0)
        assert np.abs(np.subtract(dense.restart_values, values)).max() <= 1e-12
