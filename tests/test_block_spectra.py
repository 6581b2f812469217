"""Block spectra against their dense oracles.

Every spectral function in linalg splits its CMatrix into the connected
components of the exact nonzero pattern and diagonalises each one on its
own.  Each result here is compared bit for bit with the dense reference in
conftest, whose components come from a breadth-first search and whose
blocks come from numpy indexing, and to 1e-12 with the same formula on one
plain np.linalg.eigvalsh/eigh of the whole matrix.
"""

import math
import struct
import tracemalloc

import numpy as np
import pytest

from ptbounds import (
    CMatrix,
    DimensionCapError,
    assert_density,
    fourier_xy,
    hiding_state,
    min_eigenvalue,
    op_norm,
    partial_transpose,
    ppt_pbit,
    private_bit,
    psd_sqrt,
    rel_entropy,
    spectral_norm,
    swap_x,
    trace_norm,
)
from ptbounds.config import TOL
from ptbounds.linalg import _block_eigh, _edge_components, _hermitian_pattern, _rect_blocks

from conftest import (
    bfs_components,
    bfs_groups,
    dense_pattern,
    dense_psd_sqrt,
    dense_rel_entropy,
    dense_spectral,
    dense_trace_norm,
    eigvals_of,
    random_density,
    random_hermitian,
)


def bits(x):
    """The bit patterns of a float or an array."""
    if isinstance(x, float):
        return struct.pack("<d", x)
    return np.ascontiguousarray(x).view(np.uint64).tobytes()


def pattern_of(a):
    return _hermitian_pattern(CMatrix(a), "components")[1]


def labels(a):
    """_edge_components' labels of a dense matrix's entries."""
    return _edge_components(len(a), pattern_of(a)[2])


def components(a):
    """Isolated indices and blocks of a hermitian matrix, from _edge_components' labels."""
    label = labels(a)
    size = np.bincount(label)
    single = np.flatnonzero(size[label] == 1)
    return single, [np.flatnonzero(label == root) for root in np.flatnonzero(size > 1)]


def assert_components_match_bfs(a):
    """_edge_components labels each index by its component's smallest index, and
    _block_eigh's groups are those of the breadth-first search, bit for bit."""
    single, blocks = bfs_components(dense_pattern(a))
    expected = np.empty(len(a), dtype=np.intp)
    expected[single] = single
    for block in blocks:
        expected[block] = block[0]
    assert np.array_equal(labels(a), expected)
    m, pattern = CMatrix(a), pattern_of(a)
    for vectors in (False, True):
        w, groups = _block_eigh(m, pattern, vectors)
        oracle = bfs_groups(a, vectors)
        assert np.array_equal(w, eigvals_of(oracle))
        if vectors:
            assert len(groups) == len(oracle)
            for got, want in zip(groups, oracle):
                assert all(np.array_equal(x, y) for x, y in zip(got, want))


def whole_spectral(a):
    """What trace_norm, op_norm and min_eigenvalue return, from one plain eigvalsh."""
    w = np.linalg.eigvalsh(a)
    return {trace_norm: float(np.abs(w).sum()), op_norm: float(np.abs(w).max()),
            min_eigenvalue: float(w.min())}


def whole_psd_sqrt(a):
    w, v = np.linalg.eigh(a)
    w = np.where(w <= TOL.eig_floor, 0.0, w)
    return (v * np.sqrt(w)) @ v.conj().T


def whole_rel_entropy(r, s):
    wr = np.linalg.eigvalsh(r)
    ws, vs = np.linalg.eigh(s)
    kernel = vs[:, ws <= TOL.eig_floor]
    if float(np.einsum("ij,jk,ki->", kernel.conj().T, r, kernel).real) > TOL.support:
        return math.inf
    wr = wr[wr > TOL.eig_floor]
    keep = ws > TOL.eig_floor
    weights = np.einsum("ij,jk,ki->i", vs[:, keep].conj().T, r, vs[:, keep]).real
    value = float((wr * np.log2(wr)).sum()) - float((weights * np.log2(ws[keep])).sum())
    return max(value, 0.0)


def close(value, expected):
    return value == expected or abs(value - expected) <= 1e-12 * max(1.0, abs(expected))


def assert_spectral_match(a):
    m, whole = CMatrix(a), whole_spectral(a)
    for fast, expected in dense_spectral(a).items():
        value = fast(m)
        assert bits(value) == bits(expected), fast.__name__
        assert close(value, whole[fast]), fast.__name__


def assert_sqrt_match(a):
    root = psd_sqrt(CMatrix(a))
    assert bits(root) == bits(dense_psd_sqrt(a))
    assert np.abs(root - whole_psd_sqrt(a)).max() <= 1e-12


def assert_rel_entropy_match(r, s):
    value = rel_entropy(CMatrix(r), CMatrix(s))
    assert bits(value) == bits(dense_rel_entropy(r, s))
    assert close(value, whole_rel_entropy(r, s))
    return value


def block_diagonal(rng, blocks, make):
    """make(rng, size) per block size, placed on the diagonal, then the indices
    shuffled by one random permutation."""
    n = sum(blocks)
    out = np.zeros((n, n), dtype=np.complex128)
    start = 0
    for size in blocks:
        out[start:start + size, start:start + size] = make(rng, size)
        start += size
    perm = rng.permutation(n)
    return out[np.ix_(perm, perm)]


# singletons and repeated sizes, so several blocks share one stacked solve
BLOCK_SIZES = [(1, 1, 1, 2, 2, 3, 3, 3, 5), (4, 4, 4, 4), (1, 6, 2, 6, 1, 9)]


@pytest.mark.parametrize("blocks", BLOCK_SIZES)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_permuted_block_diagonal_matches_dense(blocks, seed):
    rng = np.random.default_rng(seed)
    a = block_diagonal(rng, blocks, random_hermitian)
    assert_components_match_bfs(a)
    assert_spectral_match(a)
    rho = block_diagonal(rng, blocks, random_density) / len(blocks)
    sigma = block_diagonal(rng, blocks, random_density) / len(blocks)
    assert_sqrt_match(rho)
    assert_rel_entropy_match(rho, sigma)
    # sigma's blocks alone set the cross term; a dense rho spans all of them
    assert_rel_entropy_match(random_density(rng, rho.shape[0]), sigma)


def test_components_are_sorted_and_cover_every_index():
    rng = np.random.default_rng(3)
    a = block_diagonal(rng, BLOCK_SIZES[0], random_hermitian)
    single, blocks = components(a)
    assert single.size == 3
    assert sorted(b.size for b in blocks) == [2, 2, 3, 3, 3, 5]
    assert all(np.array_equal(b, np.sort(b)) for b in blocks)
    assert np.array_equal(np.sort(np.concatenate([single, *blocks])), np.arange(21))


@pytest.mark.parametrize("seed", range(8))
def test_labels_match_breadth_first_search_on_random_patterns(seed):
    rng = np.random.default_rng(100 + seed)
    for _ in range(25):
        n = int(rng.integers(1, 48))
        a = np.diag(rng.normal(size=n)).astype(np.complex128)
        # sparse patterns give many small components, forests of several trees
        # and long chains; dense ones give few components of many trees
        upper = np.triu(rng.random((n, n)) < rng.choice([0.0, 0.02, 0.05, 0.1, 0.3, 0.8]), 1)
        a[upper] = rng.normal(size=upper.sum()) + 1j * rng.normal(size=upper.sum())
        a = a + np.triu(a, 1).conj().T
        assert_components_match_bfs(a)


def tridiagonal(rng, n, cuts=()):
    """Diagonally dominant, so PSD; the couplings at ``cuts`` are exact zeros."""
    off = (rng.normal(size=n - 1) + 1j * rng.normal(size=n - 1)) / 3.0
    off[list(cuts)] = 0.0
    return (np.diag(np.full(n, 3.0) + rng.uniform(size=n)) + np.diag(off, -1)
            + np.diag(off.conj(), 1)) / n


def test_tridiagonal_paths_match_dense():
    rng = np.random.default_rng(4)
    # paths of 300, 300, 200 and 224 indices, two of them of equal length
    a = tridiagonal(rng, 1024, cuts=(299, 599, 799))
    single, blocks = components(a)
    assert single.size == 0 and sorted(b.size for b in blocks) == [200, 224, 300, 300]
    assert_components_match_bfs(a)
    # the same paths with shuffled indices: the first-neighbour forest splits
    # into many trees that the hooking rounds must join
    perm = rng.permutation(1024)
    assert_components_match_bfs(a[np.ix_(perm, perm)])
    assert_spectral_match(a)
    assert_sqrt_match(a)


def test_one_long_path_is_one_component():
    a = tridiagonal(np.random.default_rng(5), 1024)
    single, blocks = components(a)
    assert single.size == 0 and len(blocks) == 1 and blocks[0].size == 1024
    # one block is one plain solve, bit for bit
    assert bits(trace_norm(CMatrix(a))) == bits(whole_spectral(a)[trace_norm])


def test_one_sided_entries_link_their_indices():
    # eigvalsh reads the lower triangle: a coupling stored below the diagonal
    # only splits the degenerate diagonal by +-sqrt(2) c along the path 0-5-2,
    # and a coupling above it only is not read at all
    c = 4e-10
    a = np.diag(np.full(8, 0.125)).astype(np.complex128)
    a[5, 0] = a[5, 2] = c
    a[7, 3] = 0.0
    a[3, 7] = c
    w = np.linalg.eigvalsh(a)
    assert w.max() - w.min() == pytest.approx(2 * math.sqrt(2) * c, rel=1e-6)
    assert_spectral_match(a)
    assert_sqrt_match(a)
    assert_rel_entropy_match(a, a)
    tiny = np.diag([0.5, 0.5]).astype(np.complex128)
    tiny[1, 0] = 1e-300
    assert_spectral_match(tiny)
    assert_sqrt_match(tiny)
    assert_rel_entropy_match(tiny, np.eye(2) / 2)


def test_dense_input_is_bit_identical_to_the_dense_call():
    rng = np.random.default_rng(6)
    rho, sigma = random_density(rng, 24), random_density(rng, 24)
    for fast, expected in whole_spectral(rho - sigma).items():
        assert bits(fast(CMatrix(rho - sigma))) == bits(expected), fast.__name__
    assert bits(psd_sqrt(CMatrix(rho))) == bits(whole_psd_sqrt(rho))
    assert bits(rel_entropy(CMatrix(rho), CMatrix(sigma))) == bits(whole_rel_entropy(rho, sigma))


def traced_peak(fn, a):
    """Peak traced allocation of fn(a), after one untraced warm-up call."""
    fn(a)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        fn(a)
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


PEAK_CALLS = {
    "min_eigenvalue": min_eigenvalue,
    "psd_sqrt": psd_sqrt,
    "assert_density": lambda m: assert_density(m, "state"),
    "trace_norm": trace_norm,
    "rel_entropy": lambda m: rel_entropy(m, m),
}


def test_dense_cmatrix_input_peaks_under_its_measured_bound():
    # a CMatrix of a dense matrix holds its positions and values, 1.5 matrices;
    # its entries' rows, columns and mirrored positions are int64 arrays of
    # half a matrix each.  Measured, in dense matrices: 5.06 for every public
    # call, set by the hermitian check, and for the one-block solve 1.57
    # without eigenvectors and 2.01 with them (5.57 when the gather recomputed
    # the entries' rows and columns and the edges were int64).
    a = random_density(np.random.default_rng(8), 256)
    m = CMatrix(a)
    for name, fn in PEAK_CALLS.items():
        assert traced_peak(fn, m) <= 5.2 * a.nbytes, name
    pattern = pattern_of(a)
    assert traced_peak(lambda x: _block_eigh(x, pattern), m) <= 1.7 * a.nbytes
    assert traced_peak(lambda x: _block_eigh(x, pattern, vectors=True), m) <= 2.1 * a.nbytes


@pytest.mark.parametrize("a", [
    np.array([[0.7]]),
    np.array([[-2.5 + 0.0j]]),
    np.diag([0.5, -0.25, 0.0, 1.5, -0.25]),
], ids=["1x1", "1x1 negative", "diagonal"])
def test_one_by_one_and_diagonal(a):
    a = a.astype(np.complex128)
    assert_spectral_match(a)
    psd = np.abs(a)
    psd /= np.trace(psd).real
    assert_sqrt_match(psd)
    assert_rel_entropy_match(psd, psd)


def test_kernel_inside_one_block_gives_infinite_relative_entropy():
    rng = np.random.default_rng(7)
    # sigma = pure state on indices (1, 4)  +  full-rank block on (0, 2, 3)
    sigma = np.zeros((5, 5), dtype=np.complex128)
    v = np.array([0.6, 0.8j])
    sigma[np.ix_([1, 4], [1, 4])] = np.outer(v, v.conj()) / 2
    sigma[np.ix_([0, 2, 3], [0, 2, 3])] = random_density(rng, 3) / 2
    rho = random_density(rng, 5)
    assert assert_rel_entropy_match(rho, sigma) == math.inf
    # a rho inside the support of sigma stays finite
    assert close(assert_rel_entropy_match(sigma, sigma), 0.0)


def key_dephased(rho: CMatrix) -> CMatrix:
    """rho with its key-off-diagonal blocks zeroed: the private bit's companion."""
    da = rho.layout.factors[0][0]
    rest = rho.dim // da
    mask = np.kron(np.eye(da), np.ones((rest, rest)))
    return CMatrix(rho.mat * mask, rho.layout)


def shipped_pair(family, k):
    """rho and its separable companion sigma for one shipped family."""
    if family == "ppt-pbit":
        fam = ppt_pbit(k)
    elif family == "hiding":
        fam = hiding_state(m=k, d_shield=2, q=1.0 / 3.0)
    else:
        rho = private_bit(swap_x(k))
        return rho, key_dephased(rho)
    return fam.rho, fam.sigma_candidate


@pytest.mark.parametrize("family, k", [
    ("ppt-pbit", 4), ("ppt-pbit", 9), ("hiding", 1), ("hiding", 2), ("hiding", 3),
    ("private-bit", 2), ("private-bit", 3), ("private-bit", 4), ("private-bit", 6),
    ("private-bit", 8),
])
def test_shipped_families_match_dense(family, k):
    rho, sigma = shipped_pair(family, k)
    rg, sg = partial_transpose(rho).mat, partial_transpose(sigma).mat
    for a in (rho.mat, rg, sigma.mat, sg, rg - sg):
        assert_components_match_bfs(a)
    assert_spectral_match(rg)
    assert_spectral_match(rg - sg)
    assert_spectral_match(sg)
    assert_sqrt_match(rho.mat)
    assert_sqrt_match(sigma.mat)
    for r, s in ((rho, sigma), (sigma, rho)):
        value = rel_entropy(r, s)
        assert bits(value) == bits(dense_rel_entropy(r.mat, s.mat))
        assert close(value, whole_rel_entropy(r.mat, s.mat))


def test_ppt_pbit_16_components_match_breadth_first_search():
    rho, sigma = shipped_pair("ppt-pbit", 16)
    rg = partial_transpose(rho).mat
    for a in (rho.mat, rg, rg - partial_transpose(sigma).mat):
        assert_components_match_bfs(a)


def rectangular_blocks(rng, n):
    """A non-hermitian n x n matrix of exact zeros but for rectangular blocks of
    random shapes on random rows and columns; some rows and columns hold no entry."""
    out = np.zeros((n, n), dtype=np.complex128)
    rows, cols = rng.permutation(n), rng.permutation(n)
    r = c = 0
    while r < n - 4 and c < n - 4:
        nr, nc = rng.integers(1, 5, size=2)
        out[np.ix_(rows[r:r + nr], cols[c:c + nc])] = (rng.normal(size=(nr, nc))
                                                       + 1j * rng.normal(size=(nr, nc)))
        r, c = r + nr, c + nc
    return out


def entries_of(a):
    """The values, int32 rows and int32 columns of a dense matrix's stored entries."""
    m = CMatrix(a)
    rows, cols = np.divmod(m.pos, a.shape[1])
    return m.vals, rows.astype(np.int32), cols.astype(np.int32)


@pytest.mark.parametrize("seed", range(6))
def test_non_hermitian_trace_norm_sums_the_singular_values_of_its_blocks(seed):
    # the blocks' singular values are the matrix's nonzero ones, summed in
    # another order than the dense SVD's; their maximum is spectral_norm
    a = rectangular_blocks(np.random.default_rng(seed), 40)
    assert len(_rect_blocks(*entries_of(a), 40, 40)) > 1
    expected = dense_trace_norm(a)
    assert abs(trace_norm(CMatrix(a)) - expected) <= 1e-13 * expected
    largest = float(np.linalg.svd(a, compute_uv=False).max())
    assert abs(spectral_norm(CMatrix(a)) - largest) <= 1e-13 * largest


@pytest.mark.parametrize("ds", [4, 9, 16])
def test_fourier_trace_norms_match_the_dense_svd(ds):
    # X is ds^2 blocks of 1 x 1 and X^Gamma one ds x ds block, whose singular
    # values trace_norm sums; at ds = 4 and 9 that sum is 1/sqrt(ds) correctly
    # rounded, so ppt_pbit's recorded ||X^Gamma||_1 is, whatever the BLAS
    # thread count, while the bits of the dense SVD's sum over all ds^2
    # singular values depend on it (at ds = 9, one ulp above 1/3 on two threads)
    x = fourier_xy(ds)[0]
    for m, norm in ((x, 1.0), (partial_transpose(x), 1.0 / math.sqrt(ds))):
        value, expected = trace_norm(m), dense_trace_norm(m.mat)
        assert abs(value - expected) <= 1e-15
        assert abs(value - norm) <= 1e-15
    x_pt = partial_transpose(x)
    a = x_pt.mat
    block = a[np.ix_(np.flatnonzero(a.any(axis=1)), np.flatnonzero(a.any(axis=0)))]
    assert block.shape == (ds, ds)
    assert bits(trace_norm(x_pt)) == bits(float(np.linalg.svd(block, compute_uv=False).sum()))
    if ds < 16:
        assert trace_norm(x_pt) == 1.0 / math.sqrt(ds)


def test_dense_non_hermitian_trace_norm_is_one_svd_under_the_cap(monkeypatch):
    rng = np.random.default_rng(4)
    a = rng.normal(size=(20, 20)) + 1j * rng.normal(size=(20, 20))
    assert bits(trace_norm(CMatrix(a))) == bits(dense_trace_norm(a))
    largest = float(np.linalg.svd(a, compute_uv=False).max())
    assert bits(spectral_norm(CMatrix(a))) == bits(largest)
    # its one block is checked against the cap before the SVD; two blocks of
    # 10 x 10 each are not above it
    monkeypatch.setenv("PTBOUND_DIM_CAP", "19")
    for fn, name in ((trace_norm, "trace_norm"), (spectral_norm, "spectral_norm")):
        with pytest.raises(DimensionCapError, match=f"^{name} needs dimension 20, above the cap 19"):
            fn(CMatrix(a))
    a[:10, 10:] = a[10:, :10] = 0.0
    assert abs(trace_norm(CMatrix(a)) - dense_trace_norm(a)) <= 1e-12 * dense_trace_norm(a)
    largest = float(np.linalg.svd(a, compute_uv=False).max())
    assert abs(spectral_norm(CMatrix(a)) - largest) <= 1e-12 * largest

