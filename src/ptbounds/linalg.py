"""Matrices on labelled tensor factors: partial transposition, norms, relative entropy.

A CMatrix is its nonzero entries: the flat row-major position and the value
of every entry whose (re, im) bit pattern is not (+0.0, +0.0), in coordinate
order (Saad, Iterative Methods for Sparse Linear Systems, ch. 3).  The
key/shield states that ``states`` builds are almost all exact zeros
(ppt-pbit at d_s = 16 has 1,536 nonzeros among 1,048,576 entries).  Signed
zeros stay entries, so the dense array that ``mat`` builds, on each read and
under the dimension cap, is the one the constructor was given, bit for bit.
matrix_to_json writes the same entries as [i, j, re, im] items, and
matrix_from_json reads them back into a CMatrix with no dense array.

Every factor reordering (partial transpose, factor order and the
realignment the seesaw reads) is one call of _regroup, a pure index
permutation, so it is exact: no arithmetic touches the entries.  It applies
its axis permutation to the digits of the positions.

Every function here that reads a matrix takes a CMatrix and refuses any
other argument with a ValidationError that names it; a caller with a dense
array passes CMatrix(a).  psd_sqrt still returns a dense array.  The
spectral functions (trace_norm, op_norm, min_eigenvalue, psd_sqrt,
assert_density, rel_entropy) check their input once, in _hermitian_pattern,
and diagonalise it one block at a time.  That check refuses a non-finite
matrix and measures the hermitian deviation on the exact nonzero pattern
(M != 0) | (M != 0)^T, with no tolerance.  The blocks are the connected
components of that same pattern, found by one edge-list finder,
_edge_components, from the rows and columns of the entries, and cut out
of the entries by one block cutter, _blocks.  Permuting the indices so
that each component is contiguous makes M block diagonal, and a
block-diagonal matrix has the union of its blocks' spectra, with
eigenvectors supported on single blocks; so nothing is dropped or
approximated.  Each block is cut with its indices in ascending order, so
its lower triangle, the one eigvalsh and eigh read, is the full matrix's.
An isolated index contributes its diagonal entry, an exact 0 where no
entry is stored, so the spectrum always has dim values and every sum over
it runs in the order it would on the dense matrix.  A matrix that is one
component is a stack of one block, bit-identical to the dense call.
rel_entropy cuts rho on each of sigma's index sets with _values_at, the one
reader of a matrix at given positions, so sigma's partition is sorted once.

A matrix that need not be hermitian or square is cut by _rect_blocks into
the components of the graph that links row i and column j where entry
(i, j) is stored, found by the same _edge_components and cut by the same
_blocks, one stack per block shape (block form, Saad ch. 3).  The realigned
state that box_from and the seesaw multiply is kept so (_Realigned).  At
eq10 d_s = 16 that is one 32 x 32 block and 992 1 x 1 blocks where the dense
R had 1,048,576 entries, and at prop1 m = 2 it is 729 blocks of 7 shapes up
to 64 x 64, holding exactly its 46,656 nonzeros, where the dense R took
268 MB; a dense state is one block, and its products are the dense GEMM bit
for bit.  A non-hermitian trace_norm sums the singular values of these
blocks (_singular_values), and _gram_roots roots each block's B B+ and B+ B
with psd_sqrt's kernel _root, cutting nothing twice, so ppt_pbit at
d_s = 64 builds in about 15 ms (129 s with dense products).
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass
from functools import reduce
from itertools import chain
from typing import Sequence

import numpy as np

from .config import TOL, ValidationError, check_dim

__all__ = [
    "SystemLayout",
    "CMatrix",
    "partial_transpose",
    "permute_factors",
    "tensor",
    "trace_norm",
    "op_norm",
    "min_eigenvalue",
    "psd_sqrt",
    "assert_density",
    "rel_entropy",
    "matrix_to_json",
    "matrix_from_json",
]


@dataclass(frozen=True)
class SystemLayout:
    """Ordered tensor factors, each a (dimension, party) pair.

    Parties are short labels, "A" and "B" for the bipartite operations in
    this package.  A party may own several factors and factors of different
    parties may interleave.
    """

    factors: tuple[tuple[int, str], ...]

    def __post_init__(self):
        if not self.factors:
            raise ValidationError("layout needs at least one factor")
        for d, party in self.factors:
            # exact types: matrix_from_json refuses a bool dimension and a non-string label
            if type(d) is not int or d < 1:
                raise ValidationError(f"factor dimension must be a positive int, got {d!r}")
            if type(party) is not str:
                raise ValidationError(f"factor party label must be a string, got {party!r}")
            if not party:
                raise ValidationError("factor party label must be non-empty")

    @staticmethod
    def bipartite(dim_a: int, dim_b: int) -> "SystemLayout":
        return SystemLayout(((dim_a, "A"), (dim_b, "B")))

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(d for d, _ in self.factors)

    @property
    def parties(self) -> tuple[str, ...]:
        return tuple(p for _, p in self.factors)

    @property
    def dim(self) -> int:
        return math.prod(self.dims)

    def axes(self, party: str) -> tuple[int, ...]:
        return tuple(i for i, (_, p) in enumerate(self.factors) if p == party)

    def dim_of(self, party: str) -> int:
        return math.prod(d for d, p in self.factors if p == party)

    def permuted(self, order: Sequence[int]) -> "SystemLayout":
        if sorted(order) != list(range(len(self.factors))):
            raise ValidationError(f"{order!r} is not a permutation of the factors")
        return SystemLayout(tuple(self.factors[i] for i in order))


def _zero_bits(vals: np.ndarray) -> np.ndarray:
    """Which complex128 values have the (re, im) bit pattern (+0.0, +0.0)."""
    bits = np.ascontiguousarray(vals).view(np.uint64).reshape(-1, 2)
    return (bits[:, 0] | bits[:, 1]) == 0


class CMatrix:
    """A square complex matrix of dimension at least 1, by its entries, plus an optional layout.

    ``pos`` holds the ascending flat row-major positions and ``vals`` the
    values of every entry whose (re, im) bit pattern is not (+0.0, +0.0),
    copied from the array the constructor is given, so writing into that
    array later does not change the matrix.  ``mat`` builds a new dense
    complex128 array on each read, under the dimension cap, and writing into
    it changes nothing either.  The ``hermitian`` keyword is a one-time check
    on a caller-supplied matrix: when true, the constructor raises
    ValidationError unless max |M_ij - conj(M_ji)| is within the structural
    tolerance.  Nothing is stored; matrices built inside the package are
    hermitian by construction and are not re-checked.
    """

    __slots__ = ("dim", "pos", "vals", "layout")

    def __init__(self, mat, layout: SystemLayout | None = None, hermitian: bool = False):
        arr = np.asarray(mat, dtype=np.complex128)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValidationError(f"matrix must be square, got shape {arr.shape}")
        if not arr.size:
            raise ValidationError(f"matrix must be non-empty, got shape {arr.shape}")
        if layout is not None and layout.dim != arr.shape[0]:
            raise ValidationError(
                f"layout dimension {layout.dim} does not match matrix dimension {arr.shape[0]}"
            )
        flat = np.ascontiguousarray(arr).reshape(-1)
        self.dim, self.layout = arr.shape[0], layout
        self.pos = np.flatnonzero(~_zero_bits(flat))
        self.vals = flat[self.pos]
        if hermitian:
            _hermitian_pattern(self, "CMatrix(hermitian=True)", TOL.structural)

    @classmethod
    def _make(cls, dim: int, pos: np.ndarray, vals: np.ndarray,
              layout: SystemLayout | None) -> "CMatrix":
        """The entries (pos, vals), each position once, sorted, without (+0.0, +0.0), unchecked."""
        order = np.argsort(pos)
        pos, vals = pos[order], vals[order]
        keep = ~_zero_bits(vals)
        m = object.__new__(cls)
        m.dim, m.pos, m.vals, m.layout = dim, pos[keep], vals[keep], layout
        return m

    @property
    def mat(self) -> np.ndarray:
        check_dim(self.dim, "CMatrix.mat")
        out = np.zeros(self.shape, dtype=np.complex128)
        out.reshape(-1)[self.pos] = self.vals
        return out

    @property
    def shape(self) -> tuple[int, int]:
        return self.dim, self.dim

    def coords(self) -> tuple[np.ndarray, np.ndarray]:
        """Row and column of each entry."""
        return np.divmod(self.pos, self.dim)

    def __repr__(self):
        lay = "" if self.layout is None else f", factors={self.layout.factors}"
        return f"CMatrix(dim={self.dim}{lay})"


def _values_at(m: CMatrix, pos: np.ndarray) -> np.ndarray:
    """m's values at the flat positions ``pos`` (any shape), +0.0 where m stores none:
    bit for bit m.mat.reshape(-1)[pos], looked up among m.pos, with no dense array."""
    if not m.pos.size:
        return np.zeros(np.shape(pos), dtype=np.complex128)
    at = np.searchsorted(m.pos, pos).clip(max=len(m.pos) - 1)
    return np.where(m.pos[at] == pos, m.vals[at], 0.0)


def _require_matrix(m, op: str) -> CMatrix:
    if not isinstance(m, CMatrix):
        raise ValidationError(f"{op} needs a CMatrix, got {type(m).__name__}")
    return m


def _require_layout(m: CMatrix, op: str) -> SystemLayout:
    if not isinstance(m, CMatrix) or m.layout is None:
        raise ValidationError(f"{op} needs a CMatrix with a layout")
    return m.layout


def _regroup(m: CMatrix, op: str, rows: Sequence[int], cols: Sequence[int]) -> np.ndarray:
    """The flat positions of m's entries, in entry order, once its tensor axes are regrouped.

    m is read as a tensor on 2n axes, ``dims + dims``: axis i < n is row factor
    i and axis n + i is column factor i.  The regrouped matrix, of shape
    (prod rows, prod cols), takes the axes ``rows`` as its row index and
    ``cols`` as its column index, both row-major, so it is a pure index
    permutation and exact: m's positions are split into the 2n axis digits,
    permuted and joined again, in the order of ``m.vals``, unsorted.  ``op``
    names the caller in errors.
    """
    dims = _require_layout(m, op).dims * 2
    axes = list(rows) + list(cols)
    digits = np.unravel_index(m.pos, dims)
    return np.ravel_multi_index([digits[i] for i in axes], [dims[i] for i in axes])


def partial_transpose(m: CMatrix) -> CMatrix:
    """Transpose the factors of party B, leaving the rest untouched.

    Implemented as an index permutation, hence exact and an involution.
    The transpose on A is the full transpose of this one.
    """
    layout = _require_layout(m, "partial_transpose")
    b_axes = set(layout.axes("B"))
    if not b_axes:
        raise ValidationError("layout has no factors for party 'B'")
    n = len(layout.factors)
    rows = [n + i if i in b_axes else i for i in range(n)]
    cols = [i if i in b_axes else n + i for i in range(n)]
    return CMatrix._make(m.dim, _regroup(m, "partial_transpose", rows, cols), m.vals, layout)


def permute_factors(m: CMatrix, order: Sequence[int]) -> CMatrix:
    """Reorder tensor factors; another pure index permutation."""
    new_layout = _require_layout(m, "permute_factors").permuted(order)
    pos = _regroup(m, "permute_factors", order, [len(order) + i for i in order])
    return CMatrix._make(m.dim, pos, m.vals, new_layout)


class _Realigned:
    """A bipartite state realigned, R[(a',a),(b',b)] = rho[(a',b'),(a,b)], as its blocks.

    Tr[(A x B) rho] = vec(A^T)^T R vec(B^T), with vec flattening row-major,
    and R.T is the same form with the parties swapped.  Row i and column j
    of R are linked when R_ij is stored; the connected components of that
    bipartite graph are R's blocks, since reordering the rows and the
    columns by component makes R block diagonal with rectangular blocks.
    ``groups`` is _blocks' list, one (rows, cols, blocks) per block shape
    (nr, nc): rows[k] and cols[k] are the ascending rows and columns of
    block k and blocks[k] its dense (nr, nc) entries.  The rows and columns
    with no entry are in no block.  ``da`` and ``db`` are the parties'
    dimensions.
    """

    __slots__ = ("groups", "da", "db")

    def __init__(self, groups: list, da: int, db: int):
        self.groups, self.da, self.db = groups, da, db

    def times(self, x: np.ndarray, transpose: bool = False) -> np.ndarray:
        """x @ R, or x @ R.T when ``transpose``, one stacked matmul per block shape.

        Each block takes x's columns on its rows and fills the product's
        columns on its own columns; a column in no block is an exact 0.  The
        1 x 1 blocks scale their column, one product each.  A state whose R is
        one block is one plain product, bit for bit.
        """
        out = np.zeros((len(x), (self.da if transpose else self.db) ** 2), dtype=np.complex128)
        for rows, cols, blocks in self.groups:
            if transpose:
                rows, cols, blocks = cols, rows, blocks.swapaxes(1, 2)
            if blocks.shape[1:] == (1, 1):
                out[:, cols[:, 0]] = x[:, rows[:, 0]] * blocks[:, 0, 0]
            else:
                out[:, cols] = (x[:, rows].swapaxes(0, 1) @ blocks).swapaxes(0, 1)
        return out


def _realigned(rho: CMatrix, op: str) -> _Realigned:
    """rho realigned as its blocks (see _Realigned); ``op`` names the caller in errors.

    R is one regrouping of rho's own factor axes, whatever their
    interleaving, so its entries are rho's, and _rect_blocks cuts its blocks
    out of them, so no dense R is made.
    """
    layout = _require_layout(rho, op)
    extra = set(layout.parties) - {"A", "B"}
    if extra:
        raise ValidationError(f"bipartite operation got extra parties {sorted(extra)}")
    # a layout has a factor, and every factor is now A's or B's
    axes_a, axes_b, n = list(layout.axes("A")), list(layout.axes("B")), len(layout.factors)
    pos = _regroup(rho, op, axes_a + [n + i for i in axes_a], axes_b + [n + i for i in axes_b])
    da, db = layout.dim_of("A"), layout.dim_of("B")
    na, nb = da * da, db * db
    rows, cols = np.empty((2, len(pos)), dtype=np.int32)
    np.divmod(pos, nb, out=(rows, cols), casting="unsafe")
    del pos
    return _Realigned(_rect_blocks(rho.vals, rows, cols, na, nb), da, db)


def tensor(a: CMatrix, b: CMatrix) -> CMatrix:
    """Kronecker product under the dense-dimension cap; layouts concatenate
    when both sides carry one.

    Each pair of nonzeros, one from each factor, is one entry of the product
    (a product that comes out (+0.0, +0.0) is dropped), so no dense factor
    or product is built.  Its values equal np.kron's; where a factor stores
    no entry, np.kron may write -0.0 and the product stores nothing.
    """
    a, b = _require_matrix(a, "tensor"), _require_matrix(b, "tensor")
    n = a.dim * b.dim
    check_dim(n, "tensor")
    layout = None
    if a.layout and b.layout:
        layout = SystemLayout(a.layout.factors + b.layout.factors)
    (ra, ca), (rb, cb) = a.coords(), b.coords()
    pos = (ra[:, None] * b.dim + rb) * n + ca[:, None] * b.dim + cb
    vals = a.vals[:, None] * b.vals
    return CMatrix._make(n, pos.reshape(-1), vals.reshape(-1), layout)


def _hermitian_pattern(data: CMatrix, what: str, tol: float = TOL.assertion):
    """Refuse a non-finite or non-hermitian matrix; the deviation and pattern.

    The deviation max |a_ij - conj(a_ji)| is read only on the symmetric nonzero
    pattern (a != 0) | (a != 0)^T: everywhere else the difference is an exact
    0.  Each stored entry is read against its transposed partner, an exact 0
    where none is stored; both orders of a pair give the same |difference|,
    so the deviation is the dense one.  A NaN or infinite entry makes its own
    difference, and so the deviation, NaN or infinite (inf - inf without a
    warning), and is refused before the ``dev > tol`` test it would pass.
    ``what`` starts every message.  The pattern goes on to _block_eigh: the
    rows and columns of the entries, which _blocks cuts into blocks, and as
    the edges of the matrix the rows and columns of its off-diagonal
    entries != 0, as int32.
    """
    r, c = data.coords()
    partner = _values_at(data, c * data.dim + r)
    with np.errstate(invalid="ignore"):
        diff = data.vals - partner.conj()
    dev = float(np.abs(diff).max()) if diff.size else 0.0
    if not math.isfinite(dev):
        raise ValidationError(f"{what} expects a finite matrix")
    if dev > tol:
        raise ValidationError(f"{what} expects a hermitian matrix, deviation {dev:.3e}")
    edge = (data.vals != 0) & (r != c)
    return dev, (r, c, (r[edge].astype(np.int32), c[edge].astype(np.int32)))


def _edge_components(n: int, edges: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """Each of n indices' component in an edge list, labelled by its smallest index.

    The edges are two int32 arrays (rows, cols) of indices.  Every index
    starts as its own root.  Each round hooks, for every edge whose ends have
    different roots, the larger root onto the smaller one, keeping the
    smallest offer per root, then jumps pointers until each index points at
    its root, and keeps only the edges whose ends still differ; it stops
    once none do.  A hook points at a smaller index, so the roots are the
    components' smallest indices; no step loops over components or indices.
    """
    rows, cols = edges
    label = np.arange(n, dtype=np.int32)
    lr, lc = rows, cols  # the roots of the edges' ends: at first each index is its own
    while lr.size:
        np.minimum.at(label, np.maximum(lr, lc), np.minimum(lr, lc))
        while True:
            up = label[label]
            if (up == label).all():
                break
            label = up
        lr, lc = label[rows], label[cols]
        apart = lr != lc
        if not apart.any():
            break
        rows, cols, lr, lc = rows[apart], cols[apart], lr[apart], lc[apart]
    return label


def _blocks(vals: np.ndarray, rows: np.ndarray, cols: np.ndarray,
            label_r: np.ndarray, label_c: np.ndarray) -> list:
    """A matrix cut into its dense blocks, one (idx_r, idx_c, stack) per block shape.

    The matrix is given by its entries, ``vals`` at ``rows`` and ``cols``, and
    label_r and label_c name the block of each row and each column, labels
    below len(label_r) + len(label_c); a square matrix cut along one
    partition passes one label array as both.  A label with both rows and
    columns is a block of nr x nc, and one without rows or without columns
    is in no block.  The shapes come ordered by nr, then nc, and one shape's
    blocks by label: block k has the ascending rows idx_r[k] and columns
    idx_c[k], and stack[k] is its dense (nr, nc) entries.  The entries whose
    row and column share a label are scattered into zeros, which is what
    indexing the dense matrix reads: every other position of a block holds
    +0.0.  The stacks are views of one buffer, so one scatter fills them all.
    """
    n, width = len(label_r) + len(label_c), len(label_c) + 1
    size_r, size_c = np.bincount(label_r, minlength=n), np.bincount(label_c, minlength=n)
    # one key per label, ascending as (nr, nc); by shape, then by block, then by index
    key = size_r * width + size_c
    key_r = key[label_r]
    order_r = np.lexsort((label_r, key_r))
    key_r = key_r[order_r]
    if label_c is label_r:  # one partition: the columns are the rows
        order_c, start_c = order_r, 0
    else:
        # a label without rows keys below width, so its columns come first
        order_c = np.lexsort((label_c, key[label_c]))
        start_c = int(np.count_nonzero(size_r[label_c] == 0))
    # per row the buffer position of its block row, per column its place in that row
    at_r, at_c = np.zeros(len(label_r), dtype=np.int64), np.zeros(len(label_c), dtype=np.int32)
    # a shape's columns follow the previous shape's
    sets, start_r, size = [], 0, 0
    while start_r < len(key_r):
        shape = int(key_r[start_r])
        end_r = int(key_r.searchsorted(shape, "right"))
        nr, nc = divmod(shape, width)
        if nc:  # rows without columns are in no block
            count = (end_r - start_r) // nr
            idx_r = order_r[start_r:end_r].reshape(count, nr)
            idx_c = order_c[start_c:start_c + count * nc].reshape(count, nc)
            at_r[idx_r] = np.arange(size, size + count * nr * nc, nc).reshape(count, nr)
            at_c[idx_c] = np.arange(nc)
            sets.append((idx_r, idx_c, slice(size, size + count * nr * nc), (count, nr, nc)))
            start_c, size = start_c + count * nc, size + count * nr * nc
        start_r = end_r
    keep = label_r[rows] == label_c[cols]
    at = at_r[rows] + at_c[cols]
    buffer = np.zeros(size, dtype=np.complex128)
    if keep.all():
        buffer[at] = vals
    else:
        buffer[at[keep]] = vals[keep]
    return [(idx_r, idx_c, buffer[span].reshape(shape)) for idx_r, idx_c, span, shape in sets]


def _rect_blocks(vals: np.ndarray, rows: np.ndarray, cols: np.ndarray,
                 n_rows: int, n_cols: int) -> list:
    """An n_rows x n_cols matrix, given by its entries, cut into its dense blocks (_blocks' list).

    Row i and column j are linked when entry (i, j) is stored, a signed zero
    included; the components of that bipartite graph, found by
    _edge_components on rows 0..n_rows-1 and columns n_rows + j, are the
    blocks, since ordering the rows and the columns by component makes the
    matrix block diagonal with rectangular blocks.  ``rows`` and ``cols`` are
    int32.
    """
    label = _edge_components(n_rows + n_cols, (rows, cols + n_rows))
    return _blocks(vals, rows, cols, label[:n_rows], label[n_rows:])


def _entry_blocks(m: CMatrix) -> list:
    """A square matrix cut into its rectangular blocks by _rect_blocks."""
    rows, cols = (a.astype(np.int32) for a in m.coords())
    return _rect_blocks(m.vals, rows, cols, m.dim, m.dim)


def _block_eigh(data: CMatrix, pattern, vectors: bool = False):
    """All eigenvalues of a hermitian matrix, ascending, solved block by block.

    The blocks are the components of the edges of ``pattern``, the matrix's
    symmetric nonzero pattern from _hermitian_pattern, and _blocks cuts
    them out of the entries at the pattern's rows and columns, with one
    label array for both.

    Returns (w, groups).  ``groups`` is None unless ``vectors`` is set; then it
    holds one (idx, w_b, v_b) per block size, ascending, where idx[k] are the
    sorted indices of a block, w_b[k] its eigenvalues and v_b[k] its
    eigenvectors as columns; a size's blocks come in order of their smallest
    index.  Isolated indices are read off the diagonal, an exact 0 where
    nothing is stored, so w has all dim eigenvalues and every sum over it
    runs as on the dense matrix.  Blocks of equal size share one stacked
    solve; a matrix that is one block is a stack of one, bit-identical to
    the dense call.
    """
    rows, cols, edges = pattern
    label = _edge_components(data.dim, edges)
    groups = []
    for idx, _, sub in _blocks(data.vals, rows, cols, label, label):
        blocks, size = idx.shape
        if size == 1:
            groups.append((idx, sub.reshape(blocks, 1).real.copy(), np.ones((blocks, 1, 1))))
            continue
        w, v = np.linalg.eigh(sub) if vectors else (np.linalg.eigvalsh(sub), None)
        groups.append((idx, w, v))
    w = np.sort(np.concatenate([g[1].reshape(-1) for g in groups]))
    return w, (groups if vectors else None)


def _singular_values(m: CMatrix, op: str):
    """m's nonzero singular values per block shape of _entry_blocks; check_dim(block, op) first."""
    for _, _, stack in _entry_blocks(m):
        check_dim(max(stack.shape[1:]), op)
        yield np.linalg.svd(stack, compute_uv=False)


def trace_norm(m: CMatrix) -> float:
    """Sum of singular values: |eigenvalues| if hermitian, else those of _singular_values."""
    dev, pattern = _hermitian_pattern(_require_matrix(m, "trace_norm"), "trace_norm", math.inf)
    if dev <= TOL.assertion:
        return float(np.abs(_block_eigh(m, pattern)[0]).sum())
    # added in block order on every Python: 3.12's sum() would compensate
    return reduce(operator.add, (float(s.sum()) for s in _singular_values(m, "trace_norm")), 0.0)


def op_norm(m: CMatrix) -> float:
    """Largest |eigenvalue| of a hermitian matrix.  Errors on non-hermitian input."""
    pattern = _hermitian_pattern(_require_matrix(m, "op_norm"), "op_norm")[1]
    return float(np.abs(_block_eigh(m, pattern)[0]).max())


def min_eigenvalue(m: CMatrix) -> float:
    """Smallest eigenvalue of a hermitian matrix.  Errors on non-hermitian input."""
    pattern = _hermitian_pattern(_require_matrix(m, "min_eigenvalue"), "min_eigenvalue")[1]
    return float(_block_eigh(m, pattern)[0][0])


def _root(w: np.ndarray, v: np.ndarray) -> np.ndarray:
    """V sqrt(w) V+ of stacked eigendecompositions (w, V), w <= TOL.eig_floor read as 0."""
    root = np.sqrt(np.where(w <= TOL.eig_floor, 0.0, w))
    return (v * root[:, None, :]) @ v.conj().swapaxes(1, 2)


def psd_sqrt(m: CMatrix) -> np.ndarray:
    """Square root of a PSD matrix, flooring eigenvalues <= TOL.eig_floor to zero.

    The floor keeps sqrt from amplifying noise: an eigenvalue that should be
    an exact 0 but comes out of the solver as 1e-17 would otherwise donate
    ~3e-9 to every singular value sum downstream.  The root is dense.
    """
    check_dim(_require_matrix(m, "psd_sqrt").dim, "psd_sqrt")
    w, groups = _block_eigh(m, _hermitian_pattern(m, "psd_sqrt")[1], vectors=True)
    if float(w[0]) < -TOL.psd:
        raise ValidationError(f"psd_sqrt got a matrix with eigenvalue {w[0]:.3e}")
    # the roots first, so that the eigenvectors are freed before the dense root
    # is made; V_b sqrt(w_b) V_b^dagger goes into block b of zeros
    groups = [(idx, _root(wb, vb)) for idx, wb, vb in groups]
    out = np.zeros(m.shape, dtype=np.complex128)
    for idx, root in groups:
        out[idx[:, :, None], idx[:, None, :]] = root
    return out


def _from_blocks(dim: int, blocks: list) -> CMatrix:
    """The dim x dim matrix of square blocks, each (idx, stack) holding stack[k] at
    the rows and columns idx[k], as its nonzeros."""
    pos = [(idx[:, :, None] * dim + idx[:, None, :]).reshape(-1) for idx, _ in blocks]
    vals = [stack.reshape(-1) for _, stack in blocks]
    return CMatrix._make(dim, np.concatenate(pos), np.concatenate(vals, dtype=np.complex128), None)


def _gram_roots(m: CMatrix) -> tuple[CMatrix, CMatrix]:
    """sqrt(M M+) and sqrt(M+ M) as nonzeros, from the rectangular blocks of M.

    Each block B of M (_entry_blocks) gives B B+ on its rows and B+ B on its
    columns, and M M+ and M+ M are block diagonal with those products; one
    eigh per block shape diagonalises them, and _root roots them as psd_sqrt
    roots its blocks, floor included.  No dense matrix of M's size is made.
    """
    left, right = [], []
    for idx_r, idx_c, b in _entry_blocks(m):
        b_h = b.conj().swapaxes(1, 2)
        left.append((idx_r, _root(*np.linalg.eigh(b @ b_h))))
        right.append((idx_c, _root(*np.linalg.eigh(b_h @ b))))
    return _from_blocks(m.dim, left), _from_blocks(m.dim, right)


def _density_eigs(data: CMatrix, what: str, trace_tol: float, psd_tol: float,
                  vectors: bool = False):
    """Check hermiticity, unit trace and positivity from one decomposition.

    Returns _block_eigh's (eigenvalues, groups), the groups of eigenvectors
    only when ``vectors`` is set and None otherwise, so callers that need the
    spectrum anyway pay for it only once.
    """
    _, pattern = _hermitian_pattern(data, what)
    tr = complex(_values_at(data, np.arange(data.dim) * (data.dim + 1)).sum())
    if abs(tr - 1.0) > trace_tol:
        raise ValidationError(f"{what} must have unit trace, got {tr}")
    w, groups = _block_eigh(data, pattern, vectors)
    if float(w[0]) < -psd_tol:
        raise ValidationError(f"{what} must be PSD, minimum eigenvalue {w[0]:.3e}")
    return w, groups


def assert_density(m: CMatrix, what: str) -> None:
    """Check hermiticity, trace one and positivity; ``what`` starts every message."""
    _density_eigs(_require_matrix(m, "assert_density"), what, TOL.assertion, TOL.psd)


def rel_entropy(rho: CMatrix, sigma: CMatrix) -> float:
    """Quantum relative entropy S(rho || sigma) in bits.

    Returns ``math.inf`` when rho has weight outside the support of sigma:
    Tr(rho K) above TOL.support, with K the kernel projector of sigma.
    Eigenvalues at or below TOL.eig_floor count as zero, both for the kernel
    of sigma and inside the logarithms.  Both arguments must be density
    matrices of equal dimension within the validation tolerance, and on one
    layout when both carry one: on another layout of equal dimension the
    pair are not two states of one system.
    """
    r, s = _require_matrix(rho, "rel_entropy"), _require_matrix(sigma, "rel_entropy")
    if r.dim != s.dim:
        raise ValidationError("rel_entropy needs matrices of equal dimension")
    if r.layout and s.layout and r.layout != s.layout:
        raise ValidationError(f"rel_entropy needs both states on one layout, got "
                              f"{r.layout.factors} and {s.layout.factors}")
    wr, _ = _density_eigs(r, "rel_entropy rho", TOL.support, TOL.support)
    _, groups = _density_eigs(s, "rel_entropy sigma", TOL.support, TOL.support, vectors=True)
    # log sigma and K are block diagonal with sigma, so Tr(rho log sigma) and
    # Tr(rho K) sum over sigma's blocks b of the same traces on rho_bb
    overlap, term_cross = 0.0, 0.0
    for idx, ws, vs in groups:
        rho_b = _values_at(r, idx[:, :, None] * r.dim + idx[:, None, :])
        weights = np.einsum("kji,kjl,kli->ki", vs.conj(), rho_b, vs).real
        kernel = ws <= TOL.eig_floor
        overlap += float(weights[kernel].sum())
        term_cross += float((weights[~kernel] * np.log2(ws[~kernel])).sum())
    if overlap > TOL.support:
        return math.inf
    wr_pos = wr[wr > TOL.eig_floor]
    term_rho = float((wr_pos * np.log2(wr_pos)).sum())
    value = term_rho - term_cross
    if value < 0.0:
        # mathematically >= 0; only rounding can push it a hair under
        if value < -1e-7:
            raise ValidationError(f"relative entropy came out {value}, check inputs")
        value = 0.0
    return value


def _drop_repeats(a: np.ndarray) -> np.ndarray:
    """A sorted array without its repeats (np.unique costs 1.6 MB of RSS on first use)."""
    keep = np.ones(len(a), dtype=bool)
    np.not_equal(a[1:], a[:-1], out=keep[1:])
    return a[keep]


def _difference(a: CMatrix, b: CMatrix) -> CMatrix:
    """a - b on a's layout, their nonzeros merged position by position.

    Each position stored in either is subtracted exactly as the dense
    matrices would be, a missing entry being +0.0 (so 0 - b, not -b), and
    the results that come out (+0.0, +0.0) are dropped.
    """
    pos = _drop_repeats(np.sort(np.concatenate((a.pos, b.pos))))
    vals = np.zeros(len(pos), dtype=np.complex128)
    vals[np.searchsorted(pos, a.pos)] = a.vals
    vals[np.searchsorted(pos, b.pos)] -= b.vals
    return CMatrix._make(a.dim, pos, vals, a.layout)


def _json_layout(m: CMatrix) -> dict:
    """The "dims" and "parties" fields of matrix_to_json."""
    if m.layout is None:
        return {"dims": [m.dim], "parties": ["A"]}
    return {"dims": list(m.layout.dims), "parties": list(m.layout.parties)}


def matrix_to_json(m: CMatrix) -> dict:
    """Serialize as {"dims", "parties", "data"} with data = [[i, j, re, im], ...].

    One item per stored entry, in row-major order: every entry whose (re, im)
    bit pattern is not (+0.0, +0.0), so -0.0 stays an entry.  Row i and
    column j are ints and re, im floats, which JSON writes as their shortest
    round-trip repr, so a file reloads to the same entries bit for bit.  This
    is the coordinate format of Matrix Market: a key/shield state writes its
    few hundred nonzeros, not its dim^2 entries.
    """
    r, c = m.coords()
    return {**_json_layout(m), "data": list(map(list, zip(
        r.tolist(), c.tolist(), m.vals.real.tolist(), m.vals.imag.tolist())))}


# one encoder for every canonical dump: json.dumps with these arguments builds a
# new JSONEncoder on each call
_CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def _canonical_json(obj) -> str:
    """One line, sorted keys, separators "," and ":".

    Without indent the encoder stays on CPython's C encoder.
    """
    return _CANONICAL.encode(obj)


def _json_floats(values, what: str, count: int = -1) -> np.ndarray:
    """The JSON numbers in ``values`` as float64; any other value but a boolean raises.

    Unary plus takes numbers only, so "1.5" or None raise here instead of
    being converted by numpy, and an integer too large for a float overflows.
    It takes true and false as 1 and 0, so callers refuse booleans themselves.
    ``what`` starts the message.
    """
    try:
        return np.fromiter(map(operator.pos, values), dtype=np.float64, count=count)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"{what} ({exc})") from exc


def _json_size(value, what: str) -> int:
    """A size read from JSON: an integer >= 1, so true, 2.0 and "2" are refused."""
    if type(value) is not int or value < 1:
        raise ValidationError(f"{what} must be an integer >= 1, got {value!r}")
    return value


def _json_positions(rows, cols, dim: int) -> np.ndarray:
    """Flat positions i * dim + j of entries read from JSON: ints in [0, dim), none repeated."""
    kinds = set(map(type, rows)) | set(map(type, cols))
    if kinds - {int}:
        names = ", ".join(sorted(k.__name__ for k in kinds - {int}))
        raise ValidationError(f"matrix JSON entry indices must be integers, got {names}")
    if rows and not (0 <= min(rows) and max(rows) < dim and 0 <= min(cols) and max(cols) < dim):
        raise ValidationError(f"matrix JSON entry indices must lie in [0, {dim})")
    n = len(rows)
    pos = np.fromiter(rows, dtype=np.int64, count=n) * dim + np.fromiter(cols, dtype=np.int64,
                                                                         count=n)
    ordered = np.sort(pos)
    repeated = ordered[1:][ordered[1:] == ordered[:-1]]
    if repeated.size:
        raise ValidationError(f"matrix JSON has entry {divmod(int(repeated[0]), dim)} twice")
    return pos


def matrix_from_json(obj: dict) -> CMatrix:
    """Inverse of matrix_to_json, validating shape and finiteness.

    ``data`` holds either [i, j, re, im] entries, as matrix_to_json writes
    them (in any order, each position at most once; a missing one is zero),
    or exactly dim^2 [re, im] pairs in row-major order, the dense form; items
    of both lengths are refused, and so are booleans.  The declared dimension
    is checked against the cap before any item is read, so a short file
    cannot ask for a huge matrix.
    """
    try:
        dims = [_json_size(d, "matrix JSON dims entry") for d in obj["dims"]]
        parties = obj["parties"]
        data = obj["data"]
        n_items = len(data)
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"matrix JSON is missing a field: {exc}") from exc
    # "AB" or {"A": .., "B": ..} would iterate as two labels
    if type(parties) is not list or not all(type(p) is str for p in parties):
        raise ValidationError(f"matrix JSON parties must be a list of strings, got {parties!r}")
    if len(dims) != len(parties):
        raise ValidationError("dims and parties must have equal length")
    dim = math.prod(dims)
    check_dim(dim, "matrix JSON")
    layout = SystemLayout(tuple((d, p) for d, p in zip(dims, parties)))
    what = "matrix JSON items must be [i, j, re, im] entries or [re, im] pairs"
    try:
        lengths = set(map(len, data))
    except TypeError as exc:
        raise ValidationError(f"{what} ({exc})") from exc
    # one length for all, or [1, 2, 3], [4] would read as two pairs
    if lengths == {2}:
        if n_items != dim * dim:
            raise ValidationError(f"matrix JSON has {n_items} [re, im] pairs, expected {dim * dim}")
        pairs = data
    elif lengths <= {4}:
        rows, cols, re, im = zip(*data) if n_items else ((),) * 4
        pos = _json_positions(rows, cols, dim)
        pairs = list(zip(re, im))
    else:
        raise ValidationError(f"{what}, all of one length")
    if bool in set(map(type, chain.from_iterable(pairs))):
        raise ValidationError("matrix JSON values must be numbers, not booleans")
    flat = _json_floats(chain.from_iterable(pairs), what, count=2 * n_items)
    if not np.isfinite(flat).all():
        raise ValidationError("matrix JSON has non-finite entries")
    vals = flat.view(np.complex128)
    if lengths == {2}:
        return CMatrix(vals.reshape(dim, dim), layout)
    return CMatrix._make(dim, pos, vals, layout)
