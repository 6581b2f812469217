"""Matrices on labelled tensor factors: partial transposition, norms, relative entropy.

The partial transpose is carried out as a pure index permutation (reshape,
axis swap, reshape back), so it is exact: no arithmetic touches the entries.

Every spectral function here (trace_norm, op_norm, min_eigenvalue, psd_sqrt,
assert_density, rel_entropy) diagonalises its hermitian input one block at a
time.  The blocks are the connected components of the exact nonzero pattern
(M != 0) | (M != 0)^T, with no tolerance.  Permuting the indices so that each
component is contiguous makes M block diagonal, and a block-diagonal matrix
has the union of its blocks' spectra, with eigenvectors supported on single
blocks; so nothing is dropped or approximated.  Each block keeps its indices
in ascending order, so its lower triangle, the one eigvalsh and eigh read, is
the full matrix's.  Key/shield states are almost all exact zeros and split
into many small blocks; a matrix that is one component takes the dense call
unchanged.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass
from itertools import chain
from typing import Sequence

import numpy as np

from .config import TOL, ValidationError, check_dim

__all__ = [
    "SystemLayout",
    "CMatrix",
    "partial_transpose",
    "permute_factors",
    "collect_parties",
    "tensor",
    "trace_norm",
    "op_norm",
    "min_eigenvalue",
    "spectral_norm",
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
            if not isinstance(d, int) or d < 1:
                raise ValidationError(f"factor dimension must be a positive int, got {d!r}")
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
        return int(np.prod(self.dims, dtype=np.int64))

    def axes(self, party: str) -> tuple[int, ...]:
        return tuple(i for i, (_, p) in enumerate(self.factors) if p == party)

    def dim_of(self, party: str) -> int:
        axes = self.axes(party)
        return int(np.prod([self.factors[i][0] for i in axes], dtype=np.int64)) if axes else 1

    def permuted(self, order: Sequence[int]) -> "SystemLayout":
        if sorted(order) != list(range(len(self.factors))):
            raise ValidationError(f"{order!r} is not a permutation of the factors")
        return SystemLayout(tuple(self.factors[i] for i in order))


class CMatrix:
    """A square complex matrix plus an optional factor layout.

    Entries are stored row-major as a numpy complex128 array.  The
    ``hermitian`` keyword is a one-time check on a caller-supplied matrix:
    when true, the constructor raises ValidationError unless
    max |M_ij - conj(M_ji)| is within the structural tolerance.  Nothing is
    stored; matrices built inside the package are hermitian by construction
    and are not re-checked.
    """

    __slots__ = ("mat", "layout")

    def __init__(self, mat, layout: SystemLayout | None = None, hermitian: bool = False):
        arr = np.ascontiguousarray(mat, dtype=np.complex128)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValidationError(f"matrix must be square, got shape {arr.shape}")
        if layout is not None and layout.dim != arr.shape[0]:
            raise ValidationError(
                f"layout dimension {layout.dim} does not match matrix dimension {arr.shape[0]}"
            )
        if hermitian:
            dev = _hermitian_deviation(arr)
            if not dev <= TOL.structural:  # NaN too
                raise ValidationError(f"matrix marked hermitian deviates by {dev:.3e}")
        self.mat = arr
        self.layout = layout

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    def __repr__(self):
        lay = "" if self.layout is None else f", factors={self.layout.factors}"
        return f"CMatrix(dim={self.dim}{lay})"


def _as_array(m) -> np.ndarray:
    return m.mat if isinstance(m, CMatrix) else np.asarray(m, dtype=np.complex128)


def _require_layout(m: CMatrix, op: str) -> SystemLayout:
    if not isinstance(m, CMatrix) or m.layout is None:
        raise ValidationError(f"{op} needs a CMatrix with a layout")
    return m.layout


def partial_transpose(m: CMatrix) -> CMatrix:
    """Transpose the factors of party B, leaving the rest untouched.

    Implemented as an index permutation, hence exact and an involution.
    The transpose on A is the full transpose of this one.
    """
    layout = _require_layout(m, "partial_transpose")
    axes = layout.axes("B")
    if not axes:
        raise ValidationError("layout has no factors for party 'B'")
    dims = layout.dims
    n = len(dims)
    t = m.mat.reshape(dims + dims)
    perm = list(range(2 * n))
    for ax in axes:
        perm[ax], perm[n + ax] = perm[n + ax], perm[ax]
    out = t.transpose(perm).reshape(m.dim, m.dim)
    return CMatrix(out, layout)


def permute_factors(m: CMatrix, order: Sequence[int]) -> CMatrix:
    """Reorder tensor factors; another pure index permutation."""
    layout = _require_layout(m, "permute_factors")
    new_layout = layout.permuted(order)
    dims = layout.dims
    n = len(dims)
    t = m.mat.reshape(dims + dims)
    perm = list(order) + [n + i for i in order]
    out = np.ascontiguousarray(t.transpose(perm).reshape(m.dim, m.dim))
    return CMatrix(out, new_layout)


def _party_axes(m: CMatrix, op: str) -> tuple[SystemLayout, list[int], list[int]]:
    """The layout of a bipartite matrix with the factor positions of A and of B."""
    layout = _require_layout(m, op)
    extra = set(layout.parties) - {"A", "B"}
    if extra:
        raise ValidationError(f"bipartite operation got extra parties {sorted(extra)}")
    axes_a, axes_b = list(layout.axes("A")), list(layout.axes("B"))
    if not axes_a + axes_b:
        raise ValidationError("layout has no A or B factors")
    return layout, axes_a, axes_b


def collect_parties(m: CMatrix) -> CMatrix:
    """Group all A factors before all B factors and coarsen the layout.

    The result carries the two-factor layout [(dim_A, A), (dim_B, B)], which
    is what the Bell-operator and box routines consume.
    """
    layout, axes_a, axes_b = _party_axes(m, "collect_parties")
    order = axes_a + axes_b
    grouped = m if order == list(range(len(layout.factors))) else permute_factors(m, order)
    dim_a = layout.dim_of("A")
    dim_b = layout.dim_of("B")
    coarse = SystemLayout(((dim_a, "A"), (dim_b, "B")))
    return CMatrix(grouped.mat, coarse)


def tensor(a: CMatrix, b: CMatrix) -> CMatrix:
    """Kronecker product under the dense-dimension cap; layouts concatenate
    when both sides carry one."""
    arr_a, arr_b = _as_array(a), _as_array(b)
    check_dim(arr_a.shape[0] * arr_b.shape[0], "tensor")
    layout = None
    if isinstance(a, CMatrix) and isinstance(b, CMatrix) and a.layout and b.layout:
        layout = SystemLayout(a.layout.factors + b.layout.factors)
    return CMatrix(np.kron(arr_a, arr_b), layout)


def _hermitian_deviation(arr: np.ndarray) -> float:
    """max |a_ij - conj(a_ji)|, read only where a_ij or a_ji is nonzero.

    Everywhere else the difference is an exact 0, and gathering the nonzero
    pairs is far cheaper than a transposed copy of a mostly-zero matrix.  A
    NaN or infinite entry gives a NaN or infinite deviation, without a
    warning (inf - inf); every caller refuses it.
    """
    nz = arr != 0
    pairs = nz | nz.T
    with np.errstate(invalid="ignore"):
        diff = arr[pairs] - arr.T[pairs].conj()
    return float(np.abs(diff).max()) if diff.size else 0.0


def _check_square(arr: np.ndarray, what: str) -> None:
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValidationError(f"{what} expects a square matrix")


def _finite_deviation(arr: np.ndarray, what: str) -> float:
    """_hermitian_deviation, refusing a matrix with a NaN or infinite entry.

    Such an entry makes its own difference, and so the deviation, NaN or
    infinite, and a NaN deviation would pass every ``dev > tol`` test.
    """
    dev = _hermitian_deviation(arr)
    if not math.isfinite(dev):
        raise ValidationError(f"{what} expects a finite matrix")
    return dev


def _check_hermitian(arr: np.ndarray, what: str) -> None:
    _check_square(arr, what)
    dev = _finite_deviation(arr, what)
    if dev > TOL.assertion:
        raise ValidationError(f"{what} expects a hermitian matrix, deviation {dev:.3e}")


def _components(arr: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """Isolated indices, and the other connected components of the nonzero pattern.

    Breadth-first search with a boolean frontier: each index enters a frontier
    once and costs one row scan, so detection is O(n^2) even on a path.  Every
    index set comes back sorted.
    """
    nz = arr != 0
    adj = nz | nz.T
    np.fill_diagonal(adj, False)
    linked = adj.any(axis=1)
    unseen = linked.copy()
    blocks = []
    for start in np.flatnonzero(linked):
        if not unseen[start]:
            continue
        member = np.zeros_like(unseen)
        frontier = np.array([start])
        while frontier.size:
            member[frontier] = True
            unseen[frontier] = False
            frontier = np.flatnonzero(adj[frontier].any(axis=0) & unseen)
        blocks.append(np.flatnonzero(member))
    return np.flatnonzero(~linked), blocks


def _block_eigh(arr: np.ndarray, vectors: bool = False):
    """All eigenvalues of a hermitian matrix, ascending, solved block by block.

    Returns (w, groups).  ``groups`` is None unless ``vectors`` is set; then it
    holds one (idx, w_b, v_b) per block size, where idx[k] are the sorted
    indices of a block, w_b[k] its eigenvalues and v_b[k] its eigenvectors as
    columns.  Isolated indices are read off the diagonal, blocks of equal
    size share one stacked solve, and a matrix that is one block takes the
    dense call, so its eigenvalues are bit-identical to it.
    """
    single, blocks = _components(arr)
    if not single.size and len(blocks) == 1:
        if not vectors:
            return np.linalg.eigvalsh(arr), None
        w, v = np.linalg.eigh(arr)
        return w, [(blocks[0][None], w[None], v[None])]
    groups = []
    if single.size:
        groups.append((single[:, None], arr[single, single].real[:, None],
                       np.ones((single.size, 1, 1))))
    by_size: dict[int, list[np.ndarray]] = {}
    for block in blocks:
        by_size.setdefault(block.size, []).append(block)
    for size in sorted(by_size):
        idx = np.array(by_size[size])
        sub = arr[idx[:, :, None], idx[:, None, :]]
        w, v = np.linalg.eigh(sub) if vectors else (np.linalg.eigvalsh(sub), None)
        groups.append((idx, w, v))
    w = np.sort(np.concatenate([g[1].reshape(-1) for g in groups]))
    return w, (groups if vectors else None)


def trace_norm(m) -> float:
    """Sum of singular values; for hermitian input the sum of |eigenvalues|."""
    arr = _as_array(m)
    _check_square(arr, "trace_norm")
    if _finite_deviation(arr, "trace_norm") <= TOL.assertion:
        return float(np.abs(_block_eigh(arr)[0]).sum())
    return float(np.linalg.svd(arr, compute_uv=False).sum())


def op_norm(m) -> float:
    """Largest |eigenvalue| of a hermitian matrix.  Errors on non-hermitian input."""
    arr = _as_array(m)
    _check_hermitian(arr, "op_norm")
    return float(np.abs(_block_eigh(arr)[0]).max())


def min_eigenvalue(m) -> float:
    """Smallest eigenvalue of a hermitian matrix.  Errors on non-hermitian input."""
    arr = _as_array(m)
    _check_hermitian(arr, "min_eigenvalue")
    return float(_block_eigh(arr)[0][0])


def spectral_norm(m) -> float:
    """Largest singular value, valid for arbitrary (e.g. filter) operators."""
    return float(np.linalg.svd(_as_array(m), compute_uv=False).max())


def psd_sqrt(m) -> np.ndarray:
    """Square root of a PSD matrix, flooring eigenvalues <= TOL.eig_floor to zero.

    The floor keeps sqrt from amplifying noise: an eigenvalue that should be
    an exact 0 but comes out of the solver as 1e-17 would otherwise donate
    ~3e-9 to every singular value sum downstream.
    """
    arr = _as_array(m)
    _check_hermitian(arr, "psd_sqrt")
    w, groups = _block_eigh(arr, vectors=True)
    if float(w[0]) < -TOL.psd:
        raise ValidationError(f"psd_sqrt got a matrix with eigenvalue {w[0]:.3e}")
    # V_b sqrt(w_b) V_b^dagger goes into block b of a zero matrix
    out = np.zeros_like(arr)
    for idx, wb, vb in groups:
        root = np.sqrt(np.where(wb <= TOL.eig_floor, 0.0, wb))
        out[idx[:, :, None], idx[:, None, :]] = (vb * root[:, None, :]) @ vb.conj().swapaxes(1, 2)
    return out


def _density_eigs(arr: np.ndarray, what: str, trace_tol: float, psd_tol: float,
                  vectors: bool = False):
    """Check unit trace, hermiticity and positivity from one decomposition.

    Returns _block_eigh's (eigenvalues, groups), the groups of eigenvectors
    only when ``vectors`` is set and None otherwise, so callers that need the
    spectrum anyway pay for it only once.
    """
    _check_square(arr, what)
    tr = complex(np.trace(arr))
    if abs(tr - 1.0) > trace_tol:
        raise ValidationError(f"{what} must have unit trace, got {tr}")
    _check_hermitian(arr, what)
    w, groups = _block_eigh(arr, vectors)
    if float(w[0]) < -psd_tol:
        raise ValidationError(f"{what} must be PSD, minimum eigenvalue {w[0]:.3e}")
    return w, groups


def assert_density(m, what: str) -> np.ndarray:
    """Check trace one and positivity, returning the underlying array."""
    arr = _as_array(m)
    _density_eigs(arr, what, TOL.assertion, TOL.psd)
    return arr


def rel_entropy(rho, sigma) -> float:
    """Quantum relative entropy S(rho || sigma) in bits.

    Returns ``math.inf`` when rho has weight outside the support of sigma:
    Tr(rho K) above TOL.support, with K the kernel projector of sigma.
    Eigenvalues at or below TOL.eig_floor count as zero, both for the kernel
    of sigma and inside the logarithms.  Both arguments must be density
    matrices of equal dimension within the validation tolerance.
    """
    r = _as_array(rho)
    s = _as_array(sigma)
    if r.shape != s.shape:
        raise ValidationError("rel_entropy needs matrices of equal dimension")
    wr, _ = _density_eigs(r, "rel_entropy rho", TOL.support, TOL.support)
    _, groups = _density_eigs(s, "rel_entropy sigma", TOL.support, TOL.support, vectors=True)
    # log sigma and K are block diagonal with sigma, so Tr(rho log sigma) and
    # Tr(rho K) sum over sigma's blocks b of the same traces on rho_bb
    overlap, term_cross = 0.0, 0.0
    for idx, ws, vs in groups:
        rho_b = r[idx[:, :, None], idx[:, None, :]]
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


def _json_layout(m: CMatrix) -> dict:
    """The "dims" and "parties" fields of matrix_to_json."""
    if m.layout is None:
        return {"dims": [m.dim], "parties": ["A"]}
    return {"dims": list(m.layout.dims), "parties": list(m.layout.parties)}


def matrix_to_json(m: CMatrix) -> dict:
    """Serialize as {"dims", "parties", "data"} with data = [[re, im], ...] row-major."""
    # complex128 is (re, im) float64 pairs in memory
    return {**_json_layout(m), "data": m.mat.reshape(-1).view(np.float64).reshape(-1, 2).tolist()}


def _canonical_json(obj) -> str:
    """One line, sorted keys, separators "," and ":".

    One dumps call without indent stays on CPython's C encoder.
    """
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _pair_hash(pairs: np.ndarray) -> np.ndarray:
    """A uint64 hash of each row of (re, im) bit patterns, wrapping modulo 2^64.

    im is rotated by 32 bits, so that negating both parts, which flips the
    top bit of re * odd and of im alike, does not cancel out.
    """
    re, im = pairs[:, 0], pairs[:, 1]
    return re * np.uint64(0x9E3779B97F4A7C15) ^ (im << np.uint64(32) | im >> np.uint64(32))


def _matrix_json_text(m: CMatrix) -> str:
    """``_canonical_json(matrix_to_json(m))``, formatting each distinct entry once.

    Key/shield states hold a few hundred distinct entries among millions of
    exact zeros.  Entries are told apart by the bit patterns of their (re, im)
    pairs, so -0.0, subnormals and NaN payloads stay distinct.  Each distinct
    pair is formatted once and the tokens are joined back in row-major order.
    JSON writes a finite float as its repr, which an f-string produces faster
    than dumps does; the non-finite reprs nan and inf are respelt as JSON's
    NaN and Infinity.
    """
    pairs = m.mat.reshape(-1).view(np.uint64).reshape(-1, 2)
    # equal pairs have equal hashes, so sorting by hash makes them adjacent; a
    # collision can only split a run of equal pairs, which repeats a token
    order = np.argsort(_pair_hash(pairs), kind="stable")
    ranked = pairs[order]
    first = np.ones(len(ranked), dtype=bool)
    first[1:] = (ranked[1:] != ranked[:-1]).any(axis=1)
    slot = np.empty(len(ranked), dtype=np.intp)
    slot[order] = np.cumsum(first) - 1
    distinct = ranked[first].view(np.float64)
    tokens = [f"{re!r},{im!r}" for re, im in zip(distinct[:, 0].tolist(), distinct[:, 1].tolist())]
    if not np.isfinite(distinct).all():
        tokens = [t.replace("nan", "NaN").replace("inf", "Infinity") for t in tokens]
    rows = "],[".join(np.array(tokens, dtype=object)[slot].tolist())
    data = f"[[{rows}]]" if len(pairs) else "[]"
    return f'{{"data":{data},{_canonical_json(_json_layout(m))[1:]}'


def _json_floats(values, what: str, count: int = -1) -> np.ndarray:
    """The JSON numbers in ``values`` as float64; any other value is a ValidationError.

    Unary plus takes numbers only, so "1.5" or None raise here instead of
    being converted by numpy, and an integer too large for a float overflows.
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


def matrix_from_json(obj: dict) -> CMatrix:
    """Inverse of matrix_to_json, validating shape and finiteness."""
    try:
        dims = [_json_size(d, "matrix JSON dims entry") for d in obj["dims"]]
        parties = [str(p) for p in obj["parties"]]
        data = obj["data"]
        n_entries = len(data)
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"matrix JSON is missing a field: {exc}") from exc
    if len(dims) != len(parties):
        raise ValidationError("dims and parties must have equal length")
    dim = math.prod(dims)
    if n_entries != dim * dim:
        raise ValidationError(f"matrix JSON has {n_entries} entries, expected {dim * dim}")
    what = "matrix JSON entries must be [re, im] pairs"
    try:
        lengths = set(map(len, data))
    except TypeError as exc:
        raise ValidationError(f"{what} ({exc})") from exc
    # every entry must be a pair, or [1, 2, 3], [4] would read as two pairs
    if lengths != {2}:
        raise ValidationError(f"{what} (an entry has other than two elements)")
    flat = _json_floats(chain.from_iterable(data), what, count=2 * n_entries)
    if not np.isfinite(flat).all():
        raise ValidationError("matrix JSON has non-finite entries")
    layout = SystemLayout(tuple((d, p) for d, p in zip(dims, parties)))
    mat = flat.view(np.complex128).reshape(dim, dim)
    return CMatrix(mat, layout)
