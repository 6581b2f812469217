"""Matrices on labelled tensor factors: partial transposition, norms, relative entropy.

The partial transpose is carried out as a pure index permutation (reshape,
axis swap, reshape back), so it is exact: no arithmetic touches the entries.
"""

from __future__ import annotations

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
            dev = float(np.abs(arr - arr.conj().T).max()) if arr.size else 0.0
            if dev > TOL.structural:
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


def partial_transpose(m: CMatrix, party: str = "B") -> CMatrix:
    """Transpose the factors of one party, leaving the rest untouched.

    Implemented as an index permutation, hence exact and an involution.
    """
    layout = _require_layout(m, "partial_transpose")
    axes = layout.axes(party)
    if not axes:
        raise ValidationError(f"layout has no factors for party {party!r}")
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


def collect_parties(m: CMatrix) -> CMatrix:
    """Group all A factors before all B factors and coarsen the layout.

    The result carries the two-factor layout [(dim_A, A), (dim_B, B)], which
    is what the Bell-operator and box routines consume.
    """
    layout = _require_layout(m, "collect_parties")
    extra = set(layout.parties) - {"A", "B"}
    if extra:
        raise ValidationError(f"bipartite operation got extra parties {sorted(extra)}")
    order = list(layout.axes("A")) + list(layout.axes("B"))
    if not order:
        raise ValidationError("layout has no A or B factors")
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


def _check_hermitian(arr: np.ndarray, what: str) -> None:
    dev = float(np.abs(arr - arr.conj().T).max())
    if dev > TOL.assertion:
        raise ValidationError(f"{what} expects a hermitian matrix, deviation {dev:.3e}")


def trace_norm(m) -> float:
    """Sum of singular values; for hermitian input the sum of |eigenvalues|."""
    arr = _as_array(m)
    if arr.shape[0] != arr.shape[1]:
        raise ValidationError("trace_norm expects a square matrix")
    if np.abs(arr - arr.conj().T).max() <= TOL.assertion:
        return float(np.abs(np.linalg.eigvalsh(arr)).sum())
    return float(np.linalg.svd(arr, compute_uv=False).sum())


def op_norm(m) -> float:
    """Largest |eigenvalue| of a hermitian matrix.  Errors on non-hermitian input."""
    arr = _as_array(m)
    if arr.shape[0] != arr.shape[1]:
        raise ValidationError("op_norm expects a square matrix")
    _check_hermitian(arr, "op_norm")
    return float(np.abs(np.linalg.eigvalsh(arr)).max())


def spectral_norm(m) -> float:
    """Largest singular value, valid for arbitrary (e.g. filter) operators."""
    return float(np.linalg.svd(_as_array(m), compute_uv=False).max())


def psd_sqrt(m, floor: float = TOL.eig_floor) -> np.ndarray:
    """Square root of a PSD matrix, flooring eigenvalues <= ``floor`` to zero.

    The floor keeps sqrt from amplifying noise: an eigenvalue that should be
    an exact 0 but comes out of the solver as 1e-17 would otherwise donate
    ~3e-9 to every singular value sum downstream.
    """
    arr = _as_array(m)
    _check_hermitian(arr, "psd_sqrt")
    w, v = np.linalg.eigh(arr)
    if float(w.min()) < -TOL.psd:
        raise ValidationError(f"psd_sqrt got a matrix with eigenvalue {w.min():.3e}")
    w = np.where(w <= floor, 0.0, w)
    return (v * np.sqrt(w)) @ v.conj().T


def _density_eigs(arr: np.ndarray, what: str, trace_tol: float, psd_tol: float,
                  vectors: bool = False):
    """Check unit trace, hermiticity and positivity from one decomposition.

    Returns (eigenvalues, eigenvectors), the eigenvectors only when
    ``vectors`` is set and None otherwise, so callers that need the spectrum
    anyway pay for it only once.
    """
    tr = complex(np.trace(arr))
    if abs(tr - 1.0) > trace_tol:
        raise ValidationError(f"{what} must have unit trace, got {tr}")
    _check_hermitian(arr, what)
    w, v = np.linalg.eigh(arr) if vectors else (np.linalg.eigvalsh(arr), None)
    if float(w.min()) < -psd_tol:
        raise ValidationError(f"{what} must be PSD, minimum eigenvalue {w.min():.3e}")
    return w, v


def assert_density(m, what: str) -> np.ndarray:
    """Check trace one and positivity, returning the underlying array."""
    arr = _as_array(m)
    _density_eigs(arr, what, TOL.assertion, TOL.psd)
    return arr


def rel_entropy(rho, sigma, *, support_tol: float = TOL.support,
                floor: float = TOL.eig_floor) -> float:
    """Quantum relative entropy S(rho || sigma) in bits.

    Returns ``math.inf`` when rho has weight outside the support of sigma
    (kernel overlap above ``support_tol``).  Both arguments must be density
    matrices within the validation tolerance.

    Parameters
    ----------
    rho, sigma : CMatrix or array-like
        Density matrices of equal dimension.
    support_tol : float
        Maximum tolerated Tr(rho K) with K the kernel projector of sigma.
    floor : float
        Eigenvalues at or below this count as zero, both for the kernel of
        sigma and inside the logarithms.
    """
    r = _as_array(rho)
    s = _as_array(sigma)
    if r.shape != s.shape:
        raise ValidationError("rel_entropy needs matrices of equal dimension")
    wr, _ = _density_eigs(r, "rel_entropy rho", TOL.support, TOL.support)
    ws, vs = _density_eigs(s, "rel_entropy sigma", TOL.support, TOL.support, vectors=True)
    kernel = vs[:, ws <= floor]
    if kernel.shape[1]:
        overlap = float(np.einsum("ij,jk,ki->", kernel.conj().T, r, kernel).real)
        if overlap > support_tol:
            return math.inf
    wr_pos = wr[wr > floor]
    term_rho = float((wr_pos * np.log2(wr_pos)).sum())
    keep = ws > floor
    vpos = vs[:, keep]
    weights = np.einsum("ij,jk,ki->i", vpos.conj().T, r, vpos).real
    term_cross = float((weights * np.log2(ws[keep])).sum())
    value = term_rho - term_cross
    if value < 0.0:
        # mathematically >= 0; only rounding can push it a hair under
        if value < -1e-7:
            raise ValidationError(f"relative entropy came out {value}, check inputs")
        value = 0.0
    return value


def matrix_to_json(m: CMatrix) -> dict:
    """Serialize as {"dims", "parties", "data"} with data = [[re, im], ...] row-major."""
    if m.layout is None:
        dims = [m.dim]
        parties = ["A"]
    else:
        dims = list(m.layout.dims)
        parties = list(m.layout.parties)
    return {
        "dims": dims,
        "parties": parties,
        # complex128 is (re, im) float64 pairs in memory
        "data": m.mat.reshape(-1).view(np.float64).reshape(-1, 2).tolist(),
    }


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


def matrix_from_json(obj: dict) -> CMatrix:
    """Inverse of matrix_to_json, validating shape and finiteness."""
    try:
        dims = [int(d) for d in obj["dims"]]
        parties = [str(p) for p in obj["parties"]]
        data = obj["data"]
        n_entries = len(data)
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"matrix JSON is missing a field: {exc}") from exc
    if len(dims) != len(parties):
        raise ValidationError("dims and parties must have equal length")
    dim = int(np.prod(dims, dtype=np.int64))
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
