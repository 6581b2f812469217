"""Constructors for the state families whose Bell violation the bounds control.

All bipartite outputs use the canonical factor order: every A factor first,
then every B factor.  Key-plus-shield states come out as
(key_A, shield_A, key_B, shield_B), so transposing party B in one layout
operation covers the key and the shield together.  No builder fills a
dense array: swap_x, werner_state and max_entangled compute each stored
value from its entries, and each key block is a CMatrix whose entries are
placed at their positions among the state's, with no dense block of the
shield's size: X and Y of fourier_xy come from their nonzeros, the
corners sqrt(X X+) and sqrt(X+ X) from X's rectangular blocks, and the
hiding shields from the Werner states' entries, their powers from tensor.

Every state output is a density matrix by construction: a private bit is
(1/2) [U; I] |X| [U+, I] with X = U |X| and ||X||_1 = 1 checked on input,
padding and companion blocks are PSD and normalized, and the hiding state's
key blocks commute because both shields are functions of the swap.  The
tests pin this over a grid of parameters; it is not re-checked at run time.
Inputs (X, the family parameters, the dimension cap) are still validated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .config import TOL, ValidationError, check_dim
from .linalg import (
    CMatrix,
    SystemLayout,
    partial_transpose,
    permute_factors,
    tensor,
    trace_norm,
    _gram_roots,
    _values_at,
)

__all__ = [
    "StateFamilyResult",
    "max_entangled",
    "werner_state",
    "swap_x",
    "fourier_xy",
    "private_bit",
    "ppt_pbit",
    "hiding_state",
]


@dataclass
class StateFamilyResult:
    """A constructed state, an optional separable companion, and bookkeeping.

    ``sigma_candidate`` is separable by construction (key-diagonal blocks of
    product-basis-diagonal or Werner-mixture states); it feeds the
    candidate-relaxed bounds.  ``params`` records the family parameters and
    derived scalars, ``notes`` says in words what was built.
    """

    rho: CMatrix
    sigma_candidate: CMatrix | None
    params: dict
    notes: str


def max_entangled(d: int) -> CMatrix:
    """Projector onto (1/sqrt(d)) sum_i |ii>, layout (d, A) x (d, B)."""
    if d < 2:
        raise ValidationError("max_entangled needs d >= 2")
    check_dim(d * d, "max_entangled")
    ii, v = np.arange(d) * (d + 1), np.full(d, 1.0 / math.sqrt(d), dtype=np.complex128)
    return CMatrix._make(d * d, (ii[:, None] * d * d + ii).reshape(-1),
                         np.outer(v, v.conj()).reshape(-1), SystemLayout.bipartite(d, d))


def _swap_columns(d: int) -> np.ndarray:
    """Column j*d + i of each row i*d + j: where the swap on C^d x C^d has its one entry."""
    return np.arange(d * d).reshape(d, d).T.reshape(-1)


def werner_state(d: int, kind: str) -> CMatrix:
    """Normalized projector onto the symmetric or antisymmetric subspace of C^d x C^d."""
    if d < 2:
        raise ValidationError("werner_state needs d >= 2")
    if kind not in ("symmetric", "antisymmetric"):
        raise ValidationError(f"kind must be symmetric or antisymmetric, got {kind!r}")
    check_dim(d * d, "werner_state")
    n, rows, swap = d * d, np.arange(d * d), _swap_columns(d)
    # I +- F stores the identity's entries and the swap F's off the diagonal
    pos = np.concatenate((rows * (n + 1), rows[swap != rows] * n + swap[swap != rows]))
    r, c = np.divmod(pos, n)
    eye, f = (r == c).astype(np.complex128), (c == swap[r]).astype(np.complex128)
    proj = (eye + f) / 2.0 if kind == "symmetric" else (eye - f) / 2.0
    return CMatrix._make(n, pos, proj / proj[r == c].sum().real, SystemLayout.bipartite(d, d))


def swap_x(d: int) -> CMatrix:
    """The swap operator scaled to trace norm one: its partial transpose has
    trace norm 1/d, which is what makes the corresponding private bit nearly
    indistinguishable from its separable companion after transposition."""
    if d < 2:
        raise ValidationError("swap_x needs d >= 2")
    check_dim(d * d, "swap_x")
    return CMatrix._make(d * d, np.arange(d * d) * d * d + _swap_columns(d),
                         np.ones(d * d, dtype=np.complex128) / d**2, SystemLayout.bipartite(d, d))


def fourier_xy(d_s: int) -> tuple[CMatrix, CMatrix]:
    """Phase-twisted swap X and its rescaled partial transpose Y.

    X = (1/(d_s sqrt(d_s))) sum_ij u_ij |ij><ji| with u the unitary Fourier
    matrix (all entries of modulus 1/sqrt(d_s)).  Then ||X||_1 = 1,
    ||X^PT||_1 = 1/sqrt(d_s), and Y = sqrt(d_s) X^PT again has trace norm 1.

    Parameters
    ----------
    d_s : int
        Shield dimension per side; must be a perfect square >= 4.

    Returns
    -------
    (X, Y) : pair of CMatrix on the (d_s, A) x (d_s, B) shield.
    """
    root = math.isqrt(d_s)
    if d_s < 4 or root * root != d_s:
        raise ValidationError(f"fourier_xy needs a perfect square d_s >= 4, got {d_s}")
    check_dim(d_s * d_s, "fourier_xy")
    jk = np.outer(np.arange(d_s), np.arange(d_s))
    u = np.exp(2j * np.pi * jk / d_s) / math.sqrt(d_s)
    n = d_s * d_s
    layout = SystemLayout.bipartite(d_s, d_s)
    x = CMatrix._make(n, np.arange(n) * n + _swap_columns(d_s),
                      (u / (d_s * math.sqrt(d_s))).reshape(-1), layout)
    x_pt = partial_transpose(x)
    return x, CMatrix._make(n, x_pt.pos, math.sqrt(d_s) * x_pt.vals, layout)


def _key_shield_canonical(blocks: dict[tuple[int, int], CMatrix],
                          shield_factors: tuple[tuple[int, str], ...]) -> CMatrix:
    """Assemble sum |r><c|_keys x block and reorder factors to A-then-B.

    ``blocks`` maps key-basis index pairs (r, c) with r = 2*keyA + keyB to
    shield-space blocks.  The shield factor list is given in its own order;
    the result groups (2,A) + A shield factors before (2,B) + B shield factors.
    The result keeps only its nonzeros: each block's entries are placed at
    their positions in the key-by-shield matrix, so no dense 4n x 4n array
    is built, and reordering the factors permutes their positions.
    """
    n = next(iter(blocks.values())).dim
    pos, vals = [], []
    for (r, c), blk in blocks.items():
        i, j = blk.coords()
        pos.append((r * n + i) * (4 * n) + c * n + j)
        vals.append(blk.vals)
    layout = SystemLayout(((2, "A"), (2, "B")) + shield_factors)
    full = CMatrix._make(4 * n, np.concatenate(pos), np.concatenate(vals), layout)
    return permute_factors(full, layout.axes("A") + layout.axes("B"))


def private_bit(x: CMatrix) -> CMatrix:
    """Key-correlated state whose secrecy is carried by an arbitrary trace-norm-one X.

    The two key qubits hold the |00>/|11> correlations; the off-diagonal key
    blocks are X itself and the diagonal ones its left/right absolute values:

        1/2 [ |00><00| x sqrt(X X+)  +  |00><11| x X
            + |11><00| x X+          +  |11><11| x sqrt(X+ X) ]

    How much Bell violation the output can show is governed by ||X^PT||_1,
    because transposing party B shrinks the key corners by exactly that factor.
    """
    if x.layout is None:
        raise ValidationError("private_bit needs X with a layout")
    if set(x.layout.parties) != {"A", "B"}:
        raise ValidationError("private_bit needs X on parties A and B")
    tn = trace_norm(x)
    if abs(tn - 1.0) > TOL.assertion:
        raise ValidationError(f"private_bit needs ||X||_1 = 1, got {tn}")
    check_dim(4 * x.dim, "private_bit")
    return _key_shield_canonical({key: CMatrix._make(blk.dim, blk.pos, blk.vals / 2, blk.layout)
                                  for key, blk in _pbit_corners(x).items()}, x.layout.factors)


def _pbit_corners(x: CMatrix) -> dict[tuple[int, int], CMatrix]:
    """A private bit's key blocks before the factor 1/2: sqrt(X X+), X, X+ and sqrt(X+ X).

    The roots come from X's rectangular blocks (linalg._gram_roots), and X+
    from X's nonzeros, conjugated and transposed, so it stores no entry where
    X stores none; no dense matrix of X's size is made.
    """
    r, c = x.coords()
    left, right = _gram_roots(x)
    adj = CMatrix._make(x.dim, c * x.dim + r, x.vals.conj(), None)
    return {(0, 0): left, (0, 3): x, (3, 0): adj, (3, 3): right}


def _key_family(blocks: dict[tuple[int, int], CMatrix],
                shield_factors: tuple[tuple[int, str], ...], params: dict,
                notes: str) -> StateFamilyResult:
    """The key-plus-shield state of ``blocks`` and its companion: the key-diagonal
    blocks alone, renormalized, which is separable when each of them is."""
    rho = _key_shield_canonical(blocks, shield_factors)
    sigma = _key_shield_canonical({key: blk for key, blk in blocks.items() if key[0] == key[1]},
                                  shield_factors)
    trace = _values_at(sigma, np.arange(sigma.dim) * (sigma.dim + 1)).sum().real
    sigma = CMatrix._make(sigma.dim, sigma.pos, sigma.vals / trace, sigma.layout)
    return StateFamilyResult(rho=rho, sigma_candidate=sigma, params=params, notes=notes)


def ppt_pbit(d_s: int) -> StateFamilyResult:
    """Private bit padded into a PPT state via the Fourier-twisted swap.

    Mixes the private bit of X (weight 1-p) with |01>/|10> key sectors that
    carry the absolute values of Y = sqrt(d_s) X^PT (weight p/2 each), where
    p = 1/(sqrt(d_s)+1).  The mix is exactly what makes the partial transpose
    PSD.  The separable companion zeroes the key corners; the distance of the
    two after transposition is below 1/sqrt(d_s).
    """
    x, y = fourier_xy(d_s)
    check_dim(4 * d_s * d_s, "ppt_pbit")
    p = 1.0 / (math.sqrt(d_s) + 1.0)
    blocks = {key: CMatrix._make(blk.dim, blk.pos, (1 - p) * blk.vals / 2, blk.layout)
              for key, blk in _pbit_corners(x).items()}
    y_left, y_right = _gram_roots(y)
    blocks[1, 1] = CMatrix._make(y_left.dim, y_left.pos, (p / 2) * y_left.vals, y_left.layout)
    blocks[2, 2] = CMatrix._make(y_right.dim, y_right.pos, (p / 2) * y_right.vals, y_right.layout)
    params = {
        "d_s": d_s,
        "p": p,
        "x_pt_trace_norm": trace_norm(partial_transpose(x)),
        "distance_bound": 1.0 / math.sqrt(d_s),
    }
    return _key_family(blocks, x.layout.factors, params,
                       "PPT-padded private bit; companion zeroes the key corners")


def hiding_state(m: int = 1, d_shield: int = 2, q: float = 1.0 / 3.0) -> StateFamilyResult:
    """PPT key-correlated state built from Werner-pair shields.

    The four key sectors carry m-fold tensor powers of mixtures of
    tau_1 = (werner_anti + werner_sym)/2 and tau_2 = werner_sym, one Werner
    pair per repetition:

        corners   [q (tau_1 - tau_2)/2]^m
        00/11     [q (tau_1 + tau_2)/2]^m
        01/10     [(1/2 - q) tau_2]^m

    normalized by N = 2 q^m + 2 (1/2-q)^m.  The recorded delta
    = (1/2-q)^m / N is the weight of the 01 sector, and of 10.  The key
    corners' distance after transposition, d_eps(rho, sigma_candidate)
    = 2 (q/d_shield)^m / N, is 2 delta only at q = d_shield/(2 d_shield + 2),
    1/3 for qubit pairs: at q = 0.4 it is 0.4 against 2 delta = 0.2 for m = 1
    and 0.235 against 0.059 for m = 2.  The state is PPT only for q <= 1/3
    (at q = 0.4 its partial transpose has eigenvalue -0.05), and delta <=
    1/2^m holds for every m only for q >= 1/3 (at q = 0.2, m = 2, delta =
    0.346), so both hold together only at the default q = 1/3.

    Parameters
    ----------
    m : int
        Number of shield repetitions (>= 1).
    d_shield : int
        Local dimension of each Werner pair (>= 2).
    q : float
        Corner weight, strictly between 0 and 1/2; values other than 1/3
        are accepted so that the PPT and delta checks on them can fail.
    """
    if m < 1 or d_shield < 2:
        raise ValidationError("hiding_state needs m >= 1, d_shield >= 2")
    if not (0.0 < q < 0.5):
        raise ValidationError(f"hiding_state needs 0 < q < 1/2, got {q}")
    check_dim(4 * d_shield ** min(2 * m, 64), "hiding_state")  # exact below 2**64
    sym = werner_state(d_shield, "symmetric")  # it stores every entry the antisymmetric one does
    tau2 = sym.vals
    tau1 = (_values_at(werner_state(d_shield, "antisymmetric"), sym.pos) + tau2) / 2.0
    norm = 2.0 * q**m + 2.0 * (0.5 - q) ** m
    # tensor pairs the factors' nonzeros, so a power stores no entry where np.kron
    # of the dense factors would write -0.0
    powers = [reduce(tensor, [CMatrix._make(sym.dim, sym.pos, factor, None)] * m)
              for factor in (q * (tau1 - tau2) / 2.0, q * (tau1 + tau2) / 2.0, (0.5 - q) * tau2)]
    corner, outer, middle = (CMatrix._make(power.dim, power.pos, power.vals / norm, power.layout)
                             for power in powers)
    blocks = {
        (0, 0): outer,
        (3, 3): outer,
        (0, 3): corner,
        (3, 0): corner,
        (1, 1): middle,
        (2, 2): middle,
    }
    shield_factors = ((d_shield, "A"), (d_shield, "B")) * m
    params = {
        "m": m,
        "d_shield": d_shield,
        "q": q,
        "delta": (0.5 - q) ** m / norm,
        "normalization": norm,
    }
    return _key_family(blocks, shield_factors, params,
                       "Werner-shield key state; companion zeroes the key corners")
