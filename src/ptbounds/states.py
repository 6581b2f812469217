"""Constructors for the state families whose Bell violation the bounds control.

All bipartite outputs use the canonical factor order: every A factor first,
then every B factor.  Key-plus-shield states come out as
(key_A, shield_A, key_B, shield_B), so transposing party B in one layout
operation covers the key and the shield together.

Every state output is a density matrix by construction: a private bit is
(1/2) [U; I] |X| [U+, I] with X = U |X| and ||X||_1 = 1 checked on input,
padding and companion blocks are PSD and normalized, and the hiding state's
key blocks commute because both shields are functions of the swap.  The
tests pin this over a grid of parameters; it is not re-checked at run time.
Inputs (X, the family parameters, the dimension cap) are still validated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import reduce

import numpy as np

from .config import TOL, ValidationError, check_dim
from .linalg import (
    CMatrix,
    SystemLayout,
    partial_transpose,
    permute_factors,
    psd_sqrt,
    trace_norm,
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
    params: dict = field(default_factory=dict)
    notes: str = ""


def max_entangled(d: int) -> CMatrix:
    """Projector onto (1/sqrt(d)) sum_i |ii>, layout (d, A) x (d, B)."""
    if d < 2:
        raise ValidationError("max_entangled needs d >= 2")
    check_dim(d * d, "max_entangled")
    v = np.zeros(d * d, dtype=np.complex128)
    v[:: d + 1] = 1.0 / math.sqrt(d)
    return CMatrix(np.outer(v, v.conj()), SystemLayout.bipartite(d, d))


def _swap_operator(d: int) -> np.ndarray:
    f = np.zeros((d * d, d * d), dtype=np.complex128)
    for i in range(d):
        for j in range(d):
            f[i * d + j, j * d + i] = 1.0
    return f


def werner_state(d: int, kind: str = "symmetric") -> CMatrix:
    """Normalized projector onto the symmetric or antisymmetric subspace of C^d x C^d."""
    if d < 2:
        raise ValidationError("werner_state needs d >= 2")
    if kind not in ("symmetric", "antisymmetric"):
        raise ValidationError(f"kind must be symmetric or antisymmetric, got {kind!r}")
    check_dim(d * d, "werner_state")
    f = _swap_operator(d)
    eye = np.eye(d * d, dtype=np.complex128)
    proj = (eye + f) / 2.0 if kind == "symmetric" else (eye - f) / 2.0
    rho = proj / np.trace(proj).real
    return CMatrix(rho, SystemLayout.bipartite(d, d))


def swap_x(d: int) -> CMatrix:
    """The swap operator scaled to trace norm one: its partial transpose has
    trace norm 1/d, which is what makes the corresponding private bit nearly
    indistinguishable from its separable companion after transposition."""
    if d < 2:
        raise ValidationError("swap_x needs d >= 2")
    check_dim(d * d, "swap_x")
    return CMatrix(_swap_operator(d) / d**2, SystemLayout.bipartite(d, d))


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
    x = np.zeros((d_s * d_s, d_s * d_s), dtype=np.complex128)
    for i in range(d_s):
        for j in range(d_s):
            x[i * d_s + j, j * d_s + i] = u[i, j] / (d_s * math.sqrt(d_s))
    layout = SystemLayout.bipartite(d_s, d_s)
    xm = CMatrix(x, layout)
    ym = CMatrix(math.sqrt(d_s) * partial_transpose(xm).mat, layout)
    return xm, ym


def _key_shield_canonical(blocks: dict[tuple[int, int], np.ndarray],
                          shield_factors: tuple[tuple[int, str], ...]) -> CMatrix:
    """Assemble sum |r><c|_keys x block and reorder factors to A-then-B.

    ``blocks`` maps key-basis index pairs (r, c) with r = 2*keyA + keyB to
    shield-space blocks.  The shield factor list is given in its own order;
    the result groups (2,A) + A shield factors before (2,B) + B shield factors.
    """
    n = next(iter(blocks.values())).shape[0]
    full = np.zeros((4 * n, 4 * n), dtype=np.complex128)
    for (r, c), blk in blocks.items():
        full[r * n:(r + 1) * n, c * n:(c + 1) * n] = blk
    factors = ((2, "A"), (2, "B")) + shield_factors
    m = CMatrix(full, SystemLayout(factors))
    shield_a = [2 + i for i, (_, p) in enumerate(shield_factors) if p == "A"]
    shield_b = [2 + i for i, (_, p) in enumerate(shield_factors) if p == "B"]
    order = [0] + shield_a + [1] + shield_b
    return permute_factors(m, order)


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
    arr = x.mat
    left = psd_sqrt(arr @ arr.conj().T)
    right = psd_sqrt(arr.conj().T @ arr)
    blocks = {(0, 0): left / 2, (0, 3): arr / 2, (3, 0): arr.conj().T / 2, (3, 3): right / 2}
    return _key_shield_canonical(blocks, x.layout.factors)


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
    arr = x.mat
    left = psd_sqrt(arr @ arr.conj().T)
    right = psd_sqrt(arr.conj().T @ arr)
    yarr = y.mat
    y_left = psd_sqrt(yarr @ yarr.conj().T)
    y_right = psd_sqrt(yarr.conj().T @ yarr)
    blocks = {
        (0, 0): (1 - p) * left / 2,
        (0, 3): (1 - p) * arr / 2,
        (3, 0): (1 - p) * arr.conj().T / 2,
        (3, 3): (1 - p) * right / 2,
        (1, 1): (p / 2) * y_left,
        (2, 2): (p / 2) * y_right,
    }
    rho = _key_shield_canonical(blocks, x.layout.factors)
    diag = {k: v for k, v in blocks.items() if k[0] == k[1]}
    sigma = _key_shield_canonical(diag, x.layout.factors)
    sigma = CMatrix(sigma.mat / np.trace(sigma.mat).real, sigma.layout)
    params = {
        "d_s": d_s,
        "p": p,
        "x_pt_trace_norm": trace_norm(partial_transpose(x)),
        "distance_bound": 1.0 / math.sqrt(d_s),
    }
    return StateFamilyResult(
        rho=rho,
        sigma_candidate=sigma,
        params=params,
        notes="PPT-padded private bit; companion zeroes the key corners",
    )


def _tensor_power(m: np.ndarray, n: int) -> np.ndarray:
    return reduce(np.kron, [m] * n)


def hiding_state(m: int = 1, d_shield: int = 2, k: int = 1,
                 q: float = 1.0 / 3.0) -> StateFamilyResult:
    """PPT key-correlated state built from Werner-pair shields.

    The four key sectors carry m-fold tensor powers of mixtures of
    tau_1 = ((werner_anti + werner_sym)/2)^(k) and tau_2 = werner_sym^(k):

        corners   [q (tau_1 - tau_2)/2]^m
        00/11     [q (tau_1 + tau_2)/2]^m
        01/10     [(1/2 - q) tau_2]^m

    normalized by N = 2 q^m + 2 (1/2-q)^m.  The recorded delta
    = (1/2-q)^m / N bounds how distinguishable the key corners stay after
    transposition.  The state is PPT only for q <= 1/3 (at q = 0.4 its
    partial transpose has eigenvalue -0.05), and delta <= 1/2^m holds for
    every m only for q >= 1/3 (at q = 0.2, m = 2, delta = 0.346), so both
    hold together only at the default q = 1/3.

    Parameters
    ----------
    m : int
        Number of shield repetitions (>= 1).
    d_shield : int
        Local dimension of each Werner pair (>= 2).
    k : int
        Werner pairs per repetition (>= 1).
    q : float
        Corner weight, strictly between 0 and 1/2; values other than 1/3
        are accepted so that the PPT and delta checks on them can fail.
    """
    if m < 1 or k < 1 or d_shield < 2:
        raise ValidationError("hiding_state needs m >= 1, k >= 1, d_shield >= 2")
    if not (0.0 < q < 0.5):
        raise ValidationError(f"hiding_state needs 0 < q < 1/2, got {q}")
    total = 4 * d_shield ** (2 * k * m)
    check_dim(total, "hiding_state")
    r_sym = werner_state(d_shield, "symmetric").mat
    r_anti = werner_state(d_shield, "antisymmetric").mat
    tau1 = _tensor_power((r_anti + r_sym) / 2.0, k)
    tau2 = _tensor_power(r_sym, k)
    corner = _tensor_power(q * (tau1 - tau2) / 2.0, m)
    outer = _tensor_power(q * (tau1 + tau2) / 2.0, m)
    middle = _tensor_power((0.5 - q) * tau2, m)
    norm = 2.0 * q**m + 2.0 * (0.5 - q) ** m
    blocks = {
        (0, 0): outer / norm,
        (3, 3): outer / norm,
        (0, 3): corner / norm,
        (3, 0): corner / norm,
        (1, 1): middle / norm,
        (2, 2): middle / norm,
    }
    shield_factors = tuple(
        (d_shield, p) for _ in range(k * m) for p in ("A", "B")
    )
    rho = _key_shield_canonical(blocks, shield_factors)
    diag = {key: val for key, val in blocks.items() if key[0] == key[1]}
    sigma = _key_shield_canonical(diag, shield_factors)
    sigma = CMatrix(sigma.mat / np.trace(sigma.mat).real, sigma.layout)
    delta = (0.5 - q) ** m / norm
    params = {
        "m": m,
        "d_shield": d_shield,
        "k": k,
        "q": q,
        "delta": delta,
        "normalization": norm,
    }
    return StateFamilyResult(
        rho=rho,
        sigma_candidate=sigma,
        params=params,
        notes="Werner-shield key state; companion zeroes the key corners",
    )
