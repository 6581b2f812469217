"""KL-divergence nonlocality measure and the relative-entropy chain checks.

The measure of a box P is

    N(P) = sup_{p(x,y)} inf_{P_L local} sum_xy p(x,y) KL(P_xy || P_L,xy)

in bits.  The inner infimum is convex over the vertex-weight simplex of the
local polytope and is solved with a pairwise conditional-gradient method
(exact line search on the univariate KL restriction, linearization-gap
stopping): the pairwise step moves weight from the worst active vertex to
the best one, which keeps the method fast when the optimum sits on a face.
The outer supremum is concave in p(x, y) and handled by projected
supergradient ascent with restarts.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from .config import TOL, ValidationError
from .linalg import CMatrix, collect_parties, rel_entropy, spectral_norm
from .bell import Box, MeasurementFamily, box_from

__all__ = [
    "LocalPolytope",
    "NlResult",
    "ChainCheck",
    "kl",
    "nonlocality_N",
    "er_upper",
    "continuity_bound",
    "thm2_chain_check",
    "filter_apply",
]

_VERTEX_GUARD = 10**5
_LOG_CLAMP = 1e-300


def kl(p, q) -> float:
    """Relative entropy sum p log2(p/q) between probability vectors.

    Zero p entries contribute nothing; p > 0 over a zero q entry gives
    ``math.inf``.  Entries must be nonnegative and sum to one within 1e-9.
    """
    p = np.asarray(p, dtype=np.float64).reshape(-1)
    q = np.asarray(q, dtype=np.float64).reshape(-1)
    if p.shape != q.shape:
        raise ValidationError("kl needs equal-length distributions")
    for name, vec in (("p", p), ("q", q)):
        if float(vec.min()) < -TOL.structural:
            raise ValidationError(f"kl: {name} has negative entry {vec.min():.3e}")
        if abs(float(vec.sum()) - 1.0) > TOL.assertion:
            raise ValidationError(f"kl: {name} sums to {vec.sum()}, expected 1")
    return float(_pair_kl(np.clip(p, 0.0, None)[None], np.clip(q, 0.0, None)[None])[0])


def _pair_kl(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Relative entropy in bits of each row of p from the same row of q.

    The zero conventions, for every KL value in the package: a zero p entry
    contributes nothing, and p > 0 over q = 0 makes the row ``math.inf``.
    p and q are nonnegative arrays of one shape.
    """
    support = p > 0.0
    logs = (np.log2(p, out=np.zeros_like(p), where=support)
            - np.log2(q, out=np.zeros_like(q), where=support & (q > 0.0)))
    out = (p * logs).sum(axis=-1)
    out[(support & (q <= 0.0)).any(axis=-1)] = math.inf
    return out


@dataclass
class LocalPolytope:
    """Deterministic boxes of a scenario, one row per strategy pair."""

    nx: int
    ny: int
    na: int
    nb: int
    vertices: np.ndarray  # (n_vertices, nx*ny*na*nb)

    @staticmethod
    def for_scenario(nx: int, ny: int, na: int, nb: int) -> "LocalPolytope":
        count = na**nx * nb**ny
        if count > _VERTEX_GUARD:
            raise ValidationError(
                f"{count} deterministic vertices exceed the polytope guard {_VERTEX_GUARD}"
            )
        # one-hot tables of every deterministic strategy, Alice's outermost
        fa = np.array(list(itertools.product(range(na), repeat=nx)), dtype=np.intp)
        fb = np.array(list(itertools.product(range(nb), repeat=ny)), dtype=np.intp)
        rows = np.einsum("ixa,jyb->ijxyab", np.eye(na)[fa], np.eye(nb)[fb])
        return LocalPolytope(nx, ny, na, nb, rows.reshape(count, -1))


@dataclass
class NlResult:
    """Value of the measure plus the optimizers and convergence data."""

    value: float
    inner_weights: np.ndarray
    input_dist: np.ndarray
    converged: bool
    iterations: int

    def to_json(self) -> dict:
        return {
            "value": self.value,
            "inner_weights": [float(w) for w in self.inner_weights],
            "input_dist": [float(v) for v in self.input_dist],
            "converged": self.converged,
            "iterations": self.iterations,
        }


def _inner_infimum(pg: np.ndarray, pw: np.ndarray, vertices: np.ndarray,
                   w0: np.ndarray | None = None, gap_tol: float = TOL.fw_gap,
                   max_iters: int = 50_000) -> tuple[np.ndarray, float, int]:
    """Pairwise conditional-gradient minimization of the weighted KL over the polytope.

    Returns (weights, final linearization gap, iterations).  The gap certifies
    optimality: objective(w) - optimum <= gap by convexity.
    """
    nv = vertices.shape[0]
    w = np.full(nv, 1.0 / nv) if w0 is None else w0.copy()
    mask = (pg > 0.0) & (pw > 0.0)
    pm = (pw * pg)[mask]
    vm = vertices[:, mask]
    q = w @ vertices
    ln2 = math.log(2.0)
    gap = math.inf
    it = 0
    for it in range(1, max_iters + 1):
        qm = np.maximum(q[mask], _LOG_CLAMP)
        grad = -(vm @ (pm / qm)) / ln2
        s = int(grad.argmin())
        active = np.nonzero(w > 0.0)[0]
        away = active[int(grad[active].argmax())]
        gap = float(w @ grad - grad[s])
        if gap <= gap_tol:
            break
        direction = vertices[s] - vertices[away]
        dm = direction[mask]
        t_max = float(w[away])

        def dphi(t):
            return -float((pm * dm / np.maximum(qm + t * dm, _LOG_CLAMP)).sum()) / ln2

        if dphi(0.0) >= 0.0:
            break  # numerically flat; the gap is already certified above
        if dphi(t_max) <= 0.0:
            t = t_max
        else:
            t = float(brentq(dphi, 0.0, t_max, xtol=1e-16, rtol=8.9e-16))
        w[s] += t
        w[away] -= t
        if w[away] < 1e-17:
            w[away] = 0.0
        q = w @ vertices
    return w, gap, it


def _project_simplex(v: np.ndarray) -> np.ndarray:
    u = np.sort(v)[::-1]
    cumulative = np.cumsum(u)
    idx = np.nonzero(u * np.arange(1, v.size + 1) > (cumulative - 1.0))[0][-1]
    theta = (cumulative[idx] - 1.0) / (idx + 1.0)
    return np.maximum(v - theta, 0.0)


def _per_entry_weights(p_xy: np.ndarray, shape: tuple[int, int, int, int]) -> np.ndarray:
    nx, ny, na, nb = shape
    return np.repeat(p_xy.reshape(nx * ny), na * nb)


def nonlocality_N(box: Box, mode: str = "uniform", gap_tol: float = TOL.fw_gap,
                  restarts: int = 16, ascent_iters: int = 120, seed: int = 0,
                  step0: float = 0.3) -> NlResult:
    """Evaluate the nonlocality measure of a box.

    mode="uniform" fixes the input distribution to uniform and solves the
    inner infimum once; mode="optimize" additionally runs projected
    supergradient ascent over input distributions (the objective is concave
    in p, so ascent with diminishing steps and restarts is sound).

    Returns an NlResult whose ``converged`` reflects the certificate of the
    final inner solve: linearization gap <= gap_tol.
    """
    if mode not in ("uniform", "optimize"):
        raise ValidationError(f"unknown mode {mode!r}")
    shape = (box.nx, box.ny, box.na, box.nb)
    polytope = LocalPolytope.for_scenario(*shape)
    pg = box.p.reshape(-1)
    rows = box.p.reshape(box.nx * box.ny, -1)
    n_pairs = rows.shape[0]
    uniform = np.full(n_pairs, 1.0 / n_pairs)

    def solve(p_xy, w0=None, tol=gap_tol, iters=50_000):
        """Inner infimum at input distribution p_xy: (value, per-pair KL, w, gap, iters)."""
        pw = _per_entry_weights(p_xy, shape)
        w, gap, it = _inner_infimum(pg, pw, polytope.vertices, w0=w0,
                                    gap_tol=tol, max_iters=iters)
        per_pair = _pair_kl(rows, (w @ polytope.vertices).reshape(rows.shape))
        on = p_xy > 0.0
        return float(p_xy[on] @ per_pair[on]), per_pair, w, gap, it

    if mode == "uniform":
        value, _, w, gap, iters = solve(uniform)
        return NlResult(value, w, uniform, gap <= gap_tol, iters)

    rng = np.random.default_rng(seed)
    best = (-math.inf, uniform, None)
    for r in range(restarts):
        p = uniform.copy() if r == 0 else rng.dirichlet(np.ones(n_pairs))
        w = None
        for t in range(ascent_iters):
            # the per-pair KL at the inner optimum is a supergradient in p
            _, supergrad, w, _, _ = solve(p, w0=w, tol=max(gap_tol, 1e-9), iters=5_000)
            if not np.all(np.isfinite(supergrad)):
                break
            p = _project_simplex(p + (step0 / math.sqrt(t + 1.0)) * supergrad)
        value, _, w, gap, iters = solve(p, w0=w)
        if value > best[0]:
            best = (value, p, (w, gap, iters))
    value, p, (w, gap, iters) = best
    return NlResult(value, w, p, gap <= gap_tol, iters)


def er_upper(rho: CMatrix, sigma_candidate: CMatrix) -> float:
    """Relative entropy to a separable candidate: an upper bound on the
    relative entropy of entanglement whenever the candidate is separable."""
    value = rel_entropy(rho, sigma_candidate)
    if not math.isfinite(value):
        warnings.warn("candidate does not support the state; the upper bound "
                      "is infinite", RuntimeWarning, stacklevel=2)
    return value


def _binary_entropy(eps: float) -> float:
    if eps in (0.0, 1.0):
        return 0.0
    return float(-eps * math.log2(eps) - (1.0 - eps) * math.log2(1.0 - eps))


def continuity_bound(eps: float, d: int) -> float:
    """4 eps log2(d) + 2 h(eps) for eps in [0, 1/2), d >= 2.

    Controls how much a relative-entropy-type quantity can grow when the
    state moves at most eps in transposed trace distance.
    """
    if not 0.0 <= eps < 0.5:
        raise ValidationError(f"continuity_bound needs 0 <= eps < 1/2, got {eps}")
    if d < 2:
        raise ValidationError(f"continuity_bound needs d >= 2, got {d}")
    return 4.0 * eps * math.log2(d) + 2.0 * _binary_entropy(eps)


@dataclass
class ChainCheck:
    """Sandwich lhs <= mid <= rhs with one verdict for both links."""

    context: str
    lhs: float
    mid: float
    rhs: float
    verdict: bool

    def to_json(self) -> dict:
        return {"context": self.context, "lhs": self.lhs, "mid": self.mid,
                "rhs": self.rhs, "verdict": self.verdict}


def thm2_chain_check(rho: CMatrix, sigma_candidate: CMatrix, meas: MeasurementFamily,
                     mode: str = "uniform", tol: float = 1e-7,
                     context: str = "single copy: measure <= weighted KL <= relative entropy",
                     ) -> ChainCheck:
    """Single-copy chain: N(box(rho)) <= sum_xy p KL(P_xy||Q_xy) <= S(rho||sigma).

    The middle term uses the input distribution returned by the measure
    optimizer and the box of the candidate under the same measurements; the
    last term is measurement-independent by data processing.
    """
    box_r = box_from(rho, meas)
    box_s = box_from(sigma_candidate, meas)
    nl = nonlocality_N(box_r, mode=mode)
    n_pairs = box_r.nx * box_r.ny
    per_pair = _pair_kl(box_r.p.reshape(n_pairs, -1), box_s.p.reshape(n_pairs, -1))
    p = nl.input_dist
    if np.all(np.isfinite(per_pair)):
        mid = float((p * per_pair).sum())
    else:
        mid = math.inf
    rhs = rel_entropy(rho, sigma_candidate)
    verdict = (nl.value <= mid + tol) and (mid <= rhs + tol)
    if not (math.isfinite(mid) and math.isfinite(rhs)):
        context = context + " [infinite entropy, trivially true]"
    return ChainCheck(context, nl.value, mid, rhs, verdict)


def filter_apply(rho: CMatrix, f_a: np.ndarray, f_b: np.ndarray) -> tuple[CMatrix, float]:
    """Apply local filters (F_A x F_B) rho (F_A x F_B)+ and renormalize.

    Filters must have largest singular value at most one (so that they embed
    into a valid instrument).  Returns the filtered state and the success
    probability; probability at or below 1e-12 raises a zero-probability
    error instead of dividing.
    """
    coll = collect_parties(rho)
    da = coll.layout.dim_of("A")
    db = coll.layout.dim_of("B")
    f_a = np.asarray(f_a, dtype=np.complex128)
    f_b = np.asarray(f_b, dtype=np.complex128)
    if f_a.shape != (da, da) or f_b.shape != (db, db):
        raise ValidationError("filter shapes must match the party dimensions")
    for name, filt in (("A", f_a), ("B", f_b)):
        norm = spectral_norm(filt)
        if norm > 1.0 + TOL.assertion:
            raise ValidationError(f"filter {name} has operator norm {norm} > 1")
    big = np.kron(f_a, f_b)
    filtered = big @ coll.mat @ big.conj().T
    prob = float(np.trace(filtered).real)
    if prob <= 1e-12:
        raise ValidationError("zero-probability filter: nothing to renormalize")
    return CMatrix(filtered / prob, coll.layout, hermitian=True), prob
