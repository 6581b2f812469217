"""KL-divergence nonlocality measure and the relative-entropy chain checks.

The measure of a box P is

    N(P) = sup_{p(x,y)} inf_{P_L local} sum_xy p(x,y) KL(P_xy || P_L,xy)

in bits.  The inner infimum is convex over the vertex-weight simplex of the
local polytope and is solved with a pairwise conditional-gradient method
(linearization-gap stopping): the pairwise step moves weight from the worst
active vertex to the best one, which keeps the method fast when the optimum
sits on a face.  Its step length is the exact minimizer of the univariate KL
restriction, found by Newton's method on the derivative, safeguarded by
bisection on a sign-change bracket.  The outer supremum is concave in
p(x, y) and handled by projected supergradient ascent with restarts.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass

import numpy as np

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
# The smallest normal double.  A clamp above a box entry p caps p / q near
# p / clamp where q -> 0 should blow it up, so the line search stops seeing
# the pole and a drop step can empty a supported entry: a clamp of 1e-300
# gives N = inf on a box with a row (1, 0, 0, 1e-300).
_LOG_CLAMP = np.finfo(np.float64).tiny


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
    """Value of the measure plus the optimizers and convergence data.

    ``gap`` is the final linearization gap of the inner solve in bits, an
    upper bound on how far the inner objective is above its infimum;
    ``converged`` is ``gap <= gap_tol``.
    """

    value: float
    inner_weights: np.ndarray
    input_dist: np.ndarray
    converged: bool
    iterations: int
    gap: float

    def to_json(self) -> dict:
        return {
            "value": self.value,
            "inner_weights": [float(w) for w in self.inner_weights],
            "input_dist": [float(v) for v in self.input_dist],
            "converged": self.converged,
            "iterations": self.iterations,
            "gap": self.gap,
        }


def _line_search(pm: np.ndarray, qm: np.ndarray, dm: np.ndarray, t_max: float,
                 g0: float) -> float | None:
    """Root in [0, t_max] of the derivative of -sum pm log(qm + t dm), in nats.

    dm holds 0 and +-1; g0 is the derivative at t = 0.  Newton steps use the
    first and second derivatives from one shared denominator and fall back
    to bisection of the sign-change bracket whenever a step leaves it or the
    curvature is not positive and finite.  t_max is evaluated only when a
    step would pass it, and returned when the derivative there is <= 0.
    Stops when a step moves t by at most 1e-16 + 8.9e-16 |t| (brentq's
    tolerance).  The derivative is increasing and concave then convex (its
    own third derivative is positive), so Newton iterates on the left of
    the root where it is concave, or on the right where it is convex,
    approach the root monotonically; the bracket catches the other starts.
    Returns None when g0 >= 0: no descent along dm.
    """
    if g0 >= 0.0:
        return None
    on = dm != 0.0
    p, q, d = pm[on], qm[on], dm[on]
    lo, hi, t, g = 0.0, t_max, 0.0, g0
    at_max = False
    # the curvature overflows to inf next to the q = 0 pole; that bisects
    with np.errstate(over="ignore"):
        h = float((p / q) @ (1.0 / q))  # dm**2 = 1
        while True:
            t_new = t - g / h if 0.0 < h < math.inf else math.nan
            if t_new >= t_max:
                if not at_max:
                    at_max = True
                    if float(d @ (p / np.maximum(q + t_max * d, _LOG_CLAMP))) >= 0.0:
                        return t_max  # descent all the way to the end of the segment
                t_new = math.nan  # the root is below t_max: bisect
            if not lo <= t_new <= hi:
                t_new = 0.5 * (lo + hi)
            if abs(t_new - t) <= 1e-16 + 8.9e-16 * abs(t_new):
                return t_new
            t = t_new
            den = np.maximum(q + t * d, _LOG_CLAMP)
            r = p / den
            g = -float(d @ r)
            h = float(r @ (1.0 / den))
            if g < 0.0:
                lo = t
            else:
                hi = t  # at an exact root the next Newton step is 0


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
    ln2 = math.log(2.0)
    gap = math.inf
    it = 0
    for it in range(1, max_iters + 1):
        qc = np.maximum(w @ vm, _LOG_CLAMP)
        grad = -(vm @ (pm / qc)) / ln2
        s = int(grad.argmin())
        away = int(np.where(w > 0.0, grad, -np.inf).argmax())
        gap = float(w @ grad - grad[s])
        if gap <= gap_tol:
            break
        t = _line_search(pm, qc, vm[s] - vm[away], float(w[away]),
                         ln2 * float(grad[s] - grad[away]))
        if t is None:
            break  # numerically flat; the gap is already certified above
        w[s] += t
        w[away] -= t
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

    Returns an NlResult carrying the final linearization gap of the inner
    solve, whose ``converged`` is gap <= gap_tol.  An unknown mode,
    restarts < 1 or ascent_iters < 0 raises ValidationError.
    """
    if mode not in ("uniform", "optimize"):
        raise ValidationError(f"unknown mode {mode!r}")
    if restarts < 1:
        raise ValidationError(f"restarts must be at least 1, got {restarts}")
    if ascent_iters < 0:
        raise ValidationError(f"ascent_iters must be nonnegative, got {ascent_iters}")
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
        return NlResult(value, w, uniform, gap <= gap_tol, iters, gap)

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
    return NlResult(value, w, p, gap <= gap_tol, iters, gap)


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
