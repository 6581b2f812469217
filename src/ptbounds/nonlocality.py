"""KL-divergence nonlocality measure and the relative-entropy chain checks.

The measure of a box P is

    N(P) = sup_{p(x,y)} inf_{P_L local} sum_xy p(x,y) KL(P_xy || P_L,xy)

in bits.  The inner infimum is convex over the vertex-weight simplex of the
local polytope and is solved with a pairwise conditional-gradient method
(linearization-gap stopping): the pairwise step moves weight from the worst
active vertex to the best one, which keeps the method fast when the optimum
sits on a face.  Its step length is the exact minimizer of the univariate KL
restriction, found by Newton's method on the derivative, safeguarded by
bisection on a sign-change bracket.  Each pairwise step is followed by a
damped Newton step on the face spanned by the active vertices, which
settles all the weights of the face at once; it converges where pairwise
steps alone stall, as when an optimal weight is of order 1e-5 and the
curvature of order 1e5.  The step is a least-squares problem over columns
scaled to unit norm, solved from its normal equations when a Cholesky
factor of their Gram matrix shows them well conditioned, and by lstsq on
the rank-deficient faces that check refuses.  A cold solve starts from
uniform weight on the na*nb constant strategy pairs, whose mixture is the
uniform box: the same point as uniform weight on every vertex, on a face
small enough for the Newton step to run from the first iteration.  The outer
supremum over p(x, y), concave, is taken by one deterministic
multiplicative-weights loop that certifies an interval around N: each inner
solve bounds N below by its value minus its gap, and above by the largest
per-pair KL of its local box.
"""

from __future__ import annotations

import functools
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
    "nonlocality_N",
    "er_upper",
    "thm2_chain_check",
    "filter_apply",
]

_VERTEX_GUARD = 10**5
# The smallest normal double.  A clamp above a box entry p caps p / q near
# p / clamp where q -> 0 should blow it up, so the line search stops seeing
# the pole and a drop step can empty a supported entry: a clamp of 1e-300
# gives N = inf on a box with a row (1, 0, 0, 1e-300).
_LOG_CLAMP = np.finfo(np.float64).tiny
_OUTER_STEPS = 2_000  # step cap of the multiplicative-weights loop of mode="optimize"
# A face Newton step is solved from its normal equations when the smallest
# Cholesky pivot of their unit-diagonal Gram matrix is above this, by lstsq
# otherwise (see _face_direction).
_CHOLESKY_PIVOT_MIN = 1e-4


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


@dataclass(frozen=True)
class LocalPolytope:
    """Deterministic boxes of a scenario, one flattened [x, y, a, b] row per strategy pair.

    The polytope is its two arrays; the sizes are those given to ``for_scenario``.
    ``start`` is the cold start of the inner solve: weight 1/(na*nb) on each
    constant strategy pair (a(x) = a, b(y) = b), whose mixture is the
    uniform box.  It gives the same q, objective and first gradient as
    uniform weight on every vertex, on a face of na*nb vertices instead of
    all of them.  ``for_scenario`` builds each scenario's polytope once per
    process and hands the same object to every caller, so the polytope is
    frozen and its arrays are read-only.
    """

    vertices: np.ndarray  # (n_vertices, nx*ny*na*nb)
    start: np.ndarray  # (n_vertices,)

    @staticmethod
    @functools.lru_cache(maxsize=4)  # bounded: a table under the vertex guard can pass 100 MB
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
        ia = np.flatnonzero((fa == fa[:, :1]).all(1))
        ib = np.flatnonzero((fb == fb[:, :1]).all(1))
        start = np.zeros(count)
        start[(ia[:, None] * len(fb) + ib).reshape(-1)] = 1.0 / (na * nb)
        vertices = rows.reshape(count, -1)
        vertices.flags.writeable = start.flags.writeable = False
        return LocalPolytope(vertices, start)


@dataclass
class NlResult:
    """Value of the measure plus the optimizers and convergence data.

    ``gap`` is the final linearization gap of the inner solve in bits, an
    upper bound on how far the inner objective is above its infimum, so
    value - gap <= N <= upper for the N of the mode (at uniform inputs in
    mode="uniform", where upper = value).  ``converged`` is
    upper - (value - gap) <= TOL.fw_gap, in mode="uniform" gap <= TOL.fw_gap,
    and false if value is not finite: N <= KL(P || uniform) < inf, so an
    infinite value is a failed solve.
    """

    value: float
    inner_weights: np.ndarray
    input_dist: np.ndarray
    converged: bool
    iterations: int
    gap: float
    upper: float

    def to_json(self) -> dict:
        return {
            "value": self.value,
            "inner_weights": [float(w) for w in self.inner_weights],
            "input_dist": [float(v) for v in self.input_dist],
            "converged": self.converged,
            "iterations": self.iterations,
            "gap": self.gap,
            "upper": self.upper,
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
    Exact, since Armijo backtracking here fails the hiding m=2 and brentq tests.
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
                   w0: np.ndarray, gap_tol: float = TOL.fw_gap,
                   max_iters: int = 50_000) -> tuple[np.ndarray, float, int]:
    """Pairwise conditional-gradient minimization of the weighted KL over the polytope.

    Starts from the weights w0: a cold solve passes ``LocalPolytope.start``,
    whose face of na*nb constant strategy pairs is small enough for the
    face Newton step from the first iteration.  Every pairwise step is
    followed by a Newton step on the face of the active vertices
    (``_face_newton_step``).  Returns (weights, final linearization gap,
    iterations).  The gap, taken at the top of each iteration and once more
    after the last of max_iters steps, is always the gap of the returned
    weights; it is the only stopping rule and certifies optimality:
    objective(w) - optimum <= gap by convexity.
    """
    w = w0.copy()
    mask = (pg > 0.0) & (pw > 0.0)
    pm = (pw * pg)[mask]
    vm = vertices[:, mask]
    sqrt_pm = np.sqrt(pm)
    ln2 = math.log(2.0)
    for it in range(1, max_iters + 2):
        qc = np.maximum(w @ vm, _LOG_CLAMP)
        grad = -(vm @ (pm / qc)) / ln2
        s = int(grad.argmin())
        gap = float(w @ grad - grad[s])
        if gap <= gap_tol or it > max_iters:
            break
        away = int(np.where(w > 0.0, grad, -np.inf).argmax())
        t = _line_search(pm, qc, vm[s] - vm[away], float(w[away]),
                         ln2 * float(grad[s] - grad[away]))
        if t is None:
            break  # numerically flat; the gap is already certified above
        w[s] += t
        w[away] -= t
        while _face_newton_step(w, pm, sqrt_pm, vm):
            pass
    return w, gap, min(it, max_iters)


def _face_newton_step(w: np.ndarray, pm: np.ndarray, sqrt_pm: np.ndarray,
                      vm: np.ndarray) -> bool:
    """One damped Newton step of -sum pm log(w @ vm) on the face spanned by
    the active vertices, in place.  Returns whether it zeroed a weight; the
    caller then repeats it on the smaller face.

    The direction comes from ``_face_direction``.  A ratio test keeps the
    weights nonnegative and zeroes exactly the weight that stops the step.
    The step is then halved until the objective, recomputed from the new
    weights, strictly decreases by the Armijo rule with q positive on every
    entry; w is left unchanged if it never does.  A face with more vertices
    than entries is skipped, so each solve is at most m x m.  The cold
    start's face has na*nb vertices, at most m on any box with that many
    supported entries, so the step runs from the first iteration.
    """
    if not 2 <= np.count_nonzero(w) <= pm.size:
        return False
    face = w.nonzero()[0]
    wa, va = w[face], vm[face]
    q = wa @ va
    if not np.all(q > 0.0):
        return False
    dw = _face_direction(wa, va, q, sqrt_pm)
    slope = -float((pm / q) @ (dw @ va))  # derivative of the objective along dw, in nats
    if not slope < 0.0:
        return False
    shrink = np.flatnonzero(dw < 0.0)
    ratios = wa[shrink] / -dw[shrink]
    block = int(ratios.argmin())
    alpha = min(1.0, float(ratios[block]))
    blocked = shrink[block] if ratios[block] <= 1.0 else None
    for _ in range(30):
        trial = np.maximum(wa + alpha * dw, 0.0)
        if blocked is not None:
            trial[blocked] = 0.0
        qt = trial @ va
        if np.all(qt > 0.0):
            change = -float(pm @ np.log(qt / q))
            if change < 0.0 and change <= 1e-4 * alpha * slope:
                w[face] = trial
                return blocked is not None
        alpha *= 0.5
        blocked = None
    return False


def _face_direction(wa: np.ndarray, va: np.ndarray, q: np.ndarray,
                    sqrt_pm: np.ndarray) -> np.ndarray:
    """Newton direction of -sum pm log(wa @ va) on the face of the vertices va.

    With J = diag(sqrt(pm)/q) va^T the Hessian is J^T J and the gradient is
    -J^T sqrt(pm), so the Newton step dw minimizes ||J dw - sqrt(pm)||
    subject to sum(dw) = 0.  It is parametrized from the heaviest vertex r,
    dw_r = -sum_j dw_j, which leaves min ||C x - sqrt(pm)|| over the columns
    J_j - J_r of C, each scaled to unit norm.  That is solved from the
    normal equations G x = C^T sqrt(pm), G = C^T C, when G has a Cholesky
    factor whose smallest pivot is above _CHOLESKY_PIVOT_MIN, and by lstsq
    otherwise.  Pivot j is the distance of column j from the span of the
    columns before it, at least the smallest singular value of C, so faces
    with dependent columns (a vertex that repeats another, or the heaviest
    one, on every supported entry) go to lstsq, whose SVD cutoff handles the
    rank deficiency.  On the faces of a nonlocality-kl benchmark run the
    rank-deficient faces have pivots below 1.5e-6, all others above 0.06
    with condition numbers below 200, where the normal equations match
    lstsq to 4e-14.  The unit-norm scaling still matters: it gives G a unit
    diagonal, so one pivot threshold fits every face, and lstsq's relative
    cutoff sees every column.  Next to an entry of 1e-30 a column is some
    1e15 times larger than the rest: unscaled, that cutoff drops every
    other column; scaled by the vertex weights, the near-zero singular
    values of the tiny-entry rows turn rounding into steps of 1e9 times a
    weight.
    """
    heavy = int(wa.argmax())
    rest = np.arange(wa.size) != heavy
    cols = (va[rest] - va[heavy]) * (sqrt_pm / q)  # one row per column of C
    norms = np.sqrt((cols * cols).sum(axis=1))
    norms[norms == 0.0] = 1.0  # a vertex equal to the heaviest one on every entry
    cols /= norms[:, None]
    gram = cols @ cols.T
    try:
        pivot = float(np.linalg.cholesky(gram).diagonal().min())
    except np.linalg.LinAlgError:
        pivot = 0.0
    if pivot > _CHOLESKY_PIVOT_MIN:
        x = np.linalg.solve(gram, cols @ sqrt_pm)
    else:
        x = np.linalg.lstsq(cols.T, sqrt_pm, rcond=None)[0]
    dw = np.empty_like(wa)
    dw[rest] = x / norms
    dw[heavy] = -dw[rest].sum()
    return dw


def nonlocality_N(box: Box, mode: str = "uniform", restarts: int = 1) -> NlResult:
    """Evaluate the nonlocality measure of a box.

    mode="uniform" fixes the input distribution to uniform and solves the
    inner infimum once; its ``upper`` is its value.  mode="optimize" runs
    one multiplicative-weights loop over input distributions (Freund &
    Schapire, Games Econ. Behav. 29, 79 (1999)): from uniform p, each step
    solves the inner infimum warm-started at the last weights w, then sets
    p <- p exp(eta_t KL_xy / max KL), eta_t = 2 / sqrt(t + 1), from the
    per-pair KLs at w.  Each step certifies value - gap <= N <= max KL (as
    sum p KL <= max KL for all p); the loop keeps the best of both ends and
    stops when they are within TOL.fw_gap, or after _OUTER_STEPS steps.  The
    result describes the p of the best lower end, with the best upper end.

    ``restarts`` is read by no mode: the benchmark's nonlocality-kl workload
    still passes it.  An unknown mode or restarts < 1 raises ValidationError.
    """
    if mode not in ("uniform", "optimize"):
        raise ValidationError(f"unknown mode {mode!r}")
    if restarts < 1:
        raise ValidationError(f"restarts must be at least 1, got {restarts}")
    polytope = LocalPolytope.for_scenario(box.nx, box.ny, box.na, box.nb)
    # an entry below _LOG_CLAMP, which the clamped solve could empty (N = inf), reads as 0
    pg = np.where(box.p < _LOG_CLAMP, 0.0, box.p).reshape(-1)
    rows = pg.reshape(box.nx * box.ny, -1)
    p = np.full(rows.shape[0], 1.0 / rows.shape[0])

    def solve(p_xy, w0):
        """Inner infimum at input distribution p_xy from weights w0:
        (value, per-pair KL, w, gap, iters)."""
        pw = np.repeat(p_xy, box.na * box.nb)
        w, gap, it = _inner_infimum(pg, pw, polytope.vertices, w0)
        per_pair = _pair_kl(rows, (w @ polytope.vertices).reshape(rows.shape))
        on = p_xy > 0.0
        return float(p_xy[on] @ per_pair[on]), per_pair, w, gap, it

    if mode == "uniform":
        value, _, w, gap, iters = solve(p, polytope.start)
        return NlResult(value, w, p, gap <= TOL.fw_gap and math.isfinite(value), iters, gap, value)

    w, lower, upper = polytope.start, -math.inf, math.inf
    for t in range(_OUTER_STEPS):
        value, per_pair, w, gap, iters = solve(p, w)
        if value - gap > lower:
            lower, best = value - gap, NlResult(value, w, p, False, iters, gap, upper)
        scale = float(per_pair.max())
        upper = min(upper, scale)
        if upper - lower <= TOL.fw_gap or not 0.0 < scale < math.inf:
            break
        p = p * np.exp((2.0 / math.sqrt(t + 1.0)) * per_pair / scale)
        p /= p.sum()
    best.converged, best.upper = upper - lower <= TOL.fw_gap, upper
    return best


def er_upper(rho: CMatrix, sigma_candidate: CMatrix) -> float:
    """Relative entropy to a separable candidate: an upper bound on the
    relative entropy of entanglement whenever the candidate is separable."""
    value = rel_entropy(rho, sigma_candidate)
    if not math.isfinite(value):
        warnings.warn("candidate does not support the state; the upper bound "
                      "is infinite", RuntimeWarning, stacklevel=2)
    return value


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


def thm2_chain_check(rho: CMatrix, sigma_candidate: CMatrix,
                     meas: MeasurementFamily) -> ChainCheck:
    """Single-copy chain: N(box(rho)) <= sum_xy p KL(P_xy||Q_xy) <= S(rho||sigma).

    N is the uniform-mode measure, so p is uniform, and Q is the box of the
    candidate under the same measurements; the last term is
    measurement-independent by data processing.  Both links get TOL.fw_gap
    of slack, since N is certified only to the Frank-Wolfe gap.
    """
    box_r = box_from(rho, meas)
    box_s = box_from(sigma_candidate, meas)
    nl = nonlocality_N(box_r)
    n_pairs = box_r.nx * box_r.ny
    per_pair = _pair_kl(box_r.p.reshape(n_pairs, -1), box_s.p.reshape(n_pairs, -1))
    p = nl.input_dist
    if np.all(np.isfinite(per_pair)):
        mid = float((p * per_pair).sum())
    else:
        mid = math.inf
    rhs = rel_entropy(rho, sigma_candidate)
    verdict = (nl.value <= mid + TOL.fw_gap) and (mid <= rhs + TOL.fw_gap)
    context = "single copy: measure <= weighted KL <= relative entropy"
    if not (math.isfinite(mid) and math.isfinite(rhs)):
        context += " [infinite entropy, trivially true]"
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
        if not np.isfinite(filt).all():  # the SVD behind the norm would not converge
            raise ValidationError(f"filter {name} has a non-finite entry")
        norm = spectral_norm(CMatrix(filt))
        if norm > 1.0 + TOL.assertion:
            raise ValidationError(f"filter {name} has operator norm {norm} > 1")
    big = np.kron(f_a, f_b)
    filtered = big @ coll.mat @ big.conj().T
    prob = float(np.trace(filtered).real)
    if prob <= 1e-12:
        raise ValidationError("zero-probability filter: nothing to renormalize")
    return CMatrix(filtered / prob, coll.layout, hermitian=True), prob
