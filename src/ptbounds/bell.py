"""Bell functionals, boxes, the measurement seesaw, and the transposition bounds.

The central inequality: for a Bell operator S assembled from any fixed
measurements,

    |Tr S rho - Tr S sigma|  <=  opnorm(S^PT) * tracenorm(rho^PT - sigma^PT)

because Tr X Y = Tr X^PT Y^PT and Hoelder.  With a separable candidate sigma
this turns the best achievable quantum value on rho into

    classical_value  +  q_value * tracenorm(rho^PT - sigma^PT),

the candidate-relaxed bound reported by cor1_bound.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .config import TOL, ValidationError
from .linalg import (
    CMatrix,
    SystemLayout,
    op_norm,
    partial_transpose,
    trace_norm,
    _hermitian_deviation,
    _json_floats,
    _json_size,
    _party_axes,
)
from .rand import random_seesaw_starts
from .states import private_bit

__all__ = [
    "BellFunctional",
    "MeasurementFamily",
    "Box",
    "BoundReport",
    "SeesawResult",
    "chsh",
    "nonnegativize",
    "classical_value",
    "bell_operator",
    "box_from",
    "functional_value",
    "seesaw",
    "seesaw_bound",
    "thm1_bound",
    "cor1_bound",
    "pbit_observation_bound",
    "d_eps_membership",
]

# strategies of one party: 0.63 s for a binary 16x16 functional on one BLAS
# thread, and longer as the other party's table grows (2.3 s at 16x200)
_ENUM_GUARD = 2**16
_STEP_TOL = 1e-13  # a seesaw restart stops once a sweep gains less


@dataclass
class BellFunctional:
    """Coefficients s[x, y, a, b] on conditional probabilities plus an offset.

    The value of a box never includes the offset; the offset records the
    total shift applied by nonnegativize so callers can translate bounds
    back to the original scale.
    """

    nx: int
    ny: int
    na: int
    nb: int
    coeffs: np.ndarray
    offset: float = 0.0

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, dtype=np.float64)
        expected = (self.nx, self.ny, self.na, self.nb)
        if min(expected) < 1:
            raise ValidationError(f"functional sizes must be at least 1, got {expected}")
        if self.coeffs.shape != expected:
            raise ValidationError(
                f"coefficient table has shape {self.coeffs.shape}, expected {expected}"
            )
        if not (np.isfinite(self.coeffs).all() and math.isfinite(self.offset)):
            raise ValidationError("functional coefficients and offset must be finite")
        # sum |s| bounds every box value and every s_0 - s_1 the seesaw forms
        with np.errstate(over="ignore"):
            total = float(np.abs(self.coeffs).sum())
        if not math.isfinite(total):
            raise ValidationError("functional coefficients must have a finite absolute sum")

    def to_json(self) -> dict:
        return {
            "nx": self.nx, "ny": self.ny, "na": self.na, "nb": self.nb,
            "coeffs": [float(c) for c in self.coeffs.reshape(-1)],
            "offset": float(self.offset),
        }

    @staticmethod
    def from_json(obj: dict) -> "BellFunctional":
        try:
            nx, ny, na, nb = (_json_size(obj[k], k) for k in ("nx", "ny", "na", "nb"))
            coeffs = np.asarray(obj["coeffs"], dtype=object).reshape(-1)
            offset = obj.get("offset", 0.0)
        except (KeyError, TypeError, ValueError) as exc:
            raise ValidationError(f"bad functional JSON: {exc}") from exc
        flat = _json_floats(coeffs, "functional JSON coefficients must be numbers")
        offset = float(_json_floats([offset], "functional JSON offset must be a number")[0])
        if flat.size != nx * ny * na * nb:
            raise ValidationError(
                f"functional JSON has {flat.size} coefficients, expected {nx * ny * na * nb}"
            )
        return BellFunctional(nx, ny, na, nb, flat.reshape(nx, ny, na, nb), offset)


def chsh() -> BellFunctional:
    """CHSH in probability form: s[x,y,a,b] = (-1)^(xy + a + b).

    Classical value 2, quantum (Tsirelson) value 2 sqrt(2).
    """
    grid = np.fromfunction(
        lambda x, y, a, b: (-1.0) ** ((x * y + a + b) % 2), (2, 2, 2, 2)
    )
    return BellFunctional(2, 2, 2, 2, grid)


def nonnegativize(f: BellFunctional) -> BellFunctional:
    """Shift each (x, y) block so every coefficient is >= 0.

    Normalized boxes gain exactly the accumulated shift, which lands in
    ``offset``; an already-nonnegative table is returned unchanged with
    offset untouched.
    """
    mins = f.coeffs.min(axis=(2, 3))
    shifts = np.where(mins < 0.0, -mins, 0.0)
    coeffs = f.coeffs + shifts[:, :, None, None]
    return BellFunctional(f.nx, f.ny, f.na, f.nb, coeffs,
                          offset=f.offset + float(shifts.sum()))


def _optimal_deterministic(f: BellFunctional) -> tuple[float, list[int]]:
    """Classical value, and Bob's output per input in the first optimal strategy pair found.

    Enumerates the smaller party's strategy assignments and maximizes the
    other party input-by-input, which visits the same optimum as the full
    product enumeration.
    """
    coeffs = f.coeffs
    bob_enumerated = f.nb ** f.ny <= f.na ** f.nx
    if not bob_enumerated:
        coeffs = coeffs.transpose(1, 0, 3, 2)
    ni, no = coeffs.shape[1], coeffs.shape[3]
    if no ** ni > _ENUM_GUARD:
        raise ValidationError(
            f"{no ** ni} deterministic strategies exceed the enumeration guard {_ENUM_GUARD}"
        )
    best, best_strat, best_totals = -math.inf, (), None
    for strat in itertools.product(range(no), repeat=ni):
        # fancy indexing gives (ni, nx', na'); summed, the other party's (input, output) totals
        totals = coeffs[:, range(ni), :, strat].sum(axis=0)
        value = float(totals.max(axis=1).sum())
        if value > best:
            best, best_strat, best_totals = value, strat, totals
    bob = best_strat if bob_enumerated else best_totals.argmax(axis=1)
    return best, [int(b) for b in bob]


def classical_value(f: BellFunctional) -> float:
    """Exact maximum over deterministic strategy pairs."""
    return _optimal_deterministic(f)[0]


@dataclass
class MeasurementFamily:
    """Per-input POVMs for both parties: alice[x][a] and bob[y][b]."""

    alice: list[list[np.ndarray]]
    bob: list[list[np.ndarray]]

    def __post_init__(self):
        self.alice = [[np.asarray(e, dtype=np.complex128) for e in povm] for povm in self.alice]
        self.bob = [[np.asarray(e, dtype=np.complex128) for e in povm] for povm in self.bob]
        for side, povms in (("alice", self.alice), ("bob", self.bob)):
            # an empty POVM past input 0 fails the outcome-count check below
            if not povms:
                raise ValidationError(f"{side} has no inputs")
            if not povms[0]:
                raise ValidationError(f"{side} input 0: POVM has no outcomes")
            if povms[0][0].ndim != 2:
                raise ValidationError(f"{side} input 0: effect shape {povms[0][0].shape}")
            d = povms[0][0].shape[0]
            for i, povm in enumerate(povms):
                if len(povm) != len(povms[0]):
                    raise ValidationError(f"{side} input {i}: {len(povm)} outcomes, "
                                          f"input 0 has {len(povms[0])}")
                for e in povm:
                    if e.shape != (d, d):
                        raise ValidationError(f"{side} input {i}: effect shape {e.shape}")
                    dev = _hermitian_deviation(e)  # NaN or inf on a non-finite entry
                    if not math.isfinite(dev):
                        raise ValidationError(f"{side} input {i}: effect is not finite")
                    if dev > TOL.structural:
                        raise ValidationError(f"{side} input {i}: effect is not hermitian")
                    w = np.linalg.eigvalsh(e)
                    if float(w.min()) < -TOL.psd:
                        raise ValidationError(
                            f"{side} input {i}: effect has eigenvalue {w.min():.3e}"
                        )
                if np.abs(sum(povm) - np.eye(d)).max() > TOL.assertion:
                    raise ValidationError(f"{side} input {i}: POVM does not sum to identity")

    @property
    def dim_a(self) -> int:
        return self.alice[0][0].shape[0]

    @property
    def dim_b(self) -> int:
        return self.bob[0][0].shape[0]

    def to_json(self) -> dict:
        def ser(povms):
            return [[[[float(z.real), float(z.imag)] for z in e.reshape(-1)] for e in povm]
                    for povm in povms]
        return {"dim_a": self.dim_a, "dim_b": self.dim_b,
                "alice": ser(self.alice), "bob": ser(self.bob)}


@dataclass
class Box:
    """Conditional distribution table p[x, y, a, b]."""

    nx: int
    ny: int
    na: int
    nb: int
    p: np.ndarray

    def __post_init__(self):
        self.p = np.asarray(self.p, dtype=np.float64)
        expected = (self.nx, self.ny, self.na, self.nb)
        if min(expected) < 1:
            raise ValidationError(f"box sizes must be at least 1, got {expected}")
        if self.p.shape != expected:
            raise ValidationError(f"box table has shape {self.p.shape}, expected {expected}")
        if not np.isfinite(self.p).all():
            raise ValidationError("box has non-finite entries")
        if float(self.p.min()) < -TOL.assertion:
            raise ValidationError(f"box has negative probability {self.p.min():.3e}")
        with np.errstate(over="ignore"):  # entries near the float limit sum to inf, refused below
            sums = self.p.sum(axis=(2, 3))
        if np.abs(sums - 1.0).max() > TOL.assertion:
            raise ValidationError("box blocks are not normalized per input pair")
        self.p = np.clip(self.p, 0.0, None)

    def to_json(self) -> dict:
        return {"nx": self.nx, "ny": self.ny, "na": self.na, "nb": self.nb,
                "p": [float(v) for v in self.p.reshape(-1)]}

    @staticmethod
    def from_json(obj: dict) -> "Box":
        try:
            nx, ny, na, nb = (_json_size(obj[k], k) for k in ("nx", "ny", "na", "nb"))
            entries = np.asarray(obj["p"], dtype=object).reshape(-1)  # p may be nested
        except (KeyError, TypeError, ValueError) as exc:
            raise ValidationError(f"bad box JSON: {exc}") from exc
        flat = _json_floats(entries, "box JSON entries must be numbers")
        if flat.size != nx * ny * na * nb:
            raise ValidationError(f"box JSON has {flat.size} entries, expected {nx * ny * na * nb}")
        return Box(nx, ny, na, nb, flat.reshape(nx, ny, na, nb))


def _scenario_match(f: BellFunctional, nx, ny, na, nb, what: str) -> None:
    if (f.nx, f.ny, f.na, f.nb) != (nx, ny, na, nb):
        raise ValidationError(f"{what}: functional scenario {(f.nx, f.ny, f.na, f.nb)} "
                              f"does not match {(nx, ny, na, nb)}")


def _realigned(rho: CMatrix) -> tuple[np.ndarray, int, int]:
    """rho realigned as R[(a',a),(b',b)] = rho[(a',b'),(a,b)], plus dim_A and dim_B.

    Then Tr[(A x B) rho] = vec(A^T)^T R vec(B^T), with vec flattening
    row-major, and R.T is the same form with the parties swapped.  R is one
    transpose of rho's own factor axes, whatever their interleaving, so the
    only dense copy made is R itself.
    """
    layout, axes_a, axes_b = _party_axes(rho, "collect_parties")
    n = len(layout.factors)
    da, db = layout.dim_of("A"), layout.dim_of("B")
    perm = axes_a + [n + i for i in axes_a] + axes_b + [n + i for i in axes_b]
    r = rho.mat.reshape(layout.dims + layout.dims).transpose(perm).reshape(da * da, db * db)
    return r, da, db


def bell_operator(f: BellFunctional, meas: MeasurementFamily) -> CMatrix:
    """Assemble sum_xyab s[x,y,a,b] A_(a|x) x B_(b|y), hermitian as the effects are."""
    _scenario_match(f, f.nx, f.ny, len(meas.alice[0]), len(meas.bob[0]), "bell_operator")
    if len(meas.alice) != f.nx or len(meas.bob) != f.ny:
        raise ValidationError("bell_operator: measurement family has wrong input count")
    da, db = meas.dim_a, meas.dim_b
    out = np.einsum("xyab,xaij,ybkl->ikjl", f.coeffs, np.array(meas.alice), np.array(meas.bob),
                    optimize=True)
    return CMatrix(out.reshape(da * db, da * db), SystemLayout.bipartite(da, db))


def box_from(rho: CMatrix, meas: MeasurementFamily) -> Box:
    """Born-rule box p(ab|xy) = Tr[(A_(a|x) x B_(b|y)) rho]."""
    r, da, db = _realigned(rho)
    if (da, db) != (meas.dim_a, meas.dim_b):
        raise ValidationError(f"state dimensions {da}x{db} do not match measurements "
                              f"{meas.dim_a}x{meas.dim_b}")
    alice = np.array(meas.alice)
    bob = np.array(meas.bob)
    nx, na = alice.shape[:2]
    ny, nb = bob.shape[:2]
    va = alice.transpose(0, 1, 3, 2).reshape(nx * na, da * da)
    vb = bob.transpose(0, 1, 3, 2).reshape(ny * nb, db * db)
    p = (va @ r @ vb.T).real.reshape(nx, na, ny, nb).transpose(0, 2, 1, 3)
    return Box(nx, ny, na, nb, p)


def functional_value(f: BellFunctional, box: Box) -> float:
    """Sum of coefficients times probabilities; the offset is not included."""
    _scenario_match(f, box.nx, box.ny, box.na, box.nb, "functional_value")
    return float((f.coeffs * box.p).sum())


@dataclass
class SeesawResult:
    """Outcome of the alternating measurement optimization.

    Unpacks as ``value, measurements = result`` for callers that only want
    the headline pair; the remaining fields are the audit trail.
    """

    value: float
    measurements: MeasurementFamily
    history: tuple[float, ...]
    restart_values: tuple[float, ...]
    converged: bool
    iterations: int

    def __iter__(self):
        return iter((self.value, self.measurements))


def _best_response(r: np.ndarray, coeffs: np.ndarray,
                   other: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each restart's optimal binary projectors against the other party's POVMs, and their values.

    ``other`` stacks the other party's E_(0|y) as [restart, input, d', d'], and
    the projectors E_(0|x) come back stacked the same way.  ``r`` has the
    other party on the rows (R.T for Alice, R for Bob); ``coeffs`` is indexed
    [own input, other input, own outcome, other outcome].
    """
    n, ny, d_other = other.shape[:3]
    d = math.isqrt(r.shape[1])
    rows = np.concatenate([other.swapaxes(2, 3).reshape(n * ny, -1),
                           np.eye(d_other).reshape(1, -1)])
    # rows @ r holds vec(M_E), M_E = Tr_other[(I x E) rho], for every E_(0|y) and, last, for I;
    # E_1 = I - E_0 then gives K_(a|x) = sum_y (s[x,y,a,0] - s[x,y,a,1]) M_(0|y) + s[x,y,a,1] M_I
    m = rows @ r
    k = (np.einsum("xya,nyk->nxak", coeffs[..., 0] - coeffs[..., 1], m[:-1].reshape(n, ny, -1))
         + coeffs[..., 1].sum(axis=1)[:, :, None] * m[-1]).reshape(n, -1, 2, d, d)
    diff = k[:, :, 0] - k[:, :, 1]
    w, v = np.linalg.eigh((diff + diff.conj().swapaxes(2, 3)) / 2)
    pos = w > 0.0
    proj = (v * pos[:, :, None, :]) @ v.conj().swapaxes(2, 3)
    values = (np.trace(k[:, :, 1], axis1=2, axis2=3).real.sum(axis=1)
              + np.where(pos, w, 0.0).sum(axis=(1, 2)))
    return proj, values


def seesaw(rho: CMatrix, f: BellFunctional, restarts: int = 32, seed: int = 0,
           max_iters: int = 400) -> SeesawResult:
    """Alternating optimization of binary projective measurements.

    Each half-step fixes one party and replaces the other party's POVM for
    every input by projectors onto the positive/negative eigenspaces of the
    effective score operator, which is the exact single-party optimum.  The
    objective therefore never decreases.  Restarts draw Haar-like random
    projective measurements from one seeded generator, making the whole run
    deterministic for a fixed seed.  ``random_seesaw_starts`` draws them as
    ``random_binary_projective`` would, Alice's inputs before Bob's in each
    restart, and decomposes all of Bob's Gaussians with one stacked QR; his
    starting projectors are bit for bit those of the one-draw path, and
    Alice's draws are discarded.  One extra restart follows them: Bob starts
    at an optimal deterministic strategy (E_0 = I or 0 per input, from the
    enumeration behind classical_value), so Alice's first best response
    already reaches the classical value and the best value can only be
    higher.

    Both parties read the state through R[(a',a),(b',b)] = rho[(a',b'),(a,b)],
    realigned once, since Tr[(A x B) rho] = vec(A^T)^T R vec(B^T); Bob uses
    R.T.  All restarts advance in lockstep: with E_1 = I - E_0 a half-step is
    one GEMM of R against the other party's vec(E_0^T) of every active
    restart plus vec(I), one einsum for the score operators K_(a|x), and one
    stacked eigh.  A restart's value comes from the eigenvalues already
    computed: sum_x Tr K_(1|x) plus the positive eigenvalues of
    K_(0|x) - K_(1|x).  Each restart stops on its own, once a sweep gains
    less than _STEP_TOL, or after ``max_iters`` sweeps.

    Parameters
    ----------
    rho : CMatrix
        Bipartite state (any factor interleaving; it is regrouped).
    f : BellFunctional
        Must have binary outcomes on both sides.
    restarts, seed, max_iters
        Optimization knobs; defaults reproduce the shipped experiments.

    Returns
    -------
    SeesawResult with the best value (the first restart reaching it wins a
    tie), the measurements achieving it, the per-half-step objective history
    of that restart, and the final value of every restart, the deterministic
    one last.
    """
    if f.na != 2 or f.nb != 2:
        raise ValidationError("seesaw handles binary outcomes only")
    if restarts < 1:
        raise ValidationError("seesaw needs at least one restart")
    if max_iters < 1:
        raise ValidationError("seesaw needs at least one iteration")
    _, bob_outputs = _optimal_deterministic(f)
    r, da, db = _realigned(rho)
    bob = np.concatenate([
        random_seesaw_starts(np.random.default_rng(seed), restarts, f.nx, da, f.ny, db),
        np.array([[np.eye(db) * (b == 0) for b in bob_outputs]], dtype=np.complex128)])
    coeffs_bob = f.coeffs.transpose(1, 0, 3, 2)

    n = len(bob)
    active = np.arange(n)
    prev = np.full(n, -math.inf)
    finals = np.empty(n)
    iterations = np.zeros(n, dtype=int)
    converged = np.zeros(n, dtype=bool)
    alice_out = np.empty((n, f.nx, da, da), dtype=np.complex128)
    bob_out = np.empty_like(bob)
    trail = []  # per sweep, both half-step values of every restart, NaN once it stopped
    for sweep in range(1, max_iters + 1):
        alice, val_a = _best_response(r.T, f.coeffs, bob)
        bob, val_b = _best_response(r, coeffs_bob, alice)
        step = np.full((2, n), np.nan)
        step[:, active] = val_a, val_b
        trail.append(step)
        done = val_b - prev < _STEP_TOL
        stop = done | (sweep == max_iters)
        ids = active[stop]
        finals[ids], iterations[ids], converged[ids] = val_b[stop], sweep, done[stop]
        alice_out[ids], bob_out[ids] = alice[stop], bob[stop]
        active, prev, bob = active[~stop], val_b[~stop], bob[~stop]
        if not active.size:
            break

    best = int(np.argmax(finals))
    eye_a, eye_b = np.eye(da), np.eye(db)
    return SeesawResult(
        value=float(finals[best]),
        measurements=MeasurementFamily([[e, eye_a - e] for e in alice_out[best]],
                                       [[e, eye_b - e] for e in bob_out[best]]),
        history=tuple(np.array(trail)[:iterations[best], :, best].reshape(-1).tolist()),
        restart_values=tuple(finals.tolist()),
        converged=bool(converged[best]),
        iterations=int(iterations[best]),
    )


@dataclass
class BoundReport:
    """One checked inequality: lhs <= rhs up to the verdict tolerance."""

    context: str
    lhs: float
    rhs: float
    slack: float = field(init=False)
    verdict: bool = field(init=False)
    tol: float = TOL.verdict

    def __post_init__(self):
        self.lhs = float(self.lhs)
        self.rhs = float(self.rhs)
        self.slack = self.rhs - self.lhs
        self.verdict = bool(self.lhs <= self.rhs + self.tol)

    def to_json(self) -> dict:
        return {"context": self.context, "lhs": self.lhs, "rhs": self.rhs,
                "slack": self.slack, "verdict": self.verdict}

    def csv_row(self) -> str:
        return f"{self.context},{self.lhs!r},{self.rhs!r},{self.slack!r},{self.verdict}"

    @staticmethod
    def csv_header() -> str:
        return "context,lhs,rhs,slack,verdict"


def seesaw_bound(f: BellFunctional, rho: CMatrix, excess: float, context: str,
                 restarts: int, seed: int, tol: float) -> BoundReport:
    """Seesaw value of rho against classical_value(f) + excess.

    Every violation bound here has this shape: the best value the seesaw
    finds on the state, at most the classical value plus a closed-form
    excess (a shrunk maximal quantum violation).
    """
    lhs = seesaw(rho, f, restarts=restarts, seed=seed).value
    return BoundReport(context, lhs, classical_value(f) + excess, tol=tol)


def d_eps_membership(rho: CMatrix, sigma_candidate: CMatrix) -> float:
    """Certified epsilon: trace norm of the transposed difference to the candidate."""
    rg = partial_transpose(rho)
    sg = partial_transpose(sigma_candidate)
    if rg.dim != sg.dim:
        raise ValidationError("states must share a dimension")
    return trace_norm(rg.mat - sg.mat)


def thm1_bound(f: BellFunctional, meas: MeasurementFamily, rho: CMatrix,
               sigma: CMatrix) -> BoundReport:
    """Check |Tr S rho - Tr S sigma| <= opnorm(S^PT) tracenorm(rho^PT - sigma^PT)."""
    s_op = bell_operator(f, meas)
    lhs = abs(functional_value(f, box_from(rho, meas)) -
              functional_value(f, box_from(sigma, meas)))
    rhs = op_norm(partial_transpose(s_op)) * d_eps_membership(rho, sigma)
    return BoundReport("fixed-measurement transposition bound", lhs, rhs)


def cor1_bound(f: BellFunctional, rho: CMatrix, sigma_candidate: CMatrix,
               q_value: float, restarts: int = 32, seed: int = 0) -> BoundReport:
    """Seesaw value against classical_value + q_value * PT distance to the candidate.

    ``q_value`` is the caller-supplied best quantum value of the functional
    (2 sqrt(2) for CHSH); the candidate stands in for the nearest separable
    state, so the right-hand side only relaxes upward.
    """
    return seesaw_bound(f, rho, q_value * d_eps_membership(rho, sigma_candidate),
                        "candidate-relaxed violation bound", restarts, seed, TOL.verdict)


def pbit_observation_bound(x: CMatrix, f: BellFunctional, q_value: float,
                           restarts: int = 32, seed: int = 0) -> BoundReport:
    """Bound the key-correlated state of X by classical + q_value ||X^PT||_1."""
    return seesaw_bound(f, private_bit(x), q_value * trace_norm(partial_transpose(x)),
                        "key-state observation bound", restarts, seed, TOL.verdict)
