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
    collect_parties,
    op_norm,
    partial_transpose,
    trace_norm,
    _json_floats,
)
from .rand import random_binary_projective
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
    "thm1_bound",
    "cor1_bound",
    "pbit_observation_bound",
    "d_eps_membership",
]

_ENUM_GUARD = 10**7


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
        if self.coeffs.shape != expected:
            raise ValidationError(
                f"coefficient table has shape {self.coeffs.shape}, expected {expected}"
            )
        if not (np.isfinite(self.coeffs).all() and math.isfinite(self.offset)):
            raise ValidationError("functional coefficients and offset must be finite")

    def to_json(self) -> dict:
        return {
            "nx": self.nx, "ny": self.ny, "na": self.na, "nb": self.nb,
            "coeffs": [float(c) for c in self.coeffs.reshape(-1)],
            "offset": float(self.offset),
        }

    @staticmethod
    def from_json(obj: dict) -> "BellFunctional":
        try:
            nx, ny, na, nb = (int(obj[k]) for k in ("nx", "ny", "na", "nb"))
            coeffs = np.asarray(obj["coeffs"], dtype=object).reshape(-1)
            offset = obj.get("offset", 0.0)
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
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


def classical_value(f: BellFunctional) -> float:
    """Exact maximum over deterministic strategy pairs.

    Enumerates the smaller party's strategy assignments and maximizes the
    other party input-by-input, which visits the same optimum as the full
    product enumeration.
    """
    pairs = f.na ** f.nx * f.nb ** f.ny
    if pairs > _ENUM_GUARD:
        raise ValidationError(
            f"{pairs} deterministic strategy pairs exceed the enumeration guard {_ENUM_GUARD}"
        )
    coeffs = f.coeffs
    if f.nb ** f.ny > f.na ** f.nx:
        coeffs = coeffs.transpose(1, 0, 3, 2)
    ni, no = coeffs.shape[1], coeffs.shape[3]
    best = -math.inf
    for strat in itertools.product(range(no), repeat=ni):
        picked = coeffs[:, range(ni), :, strat]  # fancy indexing gives (ni, nx', na')
        value = float(picked.sum(axis=0).max(axis=1).sum())
        best = max(best, value)
    return best


@dataclass
class MeasurementFamily:
    """Per-input POVMs for both parties: alice[x][a] and bob[y][b]."""

    alice: list[list[np.ndarray]]
    bob: list[list[np.ndarray]]

    def __post_init__(self):
        self.alice = [[np.asarray(e, dtype=np.complex128) for e in povm] for povm in self.alice]
        self.bob = [[np.asarray(e, dtype=np.complex128) for e in povm] for povm in self.bob]
        for side, povms in (("alice", self.alice), ("bob", self.bob)):
            d = povms[0][0].shape[0]
            for i, povm in enumerate(povms):
                total = np.zeros((d, d), dtype=np.complex128)
                for e in povm:
                    if e.shape != (d, d):
                        raise ValidationError(f"{side} input {i}: effect shape {e.shape}")
                    w = np.linalg.eigvalsh((e + e.conj().T) / 2)
                    if float(w.min()) < -TOL.psd:
                        raise ValidationError(
                            f"{side} input {i}: effect has eigenvalue {w.min():.3e}"
                        )
                    total += e
                if np.abs(total - np.eye(d)).max() > TOL.assertion:
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
        if self.p.shape != expected:
            raise ValidationError(f"box table has shape {self.p.shape}, expected {expected}")
        if not np.isfinite(self.p).all():
            raise ValidationError("box has non-finite entries")
        if float(self.p.min()) < -TOL.assertion:
            raise ValidationError(f"box has negative probability {self.p.min():.3e}")
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
            nx, ny, na, nb = (int(obj[k]) for k in ("nx", "ny", "na", "nb"))
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
    row-major, and R.T is the same form with the parties swapped.
    """
    coll = collect_parties(rho)
    da, db = coll.layout.dim_of("A"), coll.layout.dim_of("B")
    r = coll.mat.reshape(da, db, da, db).transpose(0, 2, 1, 3).reshape(da * da, db * db)
    return r, da, db


def bell_operator(f: BellFunctional, meas: MeasurementFamily,
                  transpose_b: bool = False) -> CMatrix:
    """Assemble sum_xyab s[x,y,a,b] A_(a|x) x B_(b|y), optionally with B transposed."""
    _scenario_match(f, f.nx, f.ny, len(meas.alice[0]), len(meas.bob[0]), "bell_operator")
    if len(meas.alice) != f.nx or len(meas.bob) != f.ny:
        raise ValidationError("bell_operator: measurement family has wrong input count")
    da, db = meas.dim_a, meas.dim_b
    bob = np.array(meas.bob)
    if transpose_b:
        bob = bob.transpose(0, 1, 3, 2)
    out = np.einsum("xyab,xaij,ybkl->ikjl", f.coeffs, np.array(meas.alice), bob, optimize=True)
    return CMatrix(out.reshape(da * db, da * db), SystemLayout.bipartite(da, db), hermitian=True)


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
                   other: list[list[np.ndarray]]) -> tuple[list[list[np.ndarray]], float]:
    """One party's optimal binary projectors against the other's fixed POVMs, and their value.

    ``r`` has this party on the rows (R for Alice, R.T for Bob); ``coeffs``
    is indexed [own input, other input, own outcome, other outcome].
    """
    d, d_other = math.isqrt(r.shape[0]), math.isqrt(r.shape[1])
    cols = np.stack([e0.T.reshape(-1) for e0, _ in other] + [np.eye(d_other).reshape(-1)], axis=1)
    # r @ cols holds M_E = Tr_other[(I x E) rho] for E = E_(0|y) and I; E_1 = I - E_0 then
    # gives K_(a|x) = sum_y (s[x,y,a,0] - s[x,y,a,1]) M_(0|y) + s[x,y,a,1] M_I
    weights = np.concatenate([(coeffs[..., 0] - coeffs[..., 1]).transpose(1, 0, 2),
                              coeffs[..., 1].sum(axis=1)[None]])
    k = ((r @ cols) @ weights.reshape(cols.shape[1], -1)).reshape(d, d, -1, 2)
    own, value = [], 0.0
    for x in range(k.shape[2]):
        diff = k[:, :, x, 0] - k[:, :, x, 1]
        w, v = np.linalg.eigh((diff + diff.conj().T) / 2)
        pos = v[:, w > 0.0]
        proj = pos @ pos.conj().T
        own.append([proj, np.eye(d) - proj])
        value += float(np.trace(k[:, :, x, 1]).real + w[w > 0.0].sum())
    return own, value


def seesaw(rho: CMatrix, f: BellFunctional, restarts: int = 32, seed: int = 0,
           max_iters: int = 400, step_tol: float = 1e-13) -> SeesawResult:
    """Alternating optimization of binary projective measurements.

    Each half-step fixes one party and replaces the other party's POVM for
    every input by projectors onto the positive/negative eigenspaces of the
    effective score operator, which is the exact single-party optimum.  The
    objective therefore never decreases.  Restarts draw Haar-like random
    projective measurements from one seeded generator, making the whole run
    deterministic for a fixed seed.

    Both parties read the state through R[(a',a),(b',b)] = rho[(a',b'),(a,b)],
    realigned once, since Tr[(A x B) rho] = vec(A^T)^T R vec(B^T); Bob uses
    R.T.  With E_1 = I - E_0 a half-step is one GEMM over the other party's
    vec(E_0^T) and vec(I), and its value comes from the eigenvalues it has
    already computed: sum_x Tr K_(1|x) plus the positive eigenvalues of
    K_(0|x) - K_(1|x), K_(a|x) being the score operator of outcome a.

    Parameters
    ----------
    rho : CMatrix
        Bipartite state (any factor interleaving; it is regrouped).
    f : BellFunctional
        Must have binary outcomes on both sides.
    restarts, seed, max_iters, step_tol
        Optimization knobs; defaults reproduce the shipped experiments.

    Returns
    -------
    SeesawResult with the best value, the measurements achieving it, the
    per-half-step objective history of the best restart, and the final
    value of every restart.
    """
    if f.na != 2 or f.nb != 2:
        raise ValidationError("seesaw handles binary outcomes only")
    if restarts < 1:
        raise ValidationError("seesaw needs at least one restart")
    r, da, db = _realigned(rho)
    rng = np.random.default_rng(seed)
    coeffs_bob = f.coeffs.transpose(1, 0, 3, 2)

    best_value = -math.inf
    best_meas: MeasurementFamily | None = None
    best_history: tuple[float, ...] = ()
    best_iters = 0
    best_converged = False
    finals = []
    for _ in range(restarts):
        alice = [random_binary_projective(rng, da) for _ in range(f.nx)]
        bob = [random_binary_projective(rng, db) for _ in range(f.ny)]
        history = []
        prev = -math.inf
        converged = False
        sweeps = 0
        for sweeps in range(1, max_iters + 1):
            alice, val = _best_response(r, f.coeffs, bob)
            history.append(val)
            bob, val = _best_response(r.T, coeffs_bob, alice)
            history.append(val)
            if val - prev < step_tol:
                converged = True
                break
            prev = val
        final = history[-1]
        finals.append(final)
        if final > best_value:
            best_value = final
            best_meas = MeasurementFamily(alice, bob)
            best_history = tuple(history)
            best_iters = sweeps
            best_converged = converged
    return SeesawResult(
        value=best_value,
        measurements=best_meas,
        history=best_history,
        restart_values=tuple(finals),
        converged=best_converged,
        iterations=best_iters,
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


def d_eps_membership(rho: CMatrix, sigma_candidate: CMatrix) -> float:
    """Certified epsilon: trace norm of the transposed difference to the candidate."""
    rg = partial_transpose(rho)
    sg = partial_transpose(sigma_candidate)
    if rg.dim != sg.dim:
        raise ValidationError("states must share a dimension")
    return trace_norm(rg.mat - sg.mat)


def thm1_bound(f: BellFunctional, meas: MeasurementFamily, rho: CMatrix,
               sigma: CMatrix, tol: float = TOL.verdict,
               context: str = "fixed-measurement transposition bound") -> BoundReport:
    """Check |Tr S rho - Tr S sigma| <= opnorm(S^PT) tracenorm(rho^PT - sigma^PT)."""
    s_op = bell_operator(f, meas)
    lhs = abs(functional_value(f, box_from(rho, meas)) -
              functional_value(f, box_from(sigma, meas)))
    rhs = op_norm(partial_transpose(s_op)) * d_eps_membership(rho, sigma)
    return BoundReport(context, lhs, rhs, tol=tol)


def cor1_bound(f: BellFunctional, rho: CMatrix, sigma_candidate: CMatrix,
               q_value: float, restarts: int = 32, seed: int = 0,
               tol: float = TOL.verdict,
               context: str = "candidate-relaxed violation bound") -> BoundReport:
    """Seesaw value against classical_value + q_value * PT distance to the candidate.

    ``q_value`` is the caller-supplied best quantum value of the functional
    (2 sqrt(2) for CHSH); the candidate stands in for the nearest separable
    state, so the right-hand side only relaxes upward.
    """
    lhs = seesaw(rho, f, restarts=restarts, seed=seed).value
    rhs = classical_value(f) + q_value * d_eps_membership(rho, sigma_candidate)
    return BoundReport(context, lhs, rhs, tol=tol)


def pbit_observation_bound(x: CMatrix, f: BellFunctional, q_value: float,
                           restarts: int = 32, seed: int = 0,
                           tol: float = TOL.verdict) -> BoundReport:
    """Bound the key-correlated state of X by classical + q_value ||X^PT||_1."""
    gamma = private_bit(x)
    lhs = seesaw(gamma, f, restarts=restarts, seed=seed).value
    rhs = classical_value(f) + q_value * trace_norm(partial_transpose(x))
    return BoundReport("key-state observation bound", lhs, rhs, tol=tol)
