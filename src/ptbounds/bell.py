"""Bell functionals, boxes, the measurement seesaw, and the transposition bounds.

The central inequality: for a Bell operator S assembled from any fixed
measurements,

    |Tr S rho - Tr S sigma|  <=  opnorm(S^PT) * tracenorm(rho^PT - sigma^PT)

because Tr X Y = Tr X^PT Y^PT and Hoelder.  With a separable candidate sigma
this turns the best achievable quantum value on rho into

    classical_value  +  q_value * tracenorm(rho^PT - sigma^PT),

which seesaw_bound checks when given q_value times that distance as its excess;
certificate_rows states that excess, and the rows beside it, for each paper target.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .config import TOL, ValidationError
from .linalg import (
    CMatrix,
    SystemLayout,
    min_eigenvalue,
    op_norm,
    partial_transpose,
    tensor,
    trace_norm,
    _difference,
    _json_floats,
    _json_size,
    _realigned,
    _require_layout,
)
from .rand import random_seesaw_starts
from .states import hiding_state, ppt_pbit, private_bit, swap_x

__all__ = [
    "BellFunctional",
    "MeasurementFamily",
    "Box",
    "BoundReport",
    "SeesawResult",
    "chsh",
    "classical_value",
    "bell_operator",
    "box_from",
    "functional_value",
    "seesaw",
    "seesaw_bound",
    "thm1_bound",
    "d_eps_membership",
    "certificate_rows",
]

# strategies of one party: 0.03 s for a binary 16x16 functional on one BLAS
# thread, 0.08 s at 16x200 and 0.33 s at 16x1000
_ENUM_GUARD = 2**16
_ENUM_CHUNK = 2**16  # (input, output) totals per GEMM of _optimal_deterministic, 512 KB
_STEP_TOL = 1e-13  # a seesaw restart stops once a sweep gains less
_MAX_SWEEPS = 400  # or after this many sweeps
# the seesaw's restarts run in groups whose stacked (restarts x inputs x d x d)
# complex operand fits this many bytes: 64 restarts of a two-input functional at d = 16
_GROUP_BYTES = 2**19
_CHSH_Q = 2.0 * math.sqrt(2.0)  # CHSH's quantum (Tsirelson) maximum
# each paper target's grid keywords, as certificate_rows takes them
_TARGET_POINTS = {"eq8": ("d",), "eq10": ("ds",), "prop1": ("m", "q")}


@dataclass
class BellFunctional:
    """Coefficients s[x, y, a, b] on probabilities p(ab|xy); nx, ny, na and nb are its shape."""

    coeffs: np.ndarray
    nx: int = field(init=False)
    ny: int = field(init=False)
    na: int = field(init=False)
    nb: int = field(init=False)

    def __post_init__(self):
        self.coeffs = _table(self.coeffs, "coefficient")
        self.nx, self.ny, self.na, self.nb = self.coeffs.shape
        # sum |s| bounds every box value and every s_0 - s_1 the seesaw forms
        with np.errstate(over="ignore"):
            total = float(np.abs(self.coeffs).sum())
        if not math.isfinite(total):
            raise ValidationError("functional coefficients must have a finite absolute sum")

    def to_json(self) -> dict:
        return {"nx": self.nx, "ny": self.ny, "na": self.na, "nb": self.nb,
                "coeffs": self.coeffs.reshape(-1).tolist()}

    @staticmethod
    def from_json(obj: dict) -> "BellFunctional":
        """The functional of a JSON object; keys other than the sizes and coeffs are ignored."""
        return BellFunctional(_json_table(obj, "coeffs", "functional", "coefficients"))


def _json_table(obj: dict, key: str, what: str, noun: str) -> np.ndarray:
    """The [x, y, a, b] table stored flat (or nested) under ``key`` of a functional or box.

    The sizes nx, ny, na and nb must be JSON integers >= 1 and the table must
    hold their product of numbers, booleans excluded; ``what`` names the
    object in the error messages and ``noun`` its entries.
    """
    try:
        sizes = tuple(_json_size(obj[k], k) for k in ("nx", "ny", "na", "nb"))
        entries = np.asarray(obj[key], dtype=object).reshape(-1)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"bad {what} JSON: {exc}") from exc
    if bool in set(map(type, entries)):
        raise ValidationError(f"{what} JSON {noun} must be numbers, not booleans")
    flat = _json_floats(entries, f"{what} JSON {noun} must be numbers")
    expected = math.prod(sizes)
    if flat.size != expected:
        raise ValidationError(f"{what} JSON has {flat.size} {noun}, expected {expected}")
    return flat.reshape(sizes)


def _table(values, noun: str) -> np.ndarray:
    """``values`` as a finite float64 [x, y, a, b] table with each size at least 1.

    The shape is the scenario, so no other source of sizes is checked against
    it.  ``noun`` names the table in the error messages.
    """
    table = np.asarray(values, dtype=np.float64)
    if table.ndim != 4 or min(table.shape) < 1:
        raise ValidationError(f"{noun} table must have 4 indices, each of size at least 1, "
                              f"got shape {table.shape}")
    if not np.isfinite(table).all():
        raise ValidationError(f"{noun} table has non-finite entries")
    return table


def chsh() -> BellFunctional:
    """CHSH in probability form: s[x,y,a,b] = (-1)^(xy + a + b).

    Classical value 2, quantum (Tsirelson) value 2 sqrt(2).
    """
    grid = np.fromfunction(
        lambda x, y, a, b: (-1.0) ** ((x * y + a + b) % 2), (2, 2, 2, 2)
    )
    return BellFunctional(grid)


def _optimal_deterministic(f: BellFunctional) -> tuple[float, list[int]]:
    """Classical value, and Bob's output per input in the first optimal strategy pair found.

    Enumerates the smaller party's strategy assignments and maximizes the
    other party input-by-input, which visits the same optimum as the full
    product enumeration.  A strategy is a one-hot row over the enumerated
    party's (input, output) pairs, so one GEMM against the coefficient table
    gives the other party's (input, output) totals of a whole chunk of
    strategies.  The strategies run in itertools.product order, and the
    first one reaching the best value wins a tie.
    """
    coeffs = f.coeffs
    bob_enumerated = f.nb ** f.ny <= f.na ** f.nx
    if not bob_enumerated:
        coeffs = coeffs.transpose(1, 0, 3, 2)
    nx, ni, na, no = coeffs.shape
    if no ** ni > _ENUM_GUARD:
        raise ValidationError(
            f"{no ** ni} deterministic strategies exceed the enumeration guard {_ENUM_GUARD}"
        )
    # table[(y, b), (a, x)] = coeffs[x, y, a, b]
    table = coeffs.transpose(1, 3, 2, 0).reshape(ni * no, na * nx)
    place = no ** np.arange(ni - 1, -1, -1)
    chunk = max(1, _ENUM_CHUNK // (nx * na))
    best, best_strat, best_totals = -math.inf, None, None
    for start in range(0, no ** ni, chunk):
        strat = np.arange(start, min(start + chunk, no ** ni))[:, None] // place % no
        onehot = np.zeros((len(strat), ni * no))
        onehot[np.arange(len(strat))[:, None], np.arange(ni) * no + strat] = 1.0
        totals = (onehot @ table).reshape(-1, na, nx)
        # the best output per input, one whole (strategy, input) slice per output
        values = functools.reduce(np.maximum, totals.swapaxes(0, 1)).sum(axis=1)
        k = int(values.argmax())
        if values[k] > best:
            best, best_strat, best_totals = float(values[k]), strat[k], totals[k]
    bob = best_strat if bob_enumerated else best_totals.argmax(axis=0)
    return best, [int(b) for b in bob]


def classical_value(f: BellFunctional) -> float:
    """Exact maximum over deterministic strategy pairs."""
    return _optimal_deterministic(f)[0]


@dataclass
class MeasurementFamily:
    """Per-input POVMs of both parties, stacked: alice[x, a] and bob[y, b] are effects.

    Each party is one C-contiguous complex128 array of shape [input, outcome,
    d, d]; the constructor takes anything that stacks into that shape, such
    as a list of [E_0, E_1] per input.  A ragged, empty or non-square stack
    is refused with one message per side, before any effect is read.
    """

    alice: np.ndarray
    bob: np.ndarray

    def __post_init__(self):
        for side in ("alice", "bob"):
            try:
                povms = np.ascontiguousarray(getattr(self, side), dtype=np.complex128)
            except (TypeError, ValueError, OverflowError):
                povms = np.empty(0)
            if povms.ndim != 4 or not povms.size or povms.shape[2] != povms.shape[3]:
                raise ValidationError(f"{side} POVMs do not stack as [input, outcome, d, d]")
            setattr(self, side, povms)
            for i, povm in enumerate(povms):
                for e in povm:
                    with np.errstate(invalid="ignore"):  # inf - inf is refused as non-finite
                        diff = e - e.conj().T
                    dev = float(np.abs(diff).max())
                    if not math.isfinite(dev):
                        raise ValidationError(f"{side} input {i}: effect expects a finite matrix")
                    if dev > TOL.structural:
                        raise ValidationError(f"{side} input {i}: effect expects a hermitian "
                                              f"matrix, deviation {dev:.3e}")
                    w = float(np.linalg.eigvalsh(e).min())
                    if w < -TOL.psd:
                        raise ValidationError(f"{side} input {i}: effect has eigenvalue {w:.3e}")
                if np.abs(povm.sum(axis=0) - np.eye(povms.shape[-1])).max() > TOL.assertion:
                    raise ValidationError(f"{side} input {i}: POVM does not sum to identity")

    @property
    def dim_a(self) -> int:
        return self.alice.shape[-1]

    @property
    def dim_b(self) -> int:
        return self.bob.shape[-1]

    def to_json(self) -> dict:
        """Each effect as its row-major entries, each entry a [real, imag] pair."""
        alice, bob = (e.reshape(*e.shape[:2], -1, 1).view(np.float64).tolist()
                      for e in (self.alice, self.bob))
        return {"dim_a": self.dim_a, "dim_b": self.dim_b, "alice": alice, "bob": bob}


@dataclass
class Box:
    """Conditional distribution table p[x, y, a, b]; nx, ny, na and nb are its shape."""

    p: np.ndarray
    nx: int = field(init=False)
    ny: int = field(init=False)
    na: int = field(init=False)
    nb: int = field(init=False)

    def __post_init__(self):
        self.p = _table(self.p, "box")
        self.nx, self.ny, self.na, self.nb = self.p.shape
        if float(self.p.min()) < -TOL.assertion:
            raise ValidationError(f"box has negative probability {self.p.min():.3e}")
        with np.errstate(over="ignore"):  # entries near the float limit sum to inf, refused below
            sums = self.p.sum(axis=(2, 3))
        if np.abs(sums - 1.0).max() > TOL.assertion:
            raise ValidationError("box blocks are not normalized per input pair")
        self.p = np.clip(self.p, 0.0, None)

    def to_json(self) -> dict:
        return {"nx": self.nx, "ny": self.ny, "na": self.na, "nb": self.nb,
                "p": self.p.reshape(-1).tolist()}

    @staticmethod
    def from_json(obj: dict) -> "Box":
        return Box(_json_table(obj, "p", "box", "entries"))


def _scenario_match(f: BellFunctional, shape: tuple[int, ...], what: str) -> None:
    """Refuse a box or measurement scenario ``shape`` (nx, ny, na, nb) other than f's."""
    if f.coeffs.shape != shape:
        raise ValidationError(f"{what}: functional scenario {f.coeffs.shape} "
                              f"does not match {shape}")


def bell_operator(f: BellFunctional, meas: MeasurementFamily) -> CMatrix:
    """Assemble sum_xyab s[x,y,a,b] A_(a|x) x B_(b|y), hermitian as the effects are."""
    (nx, na), (ny, nb) = meas.alice.shape[:2], meas.bob.shape[:2]
    _scenario_match(f, (nx, ny, na, nb), "bell_operator")
    da, db = meas.dim_a, meas.dim_b
    out = np.einsum("xyab,xaij,ybkl->ikjl", f.coeffs, meas.alice, meas.bob, optimize=True)
    return CMatrix(out.reshape(da * db, da * db), SystemLayout.bipartite(da, db))


def box_from(rho: CMatrix, meas: MeasurementFamily) -> Box:
    """Born-rule box p(ab|xy) = Tr[(A_(a|x) x B_(b|y)) rho].

    The probabilities are vec(A^T)^T R vec(B^T), read from the blocks of
    rho's realigned R (linalg._Realigned) as the seesaw reads them, so no
    dense R is made.
    """
    r = _realigned(rho, "box_from")
    da, db = r.da, r.db
    if (da, db) != (meas.dim_a, meas.dim_b):
        raise ValidationError(f"state dimensions {da}x{db} do not match measurements "
                              f"{meas.dim_a}x{meas.dim_b}")
    (nx, na), (ny, nb) = meas.alice.shape[:2], meas.bob.shape[:2]
    va = meas.alice.transpose(0, 1, 3, 2).reshape(nx * na, da * da)
    vb = meas.bob.transpose(0, 1, 3, 2).reshape(ny * nb, db * db)
    return Box((r.times(va) @ vb.T).real.reshape(nx, na, ny, nb).transpose(0, 2, 1, 3))


def functional_value(f: BellFunctional, box: Box) -> float:
    """Sum of coefficients times probabilities."""
    _scenario_match(f, box.p.shape, "functional_value")
    return float((f.coeffs * box.p).sum())


@dataclass
class SeesawResult:
    """Outcome of the alternating measurement optimization: the best value,
    the measurements reaching it, and the audit trail."""

    value: float
    measurements: MeasurementFamily
    history: tuple[float, ...]
    restart_values: tuple[float, ...]
    converged: bool
    iterations: int


def _best_response(times, coeffs: np.ndarray, d_other: int):
    """One party's best responder for a group of restarts.

    The responder maps the other party's E_(0|y), stacked as [restart, input,
    d', d'], to each restart's optimal binary projectors E_(0|x), stacked the
    same way, and their values.  ``times`` multiplies rows by the realigned
    state with the other party on its rows (R.T for Alice, R for Bob);
    ``coeffs`` is indexed [own input, other input, own outcome, other
    outcome].  The functional's tables are formed here, once per group.
    """
    # times(rows) holds vec(M_E), M_E = Tr_other[(I x E) rho], for every E_(0|y) and, last,
    # for I; E_1 = I - E_0 then gives K_(a|x) = sum_y t[x,y,a] M_(0|y) + sum_y s[x,y,a,1] M_I
    # with t = s[..., 0] - s[..., 1], and only K_0 - K_1 and sum_x Tr K_1 are formed
    t = coeffs[..., 0] - coeffs[..., 1]
    k_other = t[..., 0] - t[..., 1]
    k_eye = (coeffs[:, :, 0, 1] - coeffs[:, :, 1, 1]).sum(axis=1)[:, None]
    tr_other, tr_eye = t[:, :, 1].sum(axis=0), coeffs[:, :, 1, 1].sum()
    eye = np.eye(d_other).reshape(1, -1)

    def respond(other: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        n, ny = other.shape[:2]
        m = times(np.concatenate([other.swapaxes(2, 3).reshape(n * ny, -1), eye]))
        d = math.isqrt(m.shape[1])
        diff = k_other @ m[:-1].reshape(n, ny, -1)
        diff += k_eye * m[-1]
        diff = diff.reshape(n, -1, d, d)
        diff += diff.conj().swapaxes(2, 3)
        diff /= 2
        # Gershgorin: every disc right of 0 makes K_0 - K_1 positive definite, so
        # its projector is I and its gain the trace; every disc left of 0 makes it
        # negative definite, projector 0 and gain 0; only the rest are diagonalised
        h = diff.reshape(n, -1, d * d)[..., ::d + 1].real
        radius = np.abs(diff)
        radius.reshape(n, -1, d * d)[..., ::d + 1] = 0.0
        radius = radius.sum(axis=3)
        above, below = (h > radius).all(axis=2), (h < -radius).all(axis=2)
        rest = ~(above | below)
        gain = np.where(above[..., None], h, 0.0)
        w, v = np.linalg.eigh(diff[rest])
        del diff, h
        pos = w > 0.0
        v_h = v.conj().swapaxes(1, 2)
        v *= pos[:, None, :]
        gain[rest] = np.where(pos, w, 0.0)
        proj = np.zeros(above.shape + (d, d), dtype=np.complex128)
        proj[above] = np.eye(d)
        proj[rest] = v @ v_h
        traces = m[:, ::d + 1].sum(axis=1).real
        return proj, (traces[:-1].reshape(n, ny) @ tr_other + tr_eye * traces[-1]
                      + gain.sum(axis=2).sum(axis=1))

    return respond


def seesaw(rho: CMatrix, f: BellFunctional, restarts: int = 32, seed: int = 0) -> SeesawResult:
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
    R.T.  R is kept as its connected blocks (linalg._Realigned), so no dense R
    is made: eq10 ds=16 is one 32 x 32 block and 992 1 x 1 blocks, and a
    dense state is one block.

    The restarts, the deterministic one last, run in consecutive groups whose
    sizes differ by at most 1, as few as keep each group's stacked
    (restarts x inputs x d x d) complex operand within _GROUP_BYTES (512 KB):
    one group for the default 32 restarts of a two-input functional at local
    dimensions up to 16, three groups of 11 at eq10 ds=16 (d = 32).  Each
    group draws its starts from the one generator, in order, and no restart's
    arithmetic reads another's rows, so the result agrees with one group's to
    rounding; it is bit for bit the same where the BLAS rounds a row of a
    product independently of the product's row count, as the OpenBLAS 0.3.31
    (Haswell kernels) it was measured on does, which BLAS does not promise in
    general.  Only the best restart's projectors and history are kept.  The
    restarts of a group advance in lockstep: with E_1 = I - E_0 a half-step
    multiplies R, one stacked matmul per block shape, by the other party's
    vec(E_0^T) of every active restart plus vec(I), and forms K_(0|x) - K_(1|x)
    from those products with one GEMM.  An operator whose Gershgorin discs
    all lie right of 0 is positive definite: its best response is E_0 = I,
    with gain its trace.  One whose discs all lie left of 0 is negative
    definite: E_0 = 0, gain 0.  The other operators go through one stacked
    eigh, E_0 projecting onto the positive eigenspace with gain the sum of
    the positive eigenvalues.  A restart's value is sum_x Tr K_(1|x), read
    off the traces of the products, plus its operators' gains.  With the
    default 32 restarts of CHSH, 55-62% of the operators are certified and
    skip the eigensolver at eq8 d=8, eq10 ds=4 to 16 and prop1 m=1 and 2,
    32-44% at eq8 d=3 and 4 and 10% at eq8 d=2.  Each restart stops on its
    own, once a sweep gains less than _STEP_TOL, or after _MAX_SWEEPS sweeps.
    At ds=16 a half-step's product with R (23 rows) takes about 0.35 ms
    against 4.7 ms for the dense GEMM, and the whole seesaw about 37 ms,
    against 64 ms when every operator went through eigh (best of 15 in
    process, one BLAS thread).

    Parameters
    ----------
    rho : CMatrix
        Bipartite state (any factor interleaving; it is regrouped).
    f : BellFunctional
        Must have binary outcomes on both sides.
    restarts, seed
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
    _, bob_outputs = _optimal_deterministic(f)
    r = _realigned(rho, "seesaw")
    da, db = r.da, r.db
    rng = np.random.default_rng(seed)
    n = restarts + 1
    # consecutive groups whose sizes differ by at most 1, each within the budget
    groups = -(-n // max(1, _GROUP_BYTES // (16 * max(f.nx * da * da, f.ny * db * db))))
    finals, best = [], None
    for g in range(groups):
        first, size = len(finals), n // groups + (g < n % groups)
        draws = min(size, restarts - first)
        starts = [random_seesaw_starts(rng, draws, f.nx, da, f.ny, db)] if draws else []
        if first + size == n:
            starts.append(np.array([[np.eye(db) * (b == 0) for b in bob_outputs]],
                                   dtype=np.complex128))
        group_finals, top = _seesaw_group(r, f, np.concatenate(starts))
        # a later group's restarts come later, so only a higher value wins
        if best is None or top[0] > best[0]:
            best = top
        finals += group_finals.tolist()
    value, alice, bob, history, converged, iterations = best
    return SeesawResult(
        value=value,
        measurements=MeasurementFamily(np.stack([alice, np.eye(da) - alice], axis=1),
                                       np.stack([bob, np.eye(db) - bob], axis=1)),
        history=history,
        restart_values=tuple(finals),
        converged=converged,
        iterations=iterations,
    )


def _seesaw_group(r, f: BellFunctional, bob: np.ndarray) -> tuple[np.ndarray, tuple]:
    """Run the restarts that start from Bob's effects ``bob`` in lockstep.

    Returns every restart's final value and, for the first restart reaching
    the best of them, (value, alice, bob, history, converged, iterations):
    its last projectors E_0, copied as it stops, and its per-half-step
    values.  No other restart's projectors are kept.
    """
    alice_response = _best_response(functools.partial(r.times, transpose=True), f.coeffs, r.db)
    bob_response = _best_response(r.times, f.coeffs.transpose(1, 0, 3, 2), r.da)
    n = len(bob)
    active = np.arange(n)
    prev = np.full(n, -math.inf)
    finals = np.empty(n)
    iterations = np.zeros(n, dtype=int)
    converged = np.zeros(n, dtype=bool)
    k, last = -1, None
    trail = []  # per sweep, both half-step values of every restart, NaN once it stopped
    for sweep in range(1, _MAX_SWEEPS + 1):
        alice, val_a = alice_response(bob)
        bob, val_b = bob_response(alice)
        step = np.full((2, n), np.nan)
        step[:, active] = val_a, val_b
        trail.append(step)
        done = val_b - prev < _STEP_TOL
        stop = done | (sweep == _MAX_SWEEPS)
        ids = active[stop]
        finals[ids], iterations[ids], converged[ids] = val_b[stop], sweep, done[stop]
        if ids.size:
            # the first stopping restart with their best value, against the best so far
            j = np.flatnonzero(stop)[np.argmax(val_b[stop])]
            i = active[j]
            if k < 0 or finals[i] > finals[k] or (finals[i] == finals[k] and i < k):
                k, last = i, (alice[j].copy(), bob[j].copy())
        active, prev, bob = active[~stop], val_b[~stop], bob[~stop]
        if not active.size:
            break
    history = tuple(np.array(trail)[:iterations[k], :, k].reshape(-1).tolist())
    return finals, (float(finals[k]), *last, history, bool(converged[k]), int(iterations[k]))


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
                 restarts: int, seed: int) -> BoundReport:
    """Seesaw value of rho against classical_value(f) + excess, up to TOL.verdict.

    Every violation bound here has this shape: the best value the seesaw
    finds on the state, at most the classical value plus a closed-form
    excess (a shrunk maximal quantum violation).
    """
    lhs = seesaw(rho, f, restarts=restarts, seed=seed).value
    return BoundReport(context, lhs, classical_value(f) + excess)


def d_eps_membership(rho: CMatrix, sigma_candidate: CMatrix) -> float:
    """Certified epsilon: trace norm of the transposed difference to the candidate.

    Both states must carry the same layout: on another layout of equal
    dimension the difference is not that of two states on one system.  The
    call makes two partial transposes and one trace norm; the difference
    merges the transposes' nonzeros position by position with the dense
    subtraction's exact arithmetic, so no dense matrix is made and neither
    state is written.
    """
    layout = _require_layout(rho, "d_eps_membership")
    if not isinstance(sigma_candidate, CMatrix) or sigma_candidate.layout != layout:
        raise ValidationError(f"d_eps_membership needs both states on the layout {layout.factors}")
    return trace_norm(_difference(partial_transpose(rho), partial_transpose(sigma_candidate)))


def thm1_bound(f: BellFunctional, meas: MeasurementFamily, rho: CMatrix,
               sigma: CMatrix) -> BoundReport:
    """Check |Tr S rho - Tr S sigma| <= opnorm(S^PT) tracenorm(rho^PT - sigma^PT)."""
    s_op = bell_operator(f, meas)
    lhs = abs(functional_value(f, box_from(rho, meas)) -
              functional_value(f, box_from(sigma, meas)))
    rhs = op_norm(partial_transpose(s_op)) * d_eps_membership(rho, sigma)
    return BoundReport("fixed-measurement transposition bound", lhs, rhs)


def certificate_rows(target: str, restarts: int, seed: int, **point) -> list[BoundReport]:
    """The rows that check one paper target at one grid point.

    ``eq8`` takes ``d``, ``eq10`` takes ``ds`` and ``prop1`` takes ``m`` and
    ``q``.  The first row is the CHSH seesaw value (``restarts``, ``seed``)
    against the classical value 2 plus the target's closed-form excess:
    CHSH's quantum maximum 2 sqrt 2 shrunk by the target's distance.  On
    eq8's swap private bit it is the only row.  eq10's PPT-padded private bit
    and prop1's hiding state add the PPT row (minus the least eigenvalue of
    the partial transpose, at most TOL.psd) and the ``distance`` row
    (d_eps_membership to the companion, at most 1/sqrt(ds)) or the ``delta``
    row (at most 2^-m); prop1's seesaw runs on rho x rho^PT.
    """
    if target not in _TARGET_POINTS or sorted(point) != sorted(_TARGET_POINTS[target]):
        raise ValidationError(f"no target {target!r} with the grid keywords {sorted(point)}; "
                              f"targets and their keywords: {_TARGET_POINTS}")
    if target == "eq8":
        d = point["d"]
        return [seesaw_bound(chsh(), private_bit(swap_x(d)),
                             (math.sqrt(2.0) + 1.0) / (2.0 * math.sqrt(2.0) * d),
                             f"eq8 d={d}", restarts, seed)]
    if target == "eq10":
        ds = point["ds"]
        name, fam = f"eq10 ds={ds}", ppt_pbit(ds)
        return [
            seesaw_bound(chsh(), fam.rho, _CHSH_Q / math.sqrt(ds), name, restarts, seed),
            BoundReport(f"{name} ppt", -min_eigenvalue(partial_transpose(fam.rho)), TOL.psd,
                        tol=0.0),
            BoundReport(f"{name} distance", d_eps_membership(fam.rho, fam.sigma_candidate),
                        fam.params["distance_bound"]),
        ]
    m = point["m"]
    name, fam = f"prop1 m={m}", hiding_state(m=m, d_shield=2, q=point["q"])
    doubled = tensor(fam.rho, partial_transpose(fam.rho))
    return [
        seesaw_bound(chsh(), doubled, _CHSH_Q / 2.0 ** (m - 1), name, restarts, seed),
        BoundReport(f"{name} ppt", -min_eigenvalue(partial_transpose(fam.rho)), TOL.psd, tol=0.0),
        BoundReport(f"{name} delta", fam.params["delta"], 0.5**m),
    ]
