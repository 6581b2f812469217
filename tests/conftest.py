"""Shared fixtures: the CHSH functional, Tsirelson measurements, key-qubit lifts,
seeded generators of random states, measurements and filters, and the dense
references of the spectral functions, of the realigned state and of the
state builders."""

import math
from functools import reduce

import numpy as np
import pytest

from ptbounds import (
    CMatrix,
    MeasurementFamily,
    SystemLayout,
    ValidationError,
    chsh,
    collect_parties,
    max_entangled,
    min_eigenvalue,
    op_norm,
    spectral_norm,
    tensor,
    trace_norm,
)
from ptbounds.config import TOL

PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=np.complex128)
PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128)


def binary_povm_from_observable(obs: np.ndarray) -> list[np.ndarray]:
    """Two-outcome POVM (I + O)/2, (I - O)/2 for an observable with eigenvalues +-1."""
    eye = np.eye(obs.shape[0], dtype=np.complex128)
    return [(eye + obs) / 2.0, (eye - obs) / 2.0]


def tsirelson_measurements() -> MeasurementFamily:
    """Qubit measurements achieving 2 sqrt(2) on the maximally entangled pair."""
    alice = [binary_povm_from_observable(PAULI_Z), binary_povm_from_observable(PAULI_X)]
    bob = [
        binary_povm_from_observable((PAULI_Z + PAULI_X) / math.sqrt(2.0)),
        binary_povm_from_observable((PAULI_Z - PAULI_X) / math.sqrt(2.0)),
    ]
    return MeasurementFamily(alice, bob)


def key_lifted_measurements(d_shield: int) -> MeasurementFamily:
    """Tsirelson qubit measurements on the key qubits, identity on the shields."""
    base = tsirelson_measurements()
    lift = lambda povm: [np.kron(e, np.eye(d_shield)) for e in povm]
    return MeasurementFamily([lift(p) for p in base.alice], [lift(p) for p in base.bob])


def random_hermitian(rng: np.random.Generator, d: int) -> np.ndarray:
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return (z + z.conj().T) / 2.0


def random_density(rng: np.random.Generator, d: int) -> np.ndarray:
    """Full-rank density matrix G G+ / tr, G a complex Gaussian square matrix."""
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    m = g @ g.conj().T
    return m / np.trace(m).real


def random_pure(rng: np.random.Generator, d: int) -> np.ndarray:
    v = rng.normal(size=d) + 1j * rng.normal(size=d)
    v = v / np.linalg.norm(v)
    return np.outer(v, v.conj())


def random_bipartite_density(rng: np.random.Generator, da: int, db: int) -> CMatrix:
    return CMatrix(random_density(rng, da * db), SystemLayout.bipartite(da, db))


def random_separable(rng: np.random.Generator, da: int, db: int) -> CMatrix:
    """Random mixture of eight product pure states: separable by construction."""
    out = np.zeros((da * db, da * db), dtype=np.complex128)
    for w in rng.dirichlet(np.ones(8)):
        out += w * np.kron(random_pure(rng, da), random_pure(rng, db))
    return CMatrix(out, SystemLayout.bipartite(da, db))


def random_binary_povm(rng: np.random.Generator, d: int) -> list[np.ndarray]:
    """Two-outcome POVM: a PSD effect scaled under the identity, and its complement."""
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    e = g @ g.conj().T
    e = e / (np.linalg.eigvalsh(e).max() * (1.0 + rng.uniform(0.05, 1.0)))
    return [e, np.eye(d) - e]


def random_filter(rng: np.random.Generator, d: int) -> np.ndarray:
    """General operator rescaled to operator norm one (largest singular value)."""
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return g / spectral_norm(CMatrix(g))


# The dense reference of linalg's spectral functions, which read only a
# CMatrix.  Each takes a dense array, finds the blocks of its nonzero pattern
# by breadth-first search, gathers them by numpy indexing and solves one
# stack per block size, as linalg does; so every value below equals the
# library's on CMatrix(a) bit for bit, and a block or a gather that the
# library gets wrong shows as a difference.  Each refuses what the library
# refuses with the same message, the hermitian deviation read densely.


def dense_pattern(a):
    """The symmetric nonzero pattern (a != 0) | (a != 0)^T."""
    nz = a != 0
    return nz | nz.T


def bfs_components(adj):
    """Isolated indices and the other components of a symmetric pattern, each sorted.

    Breadth-first search with a boolean frontier, one component at a time, in
    order of their smallest index; ``adj`` is left as it was.
    """
    adj = adj.copy()
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


def bfs_groups(arr, vectors=False):
    """The block solves of arr from the breadth-first components: (idx, w, v) for the
    isolated indices first, then one stacked solve per block size, ascending,
    each size's blocks in order of their smallest index; v is None unless
    ``vectors``.  A matrix that is one block is one plain solve."""
    solve = np.linalg.eigh if vectors else (lambda a: (np.linalg.eigvalsh(a), None))
    single, blocks = bfs_components(dense_pattern(arr))
    if not single.size and len(blocks) == 1:
        w, v = solve(arr)
        return [(blocks[0][None], w[None], None if v is None else v[None])]
    groups = []
    if single.size:
        groups.append((single[:, None], arr[single, single].real[:, None],
                       np.ones((single.size, 1, 1)) if vectors else None))
    by_size = {}
    for block in blocks:
        by_size.setdefault(block.size, []).append(block)
    for size in sorted(by_size):
        idx = np.array(by_size[size])
        groups.append((idx, *solve(arr[idx[:, :, None], idx[:, None, :]])))
    return groups


def eigvals_of(groups):
    """The eigenvalues of every block solve in ``groups``, ascending."""
    return np.sort(np.concatenate([g[1].reshape(-1) for g in groups]))


def dense_eigvalsh(a):
    """All eigenvalues of a hermitian matrix, ascending, from its block solves."""
    return eigvals_of(bfs_groups(a))


def dense_check(a, what, tol=TOL.assertion):
    """The hermitian deviation max |a - a^dagger|, refused when non-finite or above tol."""
    with np.errstate(invalid="ignore"):
        dev = float(np.abs(a - a.conj().T).max())
    if not math.isfinite(dev):
        raise ValidationError(f"{what} expects a finite matrix")
    if dev > tol:
        raise ValidationError(f"{what} expects a hermitian matrix, deviation {dev:.3e}")
    return dev


def dense_trace_norm(a):
    if dense_check(a, "trace_norm", math.inf) <= TOL.assertion:
        return float(np.abs(dense_eigvalsh(a)).sum())
    return float(np.linalg.svd(a, compute_uv=False).sum())


def dense_op_norm(a):
    dense_check(a, "op_norm")
    return float(np.abs(dense_eigvalsh(a)).max())


def dense_min_eigenvalue(a):
    dense_check(a, "min_eigenvalue")
    return float(dense_eigvalsh(a)[0])


def dense_spectral(a):
    """trace_norm, op_norm and min_eigenvalue, each with its dense value."""
    return {trace_norm: dense_trace_norm(a), op_norm: dense_op_norm(a),
            min_eigenvalue: dense_min_eigenvalue(a)}


def dense_psd_sqrt(a):
    """V sqrt(w) V^dagger per block, eigenvalues <= TOL.eig_floor floored to 0."""
    dense_check(a, "psd_sqrt")
    groups = bfs_groups(a, vectors=True)
    low = float(eigvals_of(groups)[0])
    if low < -TOL.psd:
        raise ValidationError(f"psd_sqrt got a matrix with eigenvalue {low:.3e}")
    out = np.zeros(a.shape, dtype=np.complex128)
    for idx, w, v in groups:
        root = np.sqrt(np.where(w <= TOL.eig_floor, 0.0, w))
        out[idx[:, :, None], idx[:, None, :]] = (v * root[:, None, :]) @ v.conj().swapaxes(1, 2)
    return out


def dense_density_groups(a, what, tol=TOL.assertion, psd_tol=TOL.psd, vectors=False):
    """The block solves of a once it passes as a density matrix."""
    dense_check(a, what)
    tr = complex(a.diagonal().sum())
    if abs(tr - 1.0) > tol:
        raise ValidationError(f"{what} must have unit trace, got {tr}")
    groups = bfs_groups(a, vectors)
    low = eigvals_of(groups)[0]
    if float(low) < -psd_tol:
        raise ValidationError(f"{what} must be PSD, minimum eigenvalue {low:.3e}")
    return groups


def dense_assert_density(a, what):
    dense_density_groups(a, what)


def dense_rel_entropy(r, s):
    """S(r || s) in bits over s's blocks, math.inf when r has weight on s's kernel."""
    if r.shape != s.shape:
        raise ValidationError("rel_entropy needs matrices of equal dimension")
    wr = eigvals_of(dense_density_groups(r, "rel_entropy rho", TOL.support, TOL.support))
    overlap, term_cross = 0.0, 0.0
    for idx, ws, vs in dense_density_groups(s, "rel_entropy sigma", TOL.support, TOL.support,
                                            vectors=True):
        weights = np.einsum("kji,kjl,kli->ki", vs.conj(), r[idx[:, :, None], idx[:, None, :]],
                            vs).real
        kernel = ws <= TOL.eig_floor
        overlap += float(weights[kernel].sum())
        term_cross += float((weights[~kernel] * np.log2(ws[~kernel])).sum())
    if overlap > TOL.support:
        return math.inf
    wr = wr[wr > TOL.eig_floor]
    return max(float((wr * np.log2(wr)).sum()) - term_cross, 0.0)


# The dense reference of the realigned state the seesaw and box_from read, which
# linalg keeps as its connected blocks.


def dense_realigned(rho):
    """R[(a',a),(b',b)] = rho[(a',b'),(a,b)] as one dense array, from rho's parties
    collected A before B: each nonzero is placed at its realigned position."""
    coll = collect_parties(rho)
    da, db = coll.layout.dim_of("A"), coll.layout.dim_of("B")
    a1, b1, a2, b2 = np.unravel_index(coll.pos, (da, db, da, db))
    r = np.zeros((da * da, db * db), dtype=np.complex128)
    r[a1 * da + a2, b1 * db + b2] = coll.vals
    return r


def dense_of_blocks(realigned):
    """The dense matrix a linalg._Realigned holds: each block written at its rows and
    columns of a zero matrix."""
    out = np.zeros((realigned.da ** 2, realigned.db ** 2), dtype=np.complex128)
    for rows, cols, blocks in realigned.groups:
        out[rows[:, :, None], cols[:, None, :]] = blocks
    return out


# The dense builders that states replaced: each fills its d^2 x d^2 array, and
# the hiding shields' factors are read off the dense Werner states.


def dense_swap(d):
    """The swap F on C^d x C^d: one 1 in row i*d + j, at column j*d + i."""
    f = np.zeros((d * d, d * d), dtype=np.complex128)
    f[np.arange(d * d), np.arange(d * d).reshape(d, d).T.reshape(-1)] = 1.0
    return f


def dense_swap_x(d):
    return dense_swap(d) / d**2


def dense_max_entangled(d):
    v = np.zeros(d * d, dtype=np.complex128)
    v[:: d + 1] = 1.0 / math.sqrt(d)
    return np.outer(v, v.conj())


def dense_werner_state(d, kind):
    f = dense_swap(d)
    eye = np.eye(d * d, dtype=np.complex128)
    proj = (eye + f) / 2.0 if kind == "symmetric" else (eye - f) / 2.0
    return proj / np.trace(proj).real


def dense_hiding_blocks(m, d_shield, q):
    """hiding_state's key blocks from the dense Werner factors: the m-th power under
    tensor of each factor's CMatrix, divided by the normalization, as dense arrays."""
    tau2 = dense_werner_state(d_shield, "symmetric")
    tau1 = (dense_werner_state(d_shield, "antisymmetric") + tau2) / 2.0
    norm = 2.0 * q**m + 2.0 * (0.5 - q) ** m
    corner, outer, middle = (reduce(tensor, [CMatrix(factor)] * m).mat / norm
                             for factor in (q * (tau1 - tau2) / 2.0, q * (tau1 + tau2) / 2.0,
                                            (0.5 - q) * tau2))
    return {(0, 0): outer, (3, 3): outer, (0, 3): corner, (3, 0): corner,
            (1, 1): middle, (2, 2): middle}


@pytest.fixture(scope="session")
def chsh_functional():
    return chsh()


@pytest.fixture(scope="session")
def tsirelson_meas():
    return tsirelson_measurements()


@pytest.fixture(scope="session")
def phi_plus():
    return max_entangled(2)
