"""Seeded generators for states, measurements and filters used in tests and restarts.

Haar-like unitaries follow Mezzadri, Notices AMS 54, 592 (2007): the QR
decomposition of a complex Gaussian, each column of Q rotated by the phase
of R's diagonal.  ``random_binary_projective`` draws one measurement per
call; ``random_seesaw_starts`` draws the starts of a whole seesaw run as that
function would, one measurement after another, but decomposes them all
with one stacked QR.
"""

from __future__ import annotations

import numpy as np

from .linalg import CMatrix, SystemLayout, spectral_norm


def _haar_unitaries(z: np.ndarray) -> np.ndarray:
    """Q of each complex Gaussian z[..., :, :], its columns phase-fixed by R's diagonal."""
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (diag / np.abs(diag))[..., None, :]


def random_unitary(rng: np.random.Generator, d: int) -> np.ndarray:
    """Haar-like unitary from the QR decomposition of a complex Gaussian."""
    return _haar_unitaries(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))


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


def _random_rank(rng: np.random.Generator, d: int) -> int:
    """Rank of a random binary projector: uniform in 1..d-1, or 1 (no draw) at d = 1."""
    return int(rng.integers(1, d)) if d > 1 else 1


def random_binary_projective(rng: np.random.Generator, d: int) -> list[np.ndarray]:
    """Two-outcome projective measurement with a random rank split."""
    u = random_unitary(rng, d)
    rank = _random_rank(rng, d)
    p = u[:, :rank] @ u[:, :rank].conj().T
    return [p, np.eye(d) - p]


def random_seesaw_starts(rng: np.random.Generator, restarts: int, nx: int, da: int,
                         ny: int, db: int) -> np.ndarray:
    """Bob's first effects for ``restarts`` random seesaw starts, shape (restarts, ny, db, db).

    Each start consumes what ``random_binary_projective`` draws for each of
    Alice's nx inputs (dimension da), then for each of Bob's ny inputs.
    Alice's draws only advance the generator, since the seesaw replaces her
    start by a best response.  Bob's Gaussians go through one stacked QR,
    and his projectors come from one stacked matmul per distinct rank, so
    each product has the shapes, and hence the rounding, of the one-draw
    path: every effect equals ``random_binary_projective(rng, db)[0]`` bit
    for bit, and the generator ends in the same state.
    """
    gauss, ranks = [], []
    for _ in range(restarts):
        for _ in range(nx):
            rng.normal(size=(2, da, da))
            _random_rank(rng, da)
        for _ in range(ny):
            gauss.append(rng.normal(size=(2, db, db)))
            ranks.append(_random_rank(rng, db))
    gauss, ranks = np.array(gauss), np.array(ranks)
    u = _haar_unitaries(gauss[:, 0] + 1j * gauss[:, 1])
    out = np.empty_like(u)
    # a set, not np.unique, whose first call in a process adds about 1 MB of RSS
    for rank in set(ranks.tolist()):
        sel = ranks == rank
        cols = u[sel, :, :rank]
        out[sel] = cols @ cols.conj().transpose(0, 2, 1)
    return out.reshape(restarts, ny, db, db)


def random_binary_povm(rng: np.random.Generator, d: int) -> list[np.ndarray]:
    """Two-outcome POVM: a PSD effect scaled under the identity, and its complement."""
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    e = g @ g.conj().T
    e = e / (np.linalg.eigvalsh(e).max() * (1.0 + rng.uniform(0.05, 1.0)))
    return [e, np.eye(d) - e]


def random_filter(rng: np.random.Generator, d: int) -> np.ndarray:
    """General operator rescaled to operator norm one (largest singular value)."""
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return g / spectral_norm(g)
