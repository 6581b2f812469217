"""Seeded generators for states, measurements and filters used in tests and restarts."""

from __future__ import annotations

import numpy as np

from .linalg import CMatrix, SystemLayout, spectral_norm


def random_unitary(rng: np.random.Generator, d: int) -> np.ndarray:
    """Haar-like unitary from the QR decomposition of a complex Gaussian."""
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_hermitian(rng: np.random.Generator, d: int, scale: float = 1.0) -> np.ndarray:
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return scale * (z + z.conj().T) / 2.0


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


def random_separable(rng: np.random.Generator, da: int, db: int,
                     terms: int = 8) -> CMatrix:
    """Random mixture of product pure states: separable by construction."""
    w = rng.dirichlet(np.ones(terms))
    out = np.zeros((da * db, da * db), dtype=np.complex128)
    for t in range(terms):
        out += w[t] * np.kron(random_pure(rng, da), random_pure(rng, db))
    return CMatrix(out, SystemLayout.bipartite(da, db))


def random_binary_projective(rng: np.random.Generator, d: int) -> list[np.ndarray]:
    """Two-outcome projective measurement with a random rank split."""
    u = random_unitary(rng, d)
    rank = int(rng.integers(1, d)) if d > 1 else 1
    p = u[:, :rank] @ u[:, :rank].conj().T
    return [p, np.eye(d) - p]


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
