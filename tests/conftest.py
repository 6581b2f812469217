"""Shared fixtures: the CHSH functional, Tsirelson measurements, key-qubit lifts,
and seeded generators of random states, measurements and filters."""

import math

import numpy as np
import pytest

from ptbounds import CMatrix, MeasurementFamily, SystemLayout, chsh, max_entangled, spectral_norm

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
    return g / spectral_norm(g)


@pytest.fixture(scope="session")
def chsh_functional():
    return chsh()


@pytest.fixture(scope="session")
def tsirelson_meas():
    return tsirelson_measurements()


@pytest.fixture(scope="session")
def phi_plus():
    return max_entangled(2)
