"""Seeded draws of random binary projective measurements.

``random_binary_projective`` draws one measurement per call from a Haar-like
unitary: the QR decomposition of a complex Gaussian, each column of Q rotated
by the phase of R's diagonal (Mezzadri, Notices AMS 54, 592 (2007)).
``random_seesaw_starts`` draws Bob's starting projectors for the seesaw, a
group of restarts at a time, in one stacked QR per group.  A projector onto
the span of a complex Gaussian's first r columns is Haar-distributed whatever
Q's column phases, so no phase fix is applied there.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

import numpy as np


def random_binary_projective(rng: np.random.Generator, d: int) -> list[np.ndarray]:
    """Two-outcome projective measurement with a random rank split."""
    q, r = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    diag = np.diagonal(r)
    u = q * (diag / np.abs(diag))
    rank = int(rng.integers(1, d)) if d > 1 else 1
    p = u[:, :rank] @ u[:, :rank].conj().T
    return [p, np.eye(d) - p]


def random_seesaw_starts(seed: int, ny: int, d: int,
                         counts: Iterable[int]) -> Iterator[np.ndarray]:
    """Bob's first effects E_0 for consecutive groups of random seesaw starts.

    Yields one array of shape (count, ny, d, d) per entry of ``counts``,
    drawn only when the iterator is advanced.  Each effect projects onto the
    span of the first r columns of a d x (d - 1) complex Gaussian, its rank
    r uniform in 1..d-1; at d = 1 it is exactly I and nothing is drawn.  The
    ranks and the Gaussians come from two generators spawned from ``seed``,
    restart after restart, so restart k's start depends only on the seed and
    on k, not on how the restarts are grouped.  Each group decomposes its
    Gaussians with one stacked QR and forms its projectors with one stacked
    matmul per distinct rank.
    """
    rank_rng, gauss_rng = map(np.random.default_rng, np.random.SeedSequence(seed).spawn(2))
    for count in counts:
        yield _projectors(rank_rng, gauss_rng, count * ny, d).reshape(count, ny, d, d)


def _projectors(rank_rng: np.random.Generator, gauss_rng: np.random.Generator,
                n: int, d: int) -> np.ndarray:
    """The next n starting projectors of random_seesaw_starts, shape (n, d, d).

    A function of its own, so that the Gaussians and Q are freed before the
    seesaw runs the group, not held by the suspended generator.
    """
    if d == 1:
        return np.ones((n, 1, 1), dtype=np.complex128)
    ranks = rank_rng.integers(1, d, size=n)
    z = gauss_rng.standard_normal((n, d, d - 1, 2)).view(np.complex128)[..., 0]
    q = np.linalg.qr(z)[0]
    out = np.empty((n, d, d), dtype=np.complex128)
    # a set, not np.unique, whose first call in a process adds about 1 MB of RSS
    for rank in set(ranks.tolist()):
        sel = ranks == rank
        cols = q[sel, :, :rank]
        out[sel] = cols @ cols.conj().transpose(0, 2, 1)
    return out
