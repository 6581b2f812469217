"""The nonzero form of a CMatrix against its dense oracle, bit for bit.

The key families (private bits, PPT-padded private bits, hiding states) keep
only their nonzero entries.  The oracle for their construction is the dense
assembly they replaced, kept here: the key blocks written into a zero matrix
of the key-by-shield space and the factors reordered.  The oracle for every
operation on the nonzero form is the same operation on
``CMatrix(x.mat, x.layout)``, the dense matrix of the same entries.
"""

import math
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ptbounds import (
    CMatrix,
    DimensionCapError,
    SystemLayout,
    ValidationError,
    assert_density,
    chsh,
    d_eps_membership,
    min_eigenvalue,
    op_norm,
    partial_transpose,
    permute_factors,
    psd_sqrt,
    rel_entropy,
    seesaw,
    states,
    trace_norm,
)
from ptbounds.linalg import _matrix_json_text, _Nonzeros, _realigned, _sparse


def dense_key_shield_canonical(blocks, shield_factors):
    """The dense assembly: sum |r><c|_keys x block, then factors reordered to A-then-B."""
    n = next(iter(blocks.values())).shape[0]
    full = np.zeros((4 * n, 4 * n), dtype=np.complex128)
    for (r, c), blk in blocks.items():
        full[r * n:(r + 1) * n, c * n:(c + 1) * n] = blk
    layout = SystemLayout(((2, "A"), (2, "B")) + shield_factors)
    return permute_factors(CMatrix(full, layout), layout.axes("A") + layout.axes("B"))


def dense_companion(blocks, shield_factors):
    """The dense key-diagonal companion, normalized by np.trace of its dense matrix."""
    sigma = dense_key_shield_canonical(
        {key: blk for key, blk in blocks.items() if key[0] == key[1]}, shield_factors)
    return CMatrix(sigma.mat / np.trace(sigma.mat).real, sigma.layout)


def bits(x):
    """The bit patterns of a float or of an array; anything else as it is."""
    if isinstance(x, float):
        return struct.pack("<d", x)
    if isinstance(x, np.ndarray):
        return np.ascontiguousarray(x).view(np.uint64).tobytes()
    return x


def nonzero_form(arr, layout=None):
    return CMatrix._of(_Nonzeros.of_dense(np.asarray(arr, dtype=np.complex128)), layout)


FAMILIES = (
    [("private-bit", d, None) for d in (2, 3, 4)]
    + [("ppt-pbit", ds, None) for ds in (4, 9, 16)]
    + [("hiding", m, q) for m in (1, 2, 3) for q in (0.2, 1.0 / 3.0, 0.4)]
)


def build(family, k, q):
    if family == "private-bit":
        return states.private_bit(states.swap_x(k)), None
    fam = states.ppt_pbit(k) if family == "ppt-pbit" else states.hiding_state(m=k, q=q)
    return fam.rho, fam.sigma_candidate


@pytest.mark.parametrize("family, k, q", FAMILIES)
def test_key_families_match_the_dense_assembly(monkeypatch, family, k, q):
    calls = []
    original = states._key_shield_canonical

    def recording(blocks, shield_factors):
        calls.append((blocks, shield_factors))
        return original(blocks, shield_factors)

    monkeypatch.setattr(states, "_key_shield_canonical", recording)
    rho, sigma = build(family, k, q)
    blocks, shield_factors = calls[0]
    expected = dense_key_shield_canonical(blocks, shield_factors)
    assert _sparse(rho) and rho.layout == expected.layout
    assert bits(rho.mat) == bits(expected.mat)
    if sigma is not None:
        companion = dense_companion(blocks, shield_factors)
        assert _sparse(sigma) and sigma.layout == companion.layout
        assert bits(sigma.mat) == bits(companion.mat)


def test_signed_zeros_stay_entries():
    # conj leaves (0.0, -0.0) in the X+ corner of the swap private bit at d = 3
    rho = states.private_bit(states.swap_x(3))
    vals = rho._data.vals
    assert int((vals == 0).sum()) == 72
    assert np.signbit(vals[vals == 0].imag).all()
    assert _matrix_json_text(rho) == _matrix_json_text(CMatrix(rho.mat, rho.layout))


def same_outcome(fn, *args):
    """fn's result as comparable bytes, or its ValidationError message."""
    try:
        out = fn(*args)
    except ValidationError as exc:
        return "error", str(exc)
    if isinstance(out, tuple):
        return tuple(map(bits, out))
    if isinstance(out, CMatrix):
        return bits(out.mat), out.layout
    return bits(out)


def assert_operations_match_dense(x, y=None):
    """Every operation on the nonzero forms x (and y) equals it on their dense matrices."""
    dense_x = CMatrix(x.mat, x.layout)
    for fn in (trace_norm, min_eigenvalue, op_norm, psd_sqrt, partial_transpose,
               lambda m: _realigned(m, "seesaw"), _matrix_json_text,
               lambda m: min_eigenvalue(partial_transpose(m)),
               lambda m: trace_norm(partial_transpose(m))):
        assert same_outcome(fn, x) == same_outcome(fn, dense_x)
    if y is not None:
        dense_y = CMatrix(y.mat, y.layout)
        for fn in (d_eps_membership, rel_entropy, lambda a, b: rel_entropy(b, a)):
            assert same_outcome(fn, x, y) == same_outcome(fn, dense_x, dense_y)
        density = lambda m: assert_density(m, "state")  # noqa: E731
        assert same_outcome(density, y) == same_outcome(density, dense_y)


@pytest.mark.parametrize("family, k, q", [("private-bit", 3, None), ("ppt-pbit", 4, None),
                                          ("ppt-pbit", 9, None), ("hiding", 2, 1.0 / 3.0),
                                          ("hiding", 3, 0.4)])
def test_operations_on_key_families_match_dense(family, k, q):
    rho, sigma = build(family, k, q)
    if sigma is None:
        # the key-dephased companion of a private bit, also in nonzero form
        keep = np.zeros((2, 2, 2, 2))
        keep[0, 0, 0, 0] = keep[0, 1, 0, 1] = keep[1, 0, 1, 0] = keep[1, 1, 1, 1] = 1.0
        dims = rho.layout.dims
        sigma = nonzero_form((rho.mat.reshape(dims * 2)
                              * keep[:, None, :, None, :, None, :, None]).reshape(rho.dim, -1),
                             rho.layout)
    assert_operations_match_dense(rho, sigma)
    assert_operations_match_dense(partial_transpose(rho))


def sparse_hermitian(draw, n):
    """A hermitian n x n matrix of mostly exact zeros, with signed zeros planted on
    and off the diagonal, empty rows and isolated indices."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    density = draw(st.sampled_from([0.0, 0.05, 0.15, 0.4, 1.0]))
    upper = np.triu(rng.random((n, n)) < density, 1)
    a = np.diag(rng.normal(size=n) * (rng.random(n) < 0.7)).astype(np.complex128)
    a[upper] = rng.normal(size=upper.sum()) + 1j * rng.normal(size=upper.sum())
    a = a + np.triu(a, 1).conj().T
    empty = rng.random(n) < 0.2  # rows and columns with no entry at all
    a[empty] = 0.0
    a[:, empty] = 0.0
    for i, j in np.argwhere((a == 0) & (rng.random((n, n)) < 0.3)):
        # -0.0 in either part, on one side of a pair or on both
        a[i, j] = complex(draw(st.sampled_from([0.0, -0.0])), draw(st.sampled_from([0.0, -0.0])))
    if draw(st.booleans()):
        # a dominant diagonal on the indices that have one, so some draws are PSD
        a = a / max(1.0, float(np.abs(a).sum())) + np.diag((np.diag(a) != 0).astype(float))
    return a


def test_eq10_ds16_rows_match_dense():
    # what repro eq10 --ds 16 reads, on the nonzero form and on the dense
    # matrices; the other operations at this size take 0.7 s and are covered at
    # ds = 4 and 9 above
    fam = states.ppt_pbit(16)
    rho, sigma = fam.rho, fam.sigma_candidate
    dense_rho, dense_sigma = CMatrix(rho.mat, rho.layout), CMatrix(sigma.mat, sigma.layout)
    assert (bits(d_eps_membership(rho, sigma))
            == bits(d_eps_membership(dense_rho, dense_sigma)))
    assert (bits(min_eigenvalue(partial_transpose(rho)))
            == bits(min_eigenvalue(partial_transpose(dense_rho))))
    assert bits(_realigned(rho, "seesaw")[0]) == bits(_realigned(dense_rho, "seesaw")[0])


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4), st.data())
def test_sparse_hermitian_matrices_match_dense(da, db, data):
    layout = SystemLayout.bipartite(da, db)
    a, b = (sparse_hermitian(data.draw, da * db) for _ in range(2))
    x = nonzero_form(a, layout)
    assert bits(x.mat) == bits(a)
    assert_operations_match_dense(x, nonzero_form(b, layout))


@pytest.mark.parametrize("fn, what", [(op_norm, "op_norm"), (min_eigenvalue, "min_eigenvalue"),
                                      (psd_sqrt, "psd_sqrt"),
                                      (lambda m: assert_density(m, "state"), "state")])
@pytest.mark.parametrize("kind", ["one-sided", "unequal", "nan"])
def test_nonzero_form_refuses_what_dense_refuses_with_the_same_message(fn, what, kind):
    a = np.diag([0.5, 0.25, 0.25, 0.0]).astype(np.complex128)
    if kind == "one-sided":
        a[3, 1] = 1e-3  # its partner is not stored at all
    elif kind == "unequal":
        a[0, 2], a[2, 0] = 1e-3 + 1e-3j, 2e-3 + 1e-3j
    else:
        a[1, 2] = a[2, 1] = np.nan
    layout = SystemLayout.bipartite(2, 2)
    messages = []
    for m in (nonzero_form(a, layout), CMatrix(a, layout)):
        with pytest.raises(ValidationError) as info:
            fn(m)
        messages.append(str(info.value))
    assert messages[0] == messages[1]
    assert messages[0].startswith(what)
    assert ("finite" if kind == "nan" else "hermitian") in messages[0]


def test_nonzero_paths_never_build_a_dense_state(monkeypatch):
    # under a cap below the state's dimension, reading ``mat`` fails, so every
    # call that succeeds here worked from the nonzeros alone
    fam = states.ppt_pbit(4)
    rho, sigma = fam.rho, fam.sigma_candidate
    text = _matrix_json_text(CMatrix(rho.mat, rho.layout))
    monkeypatch.setenv("PTBOUND_DIM_CAP", "32")
    with pytest.raises(DimensionCapError):
        rho.mat
    assert _matrix_json_text(rho) == text
    assert d_eps_membership(rho, sigma) <= 0.5
    assert min_eigenvalue(partial_transpose(rho)) >= -1e-10
    assert trace_norm(rho) == pytest.approx(1.0)
    assert seesaw(rho, chsh(), restarts=2).value >= 2.0 - 1e-9


def traced_peak(fn):
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        out = fn()
        return out, tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


def test_ppt_pbit_16_runs_without_a_dense_state():
    # one dense 1024-dim matrix is 16.8 MB.  Measured: 0.79 of one for the build
    # (the dense 256-dim key blocks), 0.012 for d_eps and 1.13 for the seesaw,
    # whose realigned R is one; the dense assembly took 3.7 matrices to build
    # the family and 2.0 for d_eps.
    dense_bytes = 1024 * 1024 * 16
    fam, peak = traced_peak(lambda: states.ppt_pbit(16))
    assert peak < dense_bytes
    eps, peak = traced_peak(lambda: d_eps_membership(fam.rho, fam.sigma_candidate))
    assert peak <= 0.05 * dense_bytes
    assert eps <= 1.0 / math.sqrt(16)
    result, peak = traced_peak(lambda: seesaw(fam.rho, chsh(), restarts=4))
    assert peak <= 1.25 * dense_bytes
    assert result.value >= 2.0 - 1e-9
