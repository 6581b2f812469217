"""Timing spans recorded from outside ptbounds by rebinding its module attributes.

A wrapped function records one span per call: name, start, end and the index
of the enclosing span.  Nothing under ``src/`` changes; the wrappers replace
every reference to the original function held by a loaded ``ptbounds``
module, so calls between modules (``cli`` -> ``bell.seesaw`` -> ``linalg``)
all pass through them, and ``restore`` puts the originals back.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import statistics
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable

# The public functions timed per layer, as (module, function) pairs.
TARGETS: tuple[tuple[str, str], ...] = (
    ("linalg", "partial_transpose"),
    ("linalg", "permute_factors"),
    ("linalg", "tensor"),
    ("linalg", "trace_norm"),
    ("linalg", "op_norm"),
    ("linalg", "psd_sqrt"),
    ("linalg", "assert_density"),
    ("linalg", "rel_entropy"),
    ("linalg", "matrix_to_json"),
    ("linalg", "matrix_from_json"),
    ("states", "swap_x"),
    ("states", "fourier_xy"),
    ("states", "private_bit"),
    ("states", "ppt_pbit"),
    ("states", "hiding_state"),
    ("bell", "classical_value"),
    ("bell", "box_from"),
    ("bell", "seesaw"),
    ("bell", "d_eps_membership"),
    ("nonlocality", "nonlocality_N"),
    ("nonlocality", "thm2_chain_check"),
    ("nonlocality", "er_upper"),
    ("rand", "random_binary_projective"),
    ("cli", "main"),
)

OP = "op"


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 at top level


def self_times(spans: list[Span]) -> dict[str, float]:
    """Per name: each span's duration minus the part its child spans cover.

    The benchmark runs one thread, so the children of a span never overlap
    and the part they cover is the sum of their durations.
    """
    out: dict[str, float] = defaultdict(float)
    for s in spans:
        out[s.name] += s.end - s.start
        if s.parent >= 0:
            out[spans[s.parent].name] -= s.end - s.start
    return dict(out)


class Tracer:
    """Span recorder.  Wrappers record only while ``active`` is true."""

    def __init__(self):
        self.spans: list[Span] = []
        self.active = False
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        # name -> hook(args, kwargs, result) -> small record kept per call
        self.capture: dict[str, Callable] = {}
        self.captured: dict[str, list] = defaultdict(list)

    @contextlib.contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(idx)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[idx] = Span(name, start, end, parent)

    def wrap(self, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            with self.span(name):
                result = fn(*args, **kwargs)
            hook = self.capture.get(name)
            if hook is not None:
                self.captured[name].append(hook(args, kwargs, result))
            return result

        return traced

    def install(self) -> None:
        """Replace each target in every loaded ptbounds module that holds it."""
        for mod_name, _ in TARGETS:
            importlib.import_module(f"ptbounds.{mod_name}")
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "ptbounds" or key.startswith("ptbounds."))]
        for mod_name, fn_name in TARGETS:
            original = getattr(sys.modules[f"ptbounds.{mod_name}"], fn_name)
            wrapper = self.wrap(f"{mod_name}.{fn_name}", original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._restore.append((module, attr, original))

    def restore(self) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()


def per_span_cost() -> float:
    """Median seconds a wrapper adds to one call, measured on a no-op function."""

    def noop():
        return None

    calls = 2000
    costs = []
    for _ in range(7):
        tracer = Tracer()
        wrapped = tracer.wrap("noop", noop)
        tracer.active = True
        t0 = time.perf_counter()
        for _ in range(calls):
            noop()
        t1 = time.perf_counter()
        for _ in range(calls):
            wrapped()
        t2 = time.perf_counter()
        costs.append(((t2 - t1) - (t1 - t0)) / calls)
    return max(statistics.median(costs), 0.0)
