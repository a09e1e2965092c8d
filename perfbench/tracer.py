"""Outside-in spans around the calls the benchmark makes into spectralvol.

A wrapper is installed at the name a caller looks a function up by: for
example ``spectralvol.experiments.simulate_latent`` (the name ``experiments``
imported) rather than ``spectralvol.market.simulate_latent``, which
``experiments`` never reads.  No file of the program changes.

Spans hold (id, name, start, end, parent, request, thread, attrs).  They are
kept in memory while the benchmark runs and written out by the caller when
the run ends.  A span opened on a thread with no open span of its own (a
worker of the experiment thread pool) takes as parent the innermost open span
of the client thread, so spans of the ``--threads 2`` pass nest correctly.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import threading
import time

# (lookup module, attribute, span name).  A span name is
# "<defining module>.<function>"; the same function can be looked up at more
# than one place, and each place gets a wrapper with the same span name.
WRAP_POINTS = [
    ("spectralvol.experiments", "simulate_latent", "market.simulate_latent"),
    ("spectralvol.experiments", "observe", "market.observe"),
    ("spectralvol.experiments", "derive_seed", "market.derive_seed"),
    ("spectralvol.market", "read_observations_csv", "market.read_observations_csv"),
    ("spectralvol.basis", "basis_columns", "basis.basis_columns"),
    ("spectralvol.estimators", "basis_columns", "basis.basis_columns"),
    ("spectralvol.experiments", "basis_columns", "basis.basis_columns"),
    ("spectralvol.estimators", "siml", "estimators.siml"),
    ("spectralvol.estimators", "ina", "estimators.ina"),
    ("spectralvol.estimators", "mm_fourier_complex", "estimators.mm_fourier_complex"),
    ("spectralvol.experiments", "noise_expectation_exact", "estimators.noise_expectation_exact"),
    ("spectralvol.likelihood", "spectral_transform", "likelihood.spectral_transform"),
    ("spectralvol.likelihood", "joint_mle", "likelihood.joint_mle"),
    ("spectralvol.experiments", "run_experiment", "experiments.run_experiment"),
    ("spectralvol.cli", "parse_config", "cli.parse_config"),
]


def _mle_attrs(result) -> dict:
    return {"sweeps": int(result.sweeps), "converged": bool(result.converged)}


ATTR_HOOKS = {"likelihood.joint_mle": _mle_attrs}

ROOT_SPAN = "bench.request"


class Tracer:
    """Records spans while ``active``; wrappers pass straight through otherwise."""

    def __init__(self):
        self.spans: list[list] = []
        self.active = False
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._client_stack: list | None = None
        self._request: int | None = None
        self._installed: list[tuple[object, str, object]] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> list:
        stack = self._stack()
        if stack:
            parent = stack[-1][0]
        elif self._client_stack:
            parent = self._client_stack[-1][0]
        else:
            parent = None
        span = [next(self._ids), name, time.perf_counter(), None, parent,
                self._request, threading.get_ident(), None]
        stack.append(span)
        return span

    def _close(self, span: list, attrs: dict | None = None) -> None:
        span[3] = time.perf_counter()
        span[7] = attrs
        self._stack().pop()
        with self._lock:
            self.spans.append(span)

    @contextlib.contextmanager
    def request(self, request_id: int):
        """Trace one operation under a root span on the calling (client) thread."""
        self._request = request_id
        self._client_stack = self._stack()
        self.active = True
        span = self._open(ROOT_SPAN)
        try:
            yield
        finally:
            self._close(span)
            self.active = False
            self._client_stack = None
            self._request = None

    def _wrap(self, fn, name: str):
        hook = ATTR_HOOKS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span = self._open(name)
            attrs = None
            try:
                result = fn(*args, **kwargs)
                if hook is not None:
                    attrs = hook(result)
                return result
            finally:
                self._close(span, attrs)

        return wrapper

    def install(self) -> None:
        for module_name, attr, span_name in WRAP_POINTS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._installed.append((module, attr, original))
            setattr(module, attr, self._wrap(original, span_name))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed.clear()

    def reset(self) -> None:
        self.spans = []


def self_times(spans: list[list]) -> dict[int, float]:
    """Span id -> duration minus the part of it covered by its children.

    Children may run on several threads and overlap, so their intervals are
    merged before being subtracted.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span[4] is not None:
            children.setdefault(span[4], []).append((span[2], span[3]))
    out = {}
    for span in spans:
        sid, start, end = span[0], span[2], span[3]
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(sid, ())):
            lo, hi = max(lo, start), min(hi, end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[sid] = (end - start) - covered
    return out
