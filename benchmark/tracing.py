"""Spans around calls into each package module, recorded from outside.

:meth:`Tracer.install` replaces public functions of ``exactnum``,
``transform``, ``constants`` and ``catalog`` (and the names other modules
imported them under) with wrappers that record a span per call: name, start,
end, parent span and request id; :meth:`Tracer.remove` puts the originals
back, so that untraced code runs exactly as without the tracer. Spans stay
in memory; :meth:`Tracer.write` writes them out at the end of a run and
:func:`layer_totals` turns them into per-layer totals. The package files
themselves are not changed.

The layers: ``exactnum`` (Stirling numbers, Bernoulli numbers), ``transform``
(inner a_l generation, the exact a -> c transform, float summation),
``constants`` (the constant store), ``catalog`` (evaluate, recover, digamma:
head, bridge and exact partial sums) and ``cli`` (timed by ``cli_child.py``).
``asymptotics`` runs only while the catalog is built at import.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass, field

from stirlingsum import asymptotics, catalog, constants, exactnum, transform
from stirlingsum.transform import NonConvergenceError, StirlingCoefficients

# name -> (owner, attribute) pairs that must all point at the same wrapper,
# because callers inside the package use the name they imported.
_PATCHES = {
    "exactnum.stirling_first": [(exactnum, "stirling_first"), (catalog, "stirling_first")],
    "exactnum.bernoulli": [(exactnum, "bernoulli"), (catalog, "bernoulli"),
                           (asymptotics, "bernoulli")],
    "transform.inner": [(transform.InnerCoefficients, "__call__")],
    "transform.series": [(transform, "eval_stirling_series"),
                         (catalog, "eval_stirling_series")],
    "transform.coefficients": [(transform, "weniger_transform"),
                               (catalog, "weniger_transform")],
    "constants.get": [(constants.ConstantStore, "get")],
    "catalog.evaluate": [(catalog, "evaluate")],
    "catalog.recover": [(catalog, "recover_details")],
    "catalog.digamma": [(catalog, "digamma_details")],
}
_ORIGINAL_SERIES = transform.eval_stirling_series
_ORIGINAL_STREAM = transform._coefficient_stream


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    request: int = -1
    info: dict = field(default_factory=dict)


class Tracer:
    """Records spans per thread; ``request`` tags the spans of one request."""

    def __init__(self):
        self.spans: list[Span] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._saved: list[tuple] = []  # (owner, attribute, original) while installed
        self.sum_seconds = 0.0  # replayed float summation, see replay_sums

    def install(self) -> None:
        """Wrap the package's layer boundaries until :meth:`remove`."""
        for name, targets in _PATCHES.items():
            wrapper = self.wrap(name, getattr(*targets[0]))
            for owner, attr in targets:
                self._saved.append((owner, attr, getattr(owner, attr)))
                setattr(owner, attr, wrapper)
        self._saved.append((transform, "_coefficient_stream", _ORIGINAL_STREAM))
        transform._coefficient_stream = self._stream

    def remove(self) -> None:
        """Put back what :meth:`install` replaced."""
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved = []

    def _stack(self) -> list[int]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
            self._local.request = -1
            self._local.pending = []
        return self._local.stack

    def begin_request(self, rid: int) -> None:
        self._stack()
        self._local.request = rid

    def _open(self, name: str) -> int:
        stack = self._stack()
        span = Span(name, time.perf_counter(), parent=stack[-1] if stack else -1,
                    request=self._local.request)
        with self._lock:
            self.spans.append(span)
            index = len(self.spans) - 1
        stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self._local.stack.pop()

    def wrap(self, name: str, fn):
        tracer = self

        def traced(*args, **kwargs):
            index = tracer._open(name)
            span = tracer.spans[index]
            if name == "constants.get":
                before = args[0].compute_count
            try:
                result = fn(*args, **kwargs)
            except NonConvergenceError as exc:
                span.info["refused"] = True
                if name == "transform.series":
                    span.info["terms"] = exc.report.terms_used
                raise
            finally:
                tracer._close(index)
                if name == "constants.get":
                    span.info["computes"] = args[0].compute_count - before
                if name == "transform.series":
                    tracer._local.pending.append((args, kwargs, span.info.pop("coeffs", [])))
            if name == "transform.series":
                span.info["terms"] = result.terms_used
            return result

        traced.__wrapped__ = fn
        return traced

    def _stream(self, c):
        """transform._coefficient_stream, keeping the c_k a series call consumed
        so that its summation can be replayed on precomputed coefficients.
        Outside a series span (a replay) it is the original stream."""
        stack = self._stack()
        if not stack or self.spans[stack[-1]].name != "transform.series":
            return _ORIGINAL_STREAM(c)
        return _keeping(_ORIGINAL_STREAM(c), self.spans[stack[-1]].info.setdefault("coeffs", []))

    def replay_sums(self, replay: bool = True) -> None:
        """Time each series call of this thread's last request again, on its
        recorded coefficients, so the float summation is timed alone; with
        ``replay`` false, only drop the recorded coefficients."""
        pending, self._local.pending = self._local.pending, []
        for args, kwargs, coeffs in pending if replay else ():
            fixed = StirlingCoefficients(tuple(coeffs))
            t0 = time.perf_counter()
            try:
                _ORIGINAL_SERIES(fixed, *args[1:], **kwargs)
            except NonConvergenceError:
                pass
            self.sum_seconds += time.perf_counter() - t0

    def write(self, path: str) -> None:
        with open(path, "w", encoding="ascii") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": s.name, "start": s.start,
                                     "end": s.end, "parent": s.parent,
                                     "request": s.request, **s.info}) + "\n")


def _keeping(stream, kept: list):
    for k, ck in stream:
        kept.append(ck)
        yield k, ck


def _outermost(spans: list[Span], index: int, name: str) -> bool:
    parent = spans[index].parent
    while parent >= 0:
        if spans[parent].name == name:
            return False
        parent = spans[parent].parent
    return True


def _nearest_catalog(spans: list[Span], index: int) -> int:
    parent = spans[index].parent
    while parent >= 0 and not spans[parent].name.startswith("catalog."):
        parent = spans[parent].parent
    return parent


# Additive per-layer totals; ratios are formed from them in metrics().
TOTALS = (
    "exactnum.stirling_first_calls", "exactnum.stirling_first_ms", "exactnum.bernoulli_ms",
    "transform.inner_calls", "transform.inner_ms", "transform.series_calls",
    "transform.series_ms", "transform.series_self_ms", "transform.sum_ms",
    "transform.terms", "transform.refusals",
    "constants.get_calls", "constants.hits", "constants.computes", "constants.compute_ms",
    "catalog.evaluate_ms", "catalog.recover_ms", "catalog.digamma_ms", "catalog.self_ms",
    "catalog.ladder_steps", "cli.import_ms", "cli.main_ms",
)


# Counts that must repeat exactly when the same requests are served again.
EXACT_COUNTS = (
    "transform.terms", "transform.inner_calls", "exactnum.stirling_first_calls",
    "constants.computes", "catalog.ladder_steps",
)


def layer_totals(spans: list[Span], keep=lambda span: True) -> dict[str, float]:
    """Per-layer counts and milliseconds over the spans ``keep`` accepts.

    Times are inclusive and counted once per outermost span of a name, except
    the self times: a span's duration minus the time its child spans cover.
    """
    t = dict.fromkeys(TOTALS, 0.0)
    child_time = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child_time[s.parent] += s.end - s.start
    ladder: dict[int, int] = {}  # recover span -> refused series calls under it
    for i, s in enumerate(spans):
        if not keep(s):
            continue
        ms = (s.end - s.start) * 1e3
        self_ms = ms - child_time[i] * 1e3
        outer = _outermost(spans, i, s.name)
        if s.name == "exactnum.stirling_first":
            t["exactnum.stirling_first_calls"] += 1
            t["exactnum.stirling_first_ms"] += ms * outer
        elif s.name == "exactnum.bernoulli":
            t["exactnum.bernoulli_ms"] += ms * outer
        elif s.name == "transform.inner":
            t["transform.inner_calls"] += 1
            t["transform.inner_ms"] += ms * outer
        elif s.name == "transform.series":
            t["transform.series_calls"] += 1
            t["transform.series_ms"] += ms * outer
            t["transform.series_self_ms"] += self_ms
            t["transform.terms"] += s.info.get("terms", 0)
            if s.info.get("refused"):
                t["transform.refusals"] += 1
                owner = _nearest_catalog(spans, i)
                if owner >= 0 and spans[owner].name == "catalog.recover":
                    ladder[owner] = ladder.get(owner, 0) + 1
        elif s.name == "transform.coefficients":
            t["transform.series_self_ms"] += self_ms
        elif s.name == "constants.get":
            t["constants.get_calls"] += 1
            if s.info.get("computes"):
                t["constants.computes"] += 1
                t["constants.compute_ms"] += ms * outer
            else:
                t["constants.hits"] += 1
        elif s.name.startswith("catalog."):
            t[s.name + "_ms"] += ms * outer
            t["catalog.self_ms"] += self_ms
    # each refused series in recover_details raises n0, except the one that
    # ends a refused recovery
    t["catalog.ladder_steps"] = sum(
        count - bool(spans[owner].info.get("refused")) for owner, count in ladder.items())
    return t


def metrics(t: dict[str, float]) -> dict[str, float]:
    """The reported per-layer metrics from summed totals."""
    out = {k: v for k, v in t.items()
           if k not in ("transform.series_self_ms", "constants.hits")}
    # exact transform = series self time (inner calls already excluded) - summation
    out["transform.exact_ms"] = t["transform.series_self_ms"] - t["transform.sum_ms"]
    gets = t["constants.get_calls"]
    out["constants.hit_ratio"] = t["constants.hits"] / gets if gets else 1.0
    return out
