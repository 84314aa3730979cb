"""Spans around the benchmark's calls into the library's layers.

A span records one call: name, layer, kind, start, end and the span that
caused it.  Spans stay in memory and are written out once, at the end of a
pass.  All spans of one pass share the tracer's run id.
"""

import re
import time
import uuid
from contextlib import contextmanager
from dataclasses import asdict, dataclass

# The checks that `cli` wraps (the rmatrix suite) do their work in tensormat.
_LAYER_ALIASES = {"cli": "tensormat"}


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    layer: str
    kind: str
    start: float
    end: float = 0.0

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.run_id = uuid.uuid4().hex
        self.spans = []
        self._open = []

    @contextmanager
    def span(self, name, layer, kind):
        parent = self._open[-1] if self._open else None
        s = Span(len(self.spans), parent, name, layer, kind, time.perf_counter())
        self.spans.append(s)
        self._open.append(s.id)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._open.pop()

    def dump(self):
        return [dict(asdict(s), run_id=self.run_id) for s in self.spans]


def call(tracer, name, layer, kind, fn, *args, **kwargs):
    """fn(*args, **kwargs), inside a span when tracing is on."""
    if tracer is None:
        return fn(*args, **kwargs)
    with tracer.span(name, layer, kind):
        return fn(*args, **kwargs)


def layer_of(fn):
    """The library module that defines fn, by its last dotted component."""
    module = (getattr(fn, "__module__", None) or "").rsplit(".", 1)[-1]
    return _LAYER_ALIASES.get(module, module)


def metric_name(check_name):
    """A check name as a metric-name fragment: `nscybe[k_general]` becomes
    `nscybe.k_general`, `U_conditions[U_diag, eps=-1]` becomes
    `U_conditions.U_diag.eps.-1` (a plus sign is dropped, a minus kept)."""
    tokens = re.findall(r"[A-Za-z0-9_+\-]+", check_name)
    return ".".join(t.lstrip("+") for t in tokens if t.lstrip("+"))


def _covered(intervals):
    """Total length of the union of (start, end) intervals."""
    total = 0.0
    reach = None
    for a, b in sorted(intervals):
        if reach is None or a > reach:
            total += b - a
            reach = b
        elif b > reach:
            total += b - reach
            reach = b
    return total


def self_times(spans):
    """span id -> its duration minus the part covered by its children."""
    children = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        kids = [
            (max(c.start, s.start), min(c.end, s.end))
            for c in children.get(s.id, ())
            if c.end > s.start and c.start < s.end
        ]
        out[s.id] = s.duration - _covered(kids)
    return out


def layer_times(spans):
    """layer -> {"inclusive_s", "self_s"}.

    Inclusive time is the union of the layer's span intervals, so a span
    nested in another of the same layer is not counted twice.
    """
    selfs = self_times(spans)
    out = {}
    for layer in sorted({s.layer for s in spans}):
        own = [s for s in spans if s.layer == layer]
        out[layer] = {
            "inclusive_s": _covered([(s.start, s.end) for s in own]),
            "self_s": sum(selfs[s.id] for s in own),
        }
    return out


def spans_from_dicts(rows):
    fields = Span.__dataclass_fields__
    return [Span(**{k: v for k, v in row.items() if k in fields}) for row in rows]
