"""Span tracing of heightcount from outside the package.

A Tracer replaces each public function of the package modules, in every
module namespace that holds it (so ``heightcount.mixing.smith_exponents``
and ``heightcount.cli.scan_pgl2_adjoint`` are wrapped as well as the
defining names), plus a few public methods, by a wrapper that records one
span per call: name, start, end, parent span and benchmark operation id.
Spans stay in memory; ``write`` stores them when the run ends.

Self time of a span is its duration minus the part of it that its child
spans cover.  Per-layer metrics are sums of self time and call counts by
span name, plus counters that hooks read off selected return values.
"""

from __future__ import annotations

import gzip
import json
import threading
import time
import types
from collections import Counter, defaultdict

import heightcount
from heightcount import cli, enumeration, heights, mixing, rootdata, zeta

LAYERS = (rootdata, heights, enumeration, zeta, mixing, cli)

# public methods traced besides the module-level functions
METHODS = (
    (enumeration.PGL2Scan, "spectrum"),
    (enumeration.PGL2Scan, "histogram"),
    (zeta.LocalFactor, "evaluate"),
    (cli.ResultCache, "lookup"),
    (cli.ResultCache, "append"),
)


def public_functions():
    """(span name, function) for every public function a layer defines."""
    out = []
    for mod in LAYERS:
        for name, obj in vars(mod).items():
            if (
                not name.startswith("_")
                and isinstance(obj, types.FunctionType)
                and obj.__module__ == mod.__name__
            ):
                out.append((f"{mod.__name__.rsplit('.', 1)[-1]}.{name}", obj))
    return out


class Tracer:
    """Installs span-recording wrappers while active (a context manager).

    ``hooks`` maps a span name to a function of the call's return value
    whose result is added to ``counters[span name]``.
    """

    def __init__(self, hooks=None):
        self.hooks = dict(hooks or {})
        self.spans: list[list] = []  # [name, start, end, parent record, op]
        self.counters: Counter = Counter()
        self.op = 0
        self.op_labels: dict[int, str] = {}
        self._local = threading.local()
        self._saved: list[tuple[object, str, object]] = []

    def begin_op(self, label: str) -> None:
        self.op += 1
        self.op_labels[self.op] = label

    def _wrap(self, name, fn):
        spans = self.spans
        local = self._local
        clock = time.perf_counter
        hook = self.hooks.get(name)
        counters = self.counters
        tracer = self

        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            rec = [name, clock(), 0.0, stack[-1] if stack else None, tracer.op]
            spans.append(rec)
            stack.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if hook is not None:
                counters[name] += hook(result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        wrapper.__doc__ = fn.__doc__
        return wrapper

    def __enter__(self):
        wrappers = {id(fn): self._wrap(name, fn) for name, fn in public_functions()}
        for mod in (heightcount,) + LAYERS:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers and isinstance(obj, types.FunctionType):
                    self._saved.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[id(obj)])
        for cls, attr in METHODS:
            fn = cls.__dict__[attr]
            self._saved.append((cls, attr, fn))
            name = f"{cls.__module__.rsplit('.', 1)[-1]}.{cls.__name__}.{attr}"
            setattr(cls, attr, self._wrap(name, fn))
        return self

    def __exit__(self, *exc):
        for owner, attr, obj in reversed(self._saved):
            setattr(owner, attr, obj)
        self._saved.clear()
        return False

    # ------------------------------------------------------------------
    # analysis

    def self_times(self) -> tuple[dict[str, float], Counter]:
        """Self seconds and call counts by span name."""
        spans = self.spans
        children = defaultdict(list)
        for rec in spans:
            if rec[3] is not None:
                children[id(rec[3])].append((rec[1], rec[2]))
        self_s: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        for rec in spans:
            name, start, end = rec[0], rec[1], rec[2]
            covered = 0.0
            cursor = start
            for c0, c1 in sorted(children.get(id(rec), ())):
                c0, c1 = max(c0, cursor), min(c1, end)
                if c1 > c0:
                    covered += c1 - c0
                    cursor = c1
            self_s[name] += (end - start) - covered
            calls[name] += 1
        return dict(self_s), calls

    def calls_in_ops(self, name: str, label: str) -> tuple[int, int]:
        """(calls of ``name`` inside operations labelled ``label``, number of
        such operations)."""
        ops = {op for op, lab in self.op_labels.items() if lab == label}
        n = sum(1 for rec in self.spans if rec[0] == name and rec[4] in ops)
        return n, len(ops)

    def write(self, path) -> None:
        """All spans as gzipped JSON lines, parents given by span index."""
        index = {id(rec): i for i, rec in enumerate(self.spans)}
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for i, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {
                            "i": i,
                            "name": name,
                            "start": start,
                            "end": end,
                            "parent": index.get(id(parent)) if parent is not None else None,
                            "op": op,
                            "op_label": self.op_labels.get(op),
                        }
                    )
                    + "\n"
                )
