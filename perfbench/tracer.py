"""Tracing of hermsig from outside the package.

``Tracer.install()`` replaces the public functions and methods listed in
``TARGETS`` by wrappers, at every binding the loaded ``hermsig`` modules and
classes hold (``diagonalize`` is imported into five modules, and
``FieldElement.__rmul__`` is the same function as ``__mul__``).  A wrapper
either records a span (name, parent, start, end) or only counts calls, for
functions so cheap that two clock reads would cost more than the call.

Spans stay in memory in flat arrays and are written out by ``dump``; the
per-layer metrics are computed from the written spans by ``layer_metrics``.
Spans nest because the program runs in one thread: a span's parent is the
span open when it starts.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array
from collections import Counter

# Wrapped names: (module, attribute path, span name or None to count only).
# The span name of diagonalize gets a size bucket appended at call time.
TARGETS = [
    ("hermsig.session", "parse_session", "session.parse"),
    ("hermsig.cli", "Report.to_json", "cli.render"),
    ("hermsig.hermitian", "raw_signature", "hermitian.raw_signature"),
    ("hermsig.hermitian", "find_reference_form", "hermitian.find_reference_form"),
    ("hermsig.hermitian", "sylvester_decompose", "hermitian.sylvester_decompose"),
    ("hermsig.quadforms", "diagonalize", "quadforms.diagonalize"),
    ("hermsig.field", "FieldElement.__mul__", None),
    ("hermsig.field", "FieldElement.inverse", "field.inverse"),
    ("hermsig.field", "sign_at", "field.sign_at"),
    ("hermsig.algebras", "AlgebraElement.__mul__", None),
    ("hermsig.algebras", "is_invertible", "algebras.is_invertible"),
    ("hermsig.cones", "PositiveCone.contains", "cones.contains"),
    ("hermsig.cones", "find_sos_certificate", "cones.find_sos_certificate"),
    ("hermsig.spectra", "cone_space_topology", "spectra.cone_space_topology"),
    ("hermsig.spectra", "topology_compare", "spectra.topology_compare"),
    ("hermsig.spectra", "generate_topology", "spectra.generate_topology"),
    ("hermsig.spectra", "prime_property_sample", "spectra.prime_property_sample"),
    ("hermsig.spectra", "morphism_distinctness", "spectra.morphism_distinctness"),
]

# Count-only wrappers, by target.
COUNTERS = {
    "FieldElement.__mul__": "field.mul.calls",
    "AlgebraElement.__mul__": "algebras.mul.calls",
}

DIAGONALIZE_BUCKETS = ((4, "k_le_4"), (8, "k_5_to_8"), (16, "k_9_to_16"),
                       (None, "k_gt_16"))

# The session commands the workloads use; each gets a span cli.op.<op>.
CLI_OPS = (
    "sign", "total-sign", "torsion", "decompose", "reference-form", "cones",
    "positivity", "topology", "morphisms", "cone-member", "eta-max",
    "sos-find", "morita-check", "ideals",
)


def diagonalize_bucket(k: int) -> str:
    for limit, name in DIAGONALIZE_BUCKETS:
        if limit is None or k <= limit:
            return name
    raise AssertionError("unreachable")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    # -- recording -----------------------------------------------------------
    def _id(self, name: str) -> int:
        got = self._ids.get(name)
        if got is None:
            got = self._ids[name] = len(self.names)
            self.names.append(name)
        return got

    def span(self, name: str, fn, *args, **kwargs):
        idx = len(self.start)
        self.name_id.append(self._id(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        try:
            return fn(*args, **kwargs)
        finally:
            self.end[idx] = time.perf_counter()
            self._stack.pop()

    # -- wrappers ------------------------------------------------------------
    def _wrap(self, target: str, fn, span_name):
        counts = self.counts
        if span_name is None:
            key = COUNTERS[target]

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)
            return counted

        if span_name == "quadforms.diagonalize":
            @functools.wraps(fn)
            def diag_span(gram, *args, **kwargs):
                name = f"{span_name}.{diagonalize_bucket(gram.size)}"
                return self.span(name, fn, gram, *args, **kwargs)
            return diag_span

        if span_name == "cones.find_sos_certificate":
            @functools.wraps(fn)
            def sos_span(*args, **kwargs):
                res = self.span(span_name, fn, *args, **kwargs)
                counts[f"cones.sos.{res.status}"] += 1
                return res
            return sos_span

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            return self.span(span_name, fn, *args, **kwargs)
        return spanned

    def _rebind(self, original, wrapper) -> int:
        """Replace `original` wherever a hermsig module or class binds it."""
        bound = 0
        for mod_name, module in list(sys.modules.items()):
            if not (mod_name == "hermsig" or mod_name.startswith("hermsig.")):
                continue
            for owner in [module] + [v for v in vars(module).values()
                                     if isinstance(v, type)
                                     and v.__module__ == mod_name]:
                for attr, value in list(vars(owner).items()):
                    if value is original:
                        setattr(owner, attr, wrapper)
                        bound += 1
        return bound

    def install(self) -> None:
        """Wrap every target; fails when a target has no binding."""
        import importlib

        import hermsig  # noqa: F401  (loads every module of the package)

        for mod_name, path, span_name in TARGETS:
            owner = importlib.import_module(mod_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = vars(owner)[attr]
            if not self._rebind(original, self._wrap(path, original, span_name)):
                raise RuntimeError(f"no binding of {mod_name}.{path} found")
        runner = importlib.import_module("hermsig.cli")._Runner
        for op in CLI_OPS:
            attr = "cmd_" + op.replace("-", "_")
            original = vars(runner)[attr]
            setattr(runner, attr, self._wrap(attr, original, f"cli.op.{op}"))

    # -- output --------------------------------------------------------------
    def dump(self, path: str) -> None:
        """Write the spans and counts: a JSON header line, then the four
        span arrays in binary, in header order."""
        header = {"names": self.names, "spans": len(self.start),
                  "counts": dict(self.counts),
                  "arrays": ["name_id", "parent", "start", "end"]}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name_id, self.parent, self.start, self.end):
                arr.tofile(fh)


class Spans:
    """Spans read back from a dump (or built by hand in tests)."""

    def __init__(self, names, name_id, parent, start, end, counts=None):
        self.names = list(names)
        self.name_id = name_id
        self.parent = parent
        self.start = start
        self.end = end
        self.counts = Counter(counts or {})

    @classmethod
    def load(cls, path: str) -> "Spans":
        with open(path, "rb") as fh:
            header = json.loads(fh.readline())
            n = header["spans"]
            arrays = []
            for code in ("i", "i", "d", "d"):
                arr = array(code)
                arr.fromfile(fh, n)
                arrays.append(arr)
        return cls(header["names"], *arrays, counts=header["counts"])

    def self_times(self) -> list[float]:
        """Per span: its duration minus the part of its interval covered by
        its children.  Children are merged in start order, so overlapping
        children are not subtracted twice."""
        n = len(self.start)
        own = [self.end[i] - self.start[i] for i in range(n)]
        covered_until = [self.start[i] for i in range(n)]
        for i in sorted(range(n), key=lambda j: self.start[j]):
            p = self.parent[i]
            if p < 0:
                continue
            lo = max(self.start[i], covered_until[p])
            hi = min(self.end[i], self.end[p])
            if hi > lo:
                own[p] -= hi - lo
                covered_until[p] = hi
        return own

    def under(self, ancestors: set[str]) -> list[bool]:
        """Per span: whether a span with one of these names encloses it."""
        flags = [False] * len(self.start)
        ids = {i for i, name in enumerate(self.names) if name in ancestors}
        for i in sorted(range(len(self.start)), key=lambda j: self.start[j]):
            p = self.parent[i]
            flags[i] = p >= 0 and (flags[p] or self.name_id[p] in ids)
        return flags

    def totals(self) -> tuple[Counter, Counter]:
        """Calls and summed self time per span name."""
        calls, self_s = Counter(), Counter()
        for i, t in enumerate(self.self_times()):
            name = self.names[self.name_id[i]]
            calls[name] += 1
            self_s[name] += t
        return calls, self_s

    def count_under(self, names: set[str], ancestors: set[str]) -> int:
        """Spans with one of `names` enclosed by one of `ancestors`."""
        ids = {i for i, name in enumerate(self.names) if name in names}
        return sum(1 for i, f in enumerate(self.under(ancestors))
                   if f and self.name_id[i] in ids)


def layer_metrics(spans: Spans) -> dict[str, float]:
    """The per-layer metrics of one traced session (without the tracing
    overhead ratio, which needs the untraced runs)."""
    calls, self_s = spans.totals()
    out: dict[str, float] = {"session.parse.s": self_s["session.parse"]}
    for op in CLI_OPS:
        out[f"cli.op.{op}.calls"] = calls[f"cli.op.{op}"]
        out[f"cli.op.{op}.s"] = self_s[f"cli.op.{op}"]
    out["cli.render.s"] = self_s["cli.render"]

    rs = "hermitian.raw_signature"
    diag_names = {f"quadforms.diagonalize.{b}" for _, b in DIAGONALIZE_BUCKETS}
    diag_under_rs = spans.count_under(diag_names, {rs})
    out[f"{rs}.calls"] = calls[rs]
    out[f"{rs}.s"] = self_s[rs]
    out["hermitian.trace_diag.hit_ratio"] = \
        1 - diag_under_rs / calls[rs] if calls[rs] else 0.0
    out["hermitian.find_reference_form.s"] = self_s["hermitian.find_reference_form"]
    out["hermitian.sylvester_decompose.s"] = self_s["hermitian.sylvester_decompose"]

    for _, bucket in DIAGONALIZE_BUCKETS:
        name = f"quadforms.diagonalize.{bucket}"
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.s"] = self_s[name]

    out["field.mul.calls"] = spans.counts["field.mul.calls"]
    for name in ("field.inverse", "field.sign_at"):
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.s"] = self_s[name]

    out["algebras.mul.calls"] = spans.counts["algebras.mul.calls"]
    out["algebras.is_invertible.calls"] = calls["algebras.is_invertible"]
    out["algebras.is_invertible.s"] = self_s["algebras.is_invertible"]

    out["cones.contains.calls"] = calls["cones.contains"]
    out["cones.contains.s"] = self_s["cones.contains"]
    out["cones.find_sos_certificate.s"] = self_s["cones.find_sos_certificate"]
    out["cones.sos.contains.calls"] = spans.count_under(
        {"cones.contains"}, {"cones.find_sos_certificate"})
    for status in ("certificate", "refuted", "unknown"):
        out[f"cones.sos.{status}"] = spans.counts[f"cones.sos.{status}"]

    for name in ("cone_space_topology", "topology_compare", "generate_topology",
                 "prime_property_sample", "morphism_distinctness"):
        out[f"spectra.{name}.s"] = self_s[f"spectra.{name}"]
    out["spectra.topology.contains.calls"] = spans.count_under(
        {"cones.contains"},
        {"spectra.cone_space_topology", "spectra.topology_compare"})
    return out


def called_targets(spans: Spans) -> set[str]:
    """Span and counter names that saw at least one call (diagonalize
    buckets folded into one name)."""
    seen = set()
    for nid in set(spans.name_id):
        name = spans.names[nid]
        seen.add("quadforms.diagonalize" if name.startswith("quadforms.diagonalize.")
                 else name)
    seen.update(k for k, v in spans.counts.items() if v)
    return seen
