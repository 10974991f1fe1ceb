"""Span recording for the traced run.

`Tracer.install` replaces the package's public functions with timing
wrappers at the names their callers look up (the decoder imports `encode`,
`interpolate` and `gamma_map` under its own names, so those are patched in
`rsdel.decoder`), and `Tracer.uninstall` puts the originals back.  Nothing is
patched outside the traced run, so end-to-end timings never pay for it.
The one private name wrapped is `decoder._search_triple`, only to count
scans and the ones that found a triple; it gets no span.

Each call to a wrapped function records a span (name, start, end, parent span,
word id) in memory.  `CubicField.mul` and `CubicField.inv` run hundreds of
thousands of times in one certification, so they get no span of their own:
their calls and time are added to the enclosing span.  A span's self time is
its duration minus its child spans and the field calls aggregated into it.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from math import comb
from time import perf_counter

from rsdel import code, decoder, field, verify
from rsdel.errors import InconsistentReceivedWordError, UnrecognizedReceivedWordError

# layout of a span record
NAME, START, END, PARENT, WORD, MUL_N, MUL_S, INV_N, INV_S = range(9)

PATH_KEYS = {
    decoder.PATH_CLOSED_FORM: "decoder.path.closed_form",
    decoder.PATH_FALLBACK: "decoder.path.fallback",
    decoder.PATH_CONSTANT: "decoder.path.constant",
}

# (metric, unit) reported by every traced run, 0 where a workload does not
# reach the layer.
PER_LAYER = (
    ("field.CubicField.inv.calls", "count"),
    ("field.CubicField.inv.self_s", "s"),
    ("field.CubicField.mul.calls", "count"),
    ("field.CubicField.mul.self_s", "s"),
    ("code.build_code.self_s", "s"),
    ("code.encode.calls", "count"),
    ("code.encode.self_s", "s"),
    ("code.interpolate.self_s", "s"),
    ("code.gamma_map.self_s", "s"),
    ("decoder.compute_beta.self_s", "s"),
    ("decoder.extract_coefficients.self_s", "s"),
    ("decoder.solve_deltas.self_s", "s"),
    ("decoder.decode_linear.self_s", "s"),
    ("decoder.decode_cubic.packed.self_s", "s"),
    ("decoder.decode_cubic.pyscan.self_s", "s"),
    ("decoder.search_ops", "ops"),
    ("decoder.total_ops", "ops"),
    ("decoder.path.closed_form", "count"),
    ("decoder.path.fallback", "count"),
    ("decoder.path.constant", "count"),
    ("decoder.rejected.unrecognized", "count"),
    ("decoder.rejected.inconsistent", "count"),
    ("decoder.search.scans", "count"),
    ("decoder.search.useful_frac", "ratio"),
    ("verify.check_injectivity.self_s", "s"),
    ("verify.check_injectivity.triples", "count"),
    ("verify.check_injectivity.peak_mb", "MB"),
    ("verify.audit_code.self_s", "s"),
    ("verify.lcs_length.calls", "count"),
    ("verify.lcs_length.self_s", "s"),
    ("verify.lcs_length.cells", "count"),
    ("trace.overhead_s", "s"),
)


class Tracer:
    def __init__(self):
        # record 0 is the root that top-level spans hang from
        self.spans = [["root", 0.0, 0.0, -1, -1, 0, 0.0, 0, 0.0]]
        self.stack = [0]
        self.counts = Counter()
        self.word = -1
        self._in_field = False
        self._saved = []

    # -- wrappers ----------------------------------------------------------

    def _open(self, name):
        rec = [name, 0.0, 0.0, self.stack[-1], self.word, 0, 0.0, 0, 0.0]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _close(self, rec):
        rec[END] = perf_counter()
        self.stack.pop()

    def span(self, name, fn, count=None):
        def traced(*args, **kwargs):
            if count:
                count(self.counts, *args)
            rec = self._open(name)
            rec[START] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(rec)
        return traced

    def decode(self, name, fn):
        """A decoder span, named by name(spec), that also counts the path
        taken or the rejection."""
        def traced(spec, y, inst=None):
            key = "decoder.rejected.other"
            rec = self._open(name(spec))
            rec[START] = perf_counter()
            try:
                out = fn(spec, y, inst)
                key = PATH_KEYS.get(out.path, "decoder.path.other")
                return out
            except UnrecognizedReceivedWordError:
                key = "decoder.rejected.unrecognized"
                raise
            except InconsistentReceivedWordError:
                key = "decoder.rejected.inconsistent"
                raise
            finally:
                self._close(rec)
                self.counts[key] += 1
        return traced

    def field_op(self, slot, fn):
        """Add calls and time to the enclosing span instead of opening one."""
        def traced(*args):
            rec = self.spans[self.stack[-1]]
            rec[slot] += 1
            if self._in_field:  # time already counted by the outer field call
                return fn(*args)
            self._in_field = True
            t0 = perf_counter()
            try:
                return fn(*args)
            finally:
                rec[slot + 1] += perf_counter() - t0
                self._in_field = False
        return traced

    def scan_counter(self, fn):
        """Count triple scans and the ones that found a triple; no span, so
        scan time stays in the calling decoder's self time."""
        def traced(*args):
            found = fn(*args)
            self.counts["decoder.search.scans"] += 1
            self.counts["decoder.search.found"] += found is not None
            return found
        return traced

    # -- installation ------------------------------------------------------

    def install(self):
        def regime(spec):
            # both cubic-scan codes have n >= 32, so fast_search_ok() alone
            # decides between the packed numpy scan and the Python scan
            return ("decoder.decode_cubic.packed" if spec.fast_search_ok()
                    else "decoder.decode_cubic.pyscan")

        def count_triples(counts, spec, *_):
            counts["verify.check_injectivity.triples"] += comb(spec.n, 3)

        def count_cells(counts, xs, ys):
            counts["verify.lcs_length.cells"] += len(xs) * len(ys)

        targets = [
            (field.CubicField, "mul", lambda f: self.field_op(MUL_N, f)),
            (field.CubicField, "inv", lambda f: self.field_op(INV_N, f)),
            (code, "build_code", lambda f: self.span("code.build_code", f)),
            (decoder, "compute_beta", lambda f: self.span("decoder.compute_beta", f)),
            (decoder, "extract_coefficients",
             lambda f: self.span("decoder.extract_coefficients", f)),
            (decoder, "solve_deltas", lambda f: self.span("decoder.solve_deltas", f)),
            (decoder, "interpolate", lambda f: self.span("code.interpolate", f)),
            (decoder, "gamma_map", lambda f: self.span("code.gamma_map", f)),
            (decoder, "_search_triple", self.scan_counter),
            (decoder, "decode_linear",
             lambda f: self.decode(lambda _: "decoder.decode_linear", f)),
            (decoder, "decode_cubic", lambda f: self.decode(regime, f)),
            (verify, "check_injectivity",
             lambda f: self.span("verify.check_injectivity", f, count_triples)),
            (verify, "audit_code", lambda f: self.span("verify.audit_code", f)),
            (verify, "lcs_length", lambda f: self.span("verify.lcs_length", f, count_cells)),
        ] + [(mod, "encode", lambda f: self.span("code.encode", f))
             for mod in (code, decoder, verify)]
        for owner, attr, wrap in targets:
            if hasattr(owner, attr):
                original = getattr(owner, attr)
                self._saved.append((owner, attr, original))
                setattr(owner, attr, wrap(original))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- results -----------------------------------------------------------

    def summary(self):
        """(exact counts, self seconds) by metric name."""
        spans = self.spans
        child = [0.0] * len(spans)
        for rec in spans[1:]:
            child[rec[PARENT]] += rec[END] - rec[START]
        exact = Counter(self.counts)
        self_s = defaultdict(float)
        for i, rec in enumerate(spans):
            exact["field.CubicField.mul.calls"] += rec[MUL_N]
            exact["field.CubicField.inv.calls"] += rec[INV_N]
            self_s["field.CubicField.mul.self_s"] += rec[MUL_S]
            self_s["field.CubicField.inv.self_s"] += rec[INV_S]
            if i:
                exact[rec[NAME] + ".calls"] += 1
                self_s[rec[NAME] + ".self_s"] += (
                    rec[END] - rec[START] - child[i] - rec[MUL_S] - rec[INV_S])
        return exact, self_s

    def dump(self, path, meta):
        fields = ["name", "start", "end", "parent", "word",
                  "mul_calls", "mul_s", "inv_calls", "inv_s"]
        with open(path, "w") as fh:
            json.dump({**meta, "fields": fields, "spans": self.spans}, fh)
