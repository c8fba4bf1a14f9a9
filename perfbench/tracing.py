"""Per-layer tracing from outside the package.

``Tracer.install`` wraps every public module-level function of the
package's layers and puts the wrapper in place of the original under
every name that refers to it, in every module of the package (so
``demazure.ftilde`` and ``cli.lattice_points`` are patched as well as the
defining module).  A wrapper records calls, inclusive time and self time
(its time minus that of wrapped callees), and a probe may add work
counts read off the arguments and the result.  Kernel functions that run
millions of times per op (``zcrystal.sigma_k``) are counted only.

Counts and times accumulate in memory only while ``on`` is set, so
set-up, warm-up and output checks leave them alone.  Spans (id, parent,
op, name, start, end) are kept for the first round of ops and for layers
above the crystal kernel; ``dump`` writes them out at the end.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from time import perf_counter_ns

LAYERS = ("rootdata", "zcrystal", "binfinity", "demazure", "inequalities",
          "polytope", "valuation", "cli")
COUNT_ONLY = {"zcrystal.sigma_k"}
# Called inside the innermost loops: aggregated, but no span is stored.
NO_SPAN_LAYERS = {"rootdata", "zcrystal", "binfinity"}
OPERATORS = {"zcrystal.etilde", "zcrystal.ftilde", "zcrystal.twist_etilde",
             "zcrystal.twist_ftilde"}


def _chart_key(args):
    cartan, word, lam = args[:3]
    return cartan.rows, word.letters, lam.coords


def _probe_route(route):
    def probe(t, args, out, dur):
        t.count["demazure.points"] += len(out)
        rec = t.routes.setdefault(_chart_key(args), {"sweep": [0, 0], "cut": [0, 0]})[route]
        rec[0] += 1
        rec[1] += dur
    return probe


def _probe_xi(t, args, out, dur):
    t.count["inequalities.forms"] += len(out.forms)


def _probe_box(t, args, out, dur):
    t.count["polytope.box_cells"] += out.volume()


def _probe_lattice(t, args, out, dur):
    t.count["polytope.lattice_hits"] += len(out)


def _probe_normalize(t, args, out, dur):
    t.count["polytope.rows_in"] += len(args[0].rows)
    t.count["polytope.rows_kept"] += len(out.rows)


def _probe_values(t, args, out, dur):
    t.count["valuation.span_polys"] += len(args[0])
    t.count["valuation.span_terms"] += sum(len(f.terms) for f in args[0])
    t.count["valuation.values"] += len(out)


PROBES = {
    "demazure.enumerate_demazure": _probe_route("sweep"),
    "demazure.btilde_cut": _probe_route("cut"),
    "inequalities.generate_xi": _probe_xi,
    "polytope.bounding_box": _probe_box,
    "polytope.lattice_points": _probe_lattice,
    "polytope.normalize": _probe_normalize,
    "valuation.value_set_of_span": _probe_values,
}

COUNTS = ("demazure.points", "inequalities.forms", "polytope.box_cells",
          "polytope.lattice_hits", "polytope.rows_in", "polytope.rows_kept",
          "valuation.span_polys", "valuation.span_terms", "valuation.values",
          "zcrystal.sigma_k.calls")


class Tracer:
    def __init__(self):
        self.on = False
        self.keep_spans = True
        self.op = -1
        self.stack = []  # frames [child time, span id]
        self.spans = []
        self.next_span = 0
        self.fn = {}  # qualified name -> [calls, inclusive ns, self ns]
        self.count = dict.fromkeys(COUNTS, 0)
        self.routes = {}
        self.patched = []  # (module, name, original)

    def install(self, package) -> None:
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules[f"{package}.{layer}"]
            for name, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not name.startswith("_")):
                    qual = f"{layer}.{name}"
                    self.fn[qual] = [0, 0, 0]
                    wrappers[id(obj)] = self._wrap(qual, obj)
        for modname, mod in list(sys.modules.items()):
            if modname == package or modname.startswith(package + "."):
                for name, obj in list(vars(mod).items()):
                    if id(obj) in wrappers and inspect.isfunction(obj):
                        self.patched.append((mod, name, obj))
                        setattr(mod, name, wrappers[id(obj)])

    def uninstall(self) -> None:
        for mod, name, original in self.patched:
            setattr(mod, name, original)
        self.patched = []

    def _wrap(self, qual, fn):
        t = self
        if qual in COUNT_ONLY:
            key = qual + ".calls"

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                if t.on:
                    t.count[key] += 1
                return fn(*args, **kwargs)
            return counted

        rec = self.fn[qual]
        probe = PROBES.get(qual)
        span = qual.split(".")[0] not in NO_SPAN_LAYERS

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            if not t.on:
                return fn(*args, **kwargs)
            stack = t.stack
            sid = -1
            if span and t.keep_spans:
                sid = t.next_span
                t.next_span += 1
            frame = [0, sid]
            parent = stack[-1][1] if stack else -1
            stack.append(frame)
            start = perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                dur = end - start
                if stack:
                    stack[-1][0] += dur
                rec[0] += 1
                rec[1] += dur
                rec[2] += dur - frame[0]
                if sid >= 0:
                    t.spans.append((sid, parent, t.op, qual, start, end))
            if probe is not None:
                probe(t, args, out, dur)
            return out
        return timed

    def run_op(self, index, name, call):
        """Run one benchmark op as the root span of its layer calls."""
        self.op = index
        sid = -1
        if self.keep_spans:
            sid = self.next_span
            self.next_span += 1
        self.stack.append([0, sid])
        self.on = True
        start = perf_counter_ns()
        try:
            return call()
        finally:
            end = perf_counter_ns()
            self.on = False
            self.stack.pop()
            if sid >= 0:
                self.spans.append((sid, -1, index, "op:" + name, start, end))

    def metrics(self, rounds: int) -> dict:
        """Per-round layer metrics: counts and seconds divided by the round count."""
        fn, c = self.fn, self.count

        def calls(*names):
            return sum(fn[n][0] for n in names) / rounds

        def secs(name):
            return fn[name][1] / 1e9 / rounds

        def self_s(layer):
            return sum(v[2] for k, v in fn.items() if k.startswith(layer + ".")) / 1e9 / rounds

        cut = sum(r["cut"][1] / r["cut"][0] for r in self.routes.values()
                  if r["cut"][0] and r["sweep"][0])
        sweep = sum(r["sweep"][1] / r["sweep"][0] for r in self.routes.values()
                    if r["cut"][0] and r["sweep"][0])
        per = {k: v / rounds for k, v in c.items()}
        out = {
            "zcrystal.letter_max.calls": (calls("zcrystal.letter_max"), "count"),
            "zcrystal.sigma_k.calls": (per["zcrystal.sigma_k.calls"], "count"),
            "zcrystal.operator.calls": (calls(*OPERATORS), "count"),
            "zcrystal.self_s": (self_s("zcrystal"), "s"),
            "binfinity.membership.calls": (calls("binfinity.membership"), "count"),
            "binfinity.star.calls": (calls("binfinity.star"), "count"),
            "binfinity.self_s": (self_s("binfinity"), "s"),
            "demazure.enumerate_demazure.s": (secs("demazure.enumerate_demazure"), "s"),
            "demazure.btilde_cut.s": (secs("demazure.btilde_cut"), "s"),
            "demazure.cut_over_sweep": (cut / sweep if sweep else 0.0, "ratio"),
            "demazure.points": (per["demazure.points"], "count"),
            "demazure.self_s": (self_s("demazure"), "s"),
            "inequalities.generate_xi.s": (secs("inequalities.generate_xi"), "s"),
            "inequalities.forms": (per["inequalities.forms"], "count"),
            "inequalities.self_s": (self_s("inequalities"), "s"),
            "polytope.bounding_box.s": (secs("polytope.bounding_box"), "s"),
            "polytope.lattice_points.s": (secs("polytope.lattice_points"), "s"),
            "polytope.box_cells": (per["polytope.box_cells"], "count"),
            "polytope.lattice_hits": (per["polytope.lattice_hits"], "count"),
            "polytope.hits_per_cell": (c["polytope.lattice_hits"] / c["polytope.box_cells"]
                                       if c["polytope.box_cells"] else 0.0, "ratio"),
            "polytope.normalize.s": (secs("polytope.normalize"), "s"),
            "polytope.rows_in": (per["polytope.rows_in"], "count"),
            "polytope.rows_kept": (per["polytope.rows_kept"], "count"),
            "polytope.self_s": (self_s("polytope"), "s"),
            "valuation.unipotent_product.s": (secs("valuation.unipotent_product"), "s"),
            "valuation.section_span.s": (secs("valuation.section_span"), "s"),
            "valuation.value_set_of_span.s": (secs("valuation.value_set_of_span"), "s"),
            "valuation.span_polys": (per["valuation.span_polys"], "count"),
            "valuation.span_terms": (per["valuation.span_terms"], "count"),
            "valuation.values": (per["valuation.values"], "count"),
            "valuation.values_per_poly": (c["valuation.values"] / c["valuation.span_polys"]
                                          if c["valuation.span_polys"] else 0.0, "ratio"),
            "valuation.value.calls": (calls("valuation.value"), "count"),
            "valuation.self_s": (self_s("valuation"), "s"),
            "cli.self_s": (self_s("cli"), "s"),
            "rootdata.self_s": (self_s("rootdata"), "s"),
        }
        return {k: {"value": v, "unit": u} for k, (v, u) in out.items()}

    def dump(self, path, header: dict) -> None:
        data = dict(header)
        data["functions"] = {k: {"calls": v[0], "inclusive_s": v[1] / 1e9, "self_s": v[2] / 1e9}
                             for k, v in sorted(self.fn.items()) if v[0]}
        data["counts"] = self.count
        data["span_fields"] = ["id", "parent", "op", "name", "start_ns", "end_ns"]
        data["spans"] = self.spans
        with open(path, "w") as fh:
            json.dump(data, fh)
