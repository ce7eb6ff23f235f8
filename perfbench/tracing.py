"""Per-layer spans, recorded from outside the program.

`Tracer.install` replaces each named public function by a wrapper in every
`hdrflow.*` module namespace that holds the same function object, so calls
through `from .x import f` aliases and through module attributes are both
seen; nothing under `src/` changes.  A wrapper records one span per call
(name, start, end, parent span, job id) and adds to the function's call
count and self time, which is the span's duration minus that of the wrapped
spans nested directly inside it.  Spans stay in memory until `write`.

No layer of the program queues work or retries it, so there is no waiting
time to record: every span is busy time.
"""
from __future__ import annotations

import json
import sys
from time import perf_counter_ns

# metric prefix -> (module, function names); prefixes of the form
# "<layer>.<group>" merge several functions into one row
TARGETS = {
    "serialize.parse": ("hdrflow.serialize",
                        ("parse_poly", "parse_laurent", "parse_ratfun",
                         "parse_bipoly", "parse_qpoly")),
    "serialize.print": ("hdrflow.serialize",
                        ("poly_str", "laurent_str", "ratfun_str",
                         "bipoly_str", "qpoly_str")),
    **{f"chern.{f}": ("hdrflow.chern", (f,)) for f in
       ("higher_discriminants", "check_equivalence", "chern_character")},
    **{f"monodromy.{f}": ("hdrflow.monodromy", (f,)) for f in
       ("monodromy_filtration", "verify_filtration_axioms")},
    **{f"nearby.{f}": ("hdrflow.nearby", (f,)) for f in
       ("local_higgs_module", "z_model_compatibility", "phi_restrict",
        "upsilon0")},
    **{f"p1.{f}": ("hdrflow.p1", (f,)) for f in
       ("birkhoff_split", "degree_and_slope", "hn_filtration_plain",
        "global_sections", "sub_adapted")},
    **{f"loghiggs.{f}": ("hdrflow.loghiggs", (f,)) for f in
       ("higgs_bundle", "log_connection", "residue", "nilpotency_level",
        "is_semistable_rank2", "invariant_flag_heuristic")},
    **{f"cartier.{f}": ("hdrflow.cartier", (f,)) for f in
       ("inverse_cartier", "p_curvature", "canonical_lift")},
    **{f"flow.{f}": ("hdrflow.flow", (f,)) for f in
       ("detect_periodicity", "flow_start", "flow_step",
        "simpson_filtration", "higgs_isomorphic")},
    **{f"exact.{m}.{f}": (f"hdrflow.exact.{m}", (f,)) for m, f in
       (("linalg", "kernel_basis"), ("linalg", "rank"), ("linalg", "det"),
        ("polymat", "saturate"), ("polymat", "complete_unimodular"),
        ("polymat", "pmat_inverse"), ("lmat", "lmat_mul"),
        ("lmat", "lmat_det"), ("rmat", "rmat_mul"),
        ("rmat", "rmat_inverse"))},
    "cli.run": ("hdrflow.cli", ("run",)),
    "cli.render": ("hdrflow.cli", ("render",)),
}

# rows that also get the summed duration of their outermost calls
TOTALS = ("p1.birkhoff_split", "cartier.inverse_cartier",
          "flow.detect_periodicity", "flow.simpson_filtration")


class Stat:
    __slots__ = ("calls", "self_ns", "total_ns", "depth")

    def __init__(self):
        self.calls = self.self_ns = self.total_ns = self.depth = 0


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list = []   # (name index, start, end, parent, job)
        self.stats = {name: Stat() for name in TARGETS}
        self.absent: list[str] = []
        self.job = -1
        self._stack: list = []  # open spans: [span index, nested ns]
        self._undo: list = []
        self._pairs = None
        self.split_inputs: set = set()
        self.kernel_cells = 0
        self.iso_undecided = 0

    # -- observers: work counts taken from the arguments and results --------

    def _see_split(self, args, result):
        b = args[0]
        self.split_inputs.add((b.p, b.t))

    def _see_kernel(self, args, result):
        M = args[1]
        self.kernel_cells += len(M) * len(M[0]) if M else 0

    def _see_iso(self, args, result):
        self.iso_undecided += result is None

    def _wrap(self, name: str, fn, observe):
        stat = self.stats[name]
        code = len(self.names)
        self.names.append(f"{name}:{fn.__name__}")
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else -1
            frame = [len(spans), 0]
            spans.append(None)
            stack.append(frame)
            stat.depth += 1
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                stat.depth -= 1
                dur = t1 - t0
                stat.calls += 1
                stat.self_ns += dur - frame[1]
                if not stat.depth:
                    stat.total_ns += dur
                if stack:
                    stack[-1][1] += dur
                spans[frame[0]] = (code, t0, t1, parent, self.job)
            if observe is not None:
                observe(args, result)
            return result

        return traced

    def _wrappers(self):
        """(function, wrapper) for every target the package still has."""
        observers = {"p1.birkhoff_split": self._see_split,
                     "exact.linalg.kernel_basis": self._see_kernel,
                     "flow.higgs_isomorphic": self._see_iso}
        out = []
        for name, (modname, funcs) in TARGETS.items():
            for f in funcs:
                fn = getattr(sys.modules[modname], f, None)
                if fn is None:
                    # a later version may have removed it: the row reads 0
                    self.absent.append(f"{modname}.{f}")
                else:
                    out.append((fn, self._wrap(name, fn, observers.get(name))))
        return out

    def install(self):
        if self._pairs is None:
            self._pairs = self._wrappers()
        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == "hdrflow" or n.startswith("hdrflow."))
                   and m is not None]
        for fn, wrapper in self._pairs:
            for mod in modules:
                for attr, val in list(vars(mod).items()):
                    if val is fn:
                        setattr(mod, attr, wrapper)
                        self._undo.append((mod, attr, fn))

    def uninstall(self):
        for mod, attr, fn in reversed(self._undo):
            setattr(mod, attr, fn)
        self._undo.clear()

    # -- results -----------------------------------------------------------------

    def metrics(self) -> dict:
        """Every per-layer row, by name; ratios over zero calls read 0."""
        out = {}
        for name, st in self.stats.items():
            if name != "cli.render":  # it has as many calls as cli.run
                out[f"{name}.calls"] = st.calls
            out[f"{name}.self_s"] = st.self_ns / 1e9
            if name in TOTALS:
                out[f"{name}.total_s"] = st.total_ns / 1e9
        split = self.stats["p1.birkhoff_split"].calls
        out["p1.birkhoff_split.distinct_ratio"] = (
            len(self.split_inputs) / split if split else 0.0)
        out["exact.linalg.kernel_basis.cells"] = self.kernel_cells
        iso = self.stats["flow.higgs_isomorphic"].calls
        out["flow.higgs_isomorphic.undecided_ratio"] = (
            self.iso_undecided / iso if iso else 0.0)
        return out

    def write(self, path, **header):
        t0 = min((s[1] for s in self.spans), default=0)
        doc = dict(header, fields=["name", "start_ns", "end_ns", "parent",
                                   "job"],
                   names=self.names,
                   spans=[[c, a - t0, b - t0, par, job]
                          for c, a, b, par, job in self.spans])
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))
