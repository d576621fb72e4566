"""In-process tracer for one `anyonrep verify` child.

Every public function of the package modules is replaced by a timing wrapper
in each module namespace that bound it (the modules use ``from .fock import
...``, so patching only the defining module would miss most calls), and in
the ``verify.SUITES`` registry.  Spans are aggregated in memory per function:
call count, inclusive seconds and self seconds (duration minus the time
covered by direct child spans).  ``layer_metrics`` folds the per-function
totals into the named per-layer metrics of the benchmark.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import defaultdict

MODULES = ("fock", "oscillators", "anyons", "algebra", "verify", "report", "cli")

# layer group -> functions in it, as "module.function"
GROUPS = {
    "fock.q_number": ("fock.q_number",),
    "fock.diag": ("fock.diag_operator", "fock.diag_exp", "fock.q_bracket_diag"),
    "fock.ladder": ("fock.fermion_annihilate", "fock.boson_annihilate",
                    "fock.annihilate", "fock.create"),
    "fock.basis": ("fock.build_basis",),
    "fock.projector": ("fock.bulk_projector", "fock.bulk_mask"),
    "oscillators.q_boson": ("oscillators.q_boson_annihilate",
                            "oscillators.q_boson_create"),
    "anyons.anyon": ("anyons.anyon",),
    "anyons.string": ("anyons.disorder_factor", "anyons.disorder_exponent",
                      "anyons.string_exponent"),
    "algebra.generators": ("algebra.chevalley_generators",),
    "algebra.cartan_weyl": ("algebra.cartan_weyl_generators",
                            "algebra.cartan_weyl_h"),
    "report.check": ("report.check_identity",),
    # the suite bodies, where the relation products are formed
    "verify.products": ("oscillators.suite_oscillators", "anyons.suite_braiding",
                        "verify.suite_quantum", "verify.suite_serre",
                        "verify.suite_undeformed", "verify.suite_coproduct",
                        "verify.suite_classical_limit",
                        "verify.suite_central_charge", "verify.suite_cartan_weyl",
                        "verify.ad_q", "verify.ad_q_hopf"),
}


def _csr_bytes(m) -> int:
    """Bytes of a CSR operand's arrays (computed from sizes, not measured)."""
    return m.data.nbytes + m.indices.nbytes + m.indptr.nbytes


def _observe_generators(args, kwargs, genset) -> dict:
    nnz = sum(m.nnz for m in genset.H.values()) + sum(m.nnz for m in genset.E.values())
    return {"algebra.generators.nnz": nnz}


def _observe_check(args, kwargs, report) -> dict:
    lhs, rhs = args[2], args[3]
    proj = args[4] if len(args) > 4 else kwargs.get("projector")
    operands = [lhs, rhs] + ([proj] if proj is not None else [])
    return {"report.check.nnz_in": lhs.nnz + rhs.nnz,
            "report.check.bytes_computed": sum(_csr_bytes(m) for m in operands)}


OBSERVERS = {
    "algebra.chevalley_generators": _observe_generators,
    "report.check_identity": _observe_check,
}
COUNTERS = ("algebra.generators.nnz", "report.check.nnz_in",
            "report.check.bytes_computed")


class Tracer:
    """Aggregated spans for one process; install once, read at the end."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.inclusive = defaultdict(float)
        self.self_s = defaultdict(float)
        self.counters = dict.fromkeys(COUNTERS, 0)
        self._stack = [0.0]  # child time accumulated by each open span

    def record(self, key: str, seconds: float):
        """Add a span that ran before tracing was installed (the import)."""
        self.calls[key] += 1
        self.inclusive[key] += seconds
        self.self_s[key] += seconds

    def wrap(self, key: str, fn):
        clock = time.perf_counter
        stack = self._stack
        calls, inclusive, self_s = self.calls, self.inclusive, self.self_s
        observe = OBSERVERS.get(key)
        counters = self.counters

        @functools.wraps(fn)
        def span(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = stack.pop()
                calls[key] += 1
                inclusive[key] += dt
                self_s[key] += dt - child
                stack[-1] += dt
            if observe is not None:
                t1 = clock()
                for name, value in observe(args, kwargs, result).items():
                    counters[name] += value
                # observer time is tracer overhead: hide it from the parent's self time
                stack[-1] += clock() - t1
            return result

        return span

    def install(self, package):
        """Wrap every public function of ``MODULES`` wherever it is bound."""
        modules = {name: getattr(package, name) for name in MODULES}
        namespaces = list(modules.values()) + [package]
        replaced = {}
        for mod_name, mod in modules.items():
            for name, obj in vars(mod).items():
                if name.startswith("_") or inspect.isclass(obj) or not callable(obj):
                    continue
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                replaced[id(obj)] = self.wrap(f"{mod_name}.{name}", obj)
        for ns in namespaces:
            for name, obj in list(vars(ns).items()):
                if id(obj) in replaced:
                    setattr(ns, name, replaced[id(obj)])
        suites = modules["verify"].SUITES
        for name, fn in list(suites.items()):
            suites[name] = replaced.get(id(fn), fn)

    def layer_metrics(self, suite_keys: dict) -> dict:
        """Per-layer metrics of this process.

        ``suite_keys`` maps suite name -> traced function key.
        """
        out = {}
        for group, keys in GROUPS.items():
            out[f"{group}.calls"] = sum(self.calls[k] for k in keys)
            out[f"{group}.self_s"] = sum(self.self_s[k] for k in keys)
        for mod in MODULES:
            out[f"{mod}.self_s"] = sum(v for k, v in self.self_s.items()
                                       if k.split(".", 1)[0] == mod)
        for suite, key in suite_keys.items():
            out[f"verify.{suite}.s"] = self.inclusive[key]
        out.update(self.counters)
        return out
