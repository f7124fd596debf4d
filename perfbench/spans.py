"""Spans around fsrkit's public functions, recorded from outside the package.

``install`` rebinds each traced function on the module that defines it and on
every fsrkit module that imported it by name, so that internal calls such as
``analyze -> validate_rule`` pass through the wrapper; ``uninstall`` puts the
originals back.  Spans are kept in memory while operations run and are only
aggregated at the end.  A wrapper records nothing outside an operation
(``Tracer.op``), so input construction and output checks do not count.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter
from contextlib import contextmanager

from fsrkit.errors import ValidationFailure


def _count_cells(counters, args, kwargs, result, exc):
    if exc is None:
        cx = result.complex
        counters["rules.cells_built"] += (len(cx.vertices) + len(cx.edges)
                                          + len(cx.tiles))


def _count_collapsible(counters, args, kwargs, result, exc):
    counters["quotients.validate_collapsible.accepted"] += exc is None
    counters["quotients.validate_collapsible.rejected"] += isinstance(
        exc, ValidationFailure)


def _count_certificates(counters, args, kwargs, result, exc):
    # calls with an explicit K are the attempts of the K-grid search
    k_factor = args[2] if len(args) > 2 else kwargs.get("k_factor")
    if k_factor is not None:
        counters["energies.crochet_certificate.attempts"] += 1
        counters["energies.crochet_certificate.certified"] += (
            exc is None and result.certified)


# (module, function) -> optional hook(counters, args, kwargs, result, exc)
TRACED = {
    ("rules", "validate_rule"): None,
    ("rules", "build_rule_index"): None,
    ("rules", "require_valid_rule"): None,
    ("rules", "Tower.build"): None,
    ("rules", "subdivide_once"): _count_cells,
    ("rules", "power"): None,
    ("rules", "shift"): None,
    ("complexes", "validate_complex"): None,
    ("complexes", "dual_skeleton"): None,
    ("dynamics", "build_edge_digraph"): None,
    ("dynamics", "build_tile_digraph"): None,
    ("dynamics", "has_polynomial_growth"): None,
    ("dynamics", "edge_growth_rate"): None,
    ("digraphs", "spectral_radius"): None,
    ("digraphs", "radical_closure"): None,
    ("spines", "is_levy_free"): None,
    ("spines", "non_expanding_spine"): None,
    ("spines", "spine_type_signature"): None,
    ("quotients", "validate_collapsible"): _count_collapsible,
    ("quotients", "quotient_rule"): None,
    ("quotients", "normalize_for_energy"): None,
    ("multicurves", "classify_multicurve"): None,
    ("multicurves", "lambda_p"): None,
    ("multicurves", "critical_exponent"): None,
    ("energies", "natural_energy_levels"): None,
    ("energies", "natural_representative"): None,
    ("energies", "energy_pp"): None,
    ("energies", "e1_exact"): None,
    ("energies", "crochet_certificate"): _count_certificates,
    ("report", "analyze"): None,
    ("io", "canonical_json"): None,
    ("io", "rule_to_json"): None,
    ("io", "rule_from_json"): None,
}


class Tracer:
    def __init__(self):
        self.spans: list = []          # (name, start, end, parent, op)
        self.stack: list[int] = []
        self.current_op = None
        self.counters: Counter = Counter()
        self.bindings: list = []       # (owner, attribute, original, wrapper)

    @contextmanager
    def op(self, op_id):
        self.current_op = op_id
        try:
            yield
        finally:
            self.current_op = None

    def wrap(self, name, fn, hook):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.current_op is None:
                return fn(*args, **kwargs)
            idx = len(self.spans)
            self.spans.append(None)
            parent = self.stack[-1] if self.stack else None
            self.stack.append(idx)
            result = exc = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                exc = e
                raise
            finally:
                end = time.perf_counter()
                self.stack.pop()
                self.spans[idx] = (name, start, end, parent, self.current_op)
                if hook is not None:
                    hook(self.counters, args, kwargs, result, exc)
        return traced

    def install(self) -> None:
        """Rebind every TRACED function across the loaded fsrkit modules."""
        if not self.bindings:
            self.bindings = list(self._find_bindings())
        for owner, attr, _, wrapper in self.bindings:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        """Put every original function back."""
        for owner, attr, orig, _ in self.bindings:
            setattr(owner, attr, orig)

    def _find_bindings(self):
        for (mod_name, qualname), hook in TRACED.items():
            mod = importlib.import_module(f"fsrkit.{mod_name}")
            name = f"{mod_name}.{qualname}"
            if "." in qualname:                  # a classmethod, e.g. Tower.build
                cls_name, attr = qualname.split(".")
                cls = getattr(mod, cls_name)
                orig = cls.__dict__[attr]
                yield cls, attr, orig, classmethod(
                    self.wrap(name, orig.__func__, hook))
                continue
            orig = getattr(mod, qualname)
            wrapped = self.wrap(name, orig, hook)
            for m_name, m in list(sys.modules.items()):
                if m_name == "fsrkit" or m_name.startswith("fsrkit."):
                    for attr, value in list(vars(m).items()):
                        if value is orig:
                            yield m, attr, orig, wrapped

    def layer_stats(self) -> dict[str, dict[str, float]]:
        """calls and self time per traced name; self time is the span's
        duration minus the time its child spans cover."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out = {f"{m}.{q}": {"calls": 0, "self_s": 0.0} for m, q in TRACED}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name]["calls"] += 1
            out[name]["self_s"] += (end - start) - child_time[i]
        return out
