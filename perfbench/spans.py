"""Span recorder that traces zeroprod from outside the package.

``Recorder.install`` wraps each traced function and rebinds every
reference to the original function object in every loaded ``zeroprod``
module, so calls through ``from ... import`` copies (``scan.factorize``,
``cli.p_zn``, ...) are traced as well as calls through the defining
module.  ``uninstall`` restores the originals.

Each span records its name, start, end, parent span and the request it
belongs to; spans stay in memory until the run ends.  A span's self time
is its duration minus the time covered by its child spans.
"""

from __future__ import annotations

import functools
import math
import sys
import time
from collections import defaultdict

# Traced functions per module.  Span names are "<module>.<function>".
# Per-element helpers (element_mul, ann_size, is_prime, ...) are left
# unwrapped so their time stays in the caller's self time: build_graph's
# self time includes the Product double loop.
TARGETS = {
    "kernels": [
        "gcd_sum",
        "ann_size_histogram_zn",
        "ann_size_histogram_mixed",
        "ann_pair_count_zn",
        "ann_pair_count_mixed",
        "graph_edges_zn",
        "mc_zero_pairs_zn",
    ],
    "factor": ["factorize", "find_nontrivial_factor"],
    "formulas": [
        "p_zpk",
        "p_zn_from_factorization",
        "p_zn",
        "p_product",
        "lower_bound",
        "upper_bound",
        "p_integral_domain",
        "p_uniform_ann",
        "refined_cap",
        "ann_profile_zpk",
        "bounds_report",
    ],
    "arith": ["rat_str", "rat_decimal", "sqrt_decimal"],
    "rings": [
        "parse_ring",
        "ring_order",
        "zero_divisor_set",
        "zero_divisor_count",
        "max_ann_size",
        "ann_profile",
        "gcd_sum",
        "ann_count_total",
        "prob_brute",
    ],
    "scan": ["scan_row"],
    "verify": ["run_verify"],
    "graph": ["build_graph", "export_dot", "export_edges_csv", "export_vertices_csv"],
    "montecarlo": ["estimate_zero_pairs"],
    "cli": ["main"],
}

# Work done by one kernel call, computed from its arguments.
ELEMENTS = {
    "kernels.gcd_sum": lambda n: n,
    "kernels.ann_size_histogram_zn": lambda n: n,
    "kernels.ann_size_histogram_mixed": lambda mods: math.prod(mods),
    "kernels.ann_pair_count_zn": lambda n: n * n,
    "kernels.ann_pair_count_mixed": lambda mods: math.prod(mods) ** 2,
    "kernels.graph_edges_zn": lambda n, verts: len(verts) * (len(verts) - 1) // 2,
    "kernels.mc_zero_pairs_zn": lambda n, samples, seed: samples,
}


class Recorder:
    def __init__(self):
        self.spans: list = []  # (name, start, end, parent, request, elements)
        self._stack: list[int] = []
        self._request = -1
        self._originals = {}
        for module_name, functions in TARGETS.items():
            module = sys.modules[f"zeroprod.{module_name}"]
            for fn_name in functions:
                original = getattr(module, fn_name)
                name = f"{module_name}.{fn_name}"
                wrapper = self._wrap(name, original, ELEMENTS.get(name))
                self._originals[id(original)] = (original, wrapper)
        self._bindings: list = []

    def _wrap(self, name, fn, elements):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            if parent < 0:
                self._request = index
            spans.append(None)
            stack.append(index)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                work = elements(*args, **kwargs) if elements else 0
                spans[index] = (name, start, end, parent, self._request, work)

        return traced

    def install(self) -> None:
        """Point every zeroprod reference to a traced function at its wrapper."""
        for module_name, module in list(sys.modules.items()):
            if module_name != "zeroprod" and not module_name.startswith("zeroprod."):
                continue
            for attr, obj in list(vars(module).items()):
                original, wrapper = self._originals.get(id(obj), (None, None))
                if original is obj:
                    setattr(module, attr, wrapper)
                    self._bindings.append((module, attr, obj))

    def uninstall(self) -> None:
        for module, attr, original in self._bindings:
            setattr(module, attr, original)
        self._bindings.clear()

    def stats(self) -> dict[str, dict]:
        """Per span name: calls, total_s, self_s and elements."""
        child_time = defaultdict(float)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict] = defaultdict(
            lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "elements": 0}
        )
        for index, (name, start, end, _, _, work) in enumerate(self.spans):
            entry = out[name]
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - child_time[index]
            entry["elements"] += work
        return dict(out)
