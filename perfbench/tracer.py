"""Spans around calls into the engine's public functions, recorded from outside.

`install()` replaces each traced function by a wrapper in every loaded
`golden_spectra` module that binds it.  A name imported with
`from .algebra import char_poly` is a separate binding in the importing
module, so wrapping only `algebra.char_poly` would miss most calls.

A span is (name, start, end, parent, extra): `parent` is the index of the
enclosing traced span or -1, and `extra` is one integer that the layer
metrics need (the matrix order, the graph's vertex count, whether a search
found something, the bytes a census write produced; for an enumeration,
its member and candidate counts).  Spans stay in memory
and are written out once, after the timed region.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
import time

# (defining module, function) -> extra(args, result), or None for no extra.
TRACED = {
    ("algebra", "char_poly"): lambda a, r: len(a[0]),
    ("algebra", "count_roots_below"): None,
    ("algebra", "lambda_min_at_least"): None,
    ("algebra", "isolate_smallest_root"): None,
    ("algebra", "squarefree_decomposition"): None,
    ("iso", "canonical_key"): lambda a, r: a[0].vertex_count,
    ("iso", "contains_induced"): lambda a, r: int(r is not None),
    ("enumeration", "enumerate_signed"): lambda a, r: _census_size(r),
    ("enumeration", "lambda_descriptor"): None,
    ("enumeration", "verify_extension_step"): None,
    ("enumeration", "brute_force_signed_keys"): None,
    ("enumeration", "realize_hoffman"): None,
    ("enumeration", "classify_irreducible"): None,
    ("enumeration", "maximal_members"): None,
    ("decomp", "find_reducibility_witness"): lambda a, r: int(r is not None),
    ("spectral", "b_matrix"): None,
    ("spectral", "special_graph"): None,
    ("model", "from_text"): None,
    ("model", "recognize_q"): None,
    ("censusio", "write_signed_census"): lambda a, r: os.path.getsize(a[1]),
    ("censusio", "write_named_signed"): lambda a, r: os.path.getsize(a[1]),
    ("censusio", "write_hoffman_census"): lambda a, r: os.path.getsize(a[1]),
    ("censusio", "write_manifest"): lambda a, r: os.path.getsize(a[1]),
    ("censusio", "read_hoffman_census"): None,
    ("cli", "main"): None,
}


def _census_size(census) -> list:
    """[members, candidates]: a level-n candidate is a member of level n-1
    plus a sign vector for the new vertex (all-zero excluded if connected)."""
    by_n = census.by_n
    candidates = sum(len(by_n.get(n - 1, ())) * (3 ** (n - 1) - census.connected)
                     for n in range(2, census.max_n + 1))
    return [sum(len(v) for v in by_n.values()), candidates]


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._stack: list = []

    def wrap(self, name: str, fn, extra):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, 0]
            spans.append(span)
            stack.append(index)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if extra is not None:
                span[4] = extra(args, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every traced function in every engine module binding it."""
        for module, _ in TRACED:
            importlib.import_module(f"golden_spectra.{module}")
        modules = [m for key, m in list(sys.modules.items())
                   if key == "golden_spectra" or key.startswith("golden_spectra.")]
        for (module, func), extra in TRACED.items():
            original = getattr(sys.modules[f"golden_spectra.{module}"], func)
            wrapper = self.wrap(f"{module}.{func}", original, extra)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, wrapper)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh, separators=(",", ":"))
