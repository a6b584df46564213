"""Span tracing installed from outside the program.

The tracer wraps the public functions of the six ffwitness layers in every
``ffwitness`` module namespace that binds them (``construct``, ``charsum``,
``poly`` and ``cli`` import by name, so patching only the defining module
would miss their calls), and the vector kernels and polynomial division on
their classes. Scalar ``*_idx`` operations and ``FieldElement`` arithmetic
are deliberately left alone: they run millions of times per pass, so a
wrapper would swamp them; their cost lands in the self time of the
enclosing span.

Each span is ``[name, start, end, parent, op, child_s]`` and stays in memory
until the pass ends. Self time is the duration minus ``child_s``, the time
covered by direct children; spans nest exactly because every call is
synchronous on one thread.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

# (module, attribute, workloads on which the name must record a call)
FUNCTIONS = [
    ("nt", "factorize", {"survey"}),
    ("nt", "prime_powers_in", {"survey"}),
    ("field", "make_field", {"survey", "coset-scan"}),
    ("field", "get_embedding", {"survey", "coset-scan"}),
    ("poly", "roots_in_extension", {"weil-audit"}),
    ("poly", "poly_powmod", {"weil-audit"}),
    ("poly", "squarefree_part", {"weil-audit"}),
    ("charsum", "weil_audit_instances", {"weil-audit"}),
    ("charsum", "incomplete_char_sum", {"weil-audit"}),
    ("charsum", "weil_applicability", {"weil-audit"}),
    ("construct", "survey_rows", {"survey"}),
    ("construct", "construct_pipeline", {"survey"}),
    ("construct", "build_set", {"survey"}),
    ("construct", "find_non_dth_power", {"survey"}),
    ("construct", "coset_power_gcds", {"coset-scan"}),
    ("construct", "base_image_mask", {"coset-scan"}),
    ("cli", "main", {"survey", "weil-audit"}),
]

# FieldDescriptor vector kernels: (method, split by characteristic,
# workloads). add/sub take the XOR path at p = 2 and the digit path
# otherwise, so each is reported as two names, .p2 and .podd.
KERNELS = [
    ("add_vec", True, {"coset-scan"}),
    ("sub_vec", True, {"coset-scan"}),
    ("mul_vec", False, {"survey", "weil-audit"}),
    ("pow_vec", False, {"survey", "coset-scan"}),
    ("log_vec", False, {"coset-scan"}),
    ("eval_poly_vec", False, {"survey", "weil-audit"}),
]

DIVMOD = "poly.Polynomial.divmod"

VERDICTS = ("true", "false", "undecided", "shortcut")

KERNEL_NAMES = {
    f"field.{method}{suffix}": where
    for method, split, where in KERNELS
    for suffix in ((".podd", ".p2") if split else ("",))
}

# every span name with the workloads on which it must record a call
TRACED = {
    **{f"{mod}.{attr}": where for mod, attr, where in FUNCTIONS},
    **KERNEL_NAMES,
    DIVMOD: {"weil-audit"},
}


def metric_units() -> dict[str, str]:
    """Every per-layer metric the traced run prints, with its unit."""
    units = {}
    for name in TRACED:
        units[f"{name}.calls"] = "count"
        units[f"{name}.s"] = "s"
        units[f"{name}.self_s"] = "s"
    units["field.make_field.misses"] = "count"
    units["field.make_field.miss_s"] = "s"
    units["field.make_field.hit_ratio"] = "ratio"
    units["field.get_embedding.misses"] = "count"
    units["field.get_embedding.miss_s"] = "s"
    units["field.table_bytes_computed"] = "bytes"
    for name in KERNEL_NAMES:
        units[f"{name}.elems"] = "count"
        units[f"{name}.ns_per_elem"] = "ns"
    for v in VERDICTS:
        units[f"charsum.verdict.{v}"] = "count"
    units["charsum.applicable_ratio"] = "ratio"
    units["cli.output_bytes"] = "bytes"
    units["trace.overhead_s"] = "s"
    units["trace.uncovered_s"] = "s"
    return units


def is_exact_count(metric: str) -> bool:
    """Counts that must repeat exactly across passes at one seed."""
    return (
        metric.endswith((".calls", ".misses", ".elems"))
        or metric.startswith("charsum.verdict.")
        or metric in ("cli.output_bytes", "field.table_bytes_computed")
    )


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = -1
        self.elems: dict[str, int] = {}
        self.misses: dict[str, list[float]] = {"field.make_field": [], "field.get_embedding": []}
        self.seen: dict[str, dict[int, object]] = {k: {} for k in self.misses}
        self.table_bytes = 0
        self.verdicts = dict.fromkeys(VERDICTS, 0)
        self.output_bytes = 0

    # -- span recording ------------------------------------------------------

    def _wrap(self, name_of, fn, on_return=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            rec = [name_of(args), clock(), 0.0, parent, self.op, 0.0]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                rec[2] = end = clock()
                if parent >= 0:
                    spans[parent][5] += end - rec[1]
            if on_return is not None:
                on_return(rec, args, result)
            return result

        return functools.update_wrapper(wrapper, fn)

    def _count_elems(self, rec, args, result):
        self.elems[rec[0]] = self.elems.get(rec[0], 0) + result.size

    def _cache_probe(self, key):
        seen = self.seen[key]

        def on_return(rec, args, result):
            # a result object this pass has not seen was built by this call;
            # holding it keeps its id from being reused by a later build
            if id(result) not in seen:
                seen[id(result)] = result
                self.misses[key].append(rec[2] - rec[1])
                if key == "field.make_field":
                    self.table_bytes += 16 * result.Q

        return on_return

    def _on_verdict(self, rec, args, result):
        v = self.verdicts
        if result.applicable is None:
            v["undecided"] += 1
        elif result.applicable:
            v["true"] += 1
        else:
            v["false"] += 1
        if result.shortcut_used:
            v["shortcut"] += 1

    def _reset_table_bytes(self):
        self.table_bytes = 0

    def install(self, package) -> None:
        """Wrap every traced name in every module namespace that binds it."""
        for mod, _, _ in FUNCTIONS:
            importlib.import_module(f"{package.__name__}.{mod}")
        modules = [m for n, m in sys.modules.items() if n == package.__name__ or n.startswith(package.__name__ + ".")]
        hooks = {
            "field.make_field": self._cache_probe("field.make_field"),
            "field.get_embedding": self._cache_probe("field.get_embedding"),
            "charsum.weil_applicability": self._on_verdict,
        }
        for mod, attr, _ in FUNCTIONS:
            name = f"{mod}.{attr}"
            original = getattr(sys.modules[f"{package.__name__}.{mod}"], attr)
            wrapper = self._wrap(lambda args, n=name: n, original, hooks.get(name))
            for m in modules:
                for key, val in list(vars(m).items()):
                    if val is original:
                        setattr(m, key, wrapper)
        fd_cls = package.field.FieldDescriptor
        for method, split, _ in KERNELS:
            original = getattr(fd_cls, method)
            if split:
                names = {True: f"field.{method}.p2", False: f"field.{method}.podd"}
                name_of = lambda args, n=names: n[args[0].p == 2]
            else:
                name_of = lambda args, n=f"field.{method}": n
            setattr(fd_cls, method, self._wrap(name_of, original, self._count_elems))
        poly_cls = package.poly.Polynomial
        poly_cls.__divmod__ = self._wrap(lambda args: DIVMOD, poly_cls.__divmod__)
        package.field.register_cache_hook(self._reset_table_bytes)

    # -- aggregation -----------------------------------------------------------

    def metrics(self, wall_s: float) -> dict[str, float]:
        """Per-layer metrics of one traced pass (trace.overhead_s is left to
        the caller, which also has the untraced pass)."""
        calls: dict[str, int] = {}
        incl: dict[str, float] = {}
        self_s: dict[str, float] = {}
        root_s = 0.0
        for name, start, end, parent, _op, child in self.spans:
            dur = end - start
            calls[name] = calls.get(name, 0) + 1
            incl[name] = incl.get(name, 0.0) + dur
            self_s[name] = self_s.get(name, 0.0) + dur - child
            if parent < 0:
                root_s += dur
        out: dict[str, float] = {}
        for name in TRACED:
            out[f"{name}.calls"] = calls.get(name, 0)
            out[f"{name}.s"] = incl.get(name, 0.0)
            out[f"{name}.self_s"] = self_s.get(name, 0.0)
        for key, durs in self.misses.items():
            out[f"{key}.misses"] = len(durs)
            out[f"{key}.miss_s"] = sum(durs)
        n = calls.get("field.make_field", 0)
        out["field.make_field.hit_ratio"] = (n - len(self.misses["field.make_field"])) / n if n else 0.0
        out["field.table_bytes_computed"] = self.table_bytes
        for name in KERNEL_NAMES:
            e = self.elems.get(name, 0)
            out[f"{name}.elems"] = e
            out[f"{name}.ns_per_elem"] = incl.get(name, 0.0) * 1e9 / e if e else 0.0
        out.update({f"charsum.verdict.{v}": c for v, c in self.verdicts.items()})
        draws = self.verdicts["true"] + self.verdicts["false"] + self.verdicts["undecided"]
        out["charsum.applicable_ratio"] = self.verdicts["true"] / draws if draws else 0.0
        out["cli.output_bytes"] = self.output_bytes
        out["trace.uncovered_s"] = wall_s - root_s
        return out

    def dump(self, path) -> None:
        """Write the spans out, one JSON array per line:
        name, start, end, parent index, operation id."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op, _child in self.spans:
                fh.write(json.dumps([name, round(start, 9), round(end, 9), parent, op]) + "\n")
