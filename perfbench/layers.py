"""Per-layer timing and counting by wrapping `unideal` functions from outside.

`Tracer.install()` replaces each target with a wrapper that keeps a stack of
active calls, so every call gets a self time (its duration minus the time of
the wrapped calls it made) and its caller's name.  Coarse calls, made a few
times per operation, also append a span (name, operation id, parent, start,
end); hot inner calls (polynomial products, reductions, circuit evaluations)
only add to counters, because a vertex-cover operation makes about 10^4 of
them.  `uninstall()` puts every original back and `leftovers()` proves it.

Methods are wrapped on their class.  Module functions are wrapped under every
name that binds them in any loaded `unideal` module, so a `from .x import f`
import site cannot escape the trace.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

# (metric stem, "module:qualname", records spans)
TARGETS = [
    ("cli", "unideal.cli:main", True),
    ("io.parse", "unideal.io:parse_matrix", True),
    ("io.parse", "unideal.io:parse_circuit", True),
    ("io.parse", "unideal.io:parse_ideal", True),
    ("io.parse", "unideal.io:parse_graph", True),
    ("io.parse", "unideal.io:parse_lowrank", True),
    ("io.parse", "unideal.io:parse_forms", True),
    ("io.parse", "unideal.io:parse_point", True),
    ("io.parse", "unideal.io:parse_certificate", True),
    ("linalg.rank_basis", "unideal.linalg:rank_and_row_basis", True),
    ("linalg.congruence", "unideal.linalg:congruence_diagonalize", True),
    ("linalg.inverse", "unideal.linalg:Matrix.inverse", True),
    ("apps.perm", "unideal.apps:permanent_lowrank", True),
    ("apps.vc_build", "unideal.apps:build_vc_instance", True),
    ("apps.vc", "unideal.apps:vertex_cover_lowrank", True),
    ("lowrank.prepare", "unideal.lowrank:RemEvaluator.__init__", True),
    ("lowrank.materialize", "unideal.lowrank:RemEvaluator._materialize", True),
    ("lowrank.eval", "unideal.lowrank:RemEvaluator.eval", True),
    ("lowrank.compose", "unideal.lowrank:_compose_reduced", False),
    ("lowrank.expand_reduced", "unideal.lowrank:_eval_circuit_reduced", True),
    ("poly.substitute", "unideal.poly:SparsePoly.substitute_prefix", False),
    ("poly.mul", "unideal.poly:SparsePoly.mul", False),
    ("division.reduce", "unideal.division:_Reducer.reduce", False),
    ("division.zero_test", "unideal.division:random_zero_test", True),
    ("hadamard.test", "unideal.hadamard:membership_powers", True),
    ("hadamard.build", "unideal.hadamard:build_detection_circuit", True),
    ("hadamard.eval", "unideal.hadamard:scaled_hadamard_eval", True),
    ("circuits.homogeneous", "unideal.circuits:homogeneous_part_eval", False),
    ("circuits.power_decompose", "unideal.circuits:power_decompose_product", False),
    ("circuits.evaluate", "unideal.circuits:Circuit.evaluate", False),
    ("circuits.expand", "unideal.circuits:expand", True),
    ("poly.divmod", "unideal.poly:UnivariatePoly.divmod", False),
    ("poly.charpoly", "unideal.poly:charpoly", True),
    ("fields.prime", "unideal.fields:random_prime", True),
    ("certifier.threshold", "unideal.certifier:compute_threshold", True),
    ("certifier.grid_bound", "unideal.certifier:_grid_value_lower_bound", True),
    ("division.quotients", "unideal.division:divide_with_quotients", True),
    ("certifier.roots", "unideal.certifier:approximate_roots", True),
    ("certifier.dk", "unideal.certifier:_durand_kerner", True),
    ("certifier.search", "unideal.certifier:search_nonmembership", True),
    ("certifier.verify", "unideal.certifier:verify_certificate", True),
]

# Per-layer metric -> unit, as BENCHMARK.json lists them.  "_s" metrics are
# self times, except four that cover a whole path: lowrank.prepare_s,
# lowrank.materialize_s and lowrank.eval_s include their callees (the
# materialize-or-walk trade-off is read off them), and apps.vc_no_s /
# apps.vc_yes_s are whole vertex_cover_lowrank calls split by the answer they
# returned.
METRICS = {
    m["name"]: m["unit"]
    for m in json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())["per_layer"]
}


def _unideal_modules():
    return [m for name, m in sorted(sys.modules.items())
            if (name == "unideal" or name.startswith("unideal.")) and m is not None]


def _resolve(spec: str):
    """(owner, attribute, function, is a method), or None once the code is gone."""
    module_name, qual = spec.split(":")
    obj = sys.modules.get(module_name)
    *owners, attr = qual.split(".")
    for name in owners:
        obj = getattr(obj, name, None)
    if obj is None or attr not in vars(obj):
        return None
    return obj, attr, vars(obj)[attr], bool(owners)


class Tracer:
    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.peaks = defaultdict(float)
        self.spans: list = []
        self.missing: list = []  # targets the program no longer has; they read 0
        self.op_id = None
        self._stack: list = []
        self._patches: list = []
        self._after = {
            "apps.vc": self._after_vc,
            "lowrank.prepare": self._after_prepare,
            "lowrank.eval": self._after_eval,
            "lowrank.compose": self._after_lowrank_poly,
            "lowrank.expand_reduced": self._after_lowrank_poly,
            "poly.mul": self._after_mul,
            "division.reduce": self._after_reduce,
            "hadamard.build": self._after_build,
            "circuits.evaluate": self._after_evaluate,
            "poly.charpoly": self._after_charpoly,
        }

    # -- installing ------------------------------------------------------------

    def install(self):
        for stem, spec, span in TARGETS:
            target = _resolve(spec)
            if target is None:
                self.missing.append(spec)
                continue
            owner, attr, original, is_method = target
            wrapper = self._wrap(stem, original, span)
            for site in [owner] if is_method else _unideal_modules():
                for name, value in list(vars(site).items()):
                    if value is original:
                        setattr(site, name, wrapper)
                        self._patches.append((site, name, original))

    def uninstall(self):
        for site, name, original in reversed(self._patches):
            setattr(site, name, original)
        self._patches.clear()

    @staticmethod
    def leftovers() -> list:
        """Names in `unideal` modules or classes still bound to a wrapper."""
        found = []
        for mod in _unideal_modules():
            for name, value in vars(mod).items():
                places = [(name, value)]
                if isinstance(value, type):
                    places += [(f"{name}.{k}", v) for k, v in vars(value).items()]
                for where, v in places:
                    if getattr(v, "__perfbench_wrapper__", False):
                        found.append(f"{mod.__name__}.{where}")
        return found

    def _wrap(self, stem, fn, span):
        stack = self._stack
        after = self._after.get(stem)
        perf = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            frame = [stem, 0.0]
            stack.append(frame)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                dur = t1 - t0
                self.calls[stem] += 1
                self.self_s[stem] += dur - frame[1]
                self.total_s[stem] += dur
                if stack:
                    stack[-1][1] += dur
                if span:
                    self.spans.append((stem, self.op_id, parent, t0, t1))
            if after is not None:
                after(args, result, parent, dur)
            return result

        wrapper.__perfbench_wrapper__ = True
        return wrapper

    # -- counters read at the call boundary -----------------------------------

    def _after_vc(self, args, result, parent, dur):
        self.total_s["apps.vc_yes" if result else "apps.vc_no"] += dur

    # Private attributes are read with defaults, so a refactor that drops one
    # zeroes a counter instead of breaking the traced run.

    def _after_prepare(self, args, result, parent, dur):
        ev = args[0]
        self.counts["materialized"] += getattr(ev, "_full", None) is not None
        self.peaks["depth"] = max(self.peaks["depth"], getattr(ev, "depth", 0))

    def _after_eval(self, args, result, parent, dur):
        self.counts["walked"] += getattr(args[0], "_full", None) is None
        self.counts["zero_test_points"] += parent == "division.zero_test"

    def _after_lowrank_poly(self, args, result, parent, dur):
        cap = args[4] if len(args) > 4 else None
        if cap:
            self.peaks["terms_over_cap"] = max(self.peaks["terms_over_cap"], len(result.terms) / cap)

    def _after_mul(self, args, result, parent, dur):
        self.counts["mul_term_pairs"] += len(args[0].terms) * len(args[1].terms)
        self.counts["mul_terms_out"] += len(result.terms)

    def _after_reduce(self, args, result, parent, dur):
        self.counts["reduce_terms_in"] += len(args[1].terms)
        self.counts["reduce_terms_out"] += len(result.terms)

    def _after_build(self, args, result, parent, dur):
        self.counts["summands"] += len(result.summands)

    def _after_evaluate(self, args, result, parent, dur):
        self.counts["tuples"] += parent == "certifier.search"

    def _after_charpoly(self, args, result, parent, dur):
        self.counts["charpoly_dim"] += args[0].nrows

    # -- report ----------------------------------------------------------------

    def metrics(self) -> dict:
        c, s = self.calls, self.self_s
        prepares = c["lowrank.prepare"]
        values = {
            "apps.vc_no_s": self.total_s["apps.vc_no"],
            "apps.vc_yes_s": self.total_s["apps.vc_yes"],
            "lowrank.prepare_calls": prepares,
            "lowrank.prepare_s": self.total_s["lowrank.prepare"],
            "lowrank.materialize_s": self.total_s["lowrank.materialize"],
            "lowrank.eval_s": self.total_s["lowrank.eval"],
            "lowrank.materialized_frac": self.counts["materialized"] / prepares if prepares else 0.0,
            "lowrank.eval_calls": c["lowrank.eval"],
            "lowrank.walked_evals": self.counts["walked"],
            "lowrank.depth": int(self.peaks["depth"]),
            "lowrank.peak_terms_over_cap": self.peaks["terms_over_cap"],
            "poly.mul_calls": c["poly.mul"],
            "poly.mul_term_pairs": self.counts["mul_term_pairs"],
            "poly.mul_terms_out": self.counts["mul_terms_out"],
            "division.reduce_calls": c["division.reduce"],
            "division.reduce_terms_in": self.counts["reduce_terms_in"],
            "division.reduce_terms_out": self.counts["reduce_terms_out"],
            "division.zero_test_points": self.counts["zero_test_points"],
            "division.zero_test_decisions": c["division.zero_test"],
            "hadamard.summands": self.counts["summands"],
            "hadamard.eval_calls": c["hadamard.eval"],
            "circuits.homogeneous_calls": c["circuits.homogeneous"],
            "circuits.evaluate_calls": c["circuits.evaluate"],
            "poly.divmod_calls": c["poly.divmod"],
            "poly.charpoly_dim": self.counts["charpoly_dim"],
            "fields.primes_drawn": c["fields.prime"],
            "certifier.dk_runs": c["certifier.dk"],
            "certifier.tuples": self.counts["tuples"],
        }
        for name in METRICS:
            if name not in values:
                stem = "cli" if name == "cli.self_s" else name[: -len("_s")]
                values[name] = s[stem]
        return {name: values[name] for name in METRICS}
