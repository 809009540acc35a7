"""Per-layer attribution by wrapping fthresh's public entry points.

Each wrapped call made while an op runs records a span: entry-point name,
start, end, parent span, op id and one measured value (matrix cells, basis
length, nu + 1). Spans stay in memory, in flat arrays, until the run ends;
`metrics()` then derives counts, inclusive times and self times from them.
Calls made outside an op (input set-up, result checks) are not recorded.

A function imported by name into several modules is replaced in every fthresh
namespace that binds it, so `nu` is traced whether `frobenius`, `verifier` or
`cli` calls it.
"""

from __future__ import annotations

import importlib
import sys
import time
from array import array
from collections import defaultdict

MODULES = ["ring", "ideals", "linalg", "graded", "frobenius", "fsing", "verifier", "cli"]


def _cells(args, result):
    return float(args[0].size)


def _basis_len(args, result):
    return float(len(result))


def _levels(args, result):
    return float(result.nu + 1)


# (module, attribute path, span name, group, measure). A group's time counts
# only its outermost spans, so nested calls inside one group are not counted twice.
ENTRY_POINTS = [
    ("ring", "Polynomial.__mul__", "ring.mul", "ring.mul", None),
    ("ring", "QuotientRing.parse", "ring.parse", "ring.parse", None),
    ("ring", "parse_poly", "ring.parse_poly", "ring.parse", None),
    ("ideals", "Ideal.normal_form", "ideals.nf", "ideals.nf", None),
    ("ideals", "Ideal.contains_poly", "ideals.contains", "ideals.contains", None),
    ("ideals", "buchberger", "ideals.buchberger", "ideals.gb", _basis_len),
    ("ideals", "Ideal.groebner_basis", "ideals.groebner_basis", "ideals.gb", None),
    ("ideals", "Ideal.colon", "ideals.colon", "ideals.colon", None),
    ("ideals", "Ideal.colon_poly", "ideals.colon_poly", "ideals.colon", None),
    ("ideals", "Ideal.intersect", "ideals.intersect", "ideals.colon", None),
    ("linalg", "rref", "linalg.rref", "linalg.rref", _cells),
    ("linalg", "solve", "linalg.solve", "linalg.rref", None),
    ("linalg", "kernel", "linalg.kernel", "linalg.rref", None),
    ("graded", "gr_presentation", "graded.gr_presentation", "graded.gr_presentation", None),
    ("graded", "gr_of_ideal", "graded.gr_of_ideal", "graded.gr_of_ideal", None),
    ("graded", "hilbert_data", "graded.hilbert_data", "graded.hilbert_data", None),
    ("graded", "verify_gr_claim", "graded.verify_gr_claim", "graded.verify_gr_claim", None),
    ("graded", "initial_form", "graded.initial_form", "graded.initial_form", None),
    ("frobenius", "nu", "frobenius.nu", "frobenius.nu", _levels),
    ("frobenius", "NuRecord.verify", "frobenius.verify", "frobenius.verify", None),
    ("frobenius", "threshold_estimate", "frobenius.threshold", "frobenius.threshold", None),
    ("frobenius", "verify_theorem_A", "frobenius.theoremA", "frobenius.theoremA", None),
    ("fsing", "fedder_f_pure", "fsing.fedder", "fsing.fedder", None),
    ("fsing", "fpt_estimate", "fsing.fpt", "fsing.fpt", None),
    ("fsing", "tc_member", "fsing.tc", "fsing.tc", None),
    ("fsing", "f_rational_probe", "fsing.frational", "fsing.frational", None),
    ("verifier", "check_colon_lemma", "verifier.check_colon_lemma", "verifier.check", None),
    ("verifier", "check_reduction", "verifier.check_reduction", "verifier.check", None),
    ("verifier", "check_superficial", "verifier.check_superficial", "verifier.check", None),
    ("verifier", "check_lemma22", "verifier.check_lemma22", "verifier.check", None),
    ("verifier", "check_monotonicity", "verifier.check_monotonicity", "verifier.check", None),
    ("verifier", "check_theorem_A_randomized", "verifier.check_theorem_A", "verifier.check", None),
    ("cli", "Session.load", "cli.load", "cli.load", None),
    ("cli", "run", "cli.run", "cli.run", None),
]

# Span groups each workload must record at least once (the tracer self-check):
# the "should move ... on workload" table of NOTES.md. `initial_form` is only
# reached by the `initial` and `check colon-lemma` commands, so fixtures-cli
# carries it.
EXPECTED_GROUPS = {
    "fixtures-cli": ["ring.parse", "ideals.gb", "ideals.colon", "graded.initial_form",
                     "fsing.fedder", "fsing.fpt", "fsing.tc", "fsing.frational",
                     "cli.load", "cli.run", "cli.handler"],
    "tangent-cone": ["linalg.rref", "graded.gr_presentation", "graded.gr_of_ideal",
                     "graded.hilbert_data", "graded.verify_gr_claim"],
    "nu-scan": ["ring.mul", "ideals.nf", "ideals.contains", "frobenius.nu", "frobenius.verify",
                "frobenius.threshold"],
    "theoremA-suite": ["ideals.gb", "linalg.rref", "frobenius.nu", "frobenius.verify",
                       "frobenius.threshold", "frobenius.theoremA", "verifier.check"],
}

# Metrics that count work; they must repeat exactly between two traced runs.
COUNT_METRICS = [
    "ring.mul_calls", "ideals.nf_calls", "ideals.contains_calls", "ideals.gb_calls",
    "ideals.gb_basis_len_max", "ideals.colon_calls", "linalg.rref_calls",
    "linalg.rref_cells_max", "linalg.rref_cells_sum", "frobenius.nu_calls", "frobenius.levels",
    "verifier.check_calls",
]


class Tracer:
    def __init__(self):
        self.op = -1
        self.names: list = []
        self.groups: list = []
        self._stack = [-1]
        self._depth: dict = defaultdict(int)
        self.name = array("i")
        self.parent = array("i")
        self.op_id = array("i")
        self.outer = array("b")
        self.start = array("d")
        self.end = array("d")
        self.value = array("d")

    def _wrap(self, fn, span_name, group, measure):
        nid = len(self.names)
        self.names.append(span_name)
        self.groups.append(group)
        clock = time.perf_counter
        depth = self._depth
        stack = self._stack
        tr = self

        def traced(*args, **kwargs):
            if tr.op < 0:
                return fn(*args, **kwargs)
            i = len(tr.start)
            tr.name.append(nid)
            tr.parent.append(stack[-1])
            tr.op_id.append(tr.op)
            tr.outer.append(depth[group] == 0)
            tr.value.append(0.0)
            tr.end.append(0.0)
            depth[group] += 1
            stack.append(i)
            tr.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                tr.end[i] = clock()
                stack.pop()
                depth[group] -= 1
            if measure is not None:
                tr.value[i] = measure(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Replace every entry point in every fthresh namespace that binds it."""
        namespaces = [sys.modules["fthresh"]] + [
            importlib.import_module(f"fthresh.{m}") for m in MODULES
        ]
        for module_name, path, span_name, group, measure in ENTRY_POINTS:
            module = importlib.import_module(f"fthresh.{module_name}")
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    setattr(cls, attr, classmethod(self._wrap(raw.__func__, span_name, group, measure)))
                else:
                    setattr(cls, attr, self._wrap(raw, span_name, group, measure))
                continue
            original = getattr(module, path)
            traced = self._wrap(original, span_name, group, measure)
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is original:
                        setattr(ns, key, traced)
        cli = importlib.import_module("fthresh.cli")
        for command, (handler, required) in list(cli._COMMANDS.items()):
            cli._COMMANDS[command] = (self._wrap(handler, "cli.handler", "cli.handler", None), required)

    def metrics(self):
        """Per-layer metrics from every recorded span; also the span groups seen and call counts."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        covered = [0.0] * n
        under_nu = [False] * n
        has_gb_child = [False] * n
        names, groups = self.names, self.groups
        nu_id = names.index("frobenius.nu")
        bb_id = names.index("ideals.buchberger")
        for i in range(n):
            par = self.parent[i]
            if par >= 0:
                covered[par] += dur[i]
                under_nu[i] = under_nu[par] or self.name[par] == nu_id
                if self.name[i] == bb_id:
                    has_gb_child[par] = True
        calls: dict = defaultdict(int)
        group_s: dict = defaultdict(float)
        module_self: dict = defaultdict(float)
        values: dict = defaultdict(list)
        gb_cached = 0
        nf_under_nu = 0
        for i in range(n):
            name = names[self.name[i]]
            calls[name] += 1
            if self.outer[i]:
                group_s[groups[self.name[i]]] += dur[i]
                calls["outer:" + groups[self.name[i]]] += 1
            module_self[name.split(".")[0]] += dur[i] - covered[i]
            values[name].append(self.value[i])
            if name == "ideals.groebner_basis" and not has_gb_child[i]:
                gb_cached += 1
            if name == "ideals.nf" and under_nu[i]:
                nf_under_nu += 1
        levels = sum(values["frobenius.nu"])
        cells = values["linalg.rref"]
        run_s = group_s["cli.run"]
        out = {
            "ring.mul_calls": calls["ring.mul"],
            "ring.mul_s": group_s["ring.mul"],
            "ring.parse_s": group_s["ring.parse"],
            "ideals.nf_calls": calls["ideals.nf"],
            "ideals.nf_s": group_s["ideals.nf"],
            "ideals.contains_calls": calls["ideals.contains"],
            "ideals.contains_s": group_s["ideals.contains"],
            "ideals.gb_calls": calls["ideals.buchberger"],
            "ideals.gb_s": group_s["ideals.gb"],
            "ideals.gb_basis_len_max": max(values["ideals.buchberger"], default=0),
            "ideals.gb_cache_hit_ratio": gb_cached / max(calls["ideals.groebner_basis"], 1),
            "ideals.colon_calls": calls["outer:ideals.colon"],
            "ideals.colon_s": group_s["ideals.colon"],
            "linalg.rref_calls": calls["linalg.rref"],
            "linalg.rref_s": group_s["linalg.rref"],
            "linalg.rref_cells_max": max(cells, default=0),
            "linalg.rref_cells_sum": sum(cells),
            "graded.gr_presentation_s": group_s["graded.gr_presentation"],
            "graded.gr_of_ideal_s": group_s["graded.gr_of_ideal"],
            "graded.hilbert_data_s": group_s["graded.hilbert_data"],
            "graded.verify_gr_claim_s": group_s["graded.verify_gr_claim"],
            "graded.initial_form_s": group_s["graded.initial_form"],
            "frobenius.nu_calls": calls["frobenius.nu"],
            "frobenius.nu_s": group_s["frobenius.nu"],
            "frobenius.verify_s": group_s["frobenius.verify"],
            "frobenius.levels": levels,
            "frobenius.nf_per_level": nf_under_nu / levels if levels else 0.0,
            "frobenius.threshold_s": group_s["frobenius.threshold"],
            "frobenius.theoremA_s": group_s["frobenius.theoremA"],
            "fsing.fedder_s": group_s["fsing.fedder"],
            "fsing.fpt_s": group_s["fsing.fpt"],
            "fsing.tc_s": group_s["fsing.tc"],
            "fsing.frational_s": group_s["fsing.frational"],
            "verifier.check_calls": calls["outer:verifier.check"],
            "verifier.check_s": group_s["verifier.check"],
            "cli.load_s": group_s["cli.load"],
            "cli.overhead_s": run_s - group_s["cli.handler"],
        }
        for module in MODULES:
            out[f"{module}.self_s"] = module_self[module]
        seen_groups = {groups[self.name[i]] for i in range(n)}
        return out, seen_groups, dict(calls)
