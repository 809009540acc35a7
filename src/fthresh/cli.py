"""Batch front end: session files, one command per operation, deterministic reports.

A session file is a single JSON document describing the ring, named ideals,
named elements, and options. Reports are JSON with every numeric an exact
integer or an integer pair (never floats); timings live outside the
digest-checked region so identical inputs produce byte-identical results.

Exit codes: 0 success/pass, 1 check failed, 2 usage error, 3 inconclusive.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import sys
import time
from dataclasses import dataclass
from fractions import Fraction

from . import __version__
from .frobenius import NuRecord, ThresholdEstimate, nu, threshold_estimate, verify_theorem_A
from .fsing import FptEstimate, f_rational_probe, fedder_f_pure, fpt_estimate, tc_member
from .graded import (
    AtLeast,
    gr_of_ideal,
    gr_presentation,
    hilbert_data,
    initial_form,
    ord_of,
    verify_gr_claim,
)
from .ideals import Ideal
from .ring import ParseError, Polynomial, QuotientRing, RingError
from .verifier import (
    check_colon_lemma,
    check_lemma22,
    check_monotonicity,
    check_reduction,
    check_superficial,
    check_theorem_A_randomized,
)


class UsageError(ValueError):
    pass


def _check_strings(what: str, value):
    if not isinstance(value, list) or not all(isinstance(s, str) for s in value):
        raise UsageError(f"session {what} must be a list of strings")


@dataclass
class Session:
    """Parsed session file: one ring presentation plus named ideals/elements."""

    ring: QuotientRing
    ideals: dict
    elements: dict
    options: dict
    raw_bytes: bytes

    @classmethod
    def load(cls, path: str) -> "Session":
        try:
            with open(path, "rb") as fh:
                raw = fh.read()
        except OSError as exc:
            raise UsageError(f"cannot read session file {path}: {exc}") from exc
        try:
            data = json.loads(raw.decode("utf-8"))
        except json.JSONDecodeError as exc:
            raise UsageError(
                f"malformed session file {path}: {exc.msg} at line {exc.lineno} column {exc.colno}"
            ) from exc
        if not isinstance(data, dict):
            raise UsageError(f"session file {path} does not hold a JSON object")
        for key in ("ideals", "elements", "options"):
            if not isinstance(data.get(key, {}), dict):
                raise UsageError(f"session field {key!r} must be an object")
        for key in ("p", "variables"):
            if key not in data:
                raise UsageError(f"session file is missing the required field {key!r}")
        _check_strings("variables", data["variables"])
        _check_strings("relations", data.get("relations", []))
        for name, gens in data.get("ideals", {}).items():
            _check_strings(f"ideal {name!r}", gens)
        for name, text in data.get("elements", {}).items():
            if not isinstance(text, str):
                raise UsageError(f"session element {name!r} must be a string")
        try:
            ring = QuotientRing(data["p"], data["variables"], data.get("relations", []))
        except (ParseError, RingError) as exc:
            raise UsageError(f"invalid ring data: {exc}") from exc
        names = set()
        ideals = {}
        for name, gens in data.get("ideals", {}).items():
            if name in names:
                raise UsageError(f"duplicate name {name!r}")
            names.add(name)
            ideals[name] = Ideal(ring, gens)
        elements = {}
        for name, text in data.get("elements", {}).items():
            if name in names:
                raise UsageError(f"duplicate name {name!r}")
            names.add(name)
            elements[name] = ring.parse(text)
        if "m" not in ideals:
            ideals["m"] = ring.maximal_ideal()
        return cls(ring, ideals, elements, data.get("options", {}), raw)

    def ideal(self, spec: str) -> Ideal:
        if spec in self.ideals:
            return self.ideals[spec]
        try:
            return Ideal(self.ring, [g.strip() for g in spec.split(",") if g.strip()])
        except (ParseError, RingError) as exc:
            raise UsageError(f"{spec!r} is neither a named ideal nor a generator list: {exc}")

    def element(self, spec: str) -> Polynomial:
        if spec in self.elements:
            return self.elements[spec]
        try:
            return self.ring.parse(spec)
        except ParseError as exc:
            raise UsageError(f"{spec!r} is neither a named element nor an expression: {exc}")


# -- serialization helpers ----------------------------------------------------


def _frac(x) -> list:
    f = Fraction(x)
    return [f.numerator, f.denominator]


def _ser_record(r: NuRecord, mu: int) -> dict:
    return {
        "e": r.e,
        "q": r.q,
        "nu": r.nu,
        "witness": str(r.witness) if r.witness is not None else None,
        "lower": _frac(Fraction(r.nu, r.q)),
        "upper": _frac(Fraction(r.nu + 1 + mu, r.q)),
        "caveats": sorted(r.caveats),
    }


def _ser_estimate(est: ThresholdEstimate) -> dict:
    return _ser_bracket(est, [_ser_record(r, est.mu) for r in est.records])


def _ser_bracket(est: ThresholdEstimate | FptEstimate, records: list) -> dict:
    return {
        "records": records,
        "mu": est.mu,
        "lower": _frac(est.lower),
        "upper": _frac(est.upper),
        "guess": _frac(est.guess) if est.guess is not None else None,
        "caveats": sorted(est.caveats),
    }


def emit_nu_table(estimate: ThresholdEstimate, path: str) -> None:
    """CSV persistence: exact integer rationals only, never floats."""
    if not path:
        raise UsageError("empty nu-table path")
    if not estimate.records:
        raise UsageError("refusing to emit an empty nu table")
    try:
        fh = open(path, "w", newline="")
    except OSError as exc:
        raise UsageError(f"cannot write nu table to {path}: {exc}") from exc
    with fh:
        writer = csv.writer(fh)
        writer.writerow(["e", "q", "nu", "lower_num", "lower_den", "upper_num", "upper_den"])
        for rec, lower, upper in estimate.row_bounds():
            writer.writerow(
                [rec.e, rec.q, rec.nu, lower.numerator, lower.denominator, upper.numerator, upper.denominator]
            )


def read_nu_table(path: str):
    rows = []
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            rows.append(
                {
                    "e": int(row["e"]),
                    "q": int(row["q"]),
                    "nu": int(row["nu"]),
                    "lower": Fraction(int(row["lower_num"]), int(row["lower_den"])),
                    "upper": Fraction(int(row["upper_num"]), int(row["upper_den"])),
                }
            )
    return rows


# -- command implementations -----------------------------------------------------


def _cmd_gb(session, args):
    ideal = session.ideal(args.a)
    return 0, {"generators": [str(g) for g in ideal.generators],
               "groebner_basis": [str(g) for g in ideal.groebner_basis()]}


def _cmd_nf(session, args):
    ideal = session.ideal(args.a)
    return 0, {"normal_form": str(ideal.normal_form(session.element(args.x)))}


def _cmd_member(session, args):
    outer = session.ideal(args.a)
    if args.b is None and args.x is None:
        raise UsageError("member requires --x (element) or --b (inner ideal)")
    inner = session.ideal(args.b) if args.b else session.element(args.x)
    return 0, {"contained": outer.contains(inner)}


def _cmd_dim(session, args):
    return 0, {"dimension": session.ring.dimension}


def _cmd_colon(session, args):
    result = session.ideal(args.a).colon(session.ideal(args.b))
    return 0, {"generators": [str(g) for g in result.generators],
               "groebner_basis": [str(g) for g in result.groebner_basis()]}


def _cmd_socle(session, args):
    basis = session.ideal(args.a).socle()
    return 0, {"representatives": [str(r) for r in basis.representatives]}


def _option(session, value, key, default=None):
    """The command-line value, else the session option, else the default; 0 is a value."""
    if value is None:
        value = session.options.get(key)
    return default if value is None else value


def _cmd_ord(session, args):
    cutoff = _option(session, args.degree, "D", 8)
    value = ord_of(session.element(args.x), session.ring, cutoff)
    if isinstance(value, AtLeast):
        return 0, {"at_least": value.bound}
    return 0, {"ord": value}


def _cmd_initial(session, args):
    cutoff = _option(session, args.degree, "D", 8)
    return 0, {"initial_form": str(initial_form(session.element(args.x), session.ring, cutoff))}


def _cmd_gr(session, args):
    pres = gr_presentation(session.ring)
    return 0, {"exact": True, "initial_relations": [str(g) for g in pres.initial_relations]}


def _cmd_gr_ideal(session, args):
    pres = gr_presentation(session.ring)
    result = gr_of_ideal(session.ideal(args.a), pres)
    return 0, {"exact": True, "generators": [str(g) for g in result.generators]}


def _cmd_hilbert(session, args):
    D = _option(session, args.degree, "D", 6)
    return 0, {"values": hilbert_data(session.ring, D).values}


def _cmd_verify_gr(session, args):
    D = _option(session, args.degree, "D")
    claimed = session.ideal(args.a)
    report = verify_gr_claim(list(claimed.generators), session.ring, D)
    code = 0 if report.passed else 1
    return code, {
        "passed": report.passed,
        "reason": report.reason,
        "witnesses": {k: str(v) for k, v in report.witnesses.items()},
        "hilbert_ring": list(report.hilbert_ring),
        "hilbert_claimed": list(report.hilbert_claimed),
    }


def _e_max(session, args, default=3):
    return _option(session, args.e_max, "e_max", default)


def _cmd_nu(session, args):
    record = nu(session.ideal(args.a), session.ideal(args.J), args.e)
    mu = len(session.ideal(args.a).generators)
    return 0, _ser_record(record, mu)


def _cmd_threshold(session, args):
    est = threshold_estimate(
        session.ideal(args.a),
        session.ideal(args.J),
        _e_max(session, args),
        _option(session, args.max_denominator, "max_denominator", 10**6),
    )
    if args.out and args.out.endswith(".csv"):
        emit_nu_table(est, args.out)
    return 0, _ser_estimate(est)


def _cmd_verify_thmA(session, args):
    report = verify_theorem_A(session.ring, session.ideal(args.b or "m"), _e_max(session, args, 2))
    code = {"pass": 0, "fail": 1}[report.verdict]
    payload = {
        "verdict": report.verdict,
        "reason": report.reason,
        "nu_table": [list(row) for row in report.nu_table],
        "caveats": sorted(report.caveats),
        "local": _ser_estimate(report.local_estimate),
        "graded": _ser_estimate(report.graded_estimate),
    }
    if report.counterexample:
        payload["counterexample"] = report.counterexample
    return code, payload


def _cmd_fedder(session, args):
    return 0, {"f_pure": fedder_f_pure(session.ring)}


def _cmd_fpt(session, args):
    est = fpt_estimate(
        session.ideal(args.a),
        _e_max(session, args),
        _option(session, args.max_denominator, "max_denominator", 10**6),
    )
    return 0, _ser_bracket(est, [{"e": e, "q": q, "b": b} for e, q, b in est.records])


def _cmd_tc(session, args):
    verdict = tc_member(
        session.element(args.x),
        session.ideal(args.J),
        session.element(args.c),
        _e_max(session, args),
        bool(session.options.get("assume_domain", False)),
    )
    return 0, {
        "kind": verdict.kind,
        "witness_e": verdict.witness_e,
        "checked_through": verdict.checked_through,
        "assumptions": sorted(verdict.assumptions),
    }


def _cmd_frational(session, args):
    report = f_rational_probe(
        session.ideal(args.J),
        session.element(args.c),
        _e_max(session, args),
        bool(session.options.get("assume_domain", False)),
    )
    return 0, {
        "verdict": report.verdict,
        "dimension": report.dimension,
        "socle": [
            {
                "representative": probe.representative,
                "kind": probe.verdict.kind,
                "witness_e": probe.verdict.witness_e,
                "checked_through": probe.verdict.checked_through,
                "threshold": _ser_estimate(probe.threshold),
                "excludes_dimension": probe.excludes_dimension,
            }
            for probe in report.socle_probes
        ],
        "assumptions": sorted(report.assumptions),
        "caveats": sorted(report.caveats),
        "test_element_suggestions": list(report.test_element_suggestions),
    }


def _cmd_check(session, args):
    name = args.name
    seed = _option(session, args.seed, "seed", 0)
    trials = 10 if args.trials is None else args.trials
    e_max = _e_max(session, args, 2)
    bound = _option(session, args.degree, "D", 3)

    def need(flag):
        value = getattr(args, flag)
        if value is None:
            raise UsageError(f"check {name} requires --{flag}")
        return value

    if name == "colon-lemma":
        report = check_colon_lemma(session.ring, session.element(need("x")), bound)
    elif name == "reduction":
        report = check_reduction(session.ideal(need("a")), max(bound, 4))
    elif name == "superficial":
        report = check_superficial(session.element(need("x")), bound, max(bound + 1, 4))
    elif name == "lemma22":
        report = check_lemma22(session.ideal(need("a")), session.ideal(need("b")))
    elif name == "monotonicity":
        report = check_monotonicity(session.ring, trials, e_max, seed)
    elif name == "theoremA":
        report = check_theorem_A_randomized(session.ring.p, trials, e_max, seed)
    else:
        raise UsageError(f"unknown check {name!r}")
    code = {"pass": 0, "fail": 1, "inconclusive": 3}[report.verdict]
    return code, {
        "name": report.name,
        "verdict": report.verdict,
        "inputs": {k: str(v) for k, v in report.inputs.items()},
        "witnesses": json.loads(json.dumps(report.witnesses, default=str)),
        "seeds": report.seeds,
        "details": json.loads(json.dumps(report.details, default=str)),
    }


def _cmd_report(args):
    try:
        with open(args.path, "rb") as fh:
            stored = json.load(fh)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot read report file {args.path}: {exc}") from exc
    if not isinstance(stored, dict):
        raise UsageError(f"report file {args.path} does not hold a JSON object")
    body = stored.get("report", {})
    claimed = stored.get("digest")
    actual = _digest_report(body)
    ok = claimed == actual
    return (0 if ok else 1), {"path": args.path, "digest_ok": ok, "expected": actual, "found": claimed}


# -- driver -----------------------------------------------------------------------


_COMMANDS = {
    "gb": (_cmd_gb, ["a"]),
    "nf": (_cmd_nf, ["x", "a"]),
    "member": (_cmd_member, ["a"]),
    "dim": (_cmd_dim, []),
    "colon": (_cmd_colon, ["a", "b"]),
    "socle": (_cmd_socle, ["a"]),
    "ord": (_cmd_ord, ["x"]),
    "initial": (_cmd_initial, ["x"]),
    "gr": (_cmd_gr, []),
    "gr-ideal": (_cmd_gr_ideal, ["a"]),
    "hilbert": (_cmd_hilbert, []),
    "verify-gr": (_cmd_verify_gr, ["a"]),
    "nu": (_cmd_nu, ["a", "J", "e"]),
    "threshold": (_cmd_threshold, ["a", "J"]),
    "verify-thmA": (_cmd_verify_thmA, []),
    "fedder": (_cmd_fedder, []),
    "fpt": (_cmd_fpt, ["a"]),
    "tc": (_cmd_tc, ["x", "J", "c"]),
    "frational": (_cmd_frational, ["J", "c"]),
    "check": (_cmd_check, ["name"]),
}


def build_parser() -> argparse.ArgumentParser:
    """One flat parser: every command shares one flag set; `_argv_rules_hold` does the rest."""
    parser = argparse.ArgumentParser(
        prog="fthresh",
        description="Frobenius invariants of local rings over prime fields",
    )
    parser.add_argument("command", choices=[*_COMMANDS, "report"])
    parser.add_argument("path", nargs="?", help="the stored report (report only)")
    for flag in ("session", "a", "J", "b", "x", "c", "name", "out"):
        parser.add_argument(f"--{flag}")
    for flag in ("e", "e-max", "degree", "trials", "seed", "max-denominator"):
        parser.add_argument(f"--{flag}", type=int)
    return parser


def _argv_rules_hold(args) -> bool:
    """report takes its path and --out only; every other command needs --session and no path."""
    given = {key for key, value in vars(args).items() if value is not None} - {"command"}
    if args.command == "report":
        return "path" in given and given <= {"path", "out"}
    return "session" in given and "path" not in given


def _digest_report(body: dict) -> str:
    return hashlib.sha256(json.dumps(body, sort_keys=True).encode("utf-8")).hexdigest()


def run(argv) -> tuple[int, dict]:
    """Execute one command; returns (exit code, full report document)."""
    try:
        args = build_parser().parse_intermixed_args(argv)
    except SystemExit:
        args = None
    if args is None or not _argv_rules_hold(args):
        raise UsageError(f"invalid arguments: {argv!r}")
    started = time.monotonic()
    if args.command == "report":
        code, results = _cmd_report(args)
        session_digest = None
    else:
        handler, required = _COMMANDS[args.command]
        for field_name in required:
            if getattr(args, field_name) is None:
                raise UsageError(f"{args.command} requires --{field_name}")
        session = Session.load(args.session)
        code, results = handler(session, args)
        session_digest = hashlib.sha256(session.raw_bytes).hexdigest()
    body = {
        "command": list(argv),
        "tool_version": __version__,
        "inputs_digest": session_digest,
        "results": results,
    }
    document = {
        "report": body,
        "digest": _digest_report(body),
        "timings": {"seconds": round(time.monotonic() - started, 6)},
    }
    if args.out and not (args.command == "threshold" and args.out.endswith(".csv")):
        try:
            with open(args.out, "w") as fh:
                json.dump(document, fh, indent=2, sort_keys=True)
                fh.write("\n")
        except OSError as exc:
            raise UsageError(f"cannot write report to {args.out}: {exc}") from exc
    return code, document


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        code, document = run(argv)
    except (UsageError, ParseError, RingError) as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return 2
    print(json.dumps(document, indent=2, sort_keys=True))
    return code


if __name__ == "__main__":
    sys.exit(main())
