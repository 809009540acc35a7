"""Executable finite-level checks of the colon/reduction/superficial lemmas,
threshold monotonicity, and the graded-fiber comparison, on concrete and
seeded random inputs.

Theorem-backed checks must never fail; a fail report always carries a
replayable witness (ring, ideals, level, and the seed that produced them).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from . import linalg
from .frobenius import _check_generators_in_m, nu, verify_theorem_A
from .graded import (
    AtLeast,
    _initial_terms,
    gr_presentation,
    initial_form,
    ord_of,
)
from .ideals import Ideal, zero_ideal
from .ring import (
    Polynomial,
    QuotientRing,
    RingError,
    monomials_of_degree,
    transfer,
)


@dataclass
class CheckReport:
    name: str
    verdict: str  # "pass" | "fail" | "inconclusive"
    inputs: dict = field(default_factory=dict)
    witnesses: dict = field(default_factory=dict)
    seeds: dict = field(default_factory=dict)
    details: dict = field(default_factory=dict)


# -- graded multiplication-map rank helper -------------------------------------


def _multiplication_injective_through(graded_ring: QuotientRing, form: Polynomial, bound: int) -> bool:
    """Rank test: multiplication by a degree-1 form is injective in degrees <= bound."""
    handle = zero_ideal(graded_ring)
    for i in range(bound + 1):
        src = handle.standard_monomials_of_degree(i)
        if not src:
            continue
        images = [handle.normal_form(graded_ring.monomial(m) * form).terms for m in src]
        if linalg.rank(images, graded_ring.p) < len(src):
            return False
    return True


# -- colon lemma ------------------------------------------------------------------


def check_colon_lemma(ring: QuotientRing, x: Polynomial, n_max: int) -> CheckReport:
    """(m^{n+1} : x) = m^n for n <= n_max, given in(x) of degree 1 regular on gr."""
    if n_max < 0:
        raise RingError("n_max must be at least 0")
    inputs = {"ring": repr(ring), "x": str(x), "n_max": n_max}
    # the rank test reads degrees <= n_max + 2 only
    r = ord_of(x, ring, n_max + 2)
    if isinstance(r, AtLeast) or r != 1:
        return CheckReport(
            "colon-lemma", "inconclusive", inputs, details={"reason": f"ord(x) = {r}, expected 1"}
        )
    form = initial_form(x, ring, n_max + 2)
    graded = gr_presentation(ring).graded_ring
    if not _multiplication_injective_through(graded, transfer(form, graded), n_max + 1):
        return CheckReport(
            "colon-lemma",
            "inconclusive",
            inputs,
            details={"reason": f"in(x) = {form} is a zerodivisor on the graded presentation"},
        )
    mismatch = _colon_mismatch(ring, x, 0, n_max)
    if mismatch is not None:
        return CheckReport("colon-lemma", "fail", inputs, witnesses=mismatch)
    return CheckReport("colon-lemma", "pass", inputs, details={"initial_form": str(form)})


def _colon_mismatch(ring: QuotientRing, x: Polynomial, c: int, n_max: int):
    """First n in c..n_max with (m^{n+1} : x) ∩ m^c != m^n, as {"n", "element"}; None if none."""
    for n in range(c, n_max + 1):
        colon = ring.power_of_maximal_ideal(n + 1).colon_poly(x)
        lhs = colon if c == 0 else colon.intersect(ring.power_of_maximal_ideal(c))
        # x in m and c <= n give m^n ⊆ lhs; only lhs ⊆ m^n is open
        if (outside := _first_outside(lhs, ring.power_of_maximal_ideal(n))) is not None:
            return {"n": n, "element": str(outside)}
    return None


def _first_outside(inner: Ideal, outer: Ideal):
    """First generator of `inner` that `outer` does not contain; None when inner ⊆ outer."""
    return next((g for g in inner.generators if not outer.contains_poly(g)), None)


# -- reduction check -----------------------------------------------------------------


def check_reduction(a: Ideal, n_max: int) -> CheckReport:
    """Minimal n0 with m^{n+1} = a m^n for all n0 <= n <= n_max, if any."""
    ring = a.ring
    inputs = {"ring": repr(ring), "a": repr(a), "n_max": n_max}
    _check_generators_in_m(a)
    # a ⊆ m gives a m^n ⊆ m^{n+1}; only m^{n+1} ⊆ a m^n is open. Once it holds
    # it holds for every larger n (multiply by m), so the first such n is n0
    power = ring.power_of_maximal_ideal
    n0 = next((n for n in range(n_max + 1) if (a * power(n)).contains(power(n + 1))), None)
    flags = [n0 is not None and n >= n0 for n in range(n_max + 1)]
    if n0 is None:
        return CheckReport(
            "reduction",
            "fail",
            inputs,
            witnesses={"flags": flags},
            details={"reason": "no n with m^{n+1} = a m^n up to n_max; a is not a reduction"},
        )
    return CheckReport("reduction", "pass", inputs, details={"n0": n0, "flags": flags})


# -- superficial element check ----------------------------------------------------------


def check_superficial(x: Polynomial, c_max: int, n_max: int) -> CheckReport:
    """Search c <= c_max with (m^{n+1} : x) ∩ m^c = m^n for all c <= n <= n_max."""
    if c_max < 0:
        raise RingError("c_max must be at least 0")
    ring = x.ring
    inputs = {"ring": repr(ring), "x": str(x), "c_max": c_max, "n_max": n_max}
    r = ord_of(x, ring, max(3, n_max))
    if isinstance(r, AtLeast) or r != 1:
        raise RingError("x must lie in m but not in m^2")
    failures = {}
    for c in range(c_max + 1):
        failures[c] = _colon_mismatch(ring, x, c, n_max)
        if failures[c] is None:
            return CheckReport("superficial", "pass", inputs, details={"c": c})
    return CheckReport("superficial", "fail", inputs, witnesses=failures)


# -- graded-equality implies equality (finite form) ---------------------------------------


def check_lemma22(a: Ideal, b: Ideal) -> CheckReport:
    """Compare the initial ideals in(a + L) ⊆ in(b + L) of m-primary a ⊆ b, as ideals of S.

    Equal initial ideals are followed through with an actual containment test
    of b in a; otherwise the first generator of in(b + L) outside in(a + L)
    is the separating graded class, and its degree the separating degree.
    """
    ring = a.ring
    inputs = {"ring": repr(ring), "a": repr(a), "b": repr(b)}
    if not b.contains(a):
        raise RingError("a must be contained in b")
    if not (a.is_m_primary() and b.is_m_primary()):
        raise RingError("both ideals must be m-primary")
    N = a.nilpotency_degree()
    ambient = QuotientRing(ring.p, ring.variables)
    in_a, in_b = (Ideal(ambient, [ambient.from_terms(t) for t in _initial_terms(c)]) for c in (a, b))
    # the generators of in(b + L) ascend in degree, so the first one outside in(a + L)
    # lies in the first degree where the two differ
    if (cls := _first_outside(in_b, in_a)) is not None:
        return CheckReport(
            "lemma22",
            "pass",
            inputs,
            details={
                "equal": False,
                "separating_degree": cls.degree(),
                "separating_class": str(cls),
                "compared_through": N,
            },
        )
    # a ⊆ b was checked above; only b ⊆ a is open
    if (outside := _first_outside(b, a)) is None:
        return CheckReport(
            "lemma22",
            "pass",
            inputs,
            details={"equal": True, "verified": True, "compared_through": N},
        )
    return CheckReport(
        "lemma22",
        "fail",
        inputs,
        witnesses={"element": str(outside)},
        details={
            "reason": "initial ideals agree but the ideals differ; "
            "the initial-ideal computation is wrong"
        },
    )


# -- randomized suites --------------------------------------------------------------------

# the shape of every seeded draw; the recorded trials and benchmark inputs depend on it
_TERMS_MAX = 3
_DEGREE_MAX = 3
_VARIABLES = ("x", "y", "z", "w")


def random_poly(rng: random.Random, ring: QuotientRing):
    out = ring.zero()
    for _ in range(rng.randint(1, _TERMS_MAX)):
        d = rng.randint(1, _DEGREE_MAX)
        exps = [0] * ring.nvars
        for _ in range(d):
            exps[rng.randrange(ring.nvars)] += 1
        out = out + ring.monomial(tuple(exps), rng.randint(1, ring.p - 1))
    return out


def random_m_primary(rng: random.Random, ring: QuotientRing) -> Ideal:
    """m^k for random k <= 3 plus a few random polynomials of degree <= 3."""
    k = rng.randint(1, 3)
    gens = [ring.monomial(m) for m in monomials_of_degree(ring.nvars, k)]
    for _ in range(rng.randint(1, 3)):
        f = random_poly(rng, ring)
        if not f.is_zero():
            gens.append(f)
    return Ideal(ring, gens)


def check_monotonicity(ring: QuotientRing, trials: int, e_max: int, seed: int) -> CheckReport:
    """Bracket/power monotonicity and Frobenius scaling on seeded random pairs."""
    if trials < 0 or e_max < 1:
        raise RingError("trials must be at least 0 and e_max at least 1")
    inputs = {"ring": repr(ring), "trials": trials, "e_max": e_max}
    violations = []
    for trial in range(trials):
        rng = random.Random(seed + trial)
        J = random_m_primary(rng, ring)
        I = J + Ideal(ring, [random_poly(rng, ring)])
        a = random_m_primary(rng, ring)
        size = rng.randint(1, len(a.generators))
        b = Ideal(ring, list(a.generators)[:size])
        prev_a = None
        for e in range(1, e_max + 1):
            warm = max(ring.p * prev_a.nu, 0) if prev_a else None
            nu_aJ = nu(a, J, e, warm_start=warm)
            nu_aI = nu(a, I, e)
            nu_bJ = nu(b, J, e)
            if nu_aI.nu > nu_aJ.nu:
                violations.append(
                    {"trial": trial, "e": e, "kind": "bracket", "nu_aI": nu_aI.nu, "nu_aJ": nu_aJ.nu}
                )
            if nu_bJ.nu > nu_aJ.nu:
                violations.append(
                    {"trial": trial, "e": e, "kind": "power", "nu_bJ": nu_bJ.nu, "nu_aJ": nu_aJ.nu}
                )
            if prev_a is not None and nu_aJ.nu < ring.p * prev_a.nu:
                violations.append(
                    {"trial": trial, "e": e, "kind": "scaling", "nu": nu_aJ.nu, "prev": prev_a.nu}
                )
            prev_a = nu_aJ
    verdict = "pass" if not violations else "fail"
    return CheckReport(
        "monotonicity",
        verdict,
        inputs,
        witnesses={"violations": violations},
        seeds={"seed": seed, "per_trial": "seed + trial index"},
        details={"checked": trials * e_max * 3},
    )


def random_hypersurface(rng: random.Random, p: int) -> QuotientRing:
    names = _VARIABLES[: rng.randint(2, len(_VARIABLES))]
    ambient = QuotientRing(p, names)
    while True:
        f = random_poly(rng, ambient)
        if not f.is_zero():
            return QuotientRing(p, names, [f])


def check_theorem_A_randomized(
    p: int,
    trials: int,
    e_max: int,
    seed: int,
    b_mode: str = "random",
) -> CheckReport:
    """verify_theorem_A over random hypersurfaces with random m-primary b."""
    if trials < 0 or e_max < 1:
        raise RingError("trials must be at least 0 and e_max at least 1")
    inputs = {"p": p, "trials": trials, "e_max": e_max, "b_mode": b_mode}
    failures = []
    for trial in range(trials):
        rng = random.Random(seed + trial)
        ring = random_hypersurface(rng, p)
        b = ring.maximal_ideal() if b_mode == "maximal" else random_m_primary(rng, ring)
        report = verify_theorem_A(ring, b, e_max)
        if report.verdict == "fail":
            failures.append(
                {
                    "trial": trial,
                    "ring": repr(ring),
                    "b": repr(b),
                    "counterexample": report.counterexample,
                }
            )
    return CheckReport(
        "theoremA",
        "fail" if failures else "pass",
        inputs,
        witnesses={"failures": failures},
        seeds={"seed": seed, "per_trial": "seed + trial index"},
        details={"trials": trials},
    )
