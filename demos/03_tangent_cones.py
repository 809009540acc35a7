# Associated graded rings (tangent cones) and initial ideals. For a local
# presentation R = S/L the graded fiber is S/in(L), computed exactly for any
# relations by t-saturation (the deformation to the normal cone). The initial
# ideal of an m-primary ideal a is exact too: one Macaulay matrix gives its
# pieces below the nilpotency degree N of a, and every monomial of degree N
# lies in it.

from fthresh import (
    Ideal,
    QuotientRing,
    gr_of_ideal,
    gr_presentation,
    hilbert_data,
    initial_form,
    ord_of,
    verify_gr_claim,
)

blowup = QuotientRing(2, ["x", "y", "z", "w"], ["x*y - z^2*w"])

# m-adic order and initial forms: ord(xy) = 2 beats ord(z^2 w) = 3
ambient = QuotientRing(2, ["x", "y", "z", "w"])
print("ord(x*y - z^2*w) =", ord_of(ambient.parse("x*y - z^2*w"), ambient, 8))
print("in(x*y - z^2*w)  =", initial_form(ambient.parse("x*y - z^2*w"), ambient, 8))

# so the tangent cone of the blow-up fixture is the node k[x,y,z,w]/(xy): a ring
# S/in(L) of its own, built once per ring and returned by every later call
graded = gr_presentation(blowup)
print("in(L) =", [str(g) for g in graded.relations])

# Hilbert data certifies such claims: dimensions of m^i/m^{i+1}
print("hilbert of R      :", hilbert_data(blowup, 4))
print("hilbert of S/in(L):", hilbert_data(graded, 4))

# three relations, none principal or homogeneous: the cone has generators of
# degree 7 that no truncation below 7 would see
det = QuotientRing(
    2,
    ["x11", "x12", "x13", "x21", "x22", "x23"],
    ["x11*x22 - x12*x21 + x11*x12*x13*x21*x22*x23", "x11*x23 - x13*x21", "x12*x23 - x13*x22"],
)
print("in(L) of det:", [str(g) for g in gr_presentation(det).relations])
print("dim R_m =", det.dimension)

# claim verification = realizability of each generator as an initial form
# plus Hilbert agreement; a wrong claim is rejected with a reason
good = verify_gr_claim(["x*y"], blowup, 4)
bad = verify_gr_claim(["z^2*w"], blowup, 4)
print("claim (x*y):  ", good.passed, "| witness element:", good.witnesses["x*y"])
print("claim (z^2*w):", bad.passed, "|", bad.reason)

# relations can hide initial forms of ideals: in(x + y^2) = x but y^5 survives
plane = QuotientRing(2, ["x", "y"])
shifted = Ideal(plane, ["x + y^2", "y^5"])
initial = gr_of_ideal(shifted)
target = Ideal(gr_presentation(plane), ["x", "y^5"])
print("gr(x + y^2, y^5) == (x, y^5)?", initial.equals(target))
