# Associated graded rings (tangent cones) and initial ideals. For a local
# presentation R = S/L the graded fiber is S/in(L), computed exactly for any
# relations by t-saturation (the deformation to the normal cone). Initial
# ideals of m-primary ideals are read through a truncation degree D from one
# Macaulay matrix: every piece through D is exact, and the exact flag says
# whether those pieces determine the ideal.

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

# so the tangent cone of the blow-up fixture is the node k[x,y,z,w]/(xy)
pres = gr_presentation(blowup)
print("in(L) =", [str(g) for g in pres.initial_relations])

# Hilbert data certifies such claims: dimensions of m^i/m^{i+1}
print("hilbert of R      :", hilbert_data(blowup, 4).values)
print("hilbert of S/in(L):", hilbert_data(pres.graded_ring, 4).values)

# three relations, none principal or homogeneous: the cone has generators of
# degree 7 that no truncation below 7 would see
det = QuotientRing(
    2,
    ["x11", "x12", "x13", "x21", "x22", "x23"],
    ["x11*x22 - x12*x21 + x11*x12*x13*x21*x22*x23", "x11*x23 - x13*x21", "x12*x23 - x13*x22"],
)
print("in(L) of det:", [str(g) for g in gr_presentation(det).initial_relations])
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
cone = gr_of_ideal(shifted, gr_presentation(plane), 6)
target = Ideal(cone.ideal.ring, ["x", "y^5"])
print("gr(x + y^2, y^5) == (x, y^5)?", cone.ideal.equals(target))
