# Ideal arithmetic through reduced Groebner bases. A handle stores its
# generators and lazily caches the reduced basis of (generators + relations)
# in the ambient polynomial ring, so membership in R = S/L is one normal form.

from fthresh import Ideal, QuotientRing

ring = QuotientRing(2, ["x", "y"])

ideal = Ideal(ring, ["x^2 + y", "x*y"])
print("generators:     ", [str(g) for g in ideal.generators])
print("reduced basis:  ", [str(g) for g in ideal.groebner_basis()])

# normal forms decide membership: x^3 = x(x^2+y) + x*y
print("NF(x^3):", ideal.normal_form(ring.parse("x^3")))
print("x^3 + x*y in ideal?", ideal.contains_poly(ring.parse("x^3 + x*y")))

# sums, products, ordinary powers, Frobenius bracket powers
m = ring.maximal_ideal()
print("m^2      =", [str(g) for g in m.power(2).generators])
print("m^[2]    =", [str(g) for g in m.bracket(2).generators])
print("m^[4] == (m^[2])^[2]?", m.bracket(4).equals(m.bracket(2).bracket(2)))

# colon ideals by tag-variable elimination: an instance of the colon identity
# (m^{n+1} : x) = m^n when the initial form of x is regular on the tangent cone
m3 = ring.power_of_maximal_ideal(3)
print("(m^3 : x) == m^2?", m3.colon(ring.parse("x")).equals(ring.power_of_maximal_ideal(2)))

# m-primary ideals have finite staircases; the nilpotency degree is the least
# N with m^N inside the ideal (here 4: x*y^2 escapes at 3)
box = Ideal(ring, ["x^2", "y^3"])
print("(x^2, y^3) m-primary?", box.is_m_primary(), " N =", box.nilpotency_degree())

# socle of an Artinian quotient: the last nonzero fiber of multiplication,
# returned as a tuple of normal forms
fermat = QuotientRing(2, ["x", "y", "z"], ["x^3 + y^3 + z^3"])
params = Ideal(fermat, ["x", "y"])
print("socle of R/(x,y) on the Fermat cone:", [str(r) for r in params.socle()])
