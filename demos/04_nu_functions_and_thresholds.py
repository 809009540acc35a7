# nu-functions and F-threshold brackets. nu^J_a(q) is the last power of a
# escaping the Frobenius bracket J^[q]; in a regular ring the normalized
# values nu/q climb toward the F-threshold c^J(a), and a pigeonhole bound
# caps it from above, so every level yields a rigorous rational bracket
# (where nu/q does not climb, the estimate says so in its caveats).

from fractions import Fraction

from fthresh import QuotientRing, guess_rational, nu, threshold_estimate, verify_theorem_A

# regular baseline: nu = d(q-1) exactly, so the bracket pins c = d
plane = QuotientRing(2, ["x", "y"])
m = plane.maximal_ideal()
est = threshold_estimate(m, m, 3)
print("regular F_2[x,y]:", [(r.q, r.nu) for r in est.records])
print("  bracket:", est.lower, "..", est.upper, " guess:", est.guess)

# the blow-up fixture: c^m(m) = 5/2 sits inside every level bracket and the
# simplest rational in the final interval recovers it
blowup = QuotientRing(2, ["x", "y", "z", "w"], ["x*y - z^2*w"])
mb = blowup.maximal_ideal()
est = threshold_estimate(mb, mb, 3)
print("blow-up fixture:", [(r.q, r.nu) for r in est.records])
print("  bracket:", est.lower, "..", est.upper, " guess:", est.guess)

# its tangent cone is the node in four variables, where nu = 3(q-1) and c = 3
node = QuotientRing(2, ["x", "y", "z", "w"], ["x*y"])
n = node.maximal_ideal()
est = threshold_estimate(n, n, 3)
print("graded fiber:   ", [(r.q, r.nu) for r in est.records], " guess:", est.guess)

# the two are comparable level by level: nu^b_m(q) <= nu^I_n(q), the finite
# form of the threshold inequality between a ring and its graded fiber
report = verify_theorem_A(blowup, mb, 3)
print("comparison:", report.verdict)
for e, q, local, graded in report.nu_table:
    print(f"  q = {q}: nu local = {local} <= nu graded = {graded}")

# Stern-Brocot rational guessing, usable on its own
print("simplest rational in [2.4, 2.52]:", guess_rational(Fraction(12, 5), Fraction(63, 25), 8))
