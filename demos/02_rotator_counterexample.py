"""Why the coupled solution pairs matter: a sharp planar counterexample.

The pair here is the normal cone of the nonnegative quadrant against the
quarter-turn rotation. The problem is consistent, and the coupled sequence
(shadow, dual shadow) moves monotonically closer to the certified solution
pairs. But monotonicity is a statement about PAIRS: measuring the distance of
the shadow alone to an arbitrary primal solution can move AWAY, and for the
start (1, 0) the squared distance grows by exactly 5/4 in a single step
(1/2 for the coupled distance against a mismatched primal/dual combination).
"""

import numpy as np

from drsplit import SetSample, build_scenario, dr_apply, fejer_check, iterate

inst = build_scenario("rotator-cone", a=1.0)
A, B = inst.problem.A, inst.problem.B

x = np.array([1.0, 0.0])
tx = dr_apply(A, B, x)
print(f"start x = {x},  Tx = {tx}")
print(f"fixed points: the ray through (1, -1); Tx already sits on it\n")

z = inst.z  # (2, 0): a genuine primal solution
k = inst.k  # (0, -1): a genuine dual solution
print(f"primal solution z = {z}, dual solution k = {k}")
print("but (z, k) is NOT one of the coupled solution pairs (z + k is not fixed)\n")

shadow0, shadow1 = A.resolvent(x), A.resolvent(tx)
d0 = np.dot(shadow0 - z, shadow0 - z)
d1 = np.dot(shadow1 - z, shadow1 - z)
print(f"|shadow - z|^2 before: {d0:.6f}  after: {d1:.6f}  growth: +{d1 - d0:.6f}")

u0 = np.concatenate([shadow0, x - shadow0])
u1 = np.concatenate([shadow1, tx - shadow1])
e = np.concatenate([z, k])
p0 = np.dot(u0 - e, u0 - e)
p1 = np.dot(u1 - e, u1 - e)
print(f"coupled distance^2 before: {p0:.6f}  after: {p1:.6f}  growth: +{p1 - p0:.6f}\n")

trace = iterate(inst.problem, max_iters=50, step_tol=1e-14)
bad = fejer_check(trace.shadow, SetSample([z]), slack=1e-10)
print(f"shadow-only check vs z: passed={bad.passed}, first violation at n={bad.first_violation}")

pairs = inst.solutions.pairs
good = fejer_check(np.hstack([trace.shadow, trace.dual_shadow]), pairs, slack=1e-10)
print(f"coupled check vs certified pairs: passed={good.passed}")
print("\nmoral: track (shadow, dual shadow) against coupled pairs, not components")
