"""On the line, the coupled monotonicity decouples.

In dimension one every maximally monotone operator is a nondecreasing
(possibly multivalued) curve, hence paramonotone, and the Fejer property of
the coupled (shadow, dual shadow) sequence splits into separate monotone
distance decay of the shadow toward the primal solutions and of the dual
shadow toward the dual solutions. The planar rotator example shows this
splitting genuinely fails one dimension up.
"""

import numpy as np

from drsplit import (
    DRProblem,
    SetSample,
    build_scenario,
    decoupled_1d_fejer_check,
    fejer_check,
    iterate,
    random_pw1d_pair,
)

print("= twenty seeded piecewise-linear pairs sharing a zero =")
for seed in range(20):
    A, B, z = random_pw1d_pair(np.random.default_rng(seed))
    x0 = np.random.default_rng(seed + 500).uniform(-3, 3, 1)
    problem = DRProblem(A, B, x0)
    trace = iterate(problem, max_iters=2000, step_tol=0.0)
    ok = decoupled_1d_fejer_check(problem, z, [0.0], trace)
    print(
        f"  seed {seed:2d}: zero at {z[0]:+.3f}, start {x0[0]:+.3f}, "
        f"shadow limit {trace.shadow[-1][0]:+.6f}, decoupled monotone: {ok}"
    )

print("\n= the same statement is false in the plane =")
inst = build_scenario("rotator-cone")
trace = iterate(inst.problem, max_iters=50, step_tol=1e-14)
res = fejer_check(trace.shadow, SetSample([inst.z]), slack=1e-10)
print(f"  shadow-only distance to a primal solution grows by {res.max_sq_increase:.2f}")
print(f"  (violation at step {res.first_violation}; coupled tracking remains monotone)")
