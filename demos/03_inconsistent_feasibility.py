"""When the sets do not intersect: displacement vectors and shifted problems.

For two convex sets with no common point, the governing sequence cannot
settle: it drifts by an asymptotically constant step, the minimal
displacement vector v. The shadows (projections onto the first set) still
carry meaning -- they head to the point of the first set closest to the
second. Shifting the problem by v (the "normal problem") restores a
consistent geometry whose solutions the shadows identify.
"""

import numpy as np

from drsplit import (
    DRProblem,
    build_scenario,
    fejer_check,
    iterate,
    normal_problem,
    shifted_governing,
)

print("= parallel lines: a pure translation =")
lines = build_scenario("parallel-lines")
tl = iterate(lines.problem, max_iters=60, step_tol=0.0)
print(f"  governing walks down: {tl.governing[0]} -> {tl.governing[-1]}")
print(f"  every shadow equals {tl.shadow[0]} (constant)")
print(f"  displacement estimate: {tl.v_estimate} (the gap vector)")
seq = shifted_governing(tl, [0.0, 2.0])
print(f"  governing + n*v is frozen at {seq[0]} = start\n")

print("= disjoint unit balls at distance 2 =")
balls = build_scenario("disjoint-balls")
tb = iterate(balls.problem, max_iters=5000, step_tol=0.0)
print(f"  after {len(tb)} iterations:")
print(f"  shadow limit  {np.round(tb.shadow[-1], 8)}  (contact point of the first ball)")
print(f"  displacement  {np.round(tb.v_estimate, 8)}  (points from second ball to first)")
res = fejer_check(shifted_governing(tb, [-2.0, 0.0]), balls.shifted_primal, slack=1e-9)
print(f"  shifted governing Fejer-monotone to the contact point: {res.passed}\n")

print("= the shifted (normal) problem is consistent =")
sa, sb = normal_problem(balls.problem.A, balls.problem.B, [-2.0, 0.0])
ts = iterate(DRProblem(sa, sb, balls.problem.x0), max_iters=200, step_tol=1e-13)
print(f"  shifted iteration stops after {len(ts)} steps, shadow {np.round(ts.shadow[-1], 10)}")

print("\n= divergence can hide in the dual slot =")
sub = build_scenario("shifted-subspace")
tt = iterate(sub.problem, max_iters=220, step_tol=0.0)
print(f"  primal shadows halve every step: n=6 gives {tt.shadow[6]}")
print(
    "  dual shadow norms grow without bound: "
    f"n=50: {np.linalg.norm(tt.dual_shadow[50]):.1f}, n=200: {np.linalg.norm(tt.dual_shadow[200]):.1f}"
)
