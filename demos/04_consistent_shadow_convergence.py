"""Consistent problems: shadows converge, distances shrink, series telescope.

On a random affine pair in R^5 with a guaranteed common point, the shadow
sequence converges to a primal solution. Three certificates back this up
numerically: the coupled (shadow, dual shadow) sequence is Fejer monotone
with respect to the certified solution pairs, the trailing quarter of the
shadow trace has negligible diameter, and the three coupled series built
from two different starts have summable, nonnegative terms.
"""

import numpy as np

from drsplit import (
    DRProblem,
    build_scenario,
    fejer_check,
    iterate,
    summability_report,
    sweet_principle_check,
)

inst = build_scenario("random-affine", seed=12)
trace = iterate(inst.problem, max_iters=10_000, step_tol=0.0)

print(f"dimension {inst.problem.dim}, {len(trace)} iterations")
print(f"shadow limit: {np.round(trace.shadow[-1], 8)}")
print(f"trailing-quarter shadow diameter: {trace.trailing_shadow_diameter:.3e}")

pairs = inst.solutions.pairs
coupled = np.hstack([trace.shadow, trace.dual_shadow])
res = fejer_check(coupled, pairs, slack=1e-10)
print(f"coupled Fejer monotonicity vs solution pairs: {res.passed}")

report = sweet_principle_check(
    trace.governing,
    trace.shadow,
    inst.solutions.primal,
    tol=1e-6,
    cauchy=trace.trailing_shadow_diameter,
)
print(
    "sequential principle evidence: "
    f"driver Fejer={report.fejer.passed}, pairing max {report.pairing_max:.2e}, "
    f"companion Cauchy {report.cauchy:.2e} -> verdict {report.verdict}"
)

rng = np.random.default_rng(99)
other = DRProblem(inst.problem.A, inst.problem.B, inst.problem.x0 + rng.uniform(-1, 1, 5))
trace2 = iterate(other, max_iters=10_000, step_tol=0.0)
summ = summability_report(trace, trace2)
print("\ntwo-start telescoping series:")
print(f"  sum of squared step differences : {summ.step_diff_sum:.6f}")
print(f"  sum of first graph pairings     : {summ.pairing_a_sum:.6f} (every term >= 0)")
print(f"  sum of second graph pairings    : {summ.pairing_b_sum:.6f} (every term >= 0)")
print(f"  final terms: {summ.step_diff_last:.1e}, {summ.pairing_a_last:.1e}, {summ.pairing_b_last:.1e}")
gap0 = float(np.sum((inst.problem.x0 - other.x0) ** 2))
bound = summ.step_diff_sum + 2 * summ.pairing_a_sum + 2 * summ.pairing_b_sum
print(f"  telescoping bound: {bound:.6f} <= initial squared gap {gap0:.6f}")
