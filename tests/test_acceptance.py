"""End-to-end acceptance checks, one per shipped guarantee.

Each test pins the advertised tolerance, prints a single PASS/FAIL line, and
asserts. Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import json
from dataclasses import replace

import numpy as np

from drsplit import (
    DRProblem,
    SetSample,
    build_scenario,
    check_identities,
    affine_gap_residuals,
    decoupled_1d_fejer_check,
    diameter,
    dr_apply,
    fejer_check,
    iterate,
    linear_relation_residual,
    make_config,
    normal_cone,
    operator_pair_library,
    projector_operator,
    random_affine_pair,
    reflected,
    rotator,
    run,
    shifted_governing,
    skew_residuals,
    summability_report,
    trailing_quarter,
)
from drsplit.space import AffineSubspace


def _report(name: str, ok: bool, detail: str = "") -> None:
    line = f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)


def _pair_sequence(trace):
    return np.hstack([trace.shadow, trace.dual_shadow])


def test_criterion_1_rotator_counterexample():
    inst = build_scenario("rotator-cone", a=1.0)
    A, B = inst.problem.A, inst.problem.B
    x = np.array([1.0, 0.0])
    tx = dr_apply(A, B, x)
    step_err = float(np.max(np.abs(tx - np.array([0.5, -0.5]))))
    z, k = inst.z, inst.k
    u0 = np.concatenate([A.resolvent(x), x - A.resolvent(x)])
    u1 = np.concatenate([A.resolvent(tx), tx - A.resolvent(tx)])
    e = np.concatenate([z, k])
    pair_diff = float(np.dot(u1 - e, u1 - e) - np.dot(u0 - e, u0 - e))
    z_diff = float(
        np.dot(A.resolvent(tx) - z, A.resolvent(tx) - z)
        - np.dot(A.resolvent(x) - z, A.resolvent(x) - z)
    )
    ok = abs(pair_diff - 0.5) <= 1e-12 and abs(z_diff - 1.25) <= 1e-12 and step_err <= 1e-15
    _report(
        "1 rotator-counterexample",
        ok,
        f"pair {pair_diff:+.3e} vs +0.5, primal {z_diff:+.3e} vs +1.25, |Tx-target| {step_err:.1e}",
    )
    assert ok


SWEEP_EQUALITIES = [
    "three_point_1",
    "three_point_2",
    "three_point_3",
    "eight_point",
    "decomposition_1",
    "decomposition_2",
    "decomposition_3",
    "decomposition_4",
    "step_shadow_gap",
    "step_dual_sum",
    "self_duality",
    "inverse_resolvent_sum",
    "product_resolvent",
]


def test_criterion_2_identity_sweep():
    assert {e.dim for e in operator_pair_library()} == {1, 2, 3, 4, 5}
    sweep = check_identities(seed=7, samples=200)
    worst_eq = max(sweep.worst[name].value for name in SWEEP_EQUALITIES)
    slack = sweep.slack_worst["resolvent_energy_slack"].value
    ok = worst_eq <= 1e-9 and slack >= -1e-10 and sweep.passed
    _report("2 identity-sweep", ok, f"worst equality {worst_eq:.3e}, min slack {slack:+.3e}")
    assert ok


def test_criterion_3_linear_relation_suite():
    rng = np.random.default_rng(31)
    x_axis = AffineSubspace(np.zeros(2), np.array([[1.0, 0.0]]))
    diag = AffineSubspace.from_span(np.zeros(2), [np.array([1.0, 1.0])])
    linear_pairs = [
        ("projectors", projector_operator(x_axis), projector_operator(diag)),
        ("cone-rotator", normal_cone(x_axis), rotator()),
        ("rotator-rotator", rotator(), rotator()),
        ("cone-cone", normal_cone(x_axis), normal_cone(diag)),
    ]
    worst_linear = 0.0
    for _, A, B in linear_pairs:
        for _ in range(50):
            worst_linear = max(
                worst_linear, linear_relation_residual(A, B, 2 * rng.standard_normal(2))
            )

    # resolvent of the projector operator solves (Id + P_U) J = Id, and its
    # reflection is the projection onto the orthogonal complement
    U = AffineSubspace.from_span(np.zeros(3), [[1.0, 2.0, 0.0], [0.0, 0.0, 1.0]])
    op = projector_operator(U)
    comp = U.orthogonal_complement_basis()
    worst_jpu = 0.0
    for _ in range(50):
        xp = 2 * rng.standard_normal(3)
        j = op.resolvent(xp)
        worst_jpu = max(worst_jpu, float(np.linalg.norm(j + U.project(j) - xp)))
        worst_jpu = max(
            worst_jpu, float(np.linalg.norm(reflected(op, xp) - comp.T @ (comp @ xp)))
        )

    worst_skew = 0.0
    for _ in range(100):
        rep = skew_residuals(
            rotator(), rotator(), 2 * rng.standard_normal(2), 2 * rng.standard_normal(2)
        )
        worst_skew = max(worst_skew, rep.max_equality_residual())

    ok = worst_linear <= 1e-12 and worst_jpu <= 1e-12 and worst_skew <= 1e-12
    _report(
        "3 linear-relation-suite",
        ok,
        f"step-form {worst_linear:.1e}, projector {worst_jpu:.1e}, skew {worst_skew:.1e}",
    )
    assert ok


def test_criterion_4_affine_gap_sweep():
    rng = np.random.default_rng(41)
    worst = 0.0
    for _ in range(50):
        U, V, _ = random_affine_pair(5, rng)
        x = 3 * rng.standard_normal(5)
        rep = affine_gap_residuals(U, V, x)
        worst = max(worst, rep.raw["gap_identity"])
    ok = worst <= 1e-10
    _report("4 affine-gap", ok, f"worst |step^2 - gap^2| = {worst:.3e}")
    assert ok


def test_criterion_5_shifted_subspace_divergence():
    inst = build_scenario("shifted-subspace")
    trace = iterate(inst.problem, max_iters=256, step_tol=0.0)
    v_err = float(np.linalg.norm(trace.v_estimate - np.array([0.0, 1.0])))
    halving = 0.0
    for n in range(41):
        expected = np.array([0.5**n * inst.problem.x0[0], 0.0])
        halving = max(halving, float(np.linalg.norm(trace.shadow[n] - expected)))
    norms = np.linalg.norm(trace.governing, axis=1)
    increasing = bool(np.all(np.diff(norms[5:]) > 0))
    dual_growth = float(np.linalg.norm(trace.dual_shadow[200])) > float(
        np.linalg.norm(trace.dual_shadow[50])
    )
    ok = v_err <= 1e-9 and halving <= 1e-10 and increasing and dual_growth
    _report(
        "5 shifted-subspace",
        ok,
        f"|v-(0,1)| {v_err:.1e}, halving {halving:.1e}, strict growth {increasing}",
    )
    assert ok


def test_criterion_6_inconsistent_feasibility():
    lines = build_scenario("parallel-lines")
    tl = iterate(lines.problem, max_iters=128, step_tol=0.0)
    v_lines = float(np.linalg.norm(tl.v_estimate - np.array([0.0, 2.0])))
    shadow_target = np.array([lines.problem.x0[0], 1.0])
    shadow_const = float(np.max(np.linalg.norm(tl.shadow - shadow_target, axis=1)))
    fej_lines = fejer_check(
        shifted_governing(tl, [0.0, 2.0]), lines.shifted_primal, slack=1e-9
    ).passed

    balls = build_scenario("disjoint-balls")
    tb = iterate(balls.problem, max_iters=5000, step_tol=0.0)
    shadow_err = float(np.linalg.norm(tb.shadow[-1] - np.array([1.0, 0.0])))
    v_balls = float(np.linalg.norm(tb.v_estimate - np.array([-2.0, 0.0])))
    fej_balls = fejer_check(
        shifted_governing(tb, [-2.0, 0.0]), balls.shifted_primal, slack=1e-9
    ).passed

    ok = (
        v_lines <= 1e-9
        and shadow_const <= 1e-10
        and fej_lines
        and shadow_err <= 1e-6
        and v_balls <= 1e-5
        and fej_balls
    )
    _report(
        "6 inconsistent-feasibility",
        ok,
        f"lines v {v_lines:.1e}, balls shadow {shadow_err:.1e}, balls v {v_balls:.1e}",
    )
    assert ok


def _consistent_instances():
    for seed in range(10):
        yield build_scenario("random-affine", seed=seed)
    for seed in range(10):
        yield build_scenario("random-1d", seed=seed)


def test_criterion_7_consistent_convergence():
    worst_diam = 0.0
    all_fejer = True
    for inst in _consistent_instances():
        trace = iterate(replace(inst.problem, companion=None), max_iters=10_000, step_tol=0.0)
        window = trailing_quarter(len(trace))
        worst_diam = max(worst_diam, diameter(trace.shadow[window]))
        res = fejer_check(_pair_sequence(trace), inst.solutions.pairs, slack=1e-10)
        all_fejer = all_fejer and res.passed
    ok = worst_diam <= 1e-6 and all_fejer
    _report(
        "7 consistent-convergence",
        ok,
        f"worst trailing diameter {worst_diam:.3e}, pair Fejer {all_fejer}",
    )
    assert ok


def test_criterion_8_summability():
    instances = [
        build_scenario("affine-consistent"),
        build_scenario("random-affine", seed=1),
        build_scenario("random-1d", seed=2),
    ]
    ok = True
    worst_pairing = 0.0
    worst_final = 0.0
    for inst in instances:
        rng = np.random.default_rng(inst.seed + 13)
        tr1 = iterate(replace(inst.problem, companion=None), max_iters=10_000, step_tol=0.0)
        other = DRProblem(
            inst.problem.A, inst.problem.B, inst.problem.x0 + rng.uniform(-1, 1, inst.problem.dim)
        )
        tr2 = iterate(other, max_iters=10_000, step_tol=0.0)
        rep = summability_report(tr1, tr2, term_tol=1e-8, nonneg_tol=1e-10)
        worst_pairing = min(worst_pairing, rep.pairing_a_min, rep.pairing_b_min)
        final_increment = max(rep.step_diff_last, rep.pairing_a_last, rep.pairing_b_last)
        worst_final = max(worst_final, final_increment)
        ok = ok and rep.pairings_nonnegative and final_increment <= 1e-10
        ok = ok and rep.step_diff_last <= 1e-8 and rep.pairing_a_last <= 1e-8
        ok = ok and rep.pairing_b_last <= 1e-8
    _report(
        "8 summability",
        ok,
        f"min pairing term {worst_pairing:+.3e}, worst final increment {worst_final:.3e}",
    )
    assert ok


def test_criterion_9_decoupled_1d_fejer():
    from drsplit import random_pw1d_pair

    all_ok = True
    for seed in range(20):
        A, B, z = random_pw1d_pair(np.random.default_rng(seed))
        x0 = np.random.default_rng(seed + 500).uniform(-3, 3, 1)
        problem = DRProblem(A, B, x0)
        trace = iterate(problem, max_iters=2000, step_tol=0.0)
        all_ok = all_ok and decoupled_1d_fejer_check(problem, z, [0.0], trace)

    inst = build_scenario("rotator-cone")
    trace = iterate(inst.problem, max_iters=50, step_tol=1e-14)
    res = fejer_check(trace.shadow, SetSample([inst.z]), slack=1e-10)
    planar_violation = (
        (not res.passed) and res.first_violation == 0 and abs(res.max_sq_increase - 1.25) <= 1e-12
    )
    ok = all_ok and planar_violation
    _report(
        "9 decoupled-1d-fejer",
        ok,
        f"20 seeds monotone: {all_ok}; planar violation {res.max_sq_increase:.12f} at n=0",
    )
    assert ok


def test_criterion_10_determinism(tmp_path):
    outputs = []
    for tag in ("first", "second"):
        cfg = make_config(
            scenario="disjoint-balls",
            seed=9,
            iters=800,
            out_trace=str(tmp_path / f"{tag}.csv"),
            out_summary=str(tmp_path / f"{tag}.json"),
        )
        run(cfg)
        outputs.append(
            ((tmp_path / f"{tag}.csv").read_bytes(), (tmp_path / f"{tag}.json").read_bytes())
        )
    ok = outputs[0] == outputs[1]
    json.loads(outputs[0][1].decode())  # the summary must stay valid JSON
    _report("10 determinism", ok, "CSV and JSON byte-identical")
    assert ok
