"""Numerical verification of the algebraic identities behind the splitting map.

Every function evaluates both sides of one or more exact identities at given
points and reports the discrepancies as named residuals. Equalities are
reported as |lhs - rhs| scaled by 1/(1 + max magnitude of either side), so a
single tolerance works across quadratic and bilinear terms; inequalities are
reported as signed slacks (never clamped -- a negative slack beyond tolerance
is a bug signal). Raw unscaled discrepancies are kept in the report context.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatchError, OperatorFamilyError
from .operators import MonotoneOperator, minty_forward, normal_cone
from .space import ConvexSet, as_point, is_affine
from .splitting import dr_apply


@dataclass(eq=False)
class ResidualReport:
    """Named residuals plus the evaluation context that produced them.

    ``entries`` holds scale-free values: absolute scaled residuals for
    equalities, signed scaled slacks for inequalities (suffix ``_slack``).
    ``context['raw']`` holds the corresponding unscaled values.
    """

    entries: dict[str, float] = field(default_factory=dict)
    context: dict = field(default_factory=dict)

    def _raw(self) -> dict[str, float]:
        return self.context.setdefault("raw", {})

    def add_equality(self, name: str, lhs: float, rhs: float) -> None:
        scale = 1.0 + max(abs(lhs), abs(rhs))
        self.entries[name] = abs(lhs - rhs) / scale
        self._raw()[name] = abs(lhs - rhs)

    def add_vector_equality(self, name: str, lhs: np.ndarray, rhs: np.ndarray) -> None:
        nl = float(np.linalg.norm(lhs))
        nr = float(np.linalg.norm(rhs))
        raw = float(np.linalg.norm(lhs - rhs))
        self.entries[name] = raw / (1.0 + max(nl, nr))
        self._raw()[name] = raw

    def add_slack(self, name: str, lhs: float, rhs: float) -> None:
        """Record lhs - rhs for an inequality lhs >= rhs, sign preserved."""
        scale = 1.0 + max(abs(lhs), abs(rhs))
        self.entries[name] = (lhs - rhs) / scale
        self._raw()[name] = lhs - rhs

    def max_equality_residual(self) -> float:
        return max(
            (v for k, v in self.entries.items() if not k.endswith("_slack")), default=0.0
        )


def _same_dim(*points: np.ndarray) -> None:
    dims = {p.shape[0] for p in points}
    if len(dims) > 1:
        raise DimensionMismatchError(f"points of different dimensions: {sorted(dims)}")


def three_point_residuals(a, b, z) -> ResidualReport:
    """Three expansions of inner products of (a, b, z) into cross terms.

    The expansions below hold for arbitrary points; applied to resolvent
    differences they are what collapses the splitting step into monotone
    pairings.
    """
    av, bv, zv = as_point(a), as_point(b), as_point(z)
    _same_dim(av, bv, zv)
    cross = float(np.dot(av, zv - av)) + float(np.dot(bv, 2.0 * av - zv - bv))
    rep = ResidualReport(context={"a": av, "b": bv, "z": zv})
    rep.add_equality(
        "three_point_1", float(np.dot(zv, zv - av + bv)), float(np.dot(zv - av + bv, zv - av + bv)) + cross
    )
    rep.add_equality(
        "three_point_2", float(np.dot(zv, av - bv)), float(np.dot(av - bv, av - bv)) + cross
    )
    rep.add_equality(
        "three_point_3",
        float(np.dot(zv, zv)),
        float(np.dot(zv - av + bv, zv - av + bv)) + float(np.dot(bv - av, bv - av)) + 2.0 * cross,
    )
    return rep


def eight_point_residual(a, b, x, y, a_star, b_star, u, v) -> float:
    """Scaled residual of the eight-point pairing expansion on X x X.

    lhs = <(a,b) - (x,y), (a*,b*) - (u,v)> in the product space; the rhs
    regroups it so that difference terms a - b and sums a* + b* appear, which
    is the form whose limits vanish along the iteration.
    """
    pts = [as_point(p) for p in (a, b, x, y, a_star, b_star, u, v)]
    _same_dim(*pts)
    av, bv, xv, yv, asv, bsv, uv, vv = pts
    lhs = float(np.dot(av - xv, asv - uv)) + float(np.dot(bv - yv, bsv - vv))
    rhs = (
        float(np.dot(av - bv, asv))
        + float(np.dot(xv, uv))
        - float(np.dot(xv, asv))
        - float(np.dot(av - bv, uv))
        + float(np.dot(bv, asv + bsv))
        + float(np.dot(yv, vv))
        - float(np.dot(yv, bsv))
        - float(np.dot(bv, uv + vv))
    )
    return abs(lhs - rhs) / (1.0 + max(abs(lhs), abs(rhs)))


def _splitting_data(A: MonotoneOperator, B: MonotoneOperator, x: np.ndarray):
    ja = A.resolvent_map(x)
    ra = 2.0 * ja - x
    jb = B.resolvent_map(ra)
    tx = x - ja + jb
    return ja, x - ja, jb, ra - jb, tx


def dr_decomposition_residuals(A: MonotoneOperator, B: MonotoneOperator, x, y) -> ResidualReport:
    """Decompositions of <Tx-Ty, x-y> and friends into monotone pairings.

    Entries decomposition_1..4 are equalities; resolvent_energy_slack is the
    signed slack of the pair-energy drop (nonnegative by monotonicity):

        ||J_A Tx - J_A Ty||^2 + ||J_A' Tx - J_A' Ty||^2
            <= ||J_A x - J_A y||^2 + ||J_A' x - J_A' y||^2,

    writing J_A' for the resolvent of the inverse.
    """
    if A.dim != B.dim:
        raise DimensionMismatchError(f"operator dimensions differ: {A.dim} vs {B.dim}")
    xv = as_point(x, A.dim)
    yv = as_point(y, A.dim)
    jax, dax, jbx, dbx, tx = _splitting_data(A, B, xv)
    jay, day, jby, dby, ty = _splitting_data(A, B, yv)
    pair_a = float(np.dot(jax - jay, dax - day))
    pair_b = float(np.dot(jbx - jby, dbx - dby))
    dt = (xv - tx) - (yv - ty)
    jatx = A.resolvent_map(tx)
    jaty = A.resolvent_map(ty)
    datx = tx - jatx
    daty = ty - jaty
    pair_a_after = float(np.dot(jatx - jaty, datx - daty))

    def nsq(v: np.ndarray) -> float:
        return float(np.dot(v, v))

    rep = ResidualReport(context={"x": xv, "y": yv})
    rep.add_equality(
        "decomposition_1", float(np.dot(tx - ty, xv - yv)), nsq(tx - ty) + pair_a + pair_b
    )
    rep.add_equality("decomposition_2", float(np.dot(dt, xv - yv)), nsq(dt) + pair_a + pair_b)
    rep.add_equality(
        "decomposition_3", nsq(xv - yv), nsq(tx - ty) + nsq(dt) + 2.0 * pair_a + 2.0 * pair_b
    )
    energy_before = nsq(jax - jay) + nsq(dax - day)
    energy_after = nsq(jatx - jaty) + nsq(datx - daty)
    rep.add_equality(
        "decomposition_4", energy_before - energy_after, nsq(dt) + 2.0 * pair_a_after + 2.0 * pair_b
    )
    rep.add_slack("resolvent_energy_slack", energy_before, energy_after)
    return rep


def fixed_point_step_residuals(A: MonotoneOperator, B: MonotoneOperator, x) -> ResidualReport:
    """The step x - Tx written two ways, plus graph-membership round trips.

    x - Tx equals both J_A x - J_B R_A x and J_A' x + J_B' R_A x (primed maps
    are resolvents of inverses); the four points involved form graph pairs of
    A and of B, verified here by re-projecting each pair through the
    resolvent.
    """
    if A.dim != B.dim:
        raise DimensionMismatchError(f"operator dimensions differ: {A.dim} vs {B.dim}")
    xv = as_point(x, A.dim)
    ja, da, jb, db, tx = _splitting_data(A, B, xv)
    step = xv - tx
    rep = ResidualReport(context={"x": xv})
    rep.add_vector_equality("step_shadow_gap", step, ja - jb)
    rep.add_vector_equality("step_dual_sum", step, da + db)
    ga = minty_forward(A, xv)
    gb = minty_forward(B, 2.0 * ja - xv)
    rep.add_vector_equality("graph_roundtrip_a", A.resolvent_map(ga.point + ga.normal), ga.point)
    rep.add_vector_equality("graph_roundtrip_b", B.resolvent_map(gb.point + gb.normal), gb.point)
    return rep


def linear_relation_residual(A: MonotoneOperator, B: MonotoneOperator, x) -> float:
    """Scaled residual of Id - T = J_A - 2 J_B J_A + J_B (linear resolvents only)."""
    if not (A.is_linear_relation and B.is_linear_relation):
        raise OperatorFamilyError("both operators must be linear relations")
    xv = as_point(x, A.dim)
    ja = A.resolvent_map(xv)
    step = xv - dr_apply(A, B, xv)
    explicit = ja - 2.0 * B.resolvent_map(ja) + B.resolvent_map(xv)
    raw = float(np.linalg.norm(step - explicit))
    scale = 1.0 + max(float(np.linalg.norm(step)), float(np.linalg.norm(explicit)))
    return raw / scale


def _linear_forward(A: MonotoneOperator, x: np.ndarray) -> np.ndarray:
    # for a skew operator with square -Id the resolvent is (Id - A)/2
    return x - 2.0 * A.resolvent_map(x)


def _require_quarter_turn_family(A: MonotoneOperator, name: str) -> None:
    if A.dim != 2 or not A.is_linear_relation:
        raise OperatorFamilyError(f"{name} must be a planar linear operator")
    rng = np.random.default_rng(12345)
    for _ in range(4):
        s = rng.standard_normal(2)
        g = minty_forward(A, s)
        if abs(float(np.dot(g.point, g.normal))) > 1e-10 * (1.0 + float(np.dot(s, s))):
            raise OperatorFamilyError(f"{name} is not skew")
        if np.linalg.norm(_linear_forward(A, _linear_forward(A, s)) + s) > 1e-10 * (
            1.0 + np.linalg.norm(s)
        ):
            raise OperatorFamilyError(f"{name} does not square to -Id")


def skew_residuals(A: MonotoneOperator, B: MonotoneOperator, x, y) -> ResidualReport:
    """Identities special to skew planar operators squaring to -Id.

    For these, all monotone pairings vanish, so the decomposition collapses to
    a Pythagorean split, and Id - T = (Id - BA)/2 with BA the composition of
    the forward maps.
    """
    _require_quarter_turn_family(A, "A")
    _require_quarter_turn_family(B, "B")
    xv = as_point(x, 2)
    yv = as_point(y, 2)
    tx = dr_apply(A, B, xv)
    ty = dr_apply(A, B, yv)
    jax, jay = A.resolvent_map(xv), A.resolvent_map(yv)
    dax, day = xv - jax, yv - jay
    jatx, jaty = A.resolvent_map(tx), A.resolvent_map(ty)
    datx, daty = tx - jatx, ty - jaty
    dt = (xv - tx) - (yv - ty)

    def nsq(v: np.ndarray) -> float:
        return float(np.dot(v, v))

    rep = ResidualReport(context={"x": xv, "y": yv})
    rep.add_equality("skew_1", float(np.dot(tx - ty, xv - yv)), nsq(tx - ty))
    rep.add_equality("skew_2", float(np.dot(dt, xv - yv)), nsq(dt))
    rep.add_equality("skew_3", nsq(xv - yv), nsq(tx - ty) + nsq(dt))
    rep.add_equality(
        "skew_4",
        (nsq(jax - jay) + nsq(dax - day)) - (nsq(jatx - jaty) + nsq(datx - daty)),
        nsq(dt),
    )
    rep.add_equality("skew_energy", nsq(xv), nsq(tx) + nsq(xv - tx))
    rep.add_equality("skew_orthogonality", float(np.dot(tx, xv - tx)), 0.0)
    composed = _linear_forward(B, _linear_forward(A, xv))
    rep.add_vector_equality("skew_half_composition", xv - tx, 0.5 * (xv - composed))
    return rep


def _materialize_affine_fixed_point(A: MonotoneOperator, B: MonotoneOperator) -> np.ndarray:
    """Fixed point of the (affine) splitting map via direct linear algebra."""
    d = A.dim
    origin = np.zeros(d)
    c = dr_apply(A, B, origin)
    m = np.empty((d, d))
    eye = np.eye(d)
    for i in range(d):
        m[:, i] = dr_apply(A, B, eye[i]) - c
    sol, *_ = np.linalg.lstsq(eye - m, c, rcond=None)
    if np.linalg.norm(sol - (m @ sol + c)) > 1e-8 * (1.0 + np.linalg.norm(sol)):
        raise ValueError("the affine pair has no fixed point (sets do not intersect)")
    return sol


def affine_gap_residuals(U: ConvexSet, V: ConvexSet, x) -> ResidualReport:
    """For intersecting affine sets: the step length is the projection gap.

    ||x - Tx||^2 = ||P_U x - P_V x||^2, and against any solution pair (z, k)
    built from a fixed point y (z = P_U y, k = y - z) the drop in squared
    distance of (P_U x, x - P_U x) to (z, k) equals the squared step length.
    """
    if not (is_affine(U) and is_affine(V)):
        raise OperatorFamilyError("U and V must be affine subspaces")
    if U.dim != V.dim:
        raise DimensionMismatchError(f"set dimensions differ: {U.dim} vs {V.dim}")
    xv = as_point(x, U.dim)
    A = normal_cone(U)
    B = normal_cone(V)
    y = _materialize_affine_fixed_point(A, B)
    z = U.project(y)
    k = y - z
    tx = dr_apply(A, B, xv)
    pu_x, pv_x = U.project(xv), V.project(xv)
    pu_tx = U.project(tx)

    def nsq(v: np.ndarray) -> float:
        return float(np.dot(v, v))

    rep = ResidualReport(context={"x": xv, "fixed_point": y, "z": z, "k": k})
    rep.add_equality("gap_identity", nsq(xv - tx), nsq(pu_x - pv_x))
    rep.add_equality("distance_drop", nsq(xv - y) - nsq(tx - y), nsq(xv - tx))
    pair_before = nsq(pu_x - z) + nsq((xv - pu_x) - k)
    pair_after = nsq(pu_tx - z) + nsq((tx - pu_tx) - k)
    rep.add_equality("pair_distance_drop", pair_before - pair_after, nsq(xv - tx))
    return rep
