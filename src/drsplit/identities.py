"""Numerical verification of the algebraic identities behind the splitting map.

Every function evaluates both sides of one or more exact identities at given
points and reports the discrepancies as named residuals. Equalities are
reported as |lhs - rhs| scaled by 1/(1 + max magnitude of either side), so a
single tolerance works across quadratic and bilinear terms; inequalities are
reported as signed slacks (never clamped -- a negative slack beyond tolerance
is a bug signal). Raw unscaled discrepancies are kept beside them.

Every function takes one point of shape (d,) per argument, giving float
residuals, or stacks of row points of shape (m, d), giving one residual per
row as an array of shape (m,). Row i of a stack's residuals is bitwise equal
to the residuals of row i alone: inner products are ``np.vecdot``, which
matches ``np.dot`` on one point and does not mix rows. A step-based report
given ``steps``, the caller's ``dr_step(A, B, p)`` of each point array p, reuses them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache

import numpy as np

from .errors import DimensionMismatchError, OperatorFamilyError
from .operators import MonotoneOperator, normal_cone
from .space import ConvexSet, as_points, is_affine, row_norms
from .splitting import dr_apply, dr_step


# Row-wise inner product; on one point it is bitwise equal to np.dot, which
# einsum and (a * b).sum(-1) are not.
_dot = np.vecdot


def _nsq(v: np.ndarray):
    return _dot(v, v)


def _scaled(raw, lhs_size, rhs_size):
    return raw / (1.0 + np.maximum(lhs_size, rhs_size))


def vector_residual(lhs: np.ndarray, rhs: np.ndarray):
    """(scaled, raw): ||lhs - rhs|| / (1 + max(||lhs||, ||rhs||)) and ||lhs - rhs||,
    one value per row for stacks."""
    raw = row_norms(lhs - rhs)
    return _scaled(raw, row_norms(lhs), row_norms(rhs)), raw


def _value(v):
    """A float for one point, the array of per-row values for a stack."""
    return float(v) if np.ndim(v) == 0 else v


@dataclass(eq=False)
class ResidualReport:
    """Named residuals, scaled and raw.

    ``entries`` holds scale-free values: absolute scaled residuals for
    equalities, signed scaled slacks for inequalities (suffix ``_slack``).
    ``raw`` holds the corresponding unscaled values under the same names.
    """

    entries: dict[str, float] = field(default_factory=dict)
    raw: dict[str, float] = field(default_factory=dict)

    def _record(self, name: str, value, raw) -> None:
        self.entries[name] = _value(value)
        self.raw[name] = _value(raw)

    def add_equality(self, name: str, lhs, rhs) -> None:
        raw = np.abs(lhs - rhs)
        self._record(name, _scaled(raw, np.abs(lhs), np.abs(rhs)), raw)

    def add_vector_equality(self, name: str, lhs: np.ndarray, rhs: np.ndarray) -> None:
        self._record(name, *vector_residual(lhs, rhs))

    def add_slack(self, name: str, lhs, rhs) -> None:
        """Record lhs - rhs for an inequality lhs >= rhs, sign preserved."""
        raw = lhs - rhs
        self._record(name, _scaled(raw, np.abs(lhs), np.abs(rhs)), raw)

    def max_equality_residual(self):
        values = [v for k, v in self.entries.items() if not k.endswith("_slack")]
        return _value(np.max(values, axis=0)) if values else 0.0


def _same_shape(*points: np.ndarray) -> None:
    shapes = {p.shape for p in points}
    if len(shapes) > 1:
        raise DimensionMismatchError(f"points of different shapes: {sorted(shapes)}")


def three_point_residuals(a, b, z) -> ResidualReport:
    """Three expansions of inner products of (a, b, z) into cross terms.

    The expansions below hold for arbitrary points; applied to resolvent
    differences they are what collapses the splitting step into monotone
    pairings.
    """
    av, bv, zv = as_points(a), as_points(b), as_points(z)
    _same_shape(av, bv, zv)
    cross = _dot(av, zv - av) + _dot(bv, 2.0 * av - zv - bv)
    rep = ResidualReport()
    rep.add_equality("three_point_1", _dot(zv, zv - av + bv), _dot(zv - av + bv, zv - av + bv) + cross)
    rep.add_equality("three_point_2", _dot(zv, av - bv), _dot(av - bv, av - bv) + cross)
    rep.add_equality(
        "three_point_3",
        _dot(zv, zv),
        _dot(zv - av + bv, zv - av + bv) + _dot(bv - av, bv - av) + 2.0 * cross,
    )
    return rep


def eight_point_residual(a, b, x, y, a_star, b_star, u, v):
    """Scaled residual of the eight-point pairing expansion on X x X.

    lhs = <(a,b) - (x,y), (a*,b*) - (u,v)> in the product space; the rhs
    regroups it so that difference terms a - b and sums a* + b* appear, which
    is the form whose limits vanish along the iteration.
    """
    pts = [as_points(p) for p in (a, b, x, y, a_star, b_star, u, v)]
    _same_shape(*pts)
    av, bv, xv, yv, asv, bsv, uv, vv = pts
    lhs = _dot(av - xv, asv - uv) + _dot(bv - yv, bsv - vv)
    rhs = (
        _dot(av - bv, asv)
        + _dot(xv, uv)
        - _dot(xv, asv)
        - _dot(av - bv, uv)
        + _dot(bv, asv + bsv)
        + _dot(yv, vv)
        - _dot(yv, bsv)
        - _dot(bv, uv + vv)
    )
    return _value(_scaled(np.abs(lhs - rhs), np.abs(lhs), np.abs(rhs)))


def _steps(A: MonotoneOperator, B: MonotoneOperator, points, steps):
    if steps is not None and (len(steps) != len(points) or any(s[0] is not p for s, p in zip(steps, points))):
        raise ValueError("steps must be dr_step(A, B, p) of each point array p passed")
    return [dr_step(A, B, p) for p in points] if steps is None else steps


def dr_decomposition_residuals(
    A: MonotoneOperator, B: MonotoneOperator, x, y, *, steps=None
) -> ResidualReport:
    """Decompositions of <Tx-Ty, x-y> and friends into monotone pairings.

    Entries decomposition_1..4 are equalities; resolvent_energy_slack is the
    signed slack of the pair-energy drop (nonnegative by monotonicity):

        ||J_A Tx - J_A Ty||^2 + ||J_A' Tx - J_A' Ty||^2
            <= ||J_A x - J_A y||^2 + ||J_A' x - J_A' y||^2,

    writing J_A' for the resolvent of the inverse.
    """
    (xv, jax, dax, jbx, dbx, tx), (yv, jay, day, jby, dby, ty) = _steps(A, B, (x, y), steps)
    _same_shape(xv, yv)
    pair_a = _dot(jax - jay, dax - day)
    pair_b = _dot(jbx - jby, dbx - dby)
    dt = (xv - tx) - (yv - ty)
    jatx = A.resolvent_map(tx)
    jaty = A.resolvent_map(ty)
    datx = tx - jatx
    daty = ty - jaty
    pair_a_after = _dot(jatx - jaty, datx - daty)

    rep = ResidualReport()
    rep.add_equality("decomposition_1", _dot(tx - ty, xv - yv), _nsq(tx - ty) + pair_a + pair_b)
    rep.add_equality("decomposition_2", _dot(dt, xv - yv), _nsq(dt) + pair_a + pair_b)
    rep.add_equality(
        "decomposition_3", _nsq(xv - yv), _nsq(tx - ty) + _nsq(dt) + 2.0 * pair_a + 2.0 * pair_b
    )
    energy_before = _nsq(jax - jay) + _nsq(dax - day)
    energy_after = _nsq(jatx - jaty) + _nsq(datx - daty)
    rep.add_equality(
        "decomposition_4", energy_before - energy_after, _nsq(dt) + 2.0 * pair_a_after + 2.0 * pair_b
    )
    rep.add_slack("resolvent_energy_slack", energy_before, energy_after)
    return rep


def fixed_point_step_residuals(A: MonotoneOperator, B: MonotoneOperator, x, *, steps=None) -> ResidualReport:
    """The step x - Tx written two ways, plus graph-membership round trips.

    x - Tx equals both J_A x - J_B R_A x and J_A' x + J_B' R_A x (primed maps
    are resolvents of inverses); the four points involved form the graph
    pairs (J_A x, J_A' x) of A and (J_B R_A x, J_B' R_A x) of B, verified here
    by re-projecting each pair's sum through the resolvent.
    """
    [(xv, ja, da, jb, db, tx)] = _steps(A, B, (x,), steps)
    step = xv - tx
    rep = ResidualReport()
    rep.add_vector_equality("step_shadow_gap", step, ja - jb)
    rep.add_vector_equality("step_dual_sum", step, da + db)
    rep.add_vector_equality("graph_roundtrip_a", A.resolvent_map(ja + da), ja)
    rep.add_vector_equality("graph_roundtrip_b", B.resolvent_map(jb + db), jb)
    return rep


def linear_relation_residual(A: MonotoneOperator, B: MonotoneOperator, x, *, steps=None):
    """Scaled residual of Id - T = J_A - 2 J_B J_A + J_B (linear resolvents only)."""
    if not (A.is_linear_relation and B.is_linear_relation):
        raise OperatorFamilyError("both operators must be linear relations")
    [(xv, ja, _, _, _, tx)] = _steps(A, B, (x,), steps)
    explicit = ja - 2.0 * B.resolvent_map(ja) + B.resolvent_map(xv)
    return _value(vector_residual(xv - tx, explicit)[0])


def _linear_forward(A: MonotoneOperator, x: np.ndarray) -> np.ndarray:
    # for a skew operator with square -Id the resolvent is (Id - A)/2
    return x - 2.0 * A.resolvent_map(x)


@cache  # drawn once, at the first test: importing drsplit does not load numpy.random
def _quarter_turn_probe() -> np.ndarray:
    probe = np.random.default_rng(12345).standard_normal((4, 2))
    probe.flags.writeable = False
    return probe


def _require_quarter_turn_family(A: MonotoneOperator, name: str) -> None:
    if A.dim != 2 or not A.is_linear_relation:
        raise OperatorFamilyError(f"{name} must be a planar linear operator")
    s = _quarter_turn_probe()
    j = A._checked_map(s)
    not_skew = np.abs(_dot(j, s - j)) > 1e-10 * (1.0 + _dot(s, s))
    squared = _linear_forward(A, _linear_forward(A, s))
    not_square = row_norms(squared + s) > 1e-10 * (1.0 + row_norms(s))
    failed = np.flatnonzero(not_skew | not_square)
    if failed.size:
        reason = "is not skew" if not_skew[failed[0]] else "does not square to -Id"
        raise OperatorFamilyError(f"{name} {reason}")


def skew_residuals(A: MonotoneOperator, B: MonotoneOperator, x, y, *, steps=None) -> ResidualReport:
    """Identities special to skew planar operators squaring to -Id.

    For these, all monotone pairings vanish, so the decomposition collapses to
    a Pythagorean split, and Id - T = (Id - BA)/2 with BA the composition of
    the forward maps.
    """
    _require_quarter_turn_family(A, "A")
    _require_quarter_turn_family(B, "B")
    (xv, jax, dax, _, _, tx), (yv, jay, day, _, _, ty) = _steps(A, B, (x, y), steps)
    _same_shape(xv, yv)
    jatx, jaty = A.resolvent_map(tx), A.resolvent_map(ty)
    datx, daty = tx - jatx, ty - jaty
    dt = (xv - tx) - (yv - ty)

    rep = ResidualReport()
    rep.add_equality("skew_1", _dot(tx - ty, xv - yv), _nsq(tx - ty))
    rep.add_equality("skew_2", _dot(dt, xv - yv), _nsq(dt))
    rep.add_equality("skew_3", _nsq(xv - yv), _nsq(tx - ty) + _nsq(dt))
    rep.add_equality(
        "skew_4",
        (_nsq(jax - jay) + _nsq(dax - day)) - (_nsq(jatx - jaty) + _nsq(datx - daty)),
        _nsq(dt),
    )
    rep.add_equality("skew_energy", _nsq(xv), _nsq(tx) + _nsq(xv - tx))
    rep.add_equality("skew_orthogonality", _dot(tx, xv - tx), 0.0)
    composed = _linear_forward(B, xv - 2.0 * jax)  # A's forward map is x - 2 J_A x
    rep.add_vector_equality("skew_half_composition", xv - tx, 0.5 * (xv - composed))
    return rep


def _affine_map(A: MonotoneOperator, B: MonotoneOperator) -> tuple[np.ndarray, np.ndarray]:
    """(M, c) with T x = M x + c, for a pair whose splitting map T is affine."""
    d = A.dim
    # images of the origin and of the unit vectors, in one call
    images = dr_apply(A, B, np.vstack([np.zeros(d), np.eye(d)]))
    c = images[0]
    return np.ascontiguousarray((images[1:] - c).T), c


def _materialize_affine_fixed_point(A: MonotoneOperator, B: MonotoneOperator) -> np.ndarray:
    """Fixed point of the (affine) splitting map via direct linear algebra."""
    m, c = _affine_map(A, B)
    sol, *_ = np.linalg.lstsq(np.eye(A.dim) - m, c, rcond=None)
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
    A, B = normal_cone(U), normal_cone(V)
    xv, pu_x, _, _, _, tx = dr_step(A, B, x)
    y = _materialize_affine_fixed_point(A, B)
    z = U.project(y)
    k = y - z
    pv_x, pu_tx = V.project(xv), U.project(tx)

    rep = ResidualReport()
    rep.add_equality("gap_identity", _nsq(xv - tx), _nsq(pu_x - pv_x))
    rep.add_equality("distance_drop", _nsq(xv - y) - _nsq(tx - y), _nsq(xv - tx))
    pair_before = _nsq(pu_x - z) + _nsq((xv - pu_x) - k)
    pair_after = _nsq(pu_tx - z) + _nsq((tx - pu_tx) - k)
    rep.add_equality("pair_distance_drop", pair_before - pair_after, _nsq(xv - tx))
    return rep
