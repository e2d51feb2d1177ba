"""Tour of the building blocks: convex sets, projections, resolvents.

Every operator in this library is handled purely through its resolvent
J = (Id + A)^(-1), a firmly nonexpansive map defined on the whole space.
This script builds a few operators, evaluates their resolvents, and shows
the two bread-and-butter identities: the inverse-resolvent sum and the
Minty graph parametrization.
"""

import numpy as np

from drsplit import (
    AffineSubspace,
    Ball,
    NonnegativeOrthant,
    inverse,
    minty_forward,
    minty_inverse,
    normal_cone,
    project,
    reflected,
    rotator,
)

print("= projections =")
orthant = NonnegativeOrthant(2)
ball = Ball([4.0, 0.0], 1.0)
line = AffineSubspace([0.0, 1.0], [[1.0, 0.0]])
for S, x in [(orthant, [1.0, -1.0]), (ball, [0.0, 0.0]), (line, [3.0, 5.0])]:
    print(f"  P_{type(S).__name__:18s} {x} -> {project(S, x)}")

print("\n= resolvents are projectors for normal cones =")
A = normal_cone(orthant)
x = np.array([1.0, -1.0])
print(f"  J_A{tuple(x)} = {A.resolvent(x)}")
print(f"  reflected resolvent 2J - Id: {reflected(A, x)}")

print("\n= the quarter-turn rotation as a monotone operator =")
B = rotator()
print(f"  J_B(1, 0) = {B.resolvent([1.0, 0.0])}   (no projection interpretation)")

print("\n= inverse resolvent sum: J_A + J_(A^-1) = Id =")
A_inv = inverse(A)
for trial in range(3):
    x = np.random.default_rng(trial).standard_normal(2) * 2
    total = A.resolvent(x) + A_inv.resolvent(x)
    print(f"  x = {np.round(x, 4)}  J + J' = {np.round(total, 4)}")

print("\n= Minty parametrization walks the graph =")
g = minty_forward(A, [1.0, -1.0])
print(f"  x=(1,-1) -> point {g.point}, normal {g.normal}")
print(f"  round trip: {minty_inverse(g)}")
