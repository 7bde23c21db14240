"""Numeric tour of the curve in P^4.

Embeds a complex torus point by the five theta coordinates, checks the
quadrics, exercises the group law including the twist cases where the
primary addition formula degenerates, walks the 2- and 5-torsion, and maps
a point to the short Weierstrass model.
"""

import random

from bianchiq import curve
from bianchiq.theta import phi_numeric, theta_vector

rng = random.Random(12)
tau = complex(rng.uniform(-0.3, 0.3), rng.uniform(1.0, 1.5))
phi = phi_numeric(tau)
print(f"tau = {tau:.4f},  phi(tau) = {phi:.6f}")

z1 = complex(rng.uniform(-0.4, 0.4), rng.uniform(-0.4, 0.4))
z2 = complex(rng.uniform(-0.4, 0.4), rng.uniform(-0.4, 0.4))
P = theta_vector(z1, tau)
Q = theta_vector(z2, tau)
print("quadric residual at P:", curve.max_quadric_residual(P, phi))

# The coordinate group law matches addition on the torus.
S = curve.add(P, Q)
print("P+Q vs theta(z1+z2):  ",
      curve.projective_distance(S, theta_vector(z1 + z2, tau)))
print("commutativity:        ",
      curve.projective_distance(S, curve.add(Q, P)))
print("P + (-P) = O:         ",
      curve.projective_distance(curve.add(P, curve.negate(P)), curve.neutral(phi)))

# Twisting a point by fifth roots of unity defeats the primary formula;
# the fallback route still lands on the right point.
m = 2
T = tuple(curve.ZETA5 ** (-k * m) * P[k] for k in range(5))
a1 = curve.add_a1(P, T)
print("A1 output magnitude on a twist pair:", max(abs(c) for c in a1))
good = curve.add(P, T)
print("fallback lands on theta(2 z1 + m/5):",
      curve.projective_distance(good, theta_vector(2 * z1 + m / 5, tau)))

# 2-torsion: three points built from the cubic roots; each doubles to O.
print("\n2-torsion")
for p in curve.two_torsion_points(phi):
    d = curve.double(p)
    print("  residual", f"{curve.max_quadric_residual(p, phi):.2e}",
          " double->O", f"{curve.projective_distance(d, curve.neutral(phi)):.2e}")

# 5-torsion: all 25 points, each with exactly one vanishing coordinate.
pts = curve.five_torsion_points(phi)
worst_member = max(curve.max_quadric_residual(p, phi) for p in pts)
worst_order = max(
    curve.projective_distance(curve.multiply(p, 5), curve.neutral(phi)) for p in pts
)
print(f"\n5-torsion: {len(pts)} points, worst membership {worst_member:.2e}, "
      f"worst order-5 distance {worst_order:.2e}")

# The birational map to Y^2 = X^3 + A X + B.
X, Ya, Yb = curve.weierstrass_map(P, phi)
print("\nWeierstrass map")
print("  |Ya - Yb| / |Y|:", abs(Ya - Yb) / abs(Yb))
res = curve.weierstrass_residual(X, Yb, phi)
print("  curve equation residual:", abs(res) / max(abs(Yb) ** 2, abs(X) ** 3))
