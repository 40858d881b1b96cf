"""Construct the three standing-wave families and check them against
the stationary equation.

Every wave here solves -(1 + int phi'^2) phi'' + omega phi = phi^(2r+1):
solitary sech^(1/r) profiles on the line for r = 1, 2, 4, the dnoidal
wave (r = 1) and the dn-quotient wave (r = 2) on the 2*pi torus.
"""

import numpy as np

from skwave import (
    ode_residual,
    sample_profile,
    solitary_threshold,
    solve_periodic_r1,
    solve_periodic_r2,
    solve_solitary,
)
from skwave.errors import ExistenceError
from skwave.waves import default_grid, write_profile_csv

print("=== solitary waves: a sech^(1/r)(b x) ===")
for r, omega in [(1, 1.0), (2, 0.5), (4, 0.3)]:
    p = solve_solitary(r, omega)
    prof = sample_profile(p, default_grid(p))
    print(f"r={r} omega={omega}: a={p.a:.6f} b={p.b:.6f} "
          f"c=1+int phi'^2={p.c:.6f} residual={ode_residual(prof):.2e}")

print("\nExistence needs omega above the family threshold:")
for r in (1, 2, 4):
    thr = solitary_threshold(r)
    try:
        solve_solitary(r, thr * 0.99)
    except ExistenceError as exc:
        print(f"  r={r}: threshold {thr:.5f} -> {exc}")

print("\nAt the r=1 threshold the parameters approach their limit values:")
p = solve_solitary(1, solitary_threshold(1) + 1e-6)
print(f"  a -> {p.a:.5f} (limit 0.93467), b -> {p.b:.5f} (limit 0.57235)")

print("\n=== periodic waves on the 2*pi torus ===")
pdn = solve_periodic_r1(0.5)
print(f"dnoidal k=0.5: a={pdn.a:.6f} omega={pdn.omega:.6f} "
      f"(the wave rotates as e^(i omega t))")
pq = solve_periodic_r2(0.5)
print(f"dn-quotient k=0.5: a={pq.a:.6f} omega={pq.omega:.6f} "
      f"alpha={pq.alpha:.6f} < 0")

prof = sample_profile(pdn, default_grid(pdn))
print(f"dnoidal range: [{prof.phi.min():.4f}, {prof.phi.max():.4f}] "
      f"= a*[sqrt(1-k^2), 1]")

write_profile_csv(prof, "dn_profile.csv")
print("\nwrote dn_profile.csv (x, phi, dphi, d2phi with a JSON header)")

# every width is the real root of the cubic A(r) a^2/r^2 b^3 + b^2 - omega r^2,
# taken from Cardano's formula; at r=1 the cubic reads (4/3) w b^3 + b^2 - w
p_closed = solve_solitary(1, 1.0)
print("\nwidth cubic check at r=1, omega=1: "
      f"(4/3) b^3 + b^2 - 1 = {(4 / 3) * p_closed.b ** 3 + p_closed.b ** 2 - 1:.2e}")
