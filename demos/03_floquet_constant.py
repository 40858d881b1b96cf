"""The Floquet constant theta of the periodic Hill equation.

With y1 = phi' the periodic solution of the linearized stationary
equation, the second fundamental solution ybar satisfies
ybar(x + 2*pi) = ybar(x) + theta*phi'(x).  theta != 0 certifies that
the kernel of L_Re is simple, and theta < 0 places the zero eigenvalue
in the position that gives exactly one negative eigenvalue.
"""

import numpy as np

from skwave import assemble, floquet_theta, spectrum
from skwave.waves import default_grid, sample_profile, solve_family

for family, r, k in [("periodic_dn", 1, 0.5), ("periodic_dn_quotient", 2, 0.5)]:
    params = solve_family(family, r, k)
    prof = sample_profile(params, default_grid(params))
    res = floquet_theta(prof)
    print(f"{family} (r={r}, k={k}): omega={res.omega_at:.4f} "
          f"theta={res.theta:.4f}")
    print(f"  ybar(2pi)={res.ybar_end[0]:.6f}, ybar'(2pi)={res.ybar_end[1]:.6f}, "
          f"phi''(0)={res.phi_dd0:.6f}")

print("\ntheta and the inertia of L_Re are constant along each branch")
print("(isoinertia): theta < 0, one negative eigenvalue, a simple kernel.\n")
for family, r, ks in [("periodic_dn", 1, np.linspace(0.15, 0.9, 6)),
                      ("periodic_dn_quotient", 2, [0.25, 0.5, 0.75])]:
    print(f"{family}:")
    for k in ks:
        params = solve_family(family, r, float(k))
        prof = sample_profile(params, default_grid(params, 256))
        counts = spectrum(assemble("L_Re", prof))
        print(f"  k={k:.2f}: theta={floquet_theta(prof).theta:9.4f}  "
              f"n_neg={counts.n_neg} kernel={counts.z_kernel}")
