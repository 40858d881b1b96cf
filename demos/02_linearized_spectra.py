"""Spectra of the operators linearizing the flow around each wave.

The linearization block-diagonalizes into L_Re (acting on the real
perturbation part, carrying the nonlocal rank-one coupling) and L_Im.
The stability counts are: one negative eigenvalue, a two-dimensional
kernel spanned by (phi', 0) and (0, phi), and on the line an essential
spectrum starting at omega/c.
"""

import numpy as np

from skwave import assemble, block_summary, spectrum, symmetric_eigen
from skwave.spectral import lowest, spectrum_confirmed
from skwave.waves import default_grid, sample_profile, solve_family

CASES = [
    ("solitary", 1, 1.0),
    ("solitary", 2, 0.5),
    ("solitary", 4, 0.3),
    ("periodic_dn", 1, 0.5),
    ("periodic_dn_quotient", 2, 0.5),
]

for family, r, at in CASES:
    params = solve_family(family, r, at)
    prof = sample_profile(params, default_grid(params))
    op_re = assemble("L_Re", prof)
    s_re = spectrum(op_re)
    s_im = spectrum(assemble("L_Im", prof))
    block = block_summary(s_re, s_im)
    edge = f" ess_edge={s_re.ess_edge:.4f}" if s_re.ess_edge else ""
    print(f"{family} r={r} at {at}:")
    print(f"  L_Re: n_neg={s_re.n_neg} kernel={s_re.z_kernel} "
          f"lowest={np.round(lowest(op_re)[:3], 6)}{edge}")
    print(f"  L_Im: n_neg={s_im.n_neg} kernel={s_im.z_kernel}")
    print(f"  block: n_neg={block.n_neg} kernel={block.z_kernel} "
          "(the counting input of the stability argument)")

print("\nkernel directions, checked by direct application:")
params = solve_family("periodic_dn", 1, 0.5)
prof = sample_profile(params, default_grid(params))
op_re = assemble("L_Re", prof)
op_im = assemble("L_Im", prof)
print(f"  |L_Re phi'|_inf = {np.max(np.abs(op_re.apply(prof.dphi))):.2e}"
      f"  (phi' spans ker L_Re)")
print(f"  |L_Im phi |_inf = {np.max(np.abs(op_im.apply(prof.phi))):.2e}"
      f"  (phi spans ker L_Im)")

# the counts never form the n x n matrix; here it is built column by
# column from the operator's action, to look at the ground state
dense_im = np.column_stack([op_im.apply(e) for e in np.eye(prof.grid.n)])
w, v = symmetric_eigen(dense_im)
corr = abs(v[:, 0] @ prof.phi) / (np.linalg.norm(v[:, 0]) * np.linalg.norm(prof.phi))
print(f"  ground state of L_Im vs phi: correlation {corr:.6f}")

print("\nresolution-doubling confirmation (each pass at the residual of phi'):")
base, doubled = spectrum_confirmed("L_Re", params)
print(f"  n=512:  n_neg={base.n_neg} kernel={base.z_kernel} "
      f"(tol {base.tol_kernel:.2e})")
print(f"  n=1024: n_neg={doubled.n_neg} kernel={doubled.z_kernel} "
      f"(tol {doubled.tol_kernel:.2e})")
