"""The frequency slope of the squared norm and the stability verdicts.

The sign of d/domega int phi^2 (the derivative of the family's closed
forms for omega and int phi^2), combined with the eigenvalue counts of
the linearization, decides orbital stability: slope > 0 with counts
(n_neg, kernel) = (1, 2) is stable in H^1; slope < 0 gives instability
in the even subspace, where translation symmetry is unavailable and
the counts become (1, 1).
"""

from skwave import vk_slope, verdict, reproduce_figures

CASES = [
    ("solitary", 1, 1.0),
    ("solitary", 2, 0.5),
    ("solitary", 4, 0.3),
    ("periodic_dn", 1, 0.5),
    ("periodic_dn_quotient", 2, 0.5),
]

print("=== slopes (derivatives of the closed forms, with their error bound) ===")
for family, r, at in CASES:
    res = vk_slope(family, r, at)
    print(f"{family} r={r} at {at}: slope={res.slope:+.6f} "
          f"(bound {res.richardson_discrepancy:.1e}, method {res.method})")

print("\n=== verdicts ===")
for family, r, at in CASES:
    v = verdict(family, r, at)
    extra = f" theta={v.theta:.3f}" if v.theta is not None else ""
    print(f"{family} r={r} at {at}: {v.verdict}  "
          f"[n={v.n_neg_L}, z={v.z_kernel_L}, slope {v.slope_sign}]{extra}")

print("\n=== curve data behind the figures ===")
paths = reproduce_figures("figure_data", n_points=25)
for p in paths:
    last = open(p).read().strip().splitlines()[-1]
    print(f"  {p}: {last}")
