"""How fast the periodic approximation converges, and the parity fine print.

delta = |lattice minimum - symbol limit| falls like 1/(n1*n2) with striking
regularity (log-log slope near -1, R^2 > 0.999).  eps = |lattice - periodic|
is the quantity that matters for membership testing; its pattern depends on
the parity of the grid sides and the sign of the coupling.
"""

from bigmrf import (Theta, convergence_sweep, draw_limit_valid, fit_loglog,
                    parity_patterns)

# a small sweep with the shift-invert Lanczos oracle
thetas = draw_limit_valid(3, seed=5)
grids = [(m, m) for m in range(16, 49, 4)]
records = convergence_sweep(thetas, grids)
print("log-log fits of delta against the grid area:")
for idx, theta in enumerate(thetas):
    fit = fit_loglog([r for r in records if r.theta_idx == idx], "delta")
    print(f"  theta {idx}: slope {fit.slope:+.3f}, R^2 {fit.r_squared:.5f}")

# parity stratification for a single-variable field, closed forms only
rho = 0.3
theta = Theta(0, rho, 0, 0, rho)
study = parity_patterns(theta, [(m, m) for m in range(20, 81, 1)])
print(f"\nsingle-variable field, rho = {rho}:")
for parity, recs in sorted(study.by_parity.items()):
    fit = fit_loglog(recs, "eps")
    kind = {(0, 0): "even-even", (1, 1): "odd-odd"}.get(parity, "mixed")
    print(f"  parity {parity} ({kind:9s}): eps slope {fit.slope:+.3f} "
          f"over {fit.n_points} grids")
even = study.by_parity[(0, 0)]
print(f"  even-even periodic minimum is constant: "
      f"{sorted(set(round(r.lam_qt, 12) for r in even))}")
if study.sign_changes:
    d = study.sign_changes[0]
    print(f"  sign of (periodic - lattice) flips at grid {d.n1}x{d.n2}")
