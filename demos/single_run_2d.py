"""Integrate one sub-threshold 2D scenario and audit its inequalities.

A Gaussian cell bump over a uniform chemical field, chi = 0.5 below the
2D threshold chi_star = 1.  Along the trajectory we track mass, extremes,
and the moment functionals E = integral(u^p v^-r), D = integral(u^(p+1)
v^-(r+1)) for the (p, r) pair produced by the bootstrap, then check

  * mass conservation (the scheme is conservative to rounding),
  * the chemical floor min v(t) >= exp(-t) min v(0) - 1e-8,
  * the Gronwall envelope E(t) <= E(0) exp(r t) (1 + tol),
  * the dissipation inequality dE/dt <= r E - r D (discrete form).
"""

from chemolab import (
    CartesianMesh2D,
    ModelParams,
    MonitorConfig,
    SchemeConfig,
    chi_star,
    dissipation_check,
    gronwall_check,
    initial_state,
    mass_drift,
    min_v_floor_check,
    run,
)
from chemolab.runconfig import bootstrap_pairs

params = ModelParams(chi=0.5, k=1.0, n=2)
print(f"chi = {params.chi} vs chi_star(k=1, n=2) = {chi_star(1.0, 2):g}  (sub-threshold)")

mesh = CartesianMesh2D(2.0, 2.0, 32, 32)
init = initial_state(mesh, "gaussian", amplitude=1.5, v0_base=1.0)
pairs = bootstrap_pairs(params, theta=0.5)
print(f"bootstrap pair(s): {pairs}")

monitors = MonitorConfig(q_list=(1.0, 2.0), pr_pairs=pairs)
report = run(init, params, mesh, SchemeConfig(t_end=5.0, output_interval=0.25), monitors)

print(f"status = {report.status}, t_final = {report.t_final:g}")
print(f"max u over run = {report.max_u_over_run:.6f}, min v over run = {report.min_v_over_run:.6f}")
print()
pair = pairs[0]
series = report.series
print(f"{'t':>6} {'mass':>12} {'min v':>10} {'max u':>10} {'E':>12} {'D':>12}")
columns = zip(series.t, series.mass, series.min_v, series.max_u, series.energy(pair), series.dissipation(pair))
for t, mass, min_v, max_u, e, d in list(columns)[::4]:
    print(f"{t:>6.2f} {mass:>12.9f} {min_v:>10.6f} {max_u:>10.6f} {e:>12.6f} {d:>12.6f}")

print()
print(f"relative mass drift over the run: {mass_drift(series):.3e}")
print(f"chemical floor:  {min_v_floor_check(series)}")
print(f"gronwall check:  {gronwall_check(series, pair, tol=0.05)}")
print(f"dissipation check: {dissipation_check(series, pair, tol=0.05)}")
