"""Sweep the (chi, k) plane around the 2D threshold chi_star = 1.

Every grid point integrates the same Gaussian scenario; the summary records
whether the point sits below the threshold, the run status, and the worst
Gronwall ratio of the bootstrap pair.  Points above the threshold are
exploratory only: the theory proves nothing there, and the run may or may
not trip the blow-up proxy at desk scale.
"""

from chemolab.cli import _plan_sweep, _sweep_point
from chemolab.runconfig import parse_sweep_spec

SPEC = """\
[model]
chi = 0.5
k = 1
n = 2
geometry = cartesian2d
Lx = 2
Ly = 2
nx = 16
ny = 16

[initial]
kind = gaussian
amplitude = 1.5
v0_base = 1

[scheme]
t_end = 1
output_interval = 0.25

[monitors]
q_list = 1
pr_source = bootstrap

[sweep]
chi_values = 0.5, 0.8, 0.95, 1.1, 1.5
k_values = 0.5, 1, 2
"""

spec = parse_sweep_spec(SPEC)
print(f"sweeping {len(spec.points)} points; chi_star(k, 2) = 1 for every k")
print()
# one task per batch of points that share their first time step (one per k
# above 1, one for every k <= 1); rows come back in batch order
rows, tasks = _plan_sweep(spec, workers=1)
for task in tasks:
    points = task[3]
    rows.update(zip((point.index for point in points), _sweep_point(task)))
header = ("chi", "k", "below", "status", "max u", "worst gronwall")
print("{:>6} {:>5} {:>6} {:>12} {:>10} {:>15}".format(*header))
for index in range(len(spec.points)):
    row = rows[index].split(",")
    print(
        "{:>6.3g} {:>5.3g} {:>6} {:>12} {:>10.4g} {:>15}".format(
            float(row[0]), float(row[1]), row[3], row[4], float(row[5]),
            row[6] if row[6] == "nan" else f"{float(row[6]):.6f}",
        )
    )
print()
print("below-threshold rows all complete with Gronwall ratios at or near 1;")
print("above the threshold the bootstrap has no pairs, so the ratio is nan.")
