"""Uniform confinement without uniform convexity.

A double-well self-interaction makes the first species split into two
clusters (the energy is not uniformly convex, modulus -1), but quadratic
tails beyond radius 1 make the pair confining: the supports settle into a
fixed band instead of spreading.  A purely repulsive control run shows what
confinement rules out: the support then grows exponentially, though it stays
finite on any fixed horizon.
"""

import numpy as np

import multiagg as mg
from multiagg.measures import cell_midpoints

M = 64
pm = mg.matrix_from_entries(
    [[mg.DoubleWell(1.0, 1.0), mg.Quadratic(1.0)], [None, mg.Quadratic(1.0)]],
    kappa=[[-2.0, 1.0], [1.0, 1.0]],
    confining=mg.ConfiningSpec(radius=1.0, tail_kappa=[[10.0, 1.0], [1.0, 1.0]]))
params = mg.SystemParams(m=[1.0, 1.0], p=[1.0, 1.0], E=[0.0])

report = mg.analyze_system(pm, params)
print(f"lambda0 = {report.lambda0}, confining verdict = {report.confining.verdict} "
      f"(tail modulus {report.confining.lambda0_tilde})")

z = cell_midpoints(M)
u = np.vstack([-1.2 + 2.4 * z, -0.5 + 1.0 * z])
qs = mg.QuantileState(u, params)
traj = mg.run(qs, pm, mg.SolverConfig(dt=2e-3, t_end=30.0, scheme="rk4",
                                      record_every=1500))

print(f"\n{'t':>6} {'supp species 1':>22} {'supp species 2':>22} {'energy':>10}")
for r in traj.records:
    s1 = f"[{r.supp_lo[0]:+.4f}, {r.supp_hi[0]:+.4f}]"
    s2 = f"[{r.supp_lo[1]:+.4f}, {r.supp_hi[1]:+.4f}]"
    print(f"{r.t:6.1f} {s1:>22} {s2:>22} {r.energy:10.6f}")

# Steady when the final record's |dissipation| < tol (1 + |energy|); the residuals are
# each species' largest force, max |velocity| / m_i.
final = traj.records[-1]
steady = abs(final.dissipation) < 1e-8 * (1.0 + abs(final.energy))
residuals = [np.abs(v).max() / m for v, m in zip(mg.velocity(traj.final_state, pm), params.m)]
print(f"\nsteady state reached: {steady} "
      f"(|dissipation| = {abs(final.dissipation):.2e}, "
      f"stationarity residuals {np.round(residuals, 10).tolist()})")
print("species 1 splits into two clusters at the well separation; "
      "species 2 collapses onto the center")

print("\ncontrol: purely repulsive single species (no confinement)")
pm_rep = mg.matrix_from_entries([[mg.Quadratic(-0.5)]], kappa=[[-0.5]])
params1 = mg.SystemParams(m=[1.0], p=[1.0], E=[0.0])
u1 = (-1.0 + 2.0 * z)[None, :]
u1 -= u1.mean()
traj1 = mg.run(mg.QuantileState(u1, params1), pm_rep,
               mg.SolverConfig(dt=1e-3, t_end=5.0, scheme="rk4", record_every=1000))
for r in traj1.records:
    print(f"  t={r.t:4.1f}: diameter {r.diam[0]:9.4f}")
print("  grows like exp(0.5 t): finite at every fixed time, unbounded overall")
