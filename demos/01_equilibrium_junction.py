"""Thermal equilibrium of an abrupt pn junction.

Builds the device in code, solves the self-consistent potential, and
prints the built-in voltage next to the analytic value 2*asinh(1/2)
that balanced unit doping implies for Boltzmann carriers, and asserts
that they agree to 1e-3, the bound of ``simulate verify equilibrium``.
"""

import numpy as np

from driftsim import (
    BoxDoping,
    Contact,
    DeviceSpec,
    MaterialRegion,
    boltzmann,
    equilibrium_state,
)
from driftsim.device import DopingProfile

phi_n = float(np.arcsinh(0.5))
device = DeviceSpec(
    dimension=1,
    extent=(20.0,),
    resolution=(256,),
    regions=(MaterialRegion("bulk", ((0.0, 20.0),)),),
    contacts=(Contact(side="left", phi=-phi_n),
              Contact(side="right", phi=phi_n)),
    doping=DopingProfile(boxes=(BoxDoping(((0.0, 10.0),), -1.0),
                                BoxDoping(((10.0, 20.0),), 1.0))),
)

mesh, phi, (u1, u2) = equilibrium_state(device, (boltzmann(), boltzmann()))

built_in = phi[-1] - phi[0]
print(f"built-in potential : {built_in:.6f}")
print(f"2 asinh(1/2)       : {2 * phi_n:.6f}")
print(f"difference         : {abs(built_in - 2 * phi_n):.2e}")
assert abs(built_in - 2 * phi_n) <= 1e-3

x = mesh.cell_centers[:, 0]
print("\n  x        phi        u1         u2")
for i in range(0, mesh.n_cells, 32):
    print(f"{x[i]:7.3f} {phi[i]:+.4f} {u1[i]:10.4f} {u2[i]:10.4f}")

# the space charge d + u1 - u2 vanishes away from the junction
from driftsim.device import bulk_doping

charge = bulk_doping(device, mesh) + u1 - u2
print(f"\nmax |space charge| in the outer quarters: "
      f"{np.max(np.abs(charge[x < 5.0])):.2e}")
