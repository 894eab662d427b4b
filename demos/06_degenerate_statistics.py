"""Boltzmann versus Fermi-Dirac carrier statistics.

At low occupation the two distribution functions coincide; once the
argument passes zero the Fermi-Dirac density falls behind the
exponential and the degeneracy factor eta = F/F' grows past one.  The
enhanced flux variant uses exactly that factor, which is what keeps a
degenerate junction's equilibrium current at zero.  The script asserts the
inversion round trip to 1e-12 relative and that the corrected flux
vanishes to 1e-12 of the uncorrected one.
"""

import numpy as np

from driftsim import (Contact, DeviceSpec, FluxScheme, MaterialRegion,
                      boltzmann, build_mesh, fermi_dirac_half)
from driftsim.operators import Discretization, evaluate_face_coefficients

bz = boltzmann()
fd = fermi_dirac_half()

print("   s        exp(s)      F_fd(s)     ratio     eta")
for s in (-10.0, -5.0, -2.0, 0.0, 2.0, 5.0, 10.0):
    b, f = bz.eval(s), fd.eval(s)
    print(f"{s:6.1f}  {b:11.4e} {f:11.4e}  {f / b:7.4f}  {fd.eval_eta(s):6.3f}")

print("\ninversion round trip at high degeneracy:")
u = 50.0
s = fd.invert(u)
print(f"  F^-1({u}) = {s:.6f},  F(F^-1(u)) - u = {fd.eval(s) - u:+.2e}")
assert abs(fd.eval(s) - u) <= 1e-12 * u

# a face in detailed balance: two unit cells, one interior face of unit
# transmissibility, and equal quasi-Fermi levels Phi1 = Phi2 = 0 on both
# sides, so carrier 1's arguments s = Phi1 - phi rise by dphi across it.
# The grounded left contact makes the pair an admissible device; its
# boundary face is not the one measured
s_lo, dphi = 4.0, 1.5
pair = DeviceSpec(dimension=1, extent=(2.0,), resolution=(2,),
                  regions=(MaterialRegion("bulk", ((0.0, 2.0),)),),
                  contacts=(Contact(side="left"),))
disc = Discretization(build_mesh(pair))
phi = np.array([-s_lo, -s_lo - dphi])
chi = np.vstack([-phi, phi])


def face_flow(variant):
    """Carrier 1's mass flow through the face, low to high cell."""
    faces = evaluate_face_coefficients(
        disc, (fd, fd), FluxScheme(variant=variant), phi, chi,
        np.zeros((3, 1)))
    return float(faces.flux()[0, disc.faces[0]])


plain = face_flow("scharfetter_gummel")
enhanced = face_flow("scharfetter_gummel_enhanced")

print("\nspurious equilibrium flux on a degenerate face:")
print(f"  exponential fitting assuming Boltzmann: {plain:+.4e}")
print(f"  degeneracy-corrected variant          : {enhanced:+.4e}")
assert abs(enhanced) <= 1e-12 * abs(plain)
