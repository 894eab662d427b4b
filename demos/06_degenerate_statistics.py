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

from driftsim import FluxScheme, boltzmann, fermi_dirac_half
from driftsim.operators import sg_flux

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

# a face in detailed balance: equal quasi-Fermi levels on both sides
s_lo, dphi = 4.0, 1.5
s_hi = s_lo + dphi
u_lo, u_hi = fd.eval(s_lo), fd.eval(s_hi)

plain = sg_flux(FluxScheme(), u_lo, u_hi, s_lo, s_hi, dphi, 1.0, 1.0, 1.0)
enhanced = sg_flux(FluxScheme(variant="scharfetter_gummel_enhanced"),
                   u_lo, u_hi, s_lo, s_hi, dphi, 1.0, 1.0, 1.0, stats=fd)

print("\nspurious equilibrium flux on a degenerate face:")
print(f"  exponential fitting assuming Boltzmann: {plain:+.4e}")
print(f"  degeneracy-corrected variant          : {enhanced:+.4e}")
assert abs(enhanced) <= 1e-12 * abs(plain)
