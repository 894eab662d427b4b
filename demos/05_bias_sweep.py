"""Current-voltage sweep through the command-line front end.

Drives `simulate sweep` exactly as a shell user would: five bias points
on the diode deck, run one after another, one CSV row per point.  The bias
path addresses the plateau knot of the contact ramp, so each instance
still starts from a well-posed equilibrium at t = 0.
"""

import pathlib
import subprocess
import sys

deck = pathlib.Path(__file__).resolve().parent.parent / "decks" / "diode.yaml"

cmd = [
    sys.executable, "-m", "driftsim.cli",
    "sweep", str(deck),
    "--param", "device.contacts[1].bias[1][1]",
    "--values=0,0.05,0.1,0.2,0.3",
]
print("$", " ".join(cmd[2:]))
proc = subprocess.run(cmd, capture_output=True, text=True, check=True)

lines = proc.stdout.strip().splitlines()
header = lines[0].split(",")
print(f"\n{'bias':>8} {'I(right)':>14} {'iterations':>11} {'status':>7}")
for line in lines[1:]:
    row = dict(zip(header, line.split(",")))
    print(f"{float(row['value']):8.2f} {float(row['current_right']):+.6e}"
          f" {row['iterations']:>11} {row['status']:>7}")

currents = [float(l.split(",")[2]) for l in lines[1:]]
print(f"\nmonotone increasing: {all(b > a for a, b in zip(currents, currents[1:]))}")
print(f"zero-bias current  : {currents[0]:+.2e}")
