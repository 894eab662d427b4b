"""Current-voltage sweep through the command-line front end.

Drives `simulate sweep` exactly as a shell user would: five bias points
on the diode deck, run in forked worker processes (one per available CPU
up to the number of points), one CSV row per point in input order.  The
bias path addresses the plateau knot of the contact ramp, so each
instance still starts from a well-posed equilibrium at t = 0.  The script
asserts that every point completes, that the current grows strictly with
the bias and that the zero-bias point carries no current.
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
rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
print(f"\n{'bias':>8} {'I(right)':>14} {'iterations':>11} {'status':>7}")
for row in rows:
    print(f"{float(row['value']):8.2f} {float(row['current_right']):+.6e}"
          f" {row['iterations']:>11} {row['status']:>7}")

currents = [float(row["current_right"]) for row in rows]
monotone = all(b > a for a, b in zip(currents, currents[1:]))
print(f"\nmonotone increasing: {monotone}")
print(f"zero-bias current  : {currents[0]:+.2e}")
assert all(row["status"] == "ok" for row in rows)
assert monotone
assert abs(currents[0]) <= 1e-10
