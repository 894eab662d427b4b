"""Impact-ionization runaway under reverse bias.

The shipped avalanche deck multiplies the ionization production by a
factor of a thousand under reverse bias.  The carrier norm proxy rises
over ``blowup_window`` accepted steps and passes the deck's threshold
of 40 at t ~ 0.282 on this 32-cell mesh, where the stepper stops.  This
is a detected outcome, not a crash; the result object says when and why
integration stopped.  How this verdict depends on the mesh is recorded
in ROADMAP item 10.
"""

import pathlib

from driftsim import build_models, load_config, run

deck = (pathlib.Path(__file__).resolve().parent.parent
        / "decks" / "avalanche_runaway.yaml")
config = load_config(deck)

result = run(config.device, build_models(config), config.stepper)

print(f"completed      : {result.completed}")
print(f"accepted steps : {result.steps_accepted}")
print(f"rejected steps : {result.steps_rejected}")
print(f"stopped at t   : {result.final.t:.4f} (t_end was {config.stepper.t_end})")

assert result.blowup is not None
print(f"\nreason    : {result.blowup.reason}")
print(f"threshold : {result.blowup.threshold}")
print("trailing norm proxies:")
for report in result.reports[-6:]:
    print(f"  t = {report.t:.4f}  proxy = {report.proxy:8.3f}")

print("\nevery accepted state stayed positive on the way up:")
floor = min(float(state.u.min()) for state in result.states)
print(f"  min density over the whole run: {floor:.4f}")
