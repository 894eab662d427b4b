"""Transient turn-on of the shipped diode deck.

Loads decks/diode.yaml, integrates through the bias ramp, and tabulates
the terminal current as the junction switches from equilibrium to
forward conduction.  The balance column shows the discrete conservation
defect of every accepted step.  The script asserts that the run
completes, that every step balances to rounding level and that the final
terminal current is positive at the right contact and negative at the left.
"""

import pathlib

from driftsim import build_models, load_config, run, terminal_currents

deck = pathlib.Path(__file__).resolve().parent.parent / "decks" / "diode.yaml"
config = load_config(deck)
models = build_models(config)

result = run(config.device, models, config.stepper)
assert result.completed
assert max(r.balance_residual for r in result.reports) <= 1e-12

print(f"accepted steps : {result.steps_accepted}")
print(f"rejected steps : {result.steps_rejected}")
print(f"final time     : {result.final.t:.3f}")

print("\n   t        dt     iters   balance     I(right)")
for state, report in zip(result.states[1:], result.reports):
    if report.t in {r.t for r in result.reports[::6]} or report is result.reports[-1]:
        current = terminal_currents(result.disc, models, state)
        print(f"{report.t:7.3f} {report.dt:8.4f} {report.gummel_iterations:5d}"
              f"   {report.balance_residual:.1e}  {current['right']:+.5e}")

final = terminal_currents(result.disc, models, result.final)
print(f"\nsteady forward current at both terminals: "
      f"left {final['left']:+.5e}, right {final['right']:+.5e}")
assert final["right"] > 0.0 > final["left"]
