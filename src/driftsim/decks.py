"""Shipped simulation decks, as builders.

Each function returns a full SimulationConfig; the YAML files under
decks/ are their canonical dumps (regenerate with
``python -m driftsim.decks <outdir>``).  Tests and the verification
suites use the builders directly so they work from an installed
package; the YAML copies exist for command-line use.

Scales are nondimensional throughout: unit thermal voltage, unit
intrinsic density, lengths in Debye units.  The pn junction decks dope
the left half to -1 (carrier 1 majority) and the right half to +1, and
pin each contact at its neutral potential asinh(d/2), so zero bias is
an exact equilibrium.  Positive bias on the right contact drives the
junction in forward direction.
"""

from __future__ import annotations

import math
import sys

from .config import OutputSink, SimulationConfig, dump_config
from .device import (BoxDoping, Contact, DeviceSpec, DopingProfile,
                     InterfaceSpec, MaterialRegion, RobinSegment)
from .recombination import Auger, Avalanche, MassAction, ShockleyReadHall, SurfaceSRH
from .transient import TimeStepperConfig

__all__ = ["diode", "diode_equilibrium", "two_layer", "insulated",
           "avalanche_runaway", "srh_two_cell", "all_decks"]

# neutral potential of doping +-1 under Boltzmann statistics
_PHI_N = math.asinh(0.5)


def _pn_device(extent: float, cells: int, bias=0.0) -> DeviceSpec:
    half = extent / 2.0
    return DeviceSpec(
        dimension=1, extent=(extent,), resolution=(cells,),
        regions=(MaterialRegion(name="bulk", bounds=((0.0, extent),)),),
        contacts=(
            Contact(side="left", phi=-_PHI_N),
            Contact(side="right", phi=_PHI_N, bias=bias)),
        doping=DopingProfile(boxes=(
            BoxDoping(bounds=((0.0, half),), value=-1.0),
            BoxDoping(bounds=((half, extent),), value=1.0))))


def diode() -> SimulationConfig:
    """Forward-biased pn diode, ramped to 0.25 over one time unit."""
    ramp = ((0.0, 0.0), (1.0, 0.25))
    return SimulationConfig(
        device=_pn_device(20.0, 128, bias=ramp),
        statistics=("boltzmann", "boltzmann"),
        recombination=(ShockleyReadHall(),),
        stepper=TimeStepperConfig(dt_init=0.001, t_end=5.0, dt_max=0.25),
        output=(OutputSink(kind="series", path="diode_series.csv"),
                OutputSink(kind="snapshot", path="diode_final.csv"),
                OutputSink(kind="report", path="diode_report.json")))


def diode_equilibrium() -> SimulationConfig:
    """Unbiased junction held for 100 fixed steps; nothing should move."""
    return SimulationConfig(
        device=_pn_device(20.0, 256),
        statistics=("boltzmann", "boltzmann"),
        recombination=(ShockleyReadHall(), Auger(), MassAction()),
        stepper=TimeStepperConfig(dt_init=0.1, t_end=10.0, dt_min=0.1,
                                  dt_max=0.1),
        output=(OutputSink(kind="series", path="equilibrium_series.csv"),
                OutputSink(kind="snapshot", path="equilibrium_final.csv")))


def two_layer() -> SimulationConfig:
    """Heterojunction: permittivity and mobility jump at x = 4 with
    interfacial recombination across the junction plane."""
    ramp = ((0.0, 0.0), (0.5, 0.1))
    device = DeviceSpec(
        dimension=1, extent=(8.0,), resolution=(64,),
        regions=(
            MaterialRegion(name="layer_a", bounds=((0.0, 4.0),)),
            MaterialRegion(name="layer_b", bounds=((4.0, 8.0),),
                           eps=2.0, mu1=0.5, mu2=2.0)),
        contacts=(
            Contact(side="left", phi=-_PHI_N),
            Contact(side="right", phi=_PHI_N, bias=ramp)),
        interfaces=(InterfaceSpec(axis=0, position=4.0,
                                  model=SurfaceSRH(v1=0.5, v2=0.5)),),
        doping=DopingProfile(boxes=(
            BoxDoping(bounds=((0.0, 4.0),), value=-1.0),
            BoxDoping(bounds=((4.0, 8.0),), value=1.0))))
    return SimulationConfig(
        device=device,
        statistics=("boltzmann", "boltzmann"),
        recombination=(ShockleyReadHall(),),
        stepper=TimeStepperConfig(dt_init=0.001, t_end=2.0, dt_max=0.1),
        output=(OutputSink(kind="series", path="two_layer_series.csv"),
                OutputSink(kind="snapshot", path="two_layer_final.csv")))


def insulated() -> SimulationConfig:
    """No contacts at all: capacitive walls, carriers sealed inside,
    relaxing toward reaction equilibrium."""
    device = DeviceSpec(
        dimension=1, extent=(4.0,), resolution=(32,),
        regions=(MaterialRegion(name="bulk", bounds=((0.0, 4.0),)),),
        robin=(RobinSegment(side="left", eps_gamma=1.0),
               RobinSegment(side="right", eps_gamma=1.0)),
        doping=DopingProfile(boxes=(
            BoxDoping(bounds=((1.0, 3.0),), value=0.5),)))
    return SimulationConfig(
        device=device,
        statistics=("boltzmann", "boltzmann"),
        recombination=(MassAction(rate=1.0, generation=0.8),),
        stepper=TimeStepperConfig(dt_init=0.01, t_end=1.0, dt_max=0.05),
        output=(OutputSink(kind="series", path="insulated_series.csv"),
                OutputSink(kind="probe", path="insulated_probe.csv",
                           position=(2.0,))))


def avalanche_runaway() -> SimulationConfig:
    """Reverse-biased junction with impact ionization strong enough that
    generation outruns extraction; the run is expected to end early with
    a blow-up report rather than reach t_end."""
    ramp = ((0.0, 0.0), (0.5, -2.0))
    return SimulationConfig(
        device=_pn_device(10.0, 32, bias=ramp),
        statistics=("boltzmann", "boltzmann"),
        recombination=(ShockleyReadHall(),
                       Avalanche(c1=1000.0, c2=1000.0, a1=0.5, a2=0.5)),
        stepper=TimeStepperConfig(dt_init=0.001, t_end=1.0, dt_max=0.05,
                                  blowup_threshold=40.0),
        output=(OutputSink(kind="series", path="avalanche_series.csv"),
                OutputSink(kind="report", path="avalanche_report.json")))


def srh_two_cell() -> SimulationConfig:
    """Smallest nontrivial device: two cells, trap recombination, one
    implicit step.  Small enough that the full coupled step can be
    solved monolithically as six scalar equations, which is what the
    cross-check suites do."""
    device = DeviceSpec(
        dimension=1, extent=(1.0,), resolution=(2,),
        regions=(MaterialRegion(name="bulk", bounds=((0.0, 1.0),)),),
        contacts=(
            Contact(side="left", phi=-_PHI_N),
            Contact(side="right", phi=_PHI_N,
                    bias=((0.0, 0.0), (0.05, 0.05), (1.0, 0.05)))),
        doping=DopingProfile(boxes=(
            BoxDoping(bounds=((0.0, 0.5),), value=-1.0),
            BoxDoping(bounds=((0.5, 1.0),), value=1.0))))
    return SimulationConfig(
        device=device,
        statistics=("boltzmann", "boltzmann"),
        recombination=(ShockleyReadHall(),),
        stepper=TimeStepperConfig(dt_init=0.05, t_end=0.05),
        output=(OutputSink(kind="series", path="srh_two_cell_series.csv"),
                OutputSink(kind="snapshot", path="srh_two_cell_final.csv"),
                OutputSink(kind="report", path="srh_two_cell_report.json")))


def all_decks() -> dict[str, SimulationConfig]:
    return {
        "diode": diode(),
        "diode_equilibrium": diode_equilibrium(),
        "two_layer": two_layer(),
        "insulated": insulated(),
        "avalanche_runaway": avalanche_runaway(),
        "srh_two_cell": srh_two_cell(),
    }


def _write_all(outdir: str) -> None:
    import pathlib
    root = pathlib.Path(outdir)
    root.mkdir(parents=True, exist_ok=True)
    for name, config in all_decks().items():
        (root / f"{name}.yaml").write_text(dump_config(config),
                                           encoding="utf-8")
        print(f"wrote {root / f'{name}.yaml'}")


if __name__ == "__main__":
    _write_all(sys.argv[1] if len(sys.argv) > 1 else "decks")
