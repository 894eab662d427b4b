"""Transient drift-diffusion device simulation on finite-volume meshes.

The public surface is intentionally small: device description and mesh
construction, carrier statistics, the nonlinear Poisson solve, the
transient driver, and the YAML deck front end.  Everything else lives in
the submodules and is importable from there.
"""

from .errors import (
    ConfigError,
    DomainError,
    DriftError,
    GeometryError,
    NonConvergenceError,
    SolverError,
)
from .device import (
    BoxDoping,
    Contact,
    DeviceSpec,
    InterfaceSpec,
    MaterialRegion,
    Mesh,
    RobinSegment,
    SheetDoping,
    SurfaceSegment,
    build_mesh,
)
from .statistics import StatisticsModel, boltzmann, fermi_dirac_half
from .operators import FluxScheme
from .recombination import (
    Auger,
    Avalanche,
    MassAction,
    ShockleyReadHall,
    SurfaceSRH,
    kappa,
    kappa_lipschitz_bound,
)
from .nonlinear_poisson import equilibrium_state, solve_operator_S
from .transient import (
    CarrierState,
    SimulationModels,
    SimulationResult,
    TimeStepperConfig,
    initial_state,
    run,
    terminal_currents,
)
from .config import (
    OutputSink,
    SimulationConfig,
    build_models,
    dump_config,
    load_config,
    parse_config,
)

__all__ = [
    "Auger",
    "Avalanche",
    "BoxDoping",
    "CarrierState",
    "ConfigError",
    "Contact",
    "DeviceSpec",
    "DomainError",
    "DriftError",
    "FluxScheme",
    "GeometryError",
    "InterfaceSpec",
    "MassAction",
    "MaterialRegion",
    "Mesh",
    "NonConvergenceError",
    "OutputSink",
    "RobinSegment",
    "SheetDoping",
    "ShockleyReadHall",
    "SimulationConfig",
    "SimulationModels",
    "SimulationResult",
    "SolverError",
    "StatisticsModel",
    "SurfaceSRH",
    "SurfaceSegment",
    "TimeStepperConfig",
    "boltzmann",
    "build_mesh",
    "build_models",
    "dump_config",
    "equilibrium_state",
    "fermi_dirac_half",
    "initial_state",
    "kappa",
    "kappa_lipschitz_bound",
    "load_config",
    "parse_config",
    "run",
    "solve_operator_S",
    "terminal_currents",
]
