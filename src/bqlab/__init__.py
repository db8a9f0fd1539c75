"""bqlab: sheared-frame Boussinesq solver and stability measurement harness."""

from .grid import (
    Grid,
    SpectralField,
    dealias,
    field_from_function,
    field_from_physical,
    l2_norm,
    make_grid,
    sobolev_norm,
    to_physical,
    zero_field,
)
from .multiplier import (
    MultiplierTable,
    eval_M,
    eval_Mdot_over_M,
    make_multiplier,
)
from .shear import (
    ShearFrame,
    ShearProfile,
    build_frame,
    couette,
    couette_plus_sine,
    heat_evolve_shear,
    invert_laplace_t,
    measure_delta,
    velocity_from_psi,
)
from .evolve import (
    Params,
    SimState,
    Trajectory,
    make_state,
    rhs_explicit,
    run,
    step,
)
from .diagnostics import (
    EnergyReport,
    budget_snapshot,
    energy_functionals,
    standard_observer,
    thm1_monitor,
    thm2_monitor,
)
from .oracle import FdState, compare_runs, fd_run, fd_step, make_fd_initial
from .harness import (
    SweepSpec,
    ThresholdResult,
    emit_outputs,
    run_single,
    scan_threshold,
)

__version__ = "0.1.0"
