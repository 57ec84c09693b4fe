"""Two-tier slotted-ALOHA relay network: analysis, optimization, simulation.

Users offer Poisson traffic on a shared uplink watched by k relays over
erasure channels; relays probabilistically forward decoded packets to a
sink over a second slotted-ALOHA hop.  The package evaluates end-to-end
throughput exactly (series and closed form), bounds it, optimizes the
forwarding probability, load and relay count, and cross-checks everything
against a slot-level Monte Carlo simulator.

numpy is imported inside the functions that build arrays (the delta
screens, the optimizers' grids, the simulator), so importing the package
and evaluating the closed forms and series never load it.
"""

__version__ = "0.1.0"

from .kernels import (
    G_MAX,
    ancillary_h,
    ancillary_h_oracle,
)
from .model import (
    SystemParams,
    ThroughputResult,
    bound,
    bound_closed,
    bound_series,
    delta_star_k2,
    peak_load,
    s_star_k2,
    throughput,
    throughput_closed,
    throughput_k2_at_peak_load,
    throughput_sa,
    throughput_series,
)
from .optimize import (
    OptimizationResult,
    optimize_delta,
    optimize_k,
    optimize_load,
)
from .simulate import (
    MODE_BOUND,
    MODE_FULL,
    RNG_ALGORITHM,
    RNG_LAYOUT,
    SimConfig,
    SimStats,
    SlotOutcome,
    rng_substream,
    simulate,
    simulate_trace,
)
from .sweep import (
    FIGURE_IDS,
    SweepSpec,
    columns_for,
    figure_table,
    reproduce_figure,
    run_sweep,
)

__all__ = [
    "FIGURE_IDS",
    "G_MAX",
    "MODE_BOUND",
    "MODE_FULL",
    "OptimizationResult",
    "RNG_ALGORITHM",
    "RNG_LAYOUT",
    "SimConfig",
    "SimStats",
    "SlotOutcome",
    "SweepSpec",
    "SystemParams",
    "ThroughputResult",
    "ancillary_h",
    "ancillary_h_oracle",
    "bound",
    "bound_closed",
    "bound_series",
    "columns_for",
    "delta_star_k2",
    "figure_table",
    "optimize_delta",
    "optimize_k",
    "optimize_load",
    "peak_load",
    "reproduce_figure",
    "rng_substream",
    "run_sweep",
    "s_star_k2",
    "simulate",
    "simulate_trace",
    "throughput",
    "throughput_closed",
    "throughput_k2_at_peak_load",
    "throughput_sa",
    "throughput_series",
]
