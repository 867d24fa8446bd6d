"""Heavy-tailed random walks, their scaling limits, and convergence diagnostics."""

from .errors import (
    CtrwlabError,
    DataError,
    ParameterError,
    RangeError,
    ShapeError,
    UnsupportedDecomposition,
)
from .rng import (
    InnovationLaw,
    SeedSpec,
    StableParams,
    WaitingLaw,
    attractor_params,
    sample_innovation,
    sample_stable,
    sample_waiting,
    wait_attractor_scale,
)
from .paths import (
    GridPath,
    StepPath,
    avci_functional,
    jump_stats,
    m1_modulus,
    max_eps_increments,
    total_variation,
    write_path_csv,
)
from .metrics import MetricResult, d_j1, d_m1, d_uniform
from .processes import (
    ProcessConfig,
    SimulationBundle,
    driver_paths,
    gen_counting,
    gen_ctrw,
    gen_moving_average,
    gen_subordinator_inverse,
    gen_time_changed_levy,
    limit_laws,
)
from .stats import (
    DiagnosticReport,
    Estimate,
    ks_two_sample,
    mean_estimate,
    wasserstein1,
)
from .decompositions import (
    BnEstimate,
    estimate_bn,
    truncated_mean,
)
from .integrals import adversarial_experiment
from .sde import (
    SddeSpec,
    SdeSpec,
    solve_s_limit,
    solve_sdd_limit,
    solve_sddn,
    solve_sn,
)
from .exprs import make_expr

# The CLI names resolve on first use: importing `.cli` here would put
# `ctrwlab.cli` in sys.modules before `python -m ctrwlab.cli` runs it, and
# runpy warns about that on every run.
_CLI_NAMES = ("emit_report", "load_config", "main", "run_scenario")


def __getattr__(name):
    if name in _CLI_NAMES:
        from . import cli

        return getattr(cli, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__version__ = "0.1.0"

__all__ = [
    "BnEstimate",
    "CtrwlabError",
    "DataError",
    "DiagnosticReport",
    "Estimate",
    "GridPath",
    "InnovationLaw",
    "MetricResult",
    "ParameterError",
    "ProcessConfig",
    "RangeError",
    "SddeSpec",
    "SdeSpec",
    "SeedSpec",
    "ShapeError",
    "SimulationBundle",
    "StableParams",
    "StepPath",
    "UnsupportedDecomposition",
    "WaitingLaw",
    "adversarial_experiment",
    "attractor_params",
    "avci_functional",
    "d_j1",
    "d_m1",
    "d_uniform",
    "driver_paths",
    "emit_report",
    "estimate_bn",
    "gen_counting",
    "gen_ctrw",
    "gen_moving_average",
    "gen_subordinator_inverse",
    "gen_time_changed_levy",
    "jump_stats",
    "ks_two_sample",
    "limit_laws",
    "load_config",
    "m1_modulus",
    "main",
    "make_expr",
    "max_eps_increments",
    "mean_estimate",
    "run_scenario",
    "sample_innovation",
    "sample_stable",
    "sample_waiting",
    "solve_s_limit",
    "solve_sdd_limit",
    "solve_sddn",
    "solve_sn",
    "total_variation",
    "truncated_mean",
    "wait_attractor_scale",
    "wasserstein1",
    "write_path_csv",
    "__version__",
]
