"""Nonparametric regression on Brownian-path covariates via chaos expansions.

Subpackages:

* ``pathlab``    - path and diffusion simulation, coprocess reconstruction
* ``kernelkit``  - vanishing-moment kernels and boundary-corrected slices
* ``chaoscalc``  - multiple Wiener integrals, oracles, and MC validators
* ``chaosreg``   - chaos-kernel surface estimates and the plugin regression
* ``glselect``   - data-driven bandwidth selection
* ``mappingzoo`` - ground-truth mappings, synthesis, class checks, bumps
* ``benchcli``   - config-driven benchmark command line
"""

__version__ = "0.1.0"

from .pathlab import (  # noqa: F401
    BrownianPath,
    DiffusionPath,
    GenericDiffusion,
    GeometricBM,
    OrnsteinUhlenbeck,
    TimeGrid,
    make_grid,
    reconstruct_coprocess,
    sample_brownian,
    sample_brownian_paths,
    simulate_diffusion,
)
from .kernelkit import (  # noqa: F401
    MomentKernel,
    boundary_sign,
    build_kernel,
    eval_univariate,
    slice_matrix,
)
from .chaoscalc import (  # noqa: F401
    GriddedFunction,
    brute_multiple_integral,
    chaos_constant,
    gridded_chaos_values,
    hermite_chaos,
    hermite_chaos_values,
    isometry_report,
    l2_inner,
    moment_bound_report,
    moment_bound_reports,
    tensor_chaos,
    tensor_chaos_values,
)
from .chaosreg import (  # noqa: F401
    ChaosKernelEstimate,
    FittedModel,
    RiskReport,
    Sample,
    estimate_mean,
    fit_chaos_kernel,
    predict,
    predict_values,
    risk_isometry,
    risk_monte_carlo,
    smoothed_truth,
)
from .glselect import (  # noqa: F401
    BandwidthGrid,
    MajorantParams,
    SelectionTrace,
    adaptive_fit,
    bandwidth_grid,
    bias_proxy,
    majorant,
)
from .mappingzoo import (  # noqa: F401
    GaussianNoise,
    MappingSpec,
    UniformNoise,
    bump_instance,
    bump_psi,
    class_check,
    evaluate_mapping,
    quadratic_terminal,
    synthesize,
)
