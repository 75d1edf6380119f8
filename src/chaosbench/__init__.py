"""Nonparametric regression on Brownian-path covariates via chaos expansions.

Subpackages:

* ``pathlab``    - path and diffusion simulation, coprocess reconstruction
* ``kernelkit``  - vanishing-moment kernels and boundary-corrected slices
* ``chaoscalc``  - multiple Wiener integrals, chaos expansions, oracles, MC validators
* ``chaosreg``   - chaos-kernel surface estimates and the plugin regression
* ``glselect``   - data-driven bandwidth selection
* ``mappingzoo`` - ground-truth mappings, synthesis, class checks, bumps
* ``benchcli``   - config-driven benchmark command line
"""

__version__ = "0.1.0"
