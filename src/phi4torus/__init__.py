"""phi4torus: spectral stochastic quantization of the renormalized Phi^4
Langevin dynamics on flat tori.

Subpackages
-----------
spectral     grids, fields, Fourier multipliers, L^p norms, exponential-Euler
             stepping; the only module that transforms
noise        regularized space-time white noise, exact OU updates
paraproduct  Littlewood-Paley blocks, paraproducts, Besov norms
renorm       universal counterterm constants a_r, b_r and diagnostics
trees        the enhanced-noise tuple of renormalized trees
dynamics     the u- and v-equations, coming down from infinity, comparison test
powercount   Feynman-graph power counting engine with a small graph DSL
observables  Birkhoff sampling, fourth-cumulant estimator
cli          the `phi4` command-line front-end
"""

from .spectral import Field, Grid, apply_multiplier, cubic, duhamel_step

__all__ = ["Field", "Grid", "apply_multiplier", "cubic", "duhamel_step"]

__version__ = "0.1.0"
