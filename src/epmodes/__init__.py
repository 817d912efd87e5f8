"""Eigenmode diagnostics for non-Hermitian resonators.

The package walks one chain: build a parametric model (a two-level matrix or
a discretized elliptical cavity), extract eigenmodes near a target, reduce
each mode to weighted phase statistics on the circle, and score those with
entropic and nonorthogonality diagnostics (folded/unfolded phase entropy,
Fourier-magnitude entropy, Renyi family, phase rigidity, Petermann factor).
Sweeps over a model parameter track modes across avoided crossings and report
where the diagnostics peak.
"""

from . import circstats, entropy, io, linalg, models, nonorth, svgplot, sweep
