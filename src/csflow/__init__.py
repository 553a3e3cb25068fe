"""Numerical laboratory for the shortening flow of closed plane curves.

Discrete curves evolve under the curve shortening flow or its
length-preserving normalization; chords are compared against the barrier
f(x, t) = 2 e^t arctan(e^{-t} sin(x/2)), and the resulting distance
comparison, curvature bound, and convergence-to-circle statements are
measured along every run.
"""

__version__ = "0.1.0"

from .dynamics import FlowConfig
from .errors import CsflowError
from .harness import RunSpec, execute
