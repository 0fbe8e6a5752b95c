"""stringfock: exact and numerical workbench for the free open bosonic string field.

Exact layer: truncated oscillator basis, mode algebra, constraint operators,
and ghost/no-ghost signatures over the rationals.  Numerical layer: the
center-of-mass wave operator's fundamental solutions, smeared commutators
and locality scans, the positive-energy second quantization, and the
extended-light-cone finite-difference solver.
"""

__version__ = "0.1.0"

from .basis import LevelBasis, enumerate_basis, level_degeneracy  # noqa: F401
