"""weylkit: exact combinatorics of reductive groups in positive characteristic.

The package computes, in exact integer arithmetic:

* root data (lattices, roots, coroots, pairings, duality),
* finite and affine Weyl groups with length, Bruhat order and the
  p-dilated dot action,
* Hecke algebras over integer Laurent polynomials and their
  Kazhdan-Lusztig bases,
* Weyl characters, Frobenius twists and Steinberg tensor-product
  characters for rank one,
* character-formula decomposition matrices for principal blocks,
* toy intersection-cohomology stalk tables for two-strata cones.

Everything is deterministic and floating-point free.
"""

from weylkit.lattice import *
from weylkit.coxeter import *
from weylkit.hecke import *
from weylkit.charring import *
from weylkit.lcf import *
from weylkit.icstalk import *

__version__ = "0.1.0"

# each layer module lists its public names once, in its own __all__;
# importing a submodule binds it here, as the lists below read it
__all__ = (lattice.__all__ + coxeter.__all__ + hecke.__all__
           + charring.__all__ + lcf.__all__ + icstalk.__all__)
