"""Subpower membership for finite Mal'tsev algebras.

Decides whether a tuple lies in the subalgebra of A^k generated by given
tuples.  Polynomial-time decision procedures cover affine algebras and
wreath products of an affine algebra by a prime-order affine quotient of
coprime size; an exhaustive closure oracle provides the desk-scale
cross-check.
"""

from .affine import (AbelianGroupSpec, AffineOpSpec, Echelon, NotAffineError,
                     affine_closure_comprep, affine_span, subgroup_member,
                     verify_affine)
from .circuits import Circuit, CircuitBank, CircuitError, parse_sexpr, serialize_sexpr
from .comprep import (EnumeratedCompactRep, fix_block, fix_value, fix_values,
                      maltsev_chain_member, signature, thin_to_compact)
from .core import (AlgebraError, ClosureCapExceeded, FiniteAlgebra, Operation,
                   eval_circuit, is_congruence, smp_oracle, subpower_closure,
                   verify_central, verify_maltsev)
from .solver import (SmpInstance, SmpVerdict, UnsupportedAlgebraError,
                     check_witness, compute_comprep, dispatch,
                     solve_smp_wreath)
from .wreath import (ClonoidGenSet, WreathSpec, build_wreath,
                     clonoid_image_comprep, diff_clonoid_gens)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
