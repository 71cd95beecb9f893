"""monograde: exact computation in monoid-graded commutative algebras.

Gradings live in a pluggable commutative monoid with a parity function;
algebra elements are truncated normal-form sums of polynomial coefficients
times generator words; morphisms between graded coordinate domains are
determined by coordinate images; derivations extend coordinate values by
the graded Leibniz rule.  Everything is exact over the rationals.

The paper's structural results that no command runs are in
`monograde.structure`, which this package does not import.
"""

from .basecoeff import BasePoly
from .calculus import (Derivation, DescentSequence, NotQClosed, bracket,
                       check_descent, check_exact, k_sequence, qk_verify)
from .expr import ExprError, parse_element, parse_poly, render_element, render_poly
from .galgebra import (AlgebraError, GeneratorSpec, GradedElement,
                       NotInvertible)
from .grading import (CyclicProduct, FiniteTable, GradingError, GradingSpec,
                      IntPower, KGroupElement, NatPower, Z2Power, k_add,
                      k_element, k_eq, k_mul, k_parity, parity_of)
from .morphism import (Atlas, DomainSpec, Morphism, MorphismError,
                       check_cocycle, check_homomorphism, compose,
                       continuation)
from .reporting import CheckReport

__all__ = [
    "AlgebraError", "Atlas", "BasePoly", "CheckReport", "CyclicProduct",
    "Derivation", "DescentSequence", "DomainSpec", "ExprError", "FiniteTable",
    "GeneratorSpec", "GradedElement", "GradingError", "GradingSpec",
    "IntPower", "KGroupElement", "Morphism", "MorphismError", "NatPower",
    "NotInvertible", "NotQClosed", "Z2Power", "bracket", "check_cocycle",
    "check_descent", "check_exact", "check_homomorphism", "compose",
    "continuation", "k_add", "k_element", "k_eq", "k_mul", "k_parity",
    "k_sequence", "parity_of", "parse_element", "parse_poly", "qk_verify",
    "render_element", "render_poly",
]

__version__ = "0.1.0"
