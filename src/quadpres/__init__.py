"""quadpres: finite hyperfields, presentable structures and their Witt rings.

The pipeline, bottom to top: finite pointed posets with a presentability
ladder (quadpres.posets); small finite fields and square classes
(quadpres.finitefield); hyperfields with set-valued addition, quotients,
the prime addition and quadratic hyperfields (quadpres.hyperfields);
explicit presentable rings, powerset constructions and quotient theorems
(quadpres.presentable); forms, isometry, Witt rings and special groups
(quadpres.quadratic); and an independent classical oracle over Gram
matrices and discriminants of diagonal forms (quadpres.oracle).
"""

from .errors import AxiomReport, InputError, SizeGuardError, ValidationError
from .finitefield import FiniteField, ff_make, parse_field_arg, square_classes
from .hyperfields import (
    Hyperfield,
    check_hyperfield,
    euclidean_hyperfield,
    from_field,
    hyperfield_isomorphic,
    prime_hyperfield,
    quadratic_hyperfield,
    quotient_by_subgroup,
)
from .posets import (
    FinitePointedPoset,
    check_presentable as check_presentable_poset,
    explicit_poset,
    pierced_powerset,
    squarefree_divisors,
    walking_supremum,
)
from .presentable import (
    PresentableRing,
    check_presentable,
    example_sq_structure,
    powerset_of_hyperfield,
    quotient_by_congruence,
    quotient_mod_multiplicative_set,
    squares_pipeline,
    supercompact_hyperfield,
)
from .quadratic import (
    Form,
    IsometryContext,
    SpecialGroupTable,
    WittClass,
    WittRing,
    check_prequadratic,
    check_quadratic,
    check_special_group,
    isometric,
    orthogonal_sum,
    ring_isomorphic,
    special_group_of,
    tensor_product,
    witt_ring,
)
from .oracle import (
    GramForm,
    classical_isometric,
    classical_witt_ring,
    congruence_classes,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
