"""Exact computations with actions, split extensions and weak actors of
finite-dimensional nonassociative algebras over Q and odd prime fields."""

from .fields import Field, GF, PrimeField, Q, Rationals
from .algebra import (
    Algebra,
    BilinearOp,
    Centers,
    IdentityReport,
    annihilator,
    centers,
    check_identity,
    is_homomorphism,
    leibniz_kernel,
    product_subspace,
)
from .opspace import (
    OperatorSpace,
    anti_derivations,
    biderivations,
    bimultipliers,
    check_bim_commutation,
    comm_poisson_usga,
    derivations,
    inner_embedding,
    multipliers,
    poisson_usga,
    space_of_kind,
)
from .actions import (
    ActionData,
    ActorMorphism,
    SplitExtension,
    ValidationReport,
    action_to_morphism,
    enumerate_actions,
    enumerate_acting_morphisms,
    extract_action,
    is_acting_morphism,
    morphism_to_action,
    semidirect,
    validate_action,
    weak_actor,
    zero_action,
)
from .catalog import (
    MorphismData,
    builtin,
    open_problem_search,
    repro_suite,
)
from . import errors

__version__ = "0.1.0"
