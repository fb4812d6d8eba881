"""Exact engine for partial actions of finite groups on finite spaces.

Everything is computed over explicit tables: group multiplication,
topologies as minimal-neighborhood bitmasks, per-element partial
maps.  The package validates partial-action axioms in two independent
formulations, builds the enveloping space with its quotient topology
and total action, computes category transforms, and certifies
selector, transversal topology and bireducibility facts, each as a
structured report.
"""

from types import ModuleType as _ModuleType

from .errors import (
    AxiomViolation,
    InvalidOpenSet,
    InvalidOrder,
    InvalidSubset,
    LimitExceeded,
    NoIdentity,
    NoInverse,
    NotAnAction,
    NotAssociative,
    NotOpen,
    PactopError,
    ParseError,
    SchemaError,
)
from .globalize import (
    Globalization,
    build,
    effros_report,
    embedding_report,
    hat_relation_report,
)
from .groups import FiniteGroup, cyclic, make_group
from .instances import example_k3, induced, induced_family, mutant_family
from .paction import (
    PartialAction,
    acting_set,
    lifted_action,
    orbit,
    orbit_consistency_report,
    orbit_equivalence,
    pair_action,
    stabilizer,
    validate,
)
from .relations import EqRel, from_relation
from .reports import Check, Report, ReportBuilder
from .selector import (
    BorelReport,
    SelectorMap,
    action_continuity_table,
    bireducibility_report,
    normalized_selector,
    orbit_homeomorphism_report,
    transversal,
    transversal_topology,
)
from .topology import (
    FinTop,
    SeparationFlags,
    all_topologies,
    borel_algebra,
    discrete,
    homeomorphisms,
    is_borel,
    is_continuous,
    is_homeomorphism,
    is_meager_in,
    is_open,
    is_open_map,
    make_topology,
    minimal_neighborhoods,
    product,
    product_with_discrete,
    quotient,
    separation,
    subspace,
)
from .vaught import (
    delta_transform,
    ideal_member,
    ideal_section_set,
    open_case,
    star_transform,
    transform_identities_report,
)

# the functions and classes above, not the submodules their imports bind
__all__ = sorted(
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)

__version__ = "0.1.0"
