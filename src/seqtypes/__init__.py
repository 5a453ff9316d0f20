"""Toolkit for rigid sequence-type derivations and their multiset collapses.

The package implements the rigid (sequence) intersection type systems: the
multiset system on R-types, the syntactic system S, its hybrid relaxation
S_h with interfaces, subject reduction in all three, thread/consumption
analysis, and the constructive trivialization of operable derivations.
"""

from .positions import (
    Position,
    ZeroOneIso,
    applicative_depth,
    collapse_position,
    format_position,
    iter_01_isos,
    parse_position,
)
from .terms import (
    Abs,
    App,
    Term,
    Var,
    beta_reduce_at,
    parse_term,
    print_term,
    redexes,
    subterm_at,
    support,
)
from .stypes import (
    RArrow,
    RAtom,
    SArrow,
    SAtom,
    SeqType,
    equiv,
    iter_type_isos,
    parse_seq_type,
    parse_type,
    print_type,
    relabel_type,
    seq,
)
from .derivations import (
    AbsNode,
    AppNode,
    AxNode,
    CheckedDerivation,
    Derivation,
    GenBudget,
    RDerivation,
    check_R,
    check_derivation,
    collapse_derivation,
    format_judgment,
    generate_normal_form_derivations,
    load_derivation,
    save_derivation,
)
from .reduction import (
    OperableDerivation,
    RChoice,
    ReductionChoice,
    build_operable_from_choices,
    enumerate_r_choices,
    hybridize,
    interfaces_at,
    make_operable,
    reduce_R,
    reduce_S,
    reduce_Sh,
    reduce_operable,
    root_interfaces_at,
)
from .threads import ThreadAnalysis, dot_export, text_report
from .trivialize import (
    BrotherChainError,
    consumption_closure,
    enumerate_derivation_isos,
    trivialize,
    verify_derivation_iso,
)

__version__ = "0.1.0"
