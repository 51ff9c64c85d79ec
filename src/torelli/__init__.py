"""Exact computation with partitioned boundary configurations: drag
generators and their relations, Johnson images, Tomaszewski rewriting of
commutator words, and the lattice of direct summands of Z^n.

The public surface is what this module imports: ``__all__`` lists every
name bound here that is neither private nor a module."""

from types import ModuleType as _ModuleType

from .config import (
    CappedBasis,
    ConfigError,
    PartitionConfig,
    build_basis,
    capped_rank,
    config_from_json,
    config_to_json,
    ordered_partitions,
    partition_config,
    standard_grid,
)
from .drags import (
    Check,
    DragGenerator,
    DragWord,
    abelianization_rank,
    all_generators,
    bcd,
    cd_minus,
    cd_plus,
    drag_word,
    drag_word_inv,
    drag_word_text,
    formula_rank,
    hd,
    membership_IOP,
    parse_drag_word,
    pd,
    push_boundary,
    realize,
    realize_images,
    realize_word,
    reduced_generating_set,
    tau_star,
    tau_star_formula,
    verify_config,
)
from .johnson import (
    ExtVector,
    HomTable,
    ext_vector,
    flatten,
    rho,
    tau,
    wedge,
)
from .lattice import (
    complete_basis,
    fs_dot,
    fs_graph,
    fs_h1,
    fs_is_simplex,
    fs_triangles,
    fs_vertices,
    is_primitive,
    matrix_rank,
    snf,
    spans_summand,
)
from .rewriter import (
    Factorization,
    TomaszewskiFactor,
    factor_word,
    in_commutator_subgroup,
    push_factorization,
    tomaszewski_factor,
)
from .words import (
    GroupMap,
    ParseError,
    PreconditionError,
    Word,
    abelianization_matrix,
    abelianization_vector,
    apply,
    comm,
    compose,
    conj,
    gen,
    identity_map,
    inner_automorphism,
    inv,
    inverse,
    is_homology_trivial,
    mul,
    nielsen_generators,
    parse_word,
    power,
    reduce,
    same_map,
    verify_certificate,
    word_text,
)

__version__ = "0.1.0"

__all__ = [name for name, value in globals().items()
           if not name.startswith("_")
           and not isinstance(value, _ModuleType)]
