"""Engine for finitely presented simplicial sets.

Combinatorial normal forms and validation, standard complexes and group
nerves, categorical products with prism decompositions, exact integer
homology, Kan-condition checks by exhaustive horn filling, and
simplicial homotopy groups with the horn-filling product.
"""

from .core import (
    ConsistencyError,
    GenId,
    NotKanError,
    Presentation,
    Simplex,
    SsetError,
    StructureError,
    TruncationError,
    ValidationReport,
    apply_word,
    compact_simplex,
    degenerate,
    format_simplex,
    simplex_key,
    vertex_simplex,
)
from .groups import GroupTable, all_group_tables, cyclic, klein_four, symmetric_3
from .constructions import (
    adjoin_degeneracies,
    boundary,
    cone,
    double_edge_circle,
    horn,
    nerve,
    sphere_two_cell,
    standard_simplex,
    vertex_sequence,
)
from .morphism import (
    MapReport,
    SimplicialMap,
    apply_map,
    compose,
    identity_map,
    validate_map,
)
from .product import (
    PrismSimplex,
    ProductPresentation,
    count_nondegenerate_top,
    prism_decomposition,
    product,
    projections,
    vertex_inclusion,
)
from .homology import (
    ChainComplex,
    HomologyGroup,
    SNFResult,
    euler_characteristic,
    homology,
    homology_of_complex,
    normalized_complex,
    smith_normal_form,
    unnormalized_complex,
)
from .kan import (
    HornSpec,
    KanReport,
    fill_horn,
    fill_horn_all,
    horn_compatible,
    horn_map,
    kan_check,
    map_from_simplex,
)
from .homotopy import (
    BasedPresentation,
    HomotopyData,
    HomotopyReport,
    PiGroup,
    PiSet,
    SubPresentation,
    component_index,
    constant_homotopy,
    cylinder_endpoints,
    homotopy_classes,
    homotopy_from_cylinder,
    homotopy_witness,
    homotopy_witness_shifted,
    les_boundary,
    path_components,
    pi_n,
    pi_n_rel,
    rel_homotopy_witness,
    simplices_homotopic,
    simplices_homotopic_rel,
    verify_homotopy_data,
)
from .report import CWReport, cw_report, delta_realization_report, incidence_export
from .io import (
    NormalizationWarning,
    ParseError,
    SemanticError,
    dumps_presentation,
    load_group_table,
    load_map,
    load_presentation,
    loads_group_table,
    loads_map,
    loads_presentation,
    parse_simplex,
    save_presentation,
)

from types import ModuleType as _ModuleType

# the public names, without the submodules that importing them bound here
__all__ = [n for n in dir() if n[0] != "_" and not isinstance(globals()[n], _ModuleType)]

__version__ = "0.1.0"
