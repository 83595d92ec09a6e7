"""Engine for finitely presented simplicial sets.

Combinatorial normal forms and validation, standard complexes and group
nerves, categorical products with prism decompositions, exact integer
homology, Kan-condition checks by exhaustive horn filling, and
simplicial homotopy groups with the horn-filling product.

Importing the package runs none of its submodules.  ``_EXPORTS`` below is
the one record of the public names and the module each comes from; a
name resolves on first access (``ssets.nerve``, ``from ssets import
nerve``) and is then kept in the package namespace.  Every submodule the
table names is registered in ``sys.modules`` from the package's directory
and bound here at import, but its code runs on the first attribute
access, under one package-wide re-entrant lock, so threads that touch it
together all see it whole.
The exceptions are ``ssets.homology`` and ``ssets.product``: those
names are the functions, as they were when the package imported every
submodule; the modules are ``sys.modules["ssets.homology"]`` and
``sys.modules["ssets.product"]``.
"""

import sys as _sys
from _thread import RLock as _RLock
from importlib import util as _util
from os.path import join as _join
from types import ModuleType as _ModuleType

# module -> the public names it exports
_EXPORTS = {
    "core": "ConsistencyError GenId NotKanError Presentation Simplex SsetError "
    "StructureError TruncationError ValidationReport apply_word compact_simplex "
    "degenerate euler_characteristic format_simplex simplex_key vertex_simplex",
    "groups": "GroupTable all_group_tables cyclic klein_four symmetric_3",
    "constructions": "adjoin_degeneracies boundary cone double_edge_circle horn "
    "nerve sphere_two_cell standard_simplex vertex_sequence",
    "morphism": "HomotopyData HomotopyReport MapReport SimplicialMap apply_map compose "
    "constant_homotopy cylinder_endpoints homotopy_from_cylinder horn_map identity_map "
    "map_from_simplex projections validate_map verify_homotopy_data vertex_inclusion",
    "product": "PrismSimplex ProductPresentation count_nondegenerate_top "
    "prism_decomposition product",
    "homology": "ChainComplex HomologyGroup SNFResult homology homology_of_complex "
    "normalized_complex smith_normal_form unnormalized_complex",
    "kan": "HornSpec KanReport fill_horn fill_horn_all horn_compatible kan_check",
    "homotopy": "BasedPresentation PiGroup PiSet SubPresentation component_index "
    "homotopy_classes homotopy_witness homotopy_witness_shifted les_boundary "
    "path_components pi_n pi_n_rel rel_homotopy_witness simplices_homotopic "
    "simplices_homotopic_rel",
    "report": "CWReport cw_report delta_realization_report incidence_export",
    "io": "NormalizationWarning ParseError SemanticError dumps_presentation "
    "load_group_table load_map load_presentation loads_group_table loads_map "
    "loads_presentation parse_simplex save_presentation",
    "usage": "",  # the CLI's argparse parser, for lines the CLI does not read itself
}
_MODULE_OF = {name: mod for mod, names in _EXPORTS.items() for name in names.split()}

__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"

_lock = _RLock()
_running = set()  # the deferred modules whose code is executing


class _Deferred(_ModuleType):
    """A registered submodule whose code has not run yet.

    The first attribute access runs it in place, and the module becomes a
    plain ``ModuleType``.  Until then every access from another thread
    waits on the lock; the loading thread's own accesses pass through.
    """

    def __getattribute__(self, attr):
        _run(self)
        return _ModuleType.__getattribute__(self, attr)

    def __setattr__(self, attr, value):
        _run(self)  # so that the module's own code cannot overwrite the value
        _ModuleType.__setattr__(self, attr, value)

    def __delattr__(self, attr):
        _run(self)
        _ModuleType.__delattr__(self, attr)


def _run(module):
    with _lock:
        if type(module) is _Deferred and module not in _running:
            _running.add(module)
            try:
                _ModuleType.__getattribute__(module, "__spec__").loader.exec_module(module)
                module.__class__ = _ModuleType
            finally:
                _running.discard(module)


for _mod in _EXPORTS:  # the spec a path search finds, without the search
    _spec = _util.spec_from_file_location(f"{__name__}.{_mod}", _join(__path__[0], f"{_mod}.py"))
    _module = _util.module_from_spec(_spec)
    _module.__class__ = _Deferred
    _sys.modules[f"{__name__}.{_mod}"] = _module
    if _mod not in _MODULE_OF:  # ssets.homology and ssets.product are functions
        globals()[_mod] = _module
del _mod, _spec, _module


def __getattr__(name):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_sys.modules[f"{__name__}.{_MODULE_OF[name]}"], name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_MODULE_OF})
