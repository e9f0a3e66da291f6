"""Exact-arithmetic toolkit for Lie poset algebras of the classical families.

Signed posets encode subalgebras between the diagonal and upper-triangular
matrices of sl(n), so(2n+1), sp(2n) and so(2n).  The package constructs
their bases, computes the index both by exact generic rank and by the
combinatorial relation-graph formulas, replays the graph-guided matrix
reduction, and verifies the Frobenius functional / principal element /
binary spectrum story by exhaustive small-case enumeration.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# the oracle's default number of evaluations; it lives here so that the
# command line can show it as an option default without loading the
# index module
ORACLE_TRIALS = 5

# Every public name and the module that defines it.  Importing the
# package imports none of them: `__getattr__` (PEP 562) reads a name off
# its module, loading the module on first use, so `python -m lieposet.cli`
# loads only what its command runs.  Nothing is copied into the package,
# so a name always reads what its module holds now.
_EXPORTS = {
    "AntisymmetryViolation": "errors",
    "BadElement": "errors",
    "Condition1Violation": "errors",
    "Condition2Violation": "errors",
    "Condition3Violation": "errors",
    "InputParseError": "errors",
    "InvariantViolation": "errors",
    "LiePosetError": "errors",
    "NoSignRescaling": "errors",
    "NonEigenbasis": "errors",
    "NotFrobenius": "errors",
    "NotInSpan": "errors",
    "PosetConstructionError": "errors",
    "SingularForm": "errors",
    "TablesDiffer": "errors",
    "UnsupportedHeight": "errors",
    "UnsupportedPoset": "errors",
    "integer_rank": "linalg",
    "FAMILIES": "posets",
    "GraphComponent": "posets",
    "HeightPair": "posets",
    "RelationGraph": "posets",
    "SignedPoset": "posets",
    "build_poset": "posets",
    "covering_relations": "posets",
    "enumerate_h01": "posets",
    "ground_set": "posets",
    "h01_slots": "posets",
    "induced_subposet": "posets",
    "is_separable": "posets",
    "mask_of_poset": "posets",
    "poset_from_graph": "posets",
    "poset_from_mask": "posets",
    "positive_part": "posets",
    "rg_connected": "posets",
    "validate": "posets",
    "BasisElement": "algebra",
    "build_basis": "algebra",
    "commutator": "algebra",
    "decompose": "algebra",
    "evaluate": "algebra",
    "matrix_form": "algebra",
    "realize": "algebra",
    "structure_constants": "algebra",
    "verify_B_reduction": "algebra",
    "verify_CD_isomorphism": "algebra",
    "ReductionStep": "index_engine",
    "ReductionTrace": "index_engine",
    "generic_rank": "index_engine",
    "index_formula": "index_engine",
    "index_oracle": "index_engine",
    "reduce": "index_engine",
    "Functional": "frobenius",
    "PrincipalElement": "frobenius",
    "SpectrumReport": "frobenius",
    "frobenius_functional": "frobenius",
    "functional": "frobenius",
    "is_frobenius_by_graph": "frobenius",
    "kernel_dim": "frobenius",
    "principal_element": "frobenius",
    "spectrum": "frobenius",
    "CampaignConfig": "harness",
    "report_json_bytes": "harness",
    "report_text": "harness",
    "run_campaign": "harness",
}

__all__ = list(_EXPORTS)


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(_import_module(f".{module}", __name__), name)


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
