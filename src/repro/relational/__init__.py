"""Relational substrate: schemas, in-memory relations, predicates, CSV io.

This package is the single-site "DBMS" everything else builds on — the
paper assumes each site runs a local relational engine (MySQL in the
authors' testbed) capable of selection, projection, join and GROUP BY.
"""

from .predicate import (
    And,
    Atom,
    Eq,
    FalsePred,
    Ge,
    Gt,
    InSet,
    Le,
    Lt,
    Ne,
    Not,
    NotInSet,
    Or,
    Predicate,
    TruePred,
    compatible_with_bindings,
    satisfiable,
)
from .columnar import Column, ColumnStore, KeyColumn, column_store
from .csvio import infer_column_types, load_csv, save_csv
from .index import HashIndex
from .relation import Relation
from .schema import Schema, SchemaError
from .shareddict import (
    SharedComboDictionary,
    SharedPairDictionary,
    shared_dict_on,
)

__all__ = [
    "And",
    "Atom",
    "Eq",
    "FalsePred",
    "Ge",
    "Gt",
    "InSet",
    "Le",
    "Lt",
    "Ne",
    "Not",
    "NotInSet",
    "Or",
    "Predicate",
    "TruePred",
    "Relation",
    "HashIndex",
    "Column",
    "ColumnStore",
    "KeyColumn",
    "column_store",
    "SharedComboDictionary",
    "SharedPairDictionary",
    "shared_dict_on",
    "Schema",
    "SchemaError",
    "compatible_with_bindings",
    "satisfiable",
    "infer_column_types",
    "load_csv",
    "save_csv",
]
