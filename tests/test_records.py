"""Records with no invariants are ``typing.NamedTuple``s: they sort, hash
and print as their frozen-dataclass forms did, and refuse field
assignment."""

import random

import pytest

from groupoid_forge.dimension_groups import DimGroupElement
from groupoid_forge.graph_groupoid import InfiniteBouquet
from groupoid_forge.graph_model import Edge, constant_diagram
from groupoid_forge.pipeline import CornerSpec, RealizationReport
from groupoid_forge.rank2_diagrams import Rank2Data, Rank2Diagram, TelescopeResult, build_rank2
from groupoid_forge.twisted_product import (
    BouquetTwistedProduct,
    ContractingWitness,
    LcEntry,
    LcWitness,
    TwistedProduct,
    WfcCertificate,
)
from groupoid_forge.validation import ValidationReport, Violation

RECORDS = (
    Edge,
    Violation,
    ValidationReport,
    DimGroupElement,
    TelescopeResult,
    Rank2Diagram,
    TwistedProduct,
    BouquetTwistedProduct,
    WfcCertificate,
    LcEntry,
    LcWitness,
    ContractingWitness,
    CornerSpec,
    RealizationReport,
)


def _field_tuple(e: Edge) -> tuple:
    return (e.label, e.range_vertex, e.source_vertex)


def test_edges_sort_and_hash_as_their_field_tuples():
    d = constant_diagram(3)
    diagram = [e for n in range(3) for e in d.edges_between(n)]
    bouquet = [InfiniteBouquet().edge(i) for i in range(5)]
    for group in (diagram, bouquet):
        random.Random(0).shuffle(group)
        assert [_field_tuple(e) for e in sorted(group)] == sorted(map(_field_tuple, group))
        for e in group:
            assert hash(e) == hash(_field_tuple(e))


def test_reprs_are_the_dataclass_text():
    e = Edge((0, 1, 0, 2), (0, 1), (1, 0))
    assert repr(e) == "Edge(label=(0, 1, 0, 2), range_vertex=(0, 1), source_vertex=(1, 0))"
    v = Violation("associativity", "triple (1, 2, 3)")
    assert repr(v) == "Violation(invariant='associativity', subject='triple (1, 2, 3)')"
    assert str(v) == "associativity: triple (1, 2, 3)"
    assert ValidationReport().passed and ValidationReport().violations == ()


@pytest.mark.parametrize("record", RECORDS, ids=lambda cls: cls.__name__)
def test_fields_refuse_assignment(record):
    value = record._make(range(len(record._fields)))
    for name in record._fields:
        with pytest.raises(AttributeError):
            setattr(value, name, None)


def test_the_bouquet_is_truthy():
    # a class with no fields, not a zero-field tuple, which would be falsy
    assert InfiniteBouquet()


def test_a_materialized_diagram_is_unhashable():
    # F is stored as a dict, so the record hashes no more than the frozen
    # dataclass did
    diagram = build_rank2(Rank2Data(A=(((2,),),), B=(((1,),),), T=((1,), (2,))), 2)
    with pytest.raises(TypeError):
        hash(diagram)
