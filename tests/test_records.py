"""Records with no invariants are ``typing.NamedTuple``s: they sort, hash
and print as their frozen-dataclass forms did, and refuse field
assignment."""

import random

import pytest

from groupoid_forge.certificates import LcEntry, LcWitness, WfcCertificate
from groupoid_forge.dimension_groups import DimGroupElement
from groupoid_forge.graph_groupoid import InfiniteBouquet
from groupoid_forge.graph_model import Edge, constant_diagram
from groupoid_forge.pipeline import (
    CornerSpec,
    RealizationReport,
    plan_af_realization,
    unit_corner_spec,
)
from groupoid_forge.rank2_diagrams import (
    CanonicalOrders,
    Rank2Data,
    Rank2Diagram,
    TelescopeResult,
    build_rank2,
    canonical_rank2,
    telescope_rank2,
)
from groupoid_forge.twisted_product import BouquetTwistedProduct, ContractingWitness, TwistedProduct
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


CONSTANT2 = Rank2Data(A=(((2,),),), B=(((2,),),), T=((1,), (1,)), repeat_from=0)


def _telescope():
    return telescope_rank2(CONSTANT2, 5)


def _corner():
    return unit_corner_spec(constant_diagram(2), 0, [2])


def _report():
    return plan_af_realization(constant_diagram(2), depth=2, lbound=3)


@pytest.mark.parametrize(
    "make, derived",
    [
        (_telescope, "complete"),
        (_telescope, "l_prime"),
        (_corner, "k_class"),
        (_report, "schema_version"),
        (_report, "analytic_hypotheses"),
    ],
)
def test_a_derived_value_is_no_field(make, derived):
    # it can be neither passed nor replaced, so it cannot disagree with the
    # fields it is read off
    value = make()
    assert derived not in value._fields
    with pytest.raises(TypeError):
        type(value)(**value._asdict(), **{derived: getattr(value, derived)})
    with pytest.raises(ValueError):
        value._replace(**{derived: getattr(value, derived)})


def test_derived_values_follow_their_source_fields():
    tele = _telescope()
    assert tele.complete and tele.l_prime == tele.l[:3]
    stopped = tele._replace(failure="no level within cap 8")
    assert not stopped.complete
    assert tele._replace(l=(0, 2, 5, 9)).l_prime == (0, 2, 5)
    assert _corner()._replace(level=3).k_class == DimGroupElement(3, (2,))
    assert _report().to_json()["schema_version"] == RealizationReport.schema_version == 2


def test_orders_hold_only_their_diagram():
    diagram = canonical_rank2(CONSTANT2, 4)
    with pytest.raises(TypeError):
        CanonicalOrders(diagram, (2, 2, 2), (0, 0, 2, 6))
    orders = CanonicalOrders(diagram)
    assert (orders.level_lcm, orders.m) == ((2, 2, 2), (0, 0, 2, 6))
