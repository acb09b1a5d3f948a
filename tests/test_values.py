"""The immutable value types: each derives from ``fields.Value``, refuses
to set or delete an attribute, and hashes equal values equally or refuses
``hash()`` when its equality is not slot by slot over hashable slots."""

import pytest

from ratpencil.expr import parse_expression
from ratpencil.fields import FieldDescriptor, FieldElement, Value, prime_field
from ratpencil.matrices import RationalMatrix
from ratpencil.pencil import LinearPencil
from ratpencil.poly import Layout, Polynomial, RationalFunction
from ratpencil.quotring import QuotContext, QuotElement, QuotMatrix
from ratpencil.realize import realize_br


def _g2():
    return prime_field(2)


def _context():
    return QuotContext(_g2(), 2, [1, 0])


def _g2_poly(text):
    return parse_expression(text, _g2(), 2).entries[0][0].as_polynomial()


# each builds a fresh value, equal to the one it built before
BUILD = {
    FieldDescriptor: lambda: prime_field(5),
    FieldElement: lambda: FieldElement(prime_field(5), 3),
    Layout: lambda: Layout(3),
    Polynomial: lambda: _g2_poly("z1*z2 + z2^3 + 1"),
    RationalFunction: lambda: parse_expression(
        "(z1 + 1)/z2", _g2(), 2).entries[0][0],
    RationalMatrix: lambda: parse_expression("[[z1, 1/z2],[1/z2, 3]]",
                                             prime_field(5)),
    LinearPencil: lambda: realize_br(parse_expression("z1*z2/(z1+1)",
                                                      prime_field(5))).pencil,
    QuotContext: _context,
    QuotElement: lambda: _context().project(_g2_poly("z1*z2 + z2^3 + 1")),
    QuotMatrix: lambda: QuotMatrix.from_polynomials(
        _context(), 1, [[_g2_poly("z1"), _g2_poly("1")],
                        [_g2_poly("1"), _g2_poly("z2 + 1")]]),
}
HASHABLE = [FieldDescriptor, FieldElement, Layout, Polynomial, QuotContext,
            QuotElement]
UNHASHABLE = [cls for cls in BUILD if cls not in HASHABLE]


def test_these_are_all_the_value_types():
    assert set(Value.__subclasses__()) == set(BUILD)
    assert UNHASHABLE == [RationalFunction, RationalMatrix, LinearPencil,
                          QuotMatrix]


@pytest.mark.parametrize("cls", BUILD, ids=lambda cls: cls.__name__)
def test_setting_or_deleting_an_attribute_is_refused(cls):
    value = BUILD[cls]()
    assert type(value) is cls and isinstance(value, Value)
    refused = f"^{cls.__name__} is immutable$"
    for name in cls.__slots__ + ("fresh",):
        with pytest.raises(AttributeError, match=refused):
            setattr(value, name, None)
        with pytest.raises(AttributeError, match=refused):
            delattr(value, name)
    assert all(hasattr(value, name) for name in cls.__slots__)
    assert value == BUILD[cls]()


@pytest.mark.parametrize("cls", HASHABLE, ids=lambda cls: cls.__name__)
def test_equal_values_hash_equally(cls):
    a, b = BUILD[cls](), BUILD[cls]()
    assert a is not b and a == b and not a != b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


@pytest.mark.parametrize("cls", UNHASHABLE, ids=lambda cls: cls.__name__)
def test_values_compared_by_value_are_unhashable(cls):
    a, b = BUILD[cls](), BUILD[cls]()
    assert a is not b and a == b
    with pytest.raises(TypeError, match=f"unhashable type: '{cls.__name__}'"):
        hash(a)


def test_values_of_other_types_are_unequal():
    descriptor = prime_field(5)
    element = FieldElement(descriptor, 3)
    assert element != 3 and element != descriptor
    assert Value.__eq__(element, 3) is NotImplemented
    assert Layout(2) != Layout(3)
