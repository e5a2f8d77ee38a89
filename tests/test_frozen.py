from fractions import Fraction

import pytest

from ncfree.cli import CircularDecl, CumulantDecl, SemicircularDecl, SpecFile
from ncfree.freeprob import CumulantModel, NcPolynomial
from ncfree.mc import McConfig
from ncfree.ncpartition import Partition
from ncfree.opvalued import OperatorMatrix, ScalarMatrix
from ncfree.oracle import OracleReport
from ncfree.rcyclic import MatrixFamily, RCyclicFamily
from ncfree.series import Series

ONE, TWO = Fraction(1), Fraction(2)
MODEL = CumulantModel(alphabet=1, order=2, items=(((1, 1), ONE),))
X = NcPolynomial(items=(((1,), TWO),))
CIRCULAR = CircularDecl(r=1, i=1, j=2, radius=TWO)

# every value class with its fields as keywords, in declaration order, and
# one field changed to another valid value
RECORDS = [
    (Partition, dict(n=2, blocks=((1, 2),)), ("blocks", ((1,), (2,)))),
    (Series, dict(alphabet=1, order=2, items=(((1,), ONE),)), ("order", 3)),
    (NcPolynomial, dict(items=(((1,), TWO),)), ("items", ())),
    (MatrixFamily, dict(d=1, s=1, model=MODEL, grids=(((X,),),)), ("grids", (((NcPolynomial(()),),),))),
    (RCyclicFamily, dict(d=1, s=1, order=2, items=((((1, 1), (1, 1)), ONE),)), ("order", 3)),
    (ScalarMatrix, dict(d=1, rows=((ONE,),)), ("rows", ((TWO,),))),
    (OperatorMatrix, dict(model=MODEL, d=1, rows=((X,),)), ("rows", ((NcPolynomial(()),),))),
    (OracleReport, dict(name="n", inputs="i", expected="e", actual="a", passed=True), ("passed", False)),
    (McConfig, dict(d=1, radii=((TWO,),), size=16, trials=2, seed=0), ("seed", 1)),
    (CumulantDecl, dict(entries=((1, 1, 1), (1, 1, 1)), value=ONE), ("value", TWO)),
    (SemicircularDecl, dict(r=1, i=1, radius=TWO), ("i", 2)),
    (CircularDecl, dict(r=1, i=1, j=2, radius=TWO), ("radius", ONE)),
    (SpecFile, dict(order=2, d=2, s=1, decls=(CIRCULAR,)), ("decls", ())),
]


@pytest.mark.parametrize("cls, fields, change", RECORDS, ids=[r[0].__name__ for r in RECORDS])
def test_value_class_behaves_as_a_frozen_record(cls, fields, change):
    assert tuple(fields) == tuple(cls.__annotations__)
    a = cls(**fields)
    b = cls(*fields.values())
    assert a == b and not a != b and hash(a) == hash(b)
    other = cls(**{**fields, change[0]: change[1]})
    assert a != other and not a == other
    assert a != object() and a != tuple(fields.values())
    args = ", ".join(f"{name}={value!r}" for name, value in fields.items())
    assert repr(a) == f"{cls.__name__}({args})"
    for name in (*fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(a, name, None)
        with pytest.raises(AttributeError):
            delattr(a, name)
    assert a == b


def test_post_init_still_validates():
    with pytest.raises(ValueError, match="ground set size must be positive"):
        Partition(0, ())
    with pytest.raises(ValueError, match="grid shapes must be s x d x d"):
        MatrixFamily(d=2, s=1, model=MODEL, grids=(((X,),),))


def test_cached_properties_survive_freezing():
    model = CumulantModel.of(1, 2, {(1, 1): 3})
    assert model.numerators is model.numerators
    with pytest.raises(AttributeError):
        model.numerators = None
