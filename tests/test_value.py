"""Value semantics of the immutable slotted classes (tamearc.value.Value)."""

from fractions import Fraction

import pytest

from tamearc.cli import Job, Report
from tamearc.errors import (
    EpsDatumIrregular,
    InputError,
    NotAUnitAlongY,
    ScopeError,
)
from tamearc.factor import PROVED, Factorization, FactorTerm
from tamearc.geometry import (
    A2,
    P1,
    ClosedPoint,
    Cycle,
    PrimeDivisor,
    ResidueFunc,
    Variety,
)
from tamearc.gersten import Certificate, HigherCycleRep
from tamearc.ksymbols import (
    DoubleSES,
    DualMilnorSymbol,
    GGArc,
    K1Cycle,
    MilnorSymbol,
)
from tamearc.poly import DualRatFunc, RatFunc, VARS_T, VARS_XY
from tamearc.tangent import DiffForm, LocalCohClass
from tamearc.value import Value

from test_geometry import V_X, V_Y, t, x, y
from test_poly import T, X, Y

ZERO = RatFunc.from_const(VARS_XY, 0)
ONE = RatFunc.from_const(VARS_XY, 1)


def build(name):
    """A fresh instance of each value class, from keyword arguments where it has fields."""
    makers = {
        "Job": lambda: Job(command="tame", variety="P1", args=(("f", "t"),), seed=7,
                           factor_hints=("t=t",)),
        "Report": lambda: Report(job=Job(command="div"), payload=(("cycle", "0"),),
                                 certificates=(), status=0),
        "FactorTerm": lambda: FactorTerm(poly=X, multiplicity=2, certificate=PROVED,
                                         evidence="degree 1 in y"),
        "Factorization": lambda: Factorization(
            unit=Fraction(3), factors=(FactorTerm(X, 1, PROVED),)),
        "Variety": lambda: Variety(kind="A2"),
        "Cycle": lambda: Cycle(variety=A2, terms=((V_X, 1),)),
        "ResidueFunc": lambda: ResidueFunc(curve=V_X, rep=y),
        "Certificate": lambda: Certificate(claim="KerDiv", verdict=True, inputs=(("a", "b"),),
                                           witness=(), provenance=(("seed", "0"),)),
        "HigherCycleRep": lambda: HigherCycleRep(components=((V_X, ResidueFunc(V_X, y)),)),
        "MilnorSymbol": lambda: MilnorSymbol(terms=((x, y, 1),)),
        "DualMilnorSymbol": lambda: DualMilnorSymbol(
            terms=((DualRatFunc(x, ONE), DualRatFunc(y), 2),)),
        "GGArc": lambda: GGArc(curve=V_X, datum=ONE, unit=DualRatFunc(y), sign=-1),
        "DoubleSES": lambda: DoubleSES(localized_at=X, relation=DualRatFunc(x, ONE),
                                       automorphism=DualRatFunc(y), sign=1),
        "DiffForm": lambda: DiffForm(vars=VARS_XY, coeffs=(ONE, y)),
        "LocalCohClass": lambda: LocalCohClass(curve=V_X, order=1,
                                               form=DiffForm(VARS_XY, (ONE, ZERO))),
        "K1Cycle": lambda: K1Cycle(A2, ((V_X, ResidueFunc(V_X, y)),)),
        "PrimeDivisor": lambda: PrimeDivisor(A2, X + Y),
        "ClosedPoint": lambda: ClosedPoint.rational(1, 2),
        "MultiPoly": lambda: X * Y + 1,
        "RatFunc": lambda: x / (y + 1),
        "DualRatFunc": lambda: DualRatFunc(x, y),
    }
    return makers[name]()


NAMES = ["Job", "Report", "FactorTerm", "Factorization", "Variety", "Cycle",
         "ResidueFunc", "Certificate", "HigherCycleRep", "MilnorSymbol",
         "DualMilnorSymbol", "GGArc", "DoubleSES", "DiffForm", "LocalCohClass",
         "K1Cycle", "PrimeDivisor", "ClosedPoint", "MultiPoly", "RatFunc", "DualRatFunc"]


@pytest.mark.parametrize("name", NAMES)
def test_is_a_slotted_value(name):
    obj = build(name)
    assert isinstance(obj, Value) and type(obj).__name__ == name
    assert not hasattr(obj, "__dict__")


@pytest.mark.parametrize("name", NAMES)
def test_fields_cannot_be_set_or_deleted(name):
    obj = build(name)
    field = type(obj).__slots__[0]
    before = getattr(obj, field)
    with pytest.raises(AttributeError):
        setattr(obj, field, None)
    with pytest.raises(AttributeError):
        delattr(obj, field)
    with pytest.raises(AttributeError):
        obj.not_a_field = 1
    assert getattr(obj, field) is before


@pytest.mark.parametrize("name", NAMES)
def test_equal_fields_give_equal_objects_and_hashes(name):
    a, b = build(name), build(name)
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


def test_hash_is_the_field_tuple():
    job = build("Job")
    assert hash(job) == hash(("tame", "P1", (("f", "t"),), 7, ("t=t",)))
    assert hash(Variety("P1")) == hash(("P1",))
    assert hash(Cycle(A2, ())) == hash((A2, ()))


def test_one_different_field_breaks_equality():
    assert Job("tame") != Job("tame", seed=1)
    assert FactorTerm(X, 1, PROVED) != FactorTerm(X, 2, PROVED)
    assert GGArc(V_X, ONE, DualRatFunc(y), 1) != GGArc(V_X, ONE, DualRatFunc(y), -1)
    assert Variety("A2") == A2 and Variety("P1") == P1 and A2 != P1


def test_two_classes_are_never_equal():
    # the same field tuple under two classes is still two different values
    pairs = [
        (Cycle(A2, ()), K1Cycle(A2, ())),
        (MilnorSymbol(()), DualMilnorSymbol(())),
        (MilnorSymbol(()), HigherCycleRep(())),
    ]
    for a, b in pairs:
        assert a != b and b != a and not a == b
    assert Variety("A2") != "A2"
    assert Job("tame") != ("tame", "A2", (), 0, ())


def test_job_and_report_fill_their_defaults():
    job = Job(command="tame")
    assert (job.command, job.variety, job.args, job.seed, job.factor_hints) == \
        ("tame", "A2", (), 0, ())
    assert job == Job("tame", "A2", (), 0, ())
    report = Report(job)
    assert (report.payload, report.certificates, report.status) == ((), (), 0)


def test_repr_names_the_class_and_every_field():
    assert repr(Variety("A2")) == "Variety(kind='A2')"
    assert repr(Job("tame")) == \
        "Job(command='tame', variety='A2', args=(), seed=0, factor_hints=())"
    assert repr(FactorTerm(X, 2, PROVED)) == \
        "FactorTerm(poly=MultiPoly(x), multiplicity=2, certificate='proved', evidence='')"


def test_repr_of_two_diagram_symbols_differs():
    # bench/test_bench.py tells two timed samples apart by their repr
    one = DualMilnorSymbol.of(DualRatFunc(x, ONE), DualRatFunc(y))
    two = DualMilnorSymbol.of(DualRatFunc(x, ONE), DualRatFunc(y + 1))
    assert repr(one) != repr(two)
    assert repr(one) == ("DualMilnorSymbol(terms=((DualRatFunc(x + eps), "
                         "DualRatFunc(y), 1),))")


def test_residue_func_on_p1_stores_the_canonical_residue():
    point = PrimeDivisor(P1, T * T - 2)
    assert ResidueFunc(point, t ** 3).rep == RatFunc(2 * T)
    assert ResidueFunc(point, t ** 3) == ResidueFunc(curve=point, rep=RatFunc(2 * T))


_ERRORS = [
    (lambda: Variety("P2"), ValueError, "unknown variety kind 'P2'"),
    (lambda: ResidueFunc(V_X, x * y), NotAUnitAlongY, "x*y is not a unit along V(x)"),
    (lambda: ResidueFunc(PrimeDivisor(P1, T - 1), t - 1), NotAUnitAlongY,
     "t - 1 is not a unit at 1"),
    (lambda: GGArc(V_X, ONE, DualRatFunc(y), 2), InputError, "arc sign must be +1 or -1"),
    (lambda: GGArc(V_X, ONE, DualRatFunc(ZERO, ONE), 1), InputError,
     "arc unit must have nonzero body"),
    (lambda: GGArc(PrimeDivisor.infinity(), RatFunc.from_const(VARS_T, 1),
                   DualRatFunc(t), 1), ScopeError,
     "arcs at infinity are outside the affine chart"),
    (lambda: GGArc(V_X, ONE, DualRatFunc(x * y), 1), NotAUnitAlongY,
     "x*y is not a unit along V(x)"),
    (lambda: GGArc(PrimeDivisor(A2, X * Y), ONE, DualRatFunc(x), 1), InputError,
     "arc unit shares a curve component with the supporting divisor"),
    (lambda: GGArc(V_X, y / x, DualRatFunc(y), 1), EpsDatumIrregular,
     "datum y/x has a pole along V(x)"),
    (lambda: GGArc(V_X, ONE, DualRatFunc(y, ONE / x), 1), EpsDatumIrregular,
     "unit eps part 1/x has a pole along V(x)"),
    (lambda: MilnorSymbol.of(ZERO, x), InputError, "symbol entries must be nonzero"),
    (lambda: MilnorSymbol.of(x, t), InputError, "symbol entries live on different varieties"),
    (lambda: DualMilnorSymbol.of(DualRatFunc(ZERO, ONE), DualRatFunc(x)), InputError,
     "dual symbol entries must have nonzero body"),
    (lambda: DualMilnorSymbol.of(DualRatFunc(x), DualRatFunc(t)), InputError,
     "dual symbol entries live on different varieties"),
    (lambda: Certificate("Bogus", True, (), (), ()), InputError,
     "unknown claim kind 'Bogus'"),
    (lambda: HigherCycleRep(((V_X, ResidueFunc(V_Y, x)),)), InputError,
     "component function lives on V(y) but is attached to V(x)"),
    (lambda: DiffForm(("z",), (ONE,)), InputError, "forms live on the plane or the line"),
    (lambda: DiffForm(VARS_XY, (ONE,)), InputError,
     "one coefficient per coordinate differential"),
]


@pytest.mark.parametrize("make, error, message", _ERRORS)
def test_validation_errors_keep_type_and_message(make, error, message):
    with pytest.raises(error) as info:
        make()
    assert type(info.value) is error
    assert str(info.value) == message


def test_validation_runs_in_the_order_of_the_fields():
    # a wrong sign wins over a unit that is not a unit along the curve
    with pytest.raises(InputError, match="arc sign"):
        GGArc(V_X, ONE, DualRatFunc(x), 5)
    # the first bad term of a symbol decides the error
    with pytest.raises(InputError, match="must be nonzero"):
        MilnorSymbol(((ZERO, x, 1), (x, t, 1)))
    with pytest.raises(InputError, match="different varieties"):
        MilnorSymbol(((x, t, 1), (ZERO, x, 1)))
