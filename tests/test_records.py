"""The value semantics of the 16 immutable record classes.

Each record has an exact repr `Name(field=value, ...)`, compares equal
only to a record of its own class with equal fields, hashes as the tuple
of its fields, builds from keywords with the same defaults, refuses
assignment and deletion, and keeps its validation errors.
"""
import copy
import pickle
from types import SimpleNamespace

import pytest

from ellmf._record import Record
from ellmf.k0 import K0Class, LVector, RootInfo, RootKind
from ellmf.mf import (BranchReport, Certificate, GradedMatrix,
                      MatrixFactorization, PointP1, cone, verify_mf)
from ellmf.poly import BivariatePoly
from ellmf.qlambda import Scalar
from ellmf.tables import (BettiClass, BettiTable, CohomTable, IndecCount,
                          TableError)
from ellmf.tubular import MutationWord, TubeInfo

X = BivariatePoly(terms=(((1, 0), 1),))
Y = BivariatePoly(terms=(((0, 1), 1),))
GX = GradedMatrix(entries=((X,),), row_twists=(0,), col_twists=(1,))
GY = GradedMatrix(entries=((Y,),), row_twists=(1,), col_twists=(2,))
XY = MatrixFactorization(GX, GY, X * Y)
S1 = "Scalar(num=(Fraction(1, 1),), den=(Fraction(1, 1),))"
S2 = "Scalar(num=(Fraction(2, 1),), den=(Fraction(1, 1),))"
RX = f"BivariatePoly(terms=(((1, 0), {S1}),))"
RY = f"BivariatePoly(terms=(((0, 1), {S1}),))"
RXY = f"BivariatePoly(terms=(((1, 1), {S1}),))"

# (build from keywords, a different value of the same class, the field
# names in order, the exact repr).  Each builder makes a fresh object.
CASES = {
    "BivariatePoly": (
        lambda: BivariatePoly(terms=[((1, 0), 1)]), lambda: Y,
        ("terms",), RX),
    "GradedMatrix": (
        lambda: GradedMatrix(entries=[[X]], row_twists=[0],
                             col_twists=[1]),
        lambda: GradedMatrix(((X,),), (0,), (2,)),
        ("entries", "row_twists", "col_twists"),
        f"GradedMatrix(entries=(({RX},),), row_twists=(0,), "
        f"col_twists=(1,))"),
    "Certificate": (
        lambda: Certificate(failures=(("f", -1, -1, "f is zero"),)),
        lambda: Certificate(()),
        ("failures",),
        "Certificate(failures=(('f', -1, -1, 'f is zero'),))"),
    "MatrixFactorization": (
        lambda: MatrixFactorization(A=GX, B=GY, f=X * Y),
        lambda: MatrixFactorization(GY, GX, X * Y),
        ("A", "B", "f"),
        f"MatrixFactorization(A=GradedMatrix(entries=(({RX},),), "
        f"row_twists=(0,), col_twists=(1,)), B=GradedMatrix(entries="
        f"(({RY},),), row_twists=(1,), col_twists=(2,)), f={RXY})"),
    "PointP1": (
        lambda: PointP1(p0=4, p1=2), lambda: PointP1(1, 0),
        ("p0", "p1"), f"PointP1(p0={S2}, p1={S1})"),
    "BranchReport": (
        lambda: BranchReport(index=1, mp_rd=(0, 2), sub_rd=(0, 1),
                             quot_rd=(0, 1), additive=True),
        lambda: BranchReport(2, (0, 2), (0, 1), (0, 1), True),
        ("index", "mp_rd", "sub_rd", "quot_rd", "additive"),
        "BranchReport(index=1, mp_rd=(0, 2), sub_rd=(0, 1), "
        "quot_rd=(0, 1), additive=True)"),
    "K0Class": (
        lambda: K0Class(a0=1, a=[0, 1, 0, 0], n=-2),
        lambda: K0Class(1, (0, 1, 0, 0), 2),
        ("a0", "a", "n"), "K0Class(a0=1, a=(0, 1, 0, 0), n=-2)"),
    "LVector": (
        lambda: LVector(x=(1, 0, 0, 0), c=1), lambda: LVector((1, 0, 0, 0), 2),
        ("x", "c"), "LVector(x=(1, 0, 0, 0), c=1)"),
    "RootInfo": (
        lambda: RootInfo(kind=RootKind.REAL, is_sheaf_class=True),
        lambda: RootInfo(RootKind.IMAGINARY, True),
        ("kind", "is_sheaf_class"),
        "RootInfo(kind=<RootKind.REAL: 'real'>, is_sheaf_class=True)"),
    "CohomTable": (
        lambda: CohomTable(rows=[[1, 1], [2, 2], [0, 0], [0, 0]]),
        lambda: CohomTable(((1, 1), (2, 2), (0, 0), (1, 1))),
        ("rows",), "CohomTable(rows=((1, 1), (2, 2), (0, 0), (0, 0)))"),
    "BettiTable": (
        lambda: BettiTable(entries=[((1, 2), 1), ((0, 0), 1), ((0, 1), 0)]),
        lambda: BettiTable((((0, 0), 1), ((1, 3), 1))),
        ("entries",), "BettiTable(entries=(((0, 0), 1), ((1, 2), 1)))"),
    "BettiClass": (
        lambda: BettiClass(kind="I", params=(1, 1)),
        lambda: BettiClass("I", (1, 1), 1),
        ("kind", "params", "shift"),
        "BettiClass(kind='I', params=(1, 1), shift=0)"),
    "IndecCount": (
        lambda: IndecCount(finite=1), lambda: IndecCount(None, 1, "full-line"),
        ("finite", "level", "base"),
        "IndecCount(finite=1, level=None, base=None)"),
    "MutationWord": (
        lambda: MutationWord(runs=(("R", 2), ("S", 1))),
        lambda: MutationWord((("R", 3),)),
        ("runs",), "MutationWord(runs=(('R', 2), ('S', 1)))"),
    "TubeInfo": (
        lambda: TubeInfo(g=2, rank_one_exists=True, rank_one_length=1,
                         rank_two_length=2, finitely_many=False,
                         count_if_finite=None, has_exceptional=False),
        lambda: TubeInfo(1, False, None, 1, True, 8, True),
        ("g", "rank_one_exists", "rank_one_length", "rank_two_length",
         "finitely_many", "count_if_finite", "has_exceptional"),
        "TubeInfo(g=2, rank_one_exists=True, rank_one_length=1, "
        "rank_two_length=2, finitely_many=False, count_if_finite=None, "
        "has_exceptional=False)"),
    # Built from Fraction coefficients; the fields hold the canonical
    # integer pair, here (1 + 2L) / (2L).
    "Scalar": (
        lambda: Scalar(num=[1, 2], den=[0, 2]), lambda: Scalar([2], [4]),
        ("_n", "_d"),
        "Scalar(num=(Fraction(1, 2), Fraction(1, 1)), "
        "den=(Fraction(0, 1), Fraction(1, 1)))"),
}
# The records that keep no __init__ of their own.
INHERITED_INIT = ("Certificate", "MatrixFactorization", "BranchReport",
                  "LVector", "RootInfo", "TubeInfo")


def test_all_sixteen_classes_covered():
    assert len(CASES) == 16


@pytest.mark.parametrize("name", sorted(CASES))
def test_record_semantics(name):
    build, other, fields, text = CASES[name]
    x, twin, y = build(), build(), other()
    assert type(x).__name__ == name
    assert repr(x) == text
    values = tuple(getattr(x, f) for f in fields)
    assert x == twin and not x != twin and x is not twin
    assert x != y and not x == y
    # Equal fields in another class are not the same value.
    assert x != SimpleNamespace(**dict(zip(fields, values)))
    assert x != values
    assert hash(x) == hash(twin) == hash(values)
    assert len({x, twin, y}) == 2
    assert copy.copy(x) == x
    assert copy.deepcopy(x) == x
    assert pickle.loads(pickle.dumps(x)) == x
    for field in fields:
        with pytest.raises(AttributeError):
            setattr(x, field, getattr(y, field))
        with pytest.raises(AttributeError):
            delattr(x, field)
    assert tuple(getattr(x, f) for f in fields) == values


@pytest.mark.parametrize("name", sorted(CASES))
def test_trusted_stores_the_fields_as_given(name):
    """_trusted, generated per class from its slots, builds the same value
    from the same fields, by position or keyword, and runs no __init__.
    It is compiled from a file name of its own and named for its class,
    so a profile gives each class its own row."""
    build, _, fields, text = CASES[name]
    x = build()
    cls, values = type(x), [getattr(x, f) for f in fields]
    for y in (cls._trusted(*values), cls._trusted(**dict(zip(fields,
                                                             values)))):
        assert type(y) is cls and y == x and repr(y) == text
        assert hash(y) == hash(x)
        assert pickle.loads(pickle.dumps(y)) == x
        with pytest.raises(AttributeError):
            setattr(y, fields[0], values[0])
    assert x._trusted is cls._trusted
    qualname = f"{cls.__qualname__}._trusted"
    assert cls._trusted.__qualname__ == qualname
    assert cls._trusted.__code__.co_filename == f"<{qualname}>"
    with pytest.raises(TypeError):
        cls._trusted(*values[:-1])
    # Unchecked: a table with a zero cell, which __init__ would drop.
    if name == "BettiTable":
        assert cls._trusted((((0, 0), 0),)).entries == (((0, 0), 0),)


@pytest.mark.parametrize("name", sorted(CASES))
def test_store_sets_the_fields_of_a_new_object(name):
    """_store, compiled with _trusted, __eq__ and __hash__ from one source,
    sets the fields of an object made by object.__new__ to the value the
    public constructor builds; every __init__ ends by calling it."""
    build, _, fields, text = CASES[name]
    x = build()
    cls, values = type(x), [getattr(x, f) for f in fields]
    assert cls._store.__code__.co_filename == \
        cls._trusted.__code__.co_filename == f"<{cls.__qualname__}._trusted>"
    for method in ("__eq__", "__hash__"):
        assert vars(cls)[method].__code__.co_filename == \
            f"<{cls.__qualname__}._trusted>"
    assert cls._store.__qualname__ == cls.__qualname__
    y = object.__new__(cls)
    assert cls._store(y, *values) is None
    assert y == x and repr(y) == text and hash(y) == hash(x)
    with pytest.raises(AttributeError):
        setattr(y, fields[0], values[0])


def test_record_is_generated_when_its_class_is_defined():
    """The four generated functions are on a record class as soon as its
    class statement ends, before any instance exists."""
    class P(Record):
        __slots__ = ("a", "b")

    assert {"_store", "_trusted", "__eq__", "__hash__"} <= set(vars(P))
    assert P(1, 2) == P._trusted(1, 2) != P(2, 1)
    assert hash(P(1, 2)) == hash((1, 2))


@pytest.mark.parametrize("s", [Scalar([1, 2], [0, 2]), Scalar([2], [4])])
def test_scalar_copies_rebuild_through_the_constructor(s):
    """pickle and deepcopy rebuild a Scalar as Scalar(_n, _d), which keeps
    the pair: the canonical form read as coefficients is a fixed point of
    the normalising constructor."""
    assert s.__reduce__() == (Scalar, (s._n, s._d))
    for t in (Scalar(s._n, s._d), pickle.loads(pickle.dumps(s)),
              copy.deepcopy(s)):
        assert type(t) is Scalar and (t._n, t._d) == (s._n, s._d)


def test_defaults_and_positional_order():
    assert BettiClass("I", (1, 1)).shift == 0
    assert IndecCount(3) == IndecCount(finite=3, level=None, base=None)
    assert IndecCount(None, 2, "full-line").base == "full-line"
    assert K0Class(1, (0, 0, 0, 0), 0) == K0Class(n=0, a=(0, 0, 0, 0), a0=1)
    # ok is derived from failures, not a field.
    assert Certificate(()).ok
    assert not Certificate((("f", -1, -1, "f is zero"),)).ok


@pytest.mark.parametrize("name", INHERITED_INIT)
def test_inherited_init_binds_each_field_once(name):
    build, _, fields, _ = CASES[name]
    cls, values = type(build()), [getattr(build(), f) for f in fields]
    assert "__init__" not in vars(cls)
    assert cls(*values) == cls(*values[:1], **dict(zip(fields[1:],
                                                       values[1:])))
    for args, kwargs in [
            (values[:-1], {}),                              # missing
            (values, {"extra": 0}),                         # unknown
            ([*values, 0], {}),                             # one too many
            (values, {fields[0]: values[0]})]:              # doubled
        with pytest.raises(TypeError) as info:
            cls(*args, **kwargs)
        # Python binds the fields in the storer, named for the class.
        assert str(info.value).startswith(f"{name}("), info.value


def test_storer_count_includes_the_object():
    # As for self in a method, the storer's count includes the object: one
    # field, two given, reads "takes 2 ... 3 were given".
    assert Certificate._fields == ("failures",)
    with pytest.raises(TypeError) as info:
        Certificate((), 1)
    assert str(info.value) == \
        "Certificate() takes 2 positional arguments but 3 were given"


def test_certificate_cache_is_not_a_field():
    """The cached certificate (of X*Y = XY here) lives on the object but
    takes no part in ==, hash or repr."""
    build = CASES["MatrixFactorization"][0]
    m, twin = build(), build()
    assert verify_mf(m).ok and verify_mf(m) is verify_mf(m)
    assert m == twin and hash(m) == hash(twin) and repr(m) == repr(twin)


@pytest.mark.parametrize("build,error,message", [
    (lambda: K0Class(1.0, (0, 0, 0, 0), 0), TypeError,
     "coordinates must be integers"),
    (lambda: K0Class(1, (0, 0, 0, True), 0), TypeError,
     "coordinates must be integers"),
    (lambda: K0Class(1, (0, 0, 0), 0), ValueError,
     "need exactly four eps_i coefficients"),
    (lambda: BettiTable((((0, 0), 1.0),)), TableError,
     "indices and Betti numbers must be integers"),
    (lambda: BettiTable((((2, 0), 1),)), TableError,
     "homological index must be 0 or 1"),
    (lambda: BettiTable((((0, 0), -1),)), TableError,
     "negative Betti number"),
    (lambda: BettiTable((((0, 0), 1), ((0, 0), 2))), TableError,
     "repeated cell"),
    (lambda: BettiTable((((0, 0), 1), ((0, 0), 0))), TableError,
     "repeated cell"),
    (lambda: BettiTable(5), TableError, "entries must be iterable, got 5"),
    (lambda: CohomTable(5), TableError, "rows must be iterable, got 5"),
    (lambda: CohomTable(((1, 1), (0, 0), (0, 0))), TableError,
     "need four rows"),
    (lambda: CohomTable(((1, 1), (0, 0), (0, 0), (0.0, 0))), TableError,
     "entries must be integers"),
    (lambda: CohomTable(((1, 1), (0, 0), (0, 0), (-1, -1))), TableError,
     "negative entry"),
    (lambda: CohomTable(((1, 0), (0, 0), (0, 0), (0, 0))), TableError,
     "column sums differ"),
    # A class outside the catalog, refused with template_table's messages.
    (lambda: BettiClass("bogus", (1, 2)), TableError, "unknown kind 'bogus'"),
    (lambda: BettiClass("I", [1, 1]), TableError,
     "params of kind I must be a tuple of 2 integers, got [1, 1]"),
    (lambda: BettiClass("first-kind-odd-a", (3, 1)), TableError,
     "params of kind first-kind-odd-a must be a tuple of 1 integers, "
     "got (3, 1)"),
    (lambda: BettiClass("II", (-1, 1)), TableError,
     "parameters must be nonnegative"),
    (lambda: BettiClass("I", (0, 0)), TableError, "type I requires b != 0"),
    (lambda: BettiClass("IV", (1, 1)), TableError,
     "type IV requires b - a odd"),
    (lambda: BettiClass("first-kind-odd-a", (0,)), TableError,
     "first-kind rank must be positive"),
    (lambda: BettiClass("first-kind-even-a", (3,)), TableError,
     "rank parity"),
    (lambda: BettiClass("I", (1, 1), 0.5), TableError,
     "shift must be an integer, got 0.5"),
    (lambda: BettiClass("I", (1, 1), True), TableError,
     "shift must be an integer, got True"),
    (lambda: PointP1(0, 0), ValueError, "(0, 0) is not a projective point"),
    (lambda: MutationWord((("T", 1),)), ValueError,
     "runs must be (R or S, k >= 1)"),
    (lambda: MutationWord((("R", 0),)), ValueError,
     "runs must be (R or S, k >= 1)"),
    # Run lengths are ints, and each run is one (letter, k) pair.
    (lambda: MutationWord((("R", 2.0),)), ValueError,
     "runs must be (R or S, k >= 1)"),
    (lambda: MutationWord((("S", 1.5),)), ValueError,
     "runs must be (R or S, k >= 1)"),
    (lambda: MutationWord((("R", True),)), ValueError,
     "runs must be (R or S, k >= 1)"),
    (lambda: MutationWord("RS"), ValueError,
     "runs must be (R or S, k >= 1)"),
    (lambda: MutationWord((("R", 2, 3),)), ValueError,
     "runs must be (R or S, k >= 1)"),
    (lambda: MutationWord(5), ValueError, "runs must be (R or S, k >= 1)"),
    (lambda: GradedMatrix(((X,),), (0, 1), (1,)), ValueError,
     "row count mismatch"),
    (lambda: GradedMatrix(((X, X),), (0,), (1,)), ValueError,
     "column count mismatch"),
    (lambda: GX.compose(GX), ValueError, "twist mismatch in composition"),
    # A map of the cone of XY with itself, of the wrong twists.
    (lambda: cone(XY, XY, GY, GY), ValueError, "bottom row twists disagree"),
    (lambda: cone(XY, XY, GradedMatrix(((Y,),), (0,), (2,)), GY),
     ValueError, "left column twists disagree"),
    (lambda: BivariatePoly((((-1, 0), 1),)), ValueError, "negative exponent"),
])
def test_validation_errors(build, error, message):
    with pytest.raises(error) as info:
        build()
    # TableError is a ValueError; the check is for the exact class.
    assert type(info.value) is error
    assert str(info.value) == message
