import ast
import math
import random
import re
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from oracles import fundamental_unit, unit_power_of
from fibercomm import quadratic
from fibercomm.quadratic import (
    QuadraticNumber,
    QuadraticUnit,
    squarefree_part,
    unit_log_ratio,
)
from fibercomm.decomposition import power
from fibercomm.families import d_type_family
from fibercomm.spectrum import BranchData, SingularityVector, SpectrumQuery, delta_from_branch_data, spectrum_values
from fibercomm.staircase import BundlePiece, Gluing, PiecePlan, staircase_piece
from fibercomm.surfaces import Surface
from fibercomm.torus import ANOSOV, TorusAutomorphism, classify_torus

rationals = st.fractions(
    min_value=-100, max_value=100, max_denominator=50
).filter(lambda f: f != 0)


def test_squarefree_part():
    assert squarefree_part(45) == 5
    assert squarefree_part(12) == 3
    assert squarefree_part(5) == 5
    assert squarefree_part(1) == 1
    assert squarefree_part(720) == 5


def test_squarefree_part_rejects_nonpositive():
    with pytest.raises(ValueError):
        squarefree_part(0)


def test_squarefree_part_takes_only_ints():
    """A float, a bool, a string or a Fraction is refused, never read for
    its bit length or taken as 1."""
    for bad in (2.0, True, "4", Fraction(4), None):
        with pytest.raises(ValueError, match="^n must be an integer >= 1, got %s$" % re.escape(repr(bad))):
            squarefree_part(bad)


def trial_division_squarefree_part(n):
    """Oracle: divide by every candidate p with p * p <= n."""
    d, p = 1, 2
    while p * p <= n:
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        d *= p ** (e % 2)
        p += 1
    return d * n


def _is_prime(n):
    return n > 1 and all(n % p for p in range(2, int(n ** 0.5) + 1))


def test_squarefree_part_matches_trial_division():
    for n in range(1, 20001):
        assert squarefree_part(n) == trial_division_squarefree_part(n), n
    rng = random.Random(12)
    for _ in range(60):
        n = rng.randint(1, 10 ** 12)
        assert squarefree_part(n) == trial_division_squarefree_part(n), n
    # a square of a large prime is left over after the cube-root bound
    for lo in (10 ** 4, 10 ** 5, 10 ** 6):
        q = next(q for q in range(rng.randint(lo, 2 * lo), 4 * lo) if _is_prime(q))
        for r in (1, 2, 6, 7, rng.randint(2, 999), q):
            assert squarefree_part(q * q * r) == trial_division_squarefree_part(r), (q, r)


@given(rationals, rationals, rationals, rationals)
def test_products_powers_and_order_are_exact(a1, b1, a2, b2):
    x, y = QuadraticNumber(7, a1, b1), QuadraticNumber(7, a2, b2)
    assert x * y == y * x
    assert (x * y).norm() == x.norm() * y.norm()
    assert x ** 0 == QuadraticNumber(7, 1, 0) and x ** 3 == x * x * x
    assert [x < y, x == y, x > y].count(True) == 1
    assert (x < y) == (y > x)
    assert (x < a1) == (b1 < 0) and (x > a1) == (b1 > 0)


def test_sign_never_approximates():
    # sqrt(2) is between 1.414213 and 1.414214
    lo = QuadraticNumber(2, Fraction(-1414213, 1000000), 1)
    hi = QuadraticNumber(2, Fraction(-1414214, 1000000), 1)
    assert lo.sign() == 1
    assert hi.sign() == -1
    assert QuadraticNumber(2, 0, 0).sign() == 0


def test_comparisons():
    sqrt2 = QuadraticNumber(2, 0, 1)
    assert sqrt2 > 1
    assert sqrt2 < Fraction(3, 2)


@pytest.mark.parametrize(
    "D,a,b",
    [
        (5, Fraction(1, 2), Fraction(1, 2)),
        (2, 1, 1),
        (3, 2, 1),
        (13, Fraction(3, 2), Fraction(1, 2)),
        (61, Fraction(39, 2), Fraction(5, 2)),
        (6, 5, 2),
        (7, 8, 3),
    ],
)
def test_fundamental_unit_known_values(D, a, b):
    assert fundamental_unit(D) == QuadraticUnit(D, a, b)


@pytest.mark.parametrize("D", [2, 3, 5, 6, 7, 10, 11, 13, 14, 15, 17, 19, 21, 151])
def test_fundamental_unit_powers_have_unit_norm(D):
    u = fundamental_unit(D)
    p = QuadraticNumber(D, 1, 0)
    for k in range(1, 7):
        p = p * u
        assert p.norm() in (1, -1)
        assert p.norm() == (u.norm()) ** k


def _exact_sqrt(f):
    """sqrt of a non-negative Fraction when it is rational, else None."""
    import math

    n, d = f.numerator, f.denominator
    rn, rd = math.isqrt(n), math.isqrt(d)
    if rn * rn == n and rd * rd == d:
        return Fraction(rn, rd)
    return None


@pytest.mark.parametrize("D", [2, 3, 5, 13, 61])
def test_fundamental_unit_is_minimal(D):
    """No smaller unit of the maximal order exceeds 1.

    Solves a^2 = D b^2 +- 1 for every admissible b below the
    fundamental unit (half-integers allowed when D = 1 mod 4) and
    checks nothing lands strictly between 1 and the fundamental unit.
    """
    u = fundamental_unit(D)
    step = Fraction(1, 2) if D % 4 == 1 else Fraction(1)
    b = step
    while QuadraticNumber(D, 0, b) < u:
        for norm in (1, -1):
            a2 = D * b * b + norm
            if a2 < 0:
                continue
            a = _exact_sqrt(a2)
            if a is None:
                continue
            if (a - b).denominator > 1:
                continue  # not in the maximal order
            x = QuadraticNumber(D, a, b)
            if x > 1:
                assert not x < u, "unit %r below fundamental %r" % (x, u)
        b += step


def test_unit_log_ratio_examples():
    u = QuadraticUnit(5, Fraction(3, 2), Fraction(1, 2))
    v = QuadraticUnit(5, Fraction(7, 2), Fraction(3, 2))
    assert v == u ** 2
    assert unit_log_ratio(u, v) == Fraction(1, 2)
    w = QuadraticUnit(3, 2, 1)
    assert unit_log_ratio(w, u) is None
    assert unit_log_ratio(u, u) == 1


def test_unit_log_ratio_powers_and_antisymmetry():
    for D in (2, 3, 5, 13):
        u = fundamental_unit(D) ** 2
        for k in range(1, 9):
            uk = u ** k
            assert unit_log_ratio(u, uk) == Fraction(1, k)
            assert unit_log_ratio(uk, u) == Fraction(k, 1)
    u = fundamental_unit(5) ** 2
    v = fundamental_unit(5) ** 3
    s = unit_log_ratio(u, v)
    assert s == Fraction(2, 3)
    assert unit_log_ratio(v, u) == 1 / s


def _number(u):
    """The quadratic number of the unit ``u``, which equals no unit."""
    return QuadraticNumber(u.D, u.a, u.b)


def test_unit_power_of():
    eps = _number(fundamental_unit(5))  # unit_power_of starts at eps ** 0, which no unit is
    assert unit_power_of(eps ** 4, eps) == 4
    assert unit_power_of(QuadraticNumber(5, 1, 0), eps) == 0
    # (3 + sqrt(5)) is not a power of eps (norm 4, not a unit)
    assert unit_power_of(QuadraticNumber(5, 3, 1), eps) is None


def oracle_log_ratio(u, v):
    """log(u) / log(v) from the fundamental unit, by repeated division."""
    if u.D != v.D:
        return None
    if u == v:
        return Fraction(1)
    eps = _number(fundamental_unit(u.D))
    ku, kv = unit_power_of(_number(u), eps), unit_power_of(_number(v), eps)
    return None if ku is None or kv is None else Fraction(ku, kv)


def _random_anosov_dilatations(rng, count, bound=5):
    found = []
    while len(found) < count:
        m = tuple(tuple(rng.randint(-bound, bound) for _ in range(2)) for _ in range(2))
        if m[0][0] * m[1][1] - m[0][1] * m[1][0] in (1, -1):
            nt = classify_torus(TorusAutomorphism(m))
            if nt.kind == ANOSOV:
                found.append(nt.dilatation)
    return found


def test_unit_log_ratio_matches_fundamental_unit_oracle():
    rng = random.Random(5)
    units = _random_anosov_dilatations(rng, 60)
    assert len({u.D for u in units}) > 5
    pairs = [(u, v) for u in units for v in units]
    # powers of units of one field, against each other and the base units
    for u in units[:15]:
        j, k = rng.randint(1, 12), rng.randint(1, 12)
        pairs += [(u ** j, u ** k), (u ** k, u), (u, u ** j)]
    same_field = 0
    for u, v in pairs:
        expected = oracle_log_ratio(u, v)
        assert unit_log_ratio(u, v) == expected, (u, v)
        same_field += expected is not None
    assert 0 < same_field < len(pairs)
    for D in (2, 3, 5, 6, 13, 61, 94):
        eps = fundamental_unit(D)
        for j in range(1, 14):
            for k in range(1, 14):
                assert unit_log_ratio(eps ** j, eps ** k) == Fraction(j, k) == oracle_log_ratio(eps ** j, eps ** k)


def test_unit_log_ratio_non_integral_argument():
    x = QuadraticUnit(2, Fraction(11, 7), Fraction(6, 7))  # norm 1, not an algebraic integer
    y = QuadraticUnit(2, 1, 1)
    assert unit_log_ratio(x, y) is None and unit_log_ratio(y, x) is None
    assert oracle_log_ratio(x, y) is None and oracle_log_ratio(y, x) is None
    assert unit_log_ratio(x, x) == 1


@pytest.mark.parametrize("D", [5, 94])
def test_unit_log_ratio_large_exponents(D):
    eps = fundamental_unit(D)
    u, v = eps ** 1000, eps ** 999
    start = time.perf_counter()
    assert unit_log_ratio(u, v) == Fraction(1000, 999)
    assert unit_log_ratio(v, u ** 3) == Fraction(999, 3000)
    assert time.perf_counter() - start < 0.5


def test_field_is_checked_where_values_enter():
    with pytest.raises(ValueError, match="squarefree"):
        QuadraticNumber(12, 1, 1)
    with pytest.raises(ValueError, match="squarefree"):
        QuadraticUnit(4, Fraction(3, 2), Fraction(1, 2))
    with pytest.raises(ValueError, match="squarefree"):
        QuadraticNumber(5.0, 1, 1)
    with pytest.raises(ValueError, match="mixed fields"):
        QuadraticNumber(2, 1, 1) < QuadraticNumber(3, 1, 1)
    with pytest.raises(ValueError, match="mixed fields"):
        QuadraticNumber(2, 1, 1) * QuadraticNumber(3, 1, 1)


def test_internal_results_skip_the_field_check(monkeypatch):
    calls = []
    real = quadratic.squarefree_part
    monkeypatch.setattr(quadratic, "squarefree_part", lambda n: calls.append(n) or real(n))
    u = QuadraticUnit(5, Fraction(3, 2), Fraction(1, 2))
    assert calls == [5]
    del calls[:]
    u50 = u ** 50
    assert calls == []
    assert u50.norm() == 1 and unit_log_ratio(u50, u) == 50
    assert calls == []


def test_unit_powers_below_one_are_refused_before_computing(monkeypatch):
    u = QuadraticUnit(5, Fraction(3, 2), Fraction(1, 2))
    monkeypatch.setattr(QuadraticNumber, "__pow__", lambda x, k: pytest.fail("computed u**%d" % k))
    for k in (0, -1, -(10 ** 9)):
        with pytest.raises(ValueError, match="unit must exceed 1"):
            u ** k


def test_numbers_are_equal_by_field_and_coordinates():
    assert len({QuadraticNumber(5, 3, 1), QuadraticNumber(5, Fraction(6, 2), 1)}) == 1
    assert QuadraticNumber(5, 3, 0) != QuadraticNumber(2, 3, 0)
    assert QuadraticNumber(5, 0, 1) != QuadraticNumber(2, 0, 1)
    with pytest.raises(ValueError, match="integer >= 0"):
        QuadraticNumber(5, 1, 1) ** -1


def test_unit_invariants_enforced():
    with pytest.raises(ValueError):
        QuadraticUnit(5, Fraction(3, 2), Fraction(-1, 2))  # b < 0
    with pytest.raises(ValueError):
        QuadraticUnit(5, 3, 1)  # norm 4
    with pytest.raises(ValueError):
        QuadraticUnit(5, Fraction(-1, 2), Fraction(1, 2))  # below 1


def test_a_unit_is_a_quadratic_number():
    u = QuadraticUnit(5, Fraction(3, 2), Fraction(1, 2))
    assert isinstance(u, QuadraticNumber) and u > 1 and u.norm() == 1
    assert type(u ** 3) is QuadraticUnit and u ** 3 == QuadraticUnit(5, 9, 4)
    # equal only to a unit, and a product of units is a number
    assert u != QuadraticNumber(5, Fraction(3, 2), Fraction(1, 2))
    assert QuadraticNumber(5, Fraction(3, 2), Fraction(1, 2)) != u
    assert type(u * u) is QuadraticNumber and u * u == QuadraticNumber(5, Fraction(7, 2), Fraction(3, 2))


@pytest.mark.parametrize("cls", [QuadraticNumber, QuadraticUnit])
@pytest.mark.parametrize("field", ["a", "b"])
def test_coordinates_take_only_exact_rationals(cls, field):
    """An int or a Fraction is stored as a Fraction; a float, a bool or a
    string is refused by the field's name, never stored as its binary value."""
    x = cls(2, 1, 1)
    assert type(getattr(x, field)) is Fraction and x == cls(2, Fraction(1), Fraction(1))
    for bad in (0.1, 1.0, True, "1"):
        with pytest.raises(ValueError, match="^%s must be an int or a Fraction, got " % field):
            cls(2, **{"a": 1, "b": 1, field: bad})


def test_numbers_and_units_have_no_instance_dict():
    """Numbers and units keep their fields in slots, however they are made."""
    u = QuadraticUnit(5, Fraction(3, 2), Fraction(1, 2))
    made = [
        QuadraticNumber(2, 1, Fraction(1, 2)),
        QuadraticNumber(2, 1, Fraction(1, 2)) ** 3,
        u,
        u ** 3,
        quadratic._trusted(QuadraticNumber, 2, Fraction(1), Fraction(0)),
        quadratic._trusted(QuadraticUnit, 5, Fraction(3, 2), Fraction(1, 2)),
        classify_torus(TorusAutomorphism(((2, 1), (1, 1)))).dilatation,
        *spectrum_values(SpectrumQuery(((2, 1), (1, 1)), (0, 0), (Fraction(1, 2), Fraction(1, 3)), 2)),
    ]
    assert type(made[6]) is QuadraticUnit and len(made) > 8
    for x in made:
        assert not hasattr(x, "__dict__"), x


_GRAPH = d_type_family(2, 3)
_UNIT = QuadraticUnit(5, Fraction(3, 2), Fraction(1, 2))
_CAT = TorusAutomorphism(((2, 1), (1, 1)))


@pytest.mark.parametrize("call, field, least, below", [
    (lambda k: power(_GRAPH, k), "k", 1, "k must be an integer >= 1, got 0"),
    (lambda k: QuadraticNumber(2, 1, Fraction(1, 2)) ** k, "exponent", 0, "exponent must be an integer >= 0, got -1"),
    (lambda k: _UNIT ** k, "exponent", 0, "unit must exceed 1"),
    (lambda k: _CAT ** k, "exponent", 0, "exponent must be an integer >= 0, got -1"),
    (lambda k: SpectrumQuery(_CAT.matrix, (0, 0), (0, 0), k), "radius", 1, "radius must be an integer >= 1, got 0"),
], ids=["power", "number", "unit", "torus", "radius"])
def test_exponents_are_ints(call, field, least, below):
    """An exponent is an int, not a bool, at or above its least value;
    anything else is refused by its name before any work."""
    for bad in (1.5, True, "2", Fraction(2)):
        message = "%s must be an integer >= %d, got %r" % (field, least, bad)
        with pytest.raises(ValueError, match="^%s$" % re.escape(message)):
            call(bad)
    with pytest.raises(ValueError, match="^%s$" % below):
        call(least - 1)


def test_integer_powers_are_unchanged():
    """Each least exponent, and the ints above it, give the powers they
    gave before the exponent gate."""
    assert power(_GRAPH, 1) == _GRAPH
    assert QuadraticNumber(2, 1, Fraction(1, 2)) ** 3 == QuadraticNumber(2, Fraction(5, 2), Fraction(7, 4))
    assert QuadraticNumber(2, 1, 1) ** 0 == QuadraticNumber(2, 1, 0)
    assert _UNIT ** 2 == QuadraticUnit(5, Fraction(7, 2), Fraction(3, 2))
    assert (_CAT ** 3).matrix == ((13, 8), (8, 5)) and (_CAT ** 0).matrix == ((1, 0), (0, 1))
    doubled = power(_GRAPH, 2)
    assert [c.twist for c in doubled.curves] == [2 * c.twist for c in _GRAPH.curves]
    assert all(type(c.twist) is Fraction for c in doubled.curves)


_PHI = QuadraticUnit(5, Fraction(1, 2), Fraction(1, 2))  # the golden ratio, fundamental in Q(sqrt(5))


@pytest.mark.parametrize("field, least, call, valid, result", [
    ("genus", 0, lambda k: Surface(k, 1).chi, 2, -3),
    ("boundary_components", 0, lambda k: Surface(2, k).chi, 1, -3),
    ("degree", 1, lambda k: delta_from_branch_data(BranchData(k, ())), 1, (Surface(1, 0), SingularityVector(()))),
    ("n", 1, lambda k: PiecePlan(k).n, 2, 2),
    ("n", 1, lambda k: staircase_piece(Surface(1, 2), PiecePlan(k, (("b0", "b1"),))).surface, 3, Surface(3, 2)),
    ("n", 1, squarefree_part, 720, 5),
    ("prongs", 3, lambda k: SingularityVector(((k, 1),)).counts, 6, ((6, 1),)),
    # checked before the sort, which cannot order None against an int
    ("prongs", 3, lambda k: SingularityVector(((k, 1), (3, 1))).counts, 4, ((3, 1), (4, 1))),
    ("count", 1, lambda k: SingularityVector(((6, 2), (4, k))).counts, 1, ((4, 1), (6, 2))),
], ids=["genus", "boundary", "branch-degree", "sheets", "staircase-sheets", "squarefree", "prongs",
        "prongs-before-sort", "count"])
def test_every_count_passes_the_integer_gate(field, least, call, valid, result):
    """Each count is an int, not a bool, at or above its least value, and
    anything else is refused in ``_integer``'s words, naming the field;
    a float at or above the least value too, which is no count."""
    assert call(valid) == result
    for bad in (None, True, 1.5, "2", least + 0.5, least - 1):
        message = "%s must be an integer >= %d, got %r" % (field, least, bad)
        with pytest.raises(ValueError, match="^%s$" % re.escape(message)):
            call(bad)


@pytest.mark.parametrize("call, message", [
    (lambda: unit_log_ratio(2, 3), "u must be a QuadraticUnit, got 2"),
    (lambda: unit_log_ratio(None, _PHI), "u must be a QuadraticUnit, got None"),
    (lambda: unit_log_ratio(_PHI, QuadraticNumber(5, 0, 1)), "v must be a QuadraticUnit, got (0 + 1*sqrt(5))"),
    (lambda: unit_log_ratio(_PHI, Fraction(3, 2)), "v must be a QuadraticUnit, got Fraction(3, 2)"),
    (lambda: BranchData(None, ()), "degree must be an integer >= 1, got None"),
    (lambda: PiecePlan(None), "n must be an integer >= 1, got None"),
    (lambda: SingularityVector(((3.5, 1),)), "prongs must be an integer >= 3, got 3.5"),
    (lambda: SingularityVector(((None, 1), (3, 1))), "prongs must be an integer >= 3, got None"),
], ids=["ints", "none", "number", "fraction", "branch-degree", "sheets", "float-prongs", "none-prongs"])
def test_library_callers_get_refusals_not_crashes(call, message):
    """Calls that raised ``AttributeError`` or ``TypeError``, were accepted,
    or ran forever (a non-unit of a unit's field) are refused by a
    ``ValueError`` naming the argument."""
    with pytest.raises(ValueError, match="^%s$" % re.escape(message)):
        call()


@pytest.mark.parametrize("call, message", [
    (lambda: BranchData(2, 5), "branch_points must be a tuple or a list, got 5"),
    (lambda: BranchData(2, ((1, 1), 2)), "branch point must be a tuple or a list, got 2"),
    (lambda: BranchData(2, ((1, "a"),)), "(1, 'a') is not a partition of 2"),
    (lambda: PiecePlan(2, 5), "arcs must be a tuple or a list, got 5"),
    (lambda: PiecePlan(2, ("ab",)), "arc must be a tuple or a list, got 'ab'"),
    (lambda: PiecePlan(2, (("a", "b", "c"),)), "arc must have two ends, got ('a', 'b', 'c')"),
    (lambda: BundlePiece("a", Surface(1, 1), 5), "boundaries must be a tuple or a list, got 5"),
    (lambda: Gluing("j", 5, ("B", "t"), ((-1, 1), (0, 1))), "side_a must be a tuple or a list, got 5"),
    (lambda: Gluing("j", ("A", "t"), ["B"], ((-1, 1), (0, 1))), "side_b must have two names, got ['B']"),
    (lambda: SpectrumQuery(((2, 1), (1, 1)), 5, (0, 0), 3), "origin must be a tuple or a list, got 5"),
    (lambda: SpectrumQuery(((2, 1), (1, 1)), (0, 0), "00", 3), "point must be a tuple or a list, got '00'"),
], ids=["branch-points", "branch-point", "local-degree", "arcs", "arc", "arc-length", "boundaries", "side-a", "side-b-length",
        "origin", "point"])
def test_wrong_shapes_are_refused_in_the_gates_words(call, message):
    """A public constructor takes a tuple or a list where it unpacks one, at
    the top and in its entries, of two entries where a pair is meant; each
    call here raised ``TypeError``, or was built and crashed later."""
    with pytest.raises(ValueError, match="^%s$" % re.escape(message)):
        call()


def test_shared_helpers_are_defined_once_in_quadratic():
    """The gates, trusted builders and GC pause live in ``quadratic``, and
    the layers that share them import nothing from ``cover``."""
    src = Path(quadratic.__file__).parent
    defined = {}
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.setdefault(node.name, []).append(path.name)
        if path.name in ("spectrum.py", "comparator.py", "staircase.py"):
            for node in ast.walk(tree):  # from .cover import x, from . import cover, import fibercomm.cover
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    names = [node.module] if getattr(node, "module", None) else [a.name for a in node.names]
                    assert not {"cover", "fibercomm.cover"} & set(names), path.name
    for name in ("_exact", "_integer", "_repeated", "_trusted", "_trusted_many", "_gc_paused"):
        assert defined[name] == ["quadratic.py"], name
