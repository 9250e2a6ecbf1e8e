"""The invariant kernel against its Fraction-arithmetic oracle.

A graph's piece pairs, ``InvariantReport.of`` and the comparator keep
every sum, normalized pair and scale as reduced integers and build a
``Fraction`` only for a value that is read.  Every report field (P
included), every piece-pair table, and every feasible set in the three
modes must equal what the ``Fraction`` formulas of ``oracles`` give, and
``brute_force_feasible`` where it is cheap enough.  A pair table is
compared key by key with the oracle's reduced integers, and every key of
it and of the report's table is checked reduced.
"""

import random
import time
from collections import Counter
from dataclasses import replace
from fractions import Fraction as F
from itertools import chain
from math import gcd

from conftest import random_normal_form_chain, random_reducible_map
from oracles import (
    brute_force_feasible,
    feasible_by_fractions,
    negate_twists,
    pairs_by_fractions,
    report_by_fractions,
)
from test_acceptance import _double_cover
from test_comparator import with_pseudo_anosov_pieces
from test_cover import random_cover

from fibercomm.comparator import COMBINED, FULL, TOPOLOGICAL, InvariantReport, compare_reports
from fibercomm.cover import lift_cover, normalize_unit_twists
from fibercomm.decomposition import (
    Piece,
    ReducibleMap,
    ReducingCurve,
    _pair,
    power,
)
from fibercomm.families import (
    bounded_chain_manifold,
    bounded_chain_plan,
    closed_chain_alternate_plan,
    closed_chain_manifold,
    closed_chain_plan,
)
from fibercomm.staircase import refiber
from fibercomm.surfaces import Surface

MODES = (FULL, TOPOLOGICAL, COMBINED)
FIELDS = ("a", "a_normalized", "pi", "p", "dilatations", "chi")


def fractions_in(value):
    """Every Fraction inside nested tuples, sets and dicts."""
    if isinstance(value, F):
        yield value
    elif isinstance(value, (tuple, list, set, frozenset)):
        for v in value:
            yield from fractions_in(v)
    elif isinstance(value, dict):
        for k, v in value.items():
            yield from fractions_in(k)
            yield from fractions_in(v)


def key_of(pair):
    """The reduced integer key (n, d, n', d') of a ``Fraction`` pair."""
    return (*pair[0].as_integer_ratio(), *pair[1].as_integer_ratio())


def keys_by_fractions(phi):
    """The oracle's ``pairs`` table, as the graph keeps it."""
    return {pid: key_of(pair) for pid, pair in pairs_by_fractions(phi).items()}


def checked_report(phi):
    """``InvariantReport.of(phi)`` after checking it, the graph's tables
    and the public invariant functions against the oracle."""
    report, oracle = InvariantReport.of(phi), report_by_fractions(phi)
    assert phi.pairs == keys_by_fractions(phi)
    for n, d, n2, d2 in chain(phi.pairs.values(), (key for key, _ in report.table)):
        assert d > 0 and d2 > 0 and gcd(n, d) == gcd(n2, d2) == 1 and all(type(x) is int for x in (n, d, n2, d2))
    for field in FIELDS:
        assert getattr(report, field) == getattr(oracle, field), field
    assert InvariantReport.of(phi).a == oracle.a and InvariantReport.of(phi).pi == oracle.pi
    assert sorted(dict(InvariantReport.of(phi).p).items()) == list(oracle.p)
    for f in fractions_in([report.a, report.a_normalized, report.pi, report.p]):
        assert type(f) is F and f.denominator > 0
    hash(report)
    return report, oracle


def check_verdicts(x, ox, y, oy, brute=True):
    """The feasible set of each mode, as the oracle's scale test gives it
    and, with ``brute``, as an exhaustive search gives it."""
    kinds = []
    for mode in MODES:
        v = compare_reports(x, y, mode)
        assert v.feasible == feasible_by_fractions(ox, oy, mode), (mode, v)
        if brute:
            assert v.feasible == brute_force_feasible(x, y, mode), (mode, v)
        assert all(type(s) is F for s in v.feasible)
        kinds.append(v.kind)
    return kinds


def check_pairs(graphs, brute=True):
    """Reports of every graph, then the verdicts of the first against
    each of the others and back."""
    reports = [checked_report(g) for g in graphs]
    kinds = []
    for other in reports[1:]:
        kinds += check_verdicts(*reports[0], *other, brute=brute)
        kinds += check_verdicts(*other, *reports[0], brute=brute)
    return kinds


def test_kernel_on_law_suites():
    """The 500 graphs of criterion 4: each with a power, its mirror and
    its double cover where one exists; the power's curves are the
    twists times k, one product per distinct twist value."""
    rng = random.Random(101)
    kinds = set()
    for i in range(500):
        phi = random_reducible_map(rng, max_part=12)
        k = rng.randint(2, 6)
        pk = power(phi, k)
        assert pk.curves == tuple(ReducingCurve(c.id, c.end_a, c.end_b, c.twist * k) for c in phi.curves)
        graphs = [phi, pk, negate_twists(phi)]
        cover = _double_cover(phi)
        if cover is not None:
            graphs.append(lift_cover(phi, cover))
        kinds |= set(check_pairs(graphs, brute=i % 5 == 0))
    assert kinds == {"incommensurable", "not_obstructed"}


def test_kernel_on_criterion_8_and_normalizations():
    """Normalization takes the power's pair table from phi's, divided by
    the power, and lifts it: the normalized report must still be the one
    the oracle sums from the lifted curves."""
    rng = random.Random(103)
    for _ in range(100):
        phi = random_reducible_map(rng, max_part=12)
        normalized, cert = normalize_unit_twists(phi)
        assert normalized.pairs == keys_by_fractions(normalized)
        check_pairs([phi, normalized])


def with_signs_and_empty_pieces(rng, phi):
    """``phi`` with its twists made all positive, all negative or left
    mixed, and sometimes a piece with no slot, whose pair is (0, 0)."""
    sign = rng.choice((1, -1, None))
    curves = tuple(c._replace(twist=abs(c.twist) * sign) if sign else c for c in phi.curves)
    pieces = phi.pieces
    if rng.random() < 0.4:
        pieces += (Piece("free", Surface(rng.randint(1, 2), 1), (), 1),)
    return ReducibleMap(pieces, curves)


def test_kernel_on_mixed_signs_and_zero_coordinates():
    rng = random.Random(107)
    zero = 0
    for i in range(300):
        phi = with_signs_and_empty_pieces(rng, random_reducible_map(rng, max_part=rng.choice((1, 6, 30))))
        psi = with_signs_and_empty_pieces(rng, random_reducible_map(rng, max_part=6))
        graphs = [phi, psi, power(negate_twists(phi), rng.randint(2, 3)), replace(phi, pieces=phi.pieces[::-1])]
        check_pairs(graphs, brute=i % 3 == 0)
        zero += any(0 in pair for pair in InvariantReport.of(phi).pi)
    assert zero > 150


def test_kernel_on_pseudo_anosov_pieces():
    rng = random.Random(109)
    kinds = set()
    for _ in range(120):
        phi = with_pseudo_anosov_pieces(rng, random_reducible_map(rng, max_part=6))
        k = rng.randint(2, 4)
        kinds |= set(check_pairs([phi, power(phi, k), with_pseudo_anosov_pieces(rng, phi), negate_twists(phi)]))
    assert kinds == {"incommensurable", "not_obstructed"}


def test_kernel_on_lifted_random_covers():
    """Covers with several components over a piece and mixed local
    degrees: the lift's pair table is carried in closed form, and the
    oracle sums it again from the lifted curves."""
    rng = random.Random(113)
    lifted = 0
    while lifted < 150:
        phi = random_reducible_map(rng, max_part=6)
        try:
            lift = lift_cover(phi, random_cover(rng, phi, rng.randint(1, 4)))
        except ValueError:  # no covered surface fits
            continue
        check_pairs([phi, lift, power(lift, 2)], brute=lifted % 3 == 0)
        lifted += 1


def test_kernel_on_refibered_chains():
    maps = []
    for n in range(1, 7):
        maps.append(refiber(bounded_chain_manifold(), bounded_chain_plan(n)).map)
        maps.append(refiber(closed_chain_manifold(), closed_chain_plan(n)).map)
    maps.append(refiber(closed_chain_manifold(), closed_chain_alternate_plan()).map)
    for phi in maps:
        check_pairs([phi] + maps)


def test_kernel_on_random_refibered_chains():
    """Chains of mixed sheet counts and arcs: one pair per distinct sums,
    shared by the pieces that have them, and the oracle's table and report."""
    rng = random.Random(139)
    chains, shared = [], 0
    while len(chains) < 150:
        phi = refiber(*random_normal_form_chain(rng, rng.randint(2, 12))).map
        checked_report(phi)
        pairs = list(phi.pairs.values())
        assert len({*map(id, pairs)}) == len(set(pairs))
        shared += len(set(pairs)) < len(pairs)
        chains.append(phi)
    assert shared > 90 and len({p.surface for phi in chains for p in phi.pieces}) > 15
    assert sum(len(phi.pieces) > len({p.id.split("~")[0] for p in phi.pieces}) for phi in chains) > 40  # copies
    assert {c.twist.denominator for phi in chains for c in phi.curves} >= {1, 2, 3, 6}
    for i in range(0, 150, 10):
        check_pairs(chains[i:i + 10], brute=False)


def test_report_equality_is_field_equality():
    """Two reports are equal, and hash alike, exactly when every field of
    the oracle's is equal, P included: on small graphs, criterion-4 graphs
    with their powers, negations and unit-twist normalizations, each with
    its pieces reversed too, and two graphs that differ in P alone."""
    rng = random.Random(127)
    graphs = []
    for _ in range(40):
        phi = random_reducible_map(rng, max_part=4)
        graphs += [phi, replace(phi, pieces=phi.pieces[::-1]), power(phi, 2)]
    for _ in range(60):
        phi = random_reducible_map(rng, max_part=12)
        for g in (phi, power(phi, rng.randint(2, 6)), negate_twists(phi), normalize_unit_twists(phi)[0]):
            graphs += [g, replace(g, pieces=g.pieces[::-1])]
    # equal A, Pi and chi; P weights Pi's three pairs by 4/14, 6/14, 4/14 against 3/14, 9/14, 2/14
    c0, c1 = ("p0", "s0"), ("p1", "s1")
    graphs += [
        ReducibleMap((Piece("p0", Surface(3, 2), ("s0", "s1")), Piece("p1", Surface(1, 4), ("s0", "s1"), 2),
                      Piece("p2", Surface(2, 2), (), 2)),
                     (ReducingCurve("c0", c0, ("p1", "s0"), F(-1)), ReducingCurve("c1", c1, ("p0", "s1"), F(-1)))),
        ReducibleMap((Piece("p0", Surface(1, 2), ("s1",), 1), Piece("p1", Surface(1, 1), (), 1),
                      Piece("p2", Surface(3, 5), ("s0", "t0", "s1"), 2), Piece("p3", Surface(2, 0), ())),
                     (ReducingCurve("c0", ("p2", "s0"), ("p2", "t0"), F(-1)),
                      ReducingCurve("c1", ("p0", "s1"), ("p2", "s1"), F(-1)))),
    ]
    x, y = (InvariantReport.of(g) for g in graphs[-2:])
    assert (x.a, x.a_normalized, x.pi, x.chi) == (y.a, y.a_normalized, y.pi, y.chi) and x.p != y.p and x != y
    reports = [(InvariantReport.of(g), tuple(getattr(report_by_fractions(g), f) for f in FIELDS)) for g in graphs]
    equal = 0
    for x, ox in reports:
        for y, oy in reports:
            same = ox == oy
            assert (x == y) == same
            equal += same and x is not y
            if same:
                assert hash(x) == hash(y)
    assert equal > 40


def test_lift_report_from_the_base_table():
    """The covering law at report level: a lift's report is the base's
    normalized piece pairs, each piece's chi weighted by the total degree
    of its components, with the base's stretch factors; built with no
    lifted curve, on covers with several components over a piece and
    mixed local degrees."""
    rng = random.Random(137)
    lifted = 0
    while lifted < 150:
        phi = random_reducible_map(rng, max_part=6)
        if lifted % 2:
            phi = with_pseudo_anosov_pieces(rng, phi)
        c = random_cover(rng, phi, rng.randint(2, 4))
        partitions = [part for _, comps in c.components for comp in comps for _, part in comp.slot_partitions]
        if len({*chain.from_iterable(partitions)}) < 2 or all(len(comps) < 2 for _, comps in c.components):
            continue
        try:
            lift = lift_cover(phi, c)
        except ValueError:  # no covered surface fits
            continue
        table = Counter()
        for p in phi.pieces:
            a, b = (x / -p.surface.chi for x in _pair(phi.pairs[p.id]))
            table[(*a.as_integer_ratio(), *b.as_integer_ratio())] += p.surface.chi * sum(x.degree for x in c.of(p.id))
        expected = InvariantReport(frozenset(table.items()), phi.dilatation_set, sum(table.values()))
        report = InvariantReport.of(lift)
        assert report == expected and hash(report) == hash(expected)
        assert all(getattr(report, f) == getattr(expected, f) for f in FIELDS)
        lifted += 1


def test_distinct_long_twists_in_bounded_time():
    """Ten distinct 3000-digit twists: the sums have about 9000 digits,
    and every gcd is taken against the smaller operand, as ``Fraction``
    arithmetic takes it."""
    rng = random.Random(131)
    twists = [F(rng.choice((1, -1)) * (10 ** 2999 + 2 * i + 1), 1 + (i % 3) * 10 ** 2999 // 7) for i in range(10)]
    base = random_reducible_map(random.Random(3), max_pieces=4, max_curves=10)
    while len(base.curves) != 10:
        base = random_reducible_map(rng, max_pieces=4, max_curves=10)
    phi = ReducibleMap(base.pieces, tuple(c._replace(twist=t) for c, t in zip(base.curves, twists)))
    start = time.perf_counter()
    report = InvariantReport.of(phi)
    other = InvariantReport.of(power(phi, 3))
    verdicts = [compare_reports(report, other, mode) for mode in MODES]
    elapsed = time.perf_counter() - start
    oracle, other_oracle = report_by_fractions(phi), report_by_fractions(power(phi, 3))
    for field in FIELDS:
        assert getattr(report, field) == getattr(oracle, field), field
        assert getattr(other, field) == getattr(other_oracle, field), field
    assert max(f.denominator.bit_length() for f in report.a) > 26_000  # over 8000 digits
    for mode, v in zip(MODES, verdicts):
        assert v.feasible == feasible_by_fractions(oracle, other_oracle, mode)
    assert verdicts[0].feasible == {F(1, 3)} and verdicts[1].feasible == set()
    assert elapsed < 2.0, elapsed
