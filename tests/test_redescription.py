"""Invariants are functions of what is described, not of the description.

A decomposition graph is described again: its pieces, curves and each
piece's slots re-ordered, some curves' ends swapped, and its piece, slot
and curve ids renamed, names holding ``~`` among them.  Its invariant
report, the report of its power and the report of its unit-twist
normalization stay equal, and ``compare`` keeps its verdict in every
mode; ``compare(y, x)`` has the kind of ``compare(x, y)`` and the
inverted scales.  The inputs are the random graphs of ``conftest``, with
pseudo-Anosov pieces where normalization is not asked for.

One manifold and plan are described again too: pieces, gluings, plan
entries and each piece's tori re-ordered, some gluings' sides swapped
(the matrix inverted), and pieces, tori and gluings renamed.  Every
description refibers to the same fiber, connectivity, monodromy order
and invariant report, and ``compare`` calls no two of them
``incommensurable``, in any mode.  The inputs are the chain families and
random admissible chains of normal-form gluings
(``conftest.random_normal_form_chain``).  The draws are derandomized, as
in ``test_fuzz``.
"""

from dataclasses import replace

import pytest
from click.testing import CliRunner
from conftest import random_normal_form_chain, random_reducible_map
from hypothesis import given, settings, strategies as st
from oracles import negate_twists
from test_comparator import with_pseudo_anosov_pieces

from fibercomm import serialize as ser
from fibercomm.cli import main
from fibercomm.comparator import MODES, InvariantReport, compare
from fibercomm.cover import normalize_unit_twists
from fibercomm.decomposition import ReducibleMap, ReducingCurve, power
from fibercomm.families import (
    bounded_chain_manifold,
    bounded_chain_plan,
    closed_chain_alternate_plan,
    closed_chain_manifold,
    closed_chain_plan,
)
from fibercomm.staircase import BundlePiece, FiberedGraphManifold, Gluing, PiecePlan, RefiberPlan, refiber
from fibercomm.surfaces import Surface

NAMES = ("%s", "%s~0", "~%s", "\u00e9\u001b[%s~12")  # each one-to-one


def shuffled(rng, xs):
    return rng.sample(list(xs), len(xs))


def redescribe_graph(rng, phi):
    """``phi`` described again, by draws from ``rng``."""
    piece_name, slot_name, curve_name = (rng.choice(NAMES) for _ in range(3))
    pids = [p.id for p in phi.pieces]
    name = dict(zip(pids, (piece_name % x for x in shuffled(rng, pids))))
    end, pieces = {}, []
    for p in phi.pieces:
        slots = dict(zip(p.slots, (slot_name % s for s in shuffled(rng, p.slots))))
        end.update(((p.id, s), (name[p.id], new)) for s, new in slots.items())
        pieces.append(replace(p, id=name[p.id], slots=tuple(shuffled(rng, slots.values()))))
    cids = [c.id for c in phi.curves]
    cname = dict(zip(cids, (curve_name % x for x in shuffled(rng, cids))))
    curves = []
    for c in phi.curves:
        a, b = end[c.end_a], end[c.end_b]
        curves.append(ReducingCurve(cname[c.id], *((b, a) if rng.random() < 0.5 else (a, b)), c.twist))
    return ReducibleMap(tuple(shuffled(rng, pieces)), tuple(shuffled(rng, curves)))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.randoms(use_true_random=True))
def test_reports_are_functions_of_the_graph(rng):
    phi, k = random_reducible_map(rng, max_part=6), rng.randint(2, 4)
    for _ in range(2):
        psi = redescribe_graph(rng, phi)
        assert InvariantReport.of(psi) == InvariantReport.of(phi)
        assert InvariantReport.of(power(psi, k)) == InvariantReport.of(power(phi, k))
        assert InvariantReport.of(normalize_unit_twists(psi)[0]) == InvariantReport.of(normalize_unit_twists(phi)[0])


def graph_pairs(rng):
    """A graph against its power, its mirror, its unit-twist normalization
    and another graph, or, with pseudo-Anosov pieces drawn for each, all but
    the normalization."""
    phi = random_reducible_map(rng, max_part=6)
    others = [power(phi, rng.randint(2, 4)), negate_twists(phi), normalize_unit_twists(phi)[0],
              random_reducible_map(rng, max_part=6)]
    if rng.random() < 0.5:
        phi, *others = (with_pseudo_anosov_pieces(rng, g) for g in [phi] + others[:2] + others[3:])
    return [(phi, psi) for psi in others]


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.randoms(use_true_random=True))
def test_compare_keeps_its_kind_under_redescription(rng):
    for phi, psi in graph_pairs(rng):
        x, y = redescribe_graph(rng, phi), redescribe_graph(rng, psi)
        for mode in MODES:
            assert compare(x, y, mode).kind == compare(phi, psi, mode).kind


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.randoms(use_true_random=True))
def test_compare_is_symmetric_with_inverted_scales(rng):
    for phi, psi in graph_pairs(rng):
        for mode in MODES:
            v, back = compare(phi, psi, mode), compare(psi, phi, mode)
            assert back.kind == v.kind and back.feasible == {1 / s for s in v.feasible}


FAMILIES = (
    [(bounded_chain_manifold(), bounded_chain_plan(n)) for n in (1, 2, 3)]
    + [(closed_chain_manifold(), closed_chain_plan(n)) for n in (1, 2)]
    + [(closed_chain_manifold(), closed_chain_alternate_plan())]
)
INPUTS = st.sampled_from(FAMILIES) | st.randoms(use_true_random=False).map(
    lambda rng: random_normal_form_chain(rng, rng.randint(2, 8))
)


def inverse(matrix):
    """The inverse of a matrix of determinant +-1."""
    (a, b), (c, d) = matrix
    det = a * d - b * c
    return (d * det, -b * det), (-c * det, a * det)


def redescribe(draw, manifold, plan):
    """The manifold and plan described again, by draws from ``draw``."""
    prefix = draw(st.sampled_from(("", "n.", "é\u001b[")))
    ids = [p.id for p in manifold.pieces]
    name = {pid: prefix + new for pid, new in zip(ids, draw(st.permutations(ids)))}
    torus = {p.id: dict(zip(p.boundaries, draw(st.permutations(p.boundaries)))) for p in manifold.pieces}
    gids = [g.id for g in manifold.gluings]
    gid = dict(zip(gids, draw(st.permutations(gids))))

    def side(s):
        return name[s[0]], torus[s[0]][s[1]]

    pieces = [BundlePiece(name[p.id], p.surface, tuple(draw(st.permutations([torus[p.id][b] for b in p.boundaries]))))
              for p in manifold.pieces]
    gluings = []
    for g in manifold.gluings:
        if draw(st.booleans()):  # the sides swapped
            g = Gluing(g.id, g.side_b, g.side_a, inverse(g.matrix))
        gluings.append(Gluing(gid[g.id], side(g.side_a), side(g.side_b), g.matrix))
    entries = [(name[pid], PiecePlan(e.n, tuple((torus[pid][t], torus[pid][h]) for t, h in e.arcs)))
               for pid, e in plan.per_piece]
    return (FiberedGraphManifold(tuple(draw(st.permutations(pieces))), tuple(draw(st.permutations(gluings)))),
            RefiberPlan(tuple(draw(st.permutations(entries)))))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.data())
def test_refibering_is_a_function_of_the_manifold(data):
    manifold, plan = data.draw(INPUTS)
    r = refiber(manifold, plan)
    report = InvariantReport.of(r.map)
    maps = [r.map]
    for _ in range(2):
        s = refiber(*redescribe(data.draw, manifold, plan))
        assert (s.fiber, s.connected, s.monodromy_order) == (r.fiber, r.connected, r.monodromy_order)
        assert InvariantReport.of(s.map) == report
        maps.append(s.map)
    for x, y in ((maps[0], maps[1]), (maps[1], maps[2])):
        for mode in MODES:
            assert not compare(x, y, mode).incommensurable


def test_gluing_off_the_normal_form_is_refused_whichever_side_comes_first(tmp_path):
    """One gluing named from A to B by g and from B to A by g**-1 describes
    one manifold, which refibered to two different twists, and so to an
    ``incommensurable`` verdict on itself, while such gluings were
    accepted.  The library and the command line refuse it both ways."""
    a = BundlePiece("A", Surface(1, 1), ("t",))
    b = BundlePiece("B", Surface(1, 2), ("t", "u"))
    for matrix, n_a in ((((2, 1), (1, 1)), 1), (((1, 1), (0, 1)), 1), (((-1, 3), (0, -1)), 2)):
        plan = RefiberPlan((("A", PiecePlan(n_a)), ("B", PiecePlan(2, (("u", "t"),)))))
        for gluing in (Gluing("j", ("A", "t"), ("B", "t"), matrix),
                       Gluing("j", ("B", "t"), ("A", "t"), inverse(matrix))):
            m = FiberedGraphManifold((a, b), (gluing,))
            message = ("inadmissible plan: gluing j: matrix %r is outside the normal form ((-1, sigma), (0, 1))"
                       % (gluing.matrix,))
            with pytest.raises(ValueError) as e:
                refiber(m, plan)
            assert str(e.value) == message
            ser.dump(tmp_path / "m.json", ser.manifold_doc(m))
            ser.dump(tmp_path / "p.json", ser.plan_doc(plan))
            r = CliRunner().invoke(main, ["staircase", str(tmp_path / "m.json"), str(tmp_path / "p.json")])
            assert (r.exit_code, r.stdout, r.stderr) == (2, "", "malformed input: %s\n" % message)
