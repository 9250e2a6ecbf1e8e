"""Flip/scale comparison of decomposition-graph invariants.

Commensurable automorphisms have proportional invariants: there is a
single positive rational s and a single orientation choice (identity or
coordinate flip, applied to everything on one side at once) carrying
the chi-normalized pair invariant and the normalized piece set of one
map onto the other's.  ``compare`` runs this as a three-mode test:

* ``full``        -- scale + flip on both the normalized A pair and the
  Pi set, with one common s;
* ``topological``  -- the covers-only specialization: s = 1, flip only;
* ``combined``    -- stretch factors and Pi tied together: the same s
  with log lambda(phi1) = s log lambda(phi2) and Pi(phi1) matching
  s^{-1} Pi(phi2) up to flip.

A nonempty feasible set is explicitly *not* a proof of commensurability
(the invariants are obstructions); the empty set is definitive.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .decomposition import _add, _mul, _pair, validate_or_raise
from .quadratic import _fraction, _gc_paused

FULL = "full"
TOPOLOGICAL = "topological"
COMBINED = "combined"

INCOMMENSURABLE = "incommensurable"
NOT_OBSTRUCTED = "not_obstructed"


@dataclass(frozen=True)
class InvariantReport:
    """The invariants of a map, as its chi-normalized table.

    ``table`` holds the items of ``ReducibleMap.normalized``: each piece
    pair over -chi as reduced integers (n, d, n', d'), with the chi of the
    pieces realizing it.  With chi(F) it determines every invariant, each
    computed when first read: A / -chi(F), as reduced integers for the
    comparator, and A, Pi and P as ``Fraction``s.  P determines the table,
    so equal reports have equal invariants.
    """

    table: frozenset         # ((n, d, n', d'), chi) items
    dilatations: frozenset
    chi: int

    @cached_property
    def _a_normalized(self):  # A / -chi(F): half the sum of each pair times -chi, over -chi(F)
        a = b = (0, 1)
        for (an, ad, bn, bd), chi in self.table:
            a, b = _add(*a, *_mul(an, ad, -chi, 1)), _add(*b, *_mul(bn, bd, -chi, 1))
        return _scale((*a, *b), (1, -2 * self.chi))

    a = cached_property(lambda self: _pair(_scale(self._a_normalized, (-self.chi, 1))))
    a_normalized = cached_property(lambda self: _pair(self._a_normalized))
    # Pi, and P as sorted ((p, q), weight) items, each weight the pieces' chi over chi(F)
    pi = cached_property(lambda self: frozenset(_pair(k) for k, _ in self.table))
    p = cached_property(lambda self: tuple(sorted((_pair(k), Fraction(chi, self.chi)) for k, chi in self.table)))

    @staticmethod
    def of(phi):
        with _gc_paused():  # the check and the tables allocate tuples per piece and curve, and free no cycle
            validate_or_raise(phi)
            return InvariantReport(frozenset(phi.normalized.items()), phi.dilatation_set, phi.chi)


@dataclass(frozen=True)
class Verdict:
    kind: str
    feasible: frozenset = frozenset()
    witness: str = None

    @property
    def incommensurable(self):
        return self.kind == INCOMMENSURABLE


def _flip(key):
    return key[2], key[3], key[0], key[1]


def _scale(key, s):  # an integer pair times s = (n, d), reduced
    return (*_mul(key[0], key[1], *s), *_mul(key[2], key[3], *s))


def _lead(keys):
    """The first nonzero coordinate (n, d) of the lex-largest integer pair, as rationals."""
    top, *rest = keys
    for k in rest:
        c = k[0] * top[1] - top[0] * k[1]
        top = k if c > 0 or c == 0 and k[2] * top[3] > top[2] * k[3] else top
    return top[:2] if top[0] else top[2:]


def _feasible(x, y, mode):
    """Scales s > 0 that carry, under one flip of x's pairs, the Pi set
    of x onto y's and also the normalized A of x onto y's (``full``,
    ``topological``) or the log-stretch-factors of y onto x's
    (``combined``).  An empty result is the obstruction.

    Each flip tries one scale.  ``topological`` pins s = 1.  Otherwise
    scaling by s > 0 keeps the lex order of pairs, so a Pi match carries
    the largest element onto the largest, and s is the ratio of their
    first nonzero coordinates.  The largest Pi element of a valid graph
    is nonzero, since every curve has a nonzero twist at a slot of some
    piece, and no coordinate is negative, so s > 0.  The stretch factors
    are matched only at that s.  s * u/m = v/n is decided on reduced
    integers (u/m scaled by Fraction's cross gcds); s becomes a
    ``Fraction`` once per flip, if Pi matches.

    The result has at most one scale: if s matches Pi under one flip and
    s' under the other, then flip(Pi) = r Pi for x's Pi and r = s / s',
    so Pi = r^2 Pi and r = 1.
    """
    feasible = set()
    pi2 = {k for k, _ in y.table}
    for flip in (False, True):
        pi1 = [_flip(k) if flip else k for k, _ in x.table]
        s = (1, 1) if mode == TOPOLOGICAL else _mul(*_lead(pi2), *reversed(_lead(pi1)))
        # scaling is one-to-one, so Pi matches when every scaled pair is in y's
        if len(pi1) != len(pi2) or any(_scale(k, s) not in pi2 for k in pi1):
            continue
        scale = _fraction(*s)
        if mode == COMBINED:
            ok = _dilatation_scale_ok(scale, x.dilatations, y.dilatations)
        else:
            a = x._a_normalized
            ok = _scale(_flip(a) if flip else a, s) == y._a_normalized
        if ok:
            feasible.add(scale)
    return feasible


def _dilatation_scale_ok(s, d1, d2):
    """Whether log of every stretch factor of side 1 is s times one of
    side 2's, under some bijection of the two sets of values.

    Labels are matched by value alone: a boundary rotation does not
    change the stretch factor, so two pieces sharing a value count once.
    """
    remaining = {v.value for v in d2}
    values = {u.value for u in d1}
    if len(values) != len(remaining):
        return False
    for u in values:
        match = next((v for v in remaining if u.log_ratio(v) == s), None)
        if match is None:
            return False
        remaining.remove(match)
    return True


_WITNESS = {
    FULL: "no common flip/scale matches A and Pi",
    TOPOLOGICAL: "chi-normalized A or Pi differ (no flip matches at s = 1)",
    COMBINED: "no s scales the stretch factors forward and Pi backward",
}
MODES = tuple(_WITNESS)  # the modes of compare, as the readers and the command line list them


def compare_reports(x, y, mode=FULL):
    if mode not in _WITNESS:
        raise ValueError("unknown mode %r" % (mode,))
    feasible = _feasible(x, y, mode)
    if not feasible:
        return Verdict(INCOMMENSURABLE, witness=_WITNESS[mode])
    return Verdict(NOT_OBSTRUCTED, feasible=frozenset(feasible))


def compare(phi1, phi2, mode=FULL):
    """Obstruction test between two decomposition graphs.

    Incommensurable is definitive; NotObstructed only reports that the
    necessary conditions of the chosen mode are satisfiable, with the
    feasible scalars.
    """
    return compare_reports(InvariantReport.of(phi1), InvariantReport.of(phi2), mode)
