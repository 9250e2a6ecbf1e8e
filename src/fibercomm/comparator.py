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

from .decomposition import a_total, pi_invariant, p_polynomial, validate_or_raise

FULL = "full"
TOPOLOGICAL = "topological"
COMBINED = "combined"

INCOMMENSURABLE = "incommensurable"
NOT_OBSTRUCTED = "not_obstructed"


@dataclass(frozen=True)
class InvariantReport:
    """All invariants the comparator consumes, precomputed from a map."""

    a: tuple                 # raw pair invariant
    a_normalized: tuple      # a / -chi(F)
    pi: frozenset
    p: tuple                 # sorted ((p, q), weight) items
    dilatations: frozenset
    chi: int

    @staticmethod
    def of(phi):
        validate_or_raise(phi)
        a = a_total(phi)
        chi = phi.chi
        poly = p_polynomial(phi)
        return InvariantReport(
            a=a,
            a_normalized=(a[0] / (-chi), a[1] / (-chi)),
            pi=pi_invariant(phi),
            p=tuple(sorted(poly.items())),
            dilatations=phi.dilatation_set,
            chi=chi,
        )


@dataclass(frozen=True)
class Verdict:
    kind: str
    feasible: frozenset = frozenset()
    witness: str = None

    @property
    def incommensurable(self):
        return self.kind == INCOMMENSURABLE


def _flip(pair):
    return (pair[1], pair[0])


def _scale(pair, s):
    return (pair[0] * s, pair[1] * s)


def _pair_ratio(x, y):
    """The s > 0 with s*x = y, if the pairs are proportional."""
    if x == (0, 0) or y == (0, 0):
        return None
    for i in (0, 1):
        if (x[i] == 0) != (y[i] == 0):
            return None
    i = 0 if x[0] != 0 else 1
    s = y[i] / x[i]
    return s if s > 0 and _scale(x, s) == y else None


def _check_full(s, flip, x, y):
    a1 = _flip(x.a_normalized) if flip else x.a_normalized
    pi1 = frozenset(_flip(p) for p in x.pi) if flip else x.pi
    return _scale(a1, s) == y.a_normalized and frozenset(_scale(p, s) for p in pi1) == y.pi


def match_flip_scale(x, y):
    """Feasible scalars s of the full test: s*flip(A, Pi of x) = (A, Pi of y).

    The candidate set is finite: s is pinned by the ratio of the
    lexicographically largest Pi elements (scaling preserves the lex
    order of non-negative pairs) or by the normalized A pairs.  An empty
    result is the obstruction.
    """
    feasible = set()
    for flip in (False, True):
        pi1 = frozenset(_flip(p) for p in x.pi) if flip else x.pi
        a1 = _flip(x.a_normalized) if flip else x.a_normalized
        candidates = set()
        if pi1 and y.pi:
            s = _pair_ratio(max(pi1), max(y.pi))
            if s is not None:
                candidates.add(s)
        s = _pair_ratio(a1, y.a_normalized)
        if s is not None:
            candidates.add(s)
        for s in candidates:
            if _check_full(s, flip, x, y):
                feasible.add(s)
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


def _compare_combined(x, y):
    """One s must scale the log-stretch-factors forward and Pi backward."""
    candidates = set()
    for u in x.dilatations:
        for v in y.dilatations:
            r = u.log_ratio(v)
            if r is not None and r > 0:
                candidates.add(r)
    if not x.dilatations and not y.dilatations:
        # no stretch-factor constraint; s comes from Pi alone
        for flip in (False, True):
            pi1 = frozenset(_flip(p) for p in x.pi) if flip else x.pi
            s = _pair_ratio(max(pi1), max(y.pi))
            if s is not None:
                candidates.add(s)

    feasible = set()
    for s in candidates:
        if not _dilatation_scale_ok(s, x.dilatations, y.dilatations):
            continue
        # Pi(phi1) ~ s^{-1} Pi(phi2) up to flip
        target = frozenset(_scale(p, 1 / s) for p in y.pi)
        for flip in (False, True):
            pi1 = frozenset(_flip(p) for p in x.pi) if flip else x.pi
            if pi1 == target:
                feasible.add(s)
                break
    return feasible


def compare_reports(x, y, mode=FULL):
    if mode == FULL:
        feasible = match_flip_scale(x, y)
        if not feasible:
            return Verdict(INCOMMENSURABLE, witness="no common flip/scale matches A and Pi")
        return Verdict(NOT_OBSTRUCTED, feasible=frozenset(feasible))
    if mode == TOPOLOGICAL:
        ok = any(_check_full(Fraction(1), flip, x, y) for flip in (False, True))
        if not ok:
            return Verdict(
                INCOMMENSURABLE,
                witness="chi-normalized A or Pi differ (no flip matches at s = 1)",
            )
        return Verdict(NOT_OBSTRUCTED, feasible=frozenset([Fraction(1)]))
    if mode == COMBINED:
        feasible = _compare_combined(x, y)
        if not feasible:
            return Verdict(
                INCOMMENSURABLE,
                witness="no s scales the stretch factors forward and Pi backward",
            )
        return Verdict(NOT_OBSTRUCTED, feasible=frozenset(feasible))
    raise ValueError("unknown mode %r" % (mode,))


def compare(phi1, phi2, mode=FULL):
    """Obstruction test between two decomposition graphs.

    Incommensurable is definitive; NotObstructed only reports that the
    necessary conditions of the chosen mode are satisfiable, with the
    feasible scalars.
    """
    return compare_reports(InvariantReport.of(phi1), InvariantReport.of(phi2), mode)
