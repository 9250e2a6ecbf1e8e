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


def _feasible(x, y, mode):
    """Scales s > 0 that carry, under one flip of x's pairs, the Pi set
    of x onto y's and also the normalized A of x onto y's (``full``,
    ``topological``) or the log-stretch-factors of y onto x's
    (``combined``).  An empty result is the obstruction.

    The candidate set is finite.  Every mode matches Pi, and scaling
    preserves the lex order of pairs, so s is the ratio of the
    lexicographically largest Pi elements; ``topological`` pins s = 1,
    and ``combined`` takes the stretch-factor log-ratios instead when
    either side has a stretch factor.  The normalized A pairs give no
    further candidate: when the largest Pi element is (0, 0), all Pi
    elements are, and then so is A.
    """
    log_ratios = set()
    if mode == COMBINED:
        log_ratios = {u.log_ratio(v) for u in x.dilatations for v in y.dilatations}
        log_ratios = {r for r in log_ratios if r is not None and r > 0}
    feasible = set()
    for flip in (False, True):
        a1 = _flip(x.a_normalized) if flip else x.a_normalized
        pi1 = frozenset(_flip(p) for p in x.pi) if flip else x.pi
        if mode == TOPOLOGICAL:
            candidates = {Fraction(1)}
        elif mode == COMBINED and (x.dilatations or y.dilatations):
            candidates = log_ratios
        else:
            candidates = {_pair_ratio(max(pi1), max(y.pi))} - {None}
        for s in candidates:
            if frozenset(_scale(p, s) for p in pi1) != y.pi:
                continue
            if mode == COMBINED:
                ok = _dilatation_scale_ok(s, x.dilatations, y.dilatations)
            else:
                ok = _scale(a1, s) == y.a_normalized
            if ok:
                feasible.add(s)
    return feasible


def match_flip_scale(x, y):
    """Feasible scalars s of the full test: s*flip(A, Pi of x) = (A, Pi of y)."""
    return _feasible(x, y, FULL)


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
