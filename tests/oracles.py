"""Independent oracles the library's fast paths are tested against.

None of these is on a decision path of the library:

* ``fundamental_unit`` (continued fractions) and ``unit_power_of``
  (repeated division) -- the oracle for ``quadratic.unit_log_ratio``;
* ``a_total_by_curves`` and ``p_polynomial_eval`` -- the pair invariant
  summed curve by curve, and the P polynomial evaluated at (1, 1);
* ``generate_same_cyclic_group`` and ``minimal_representatives`` --
  covering equivalence of periodic torus maps, and the minimal
  periodic / reducible torus classes;
* ``brute_force_feasible`` -- the comparator's feasible set by
  exhaustive search over ratios.
"""

import math
from fractions import Fraction
from itertools import permutations

from fibercomm.comparator import COMBINED, TOPOLOGICAL
from fibercomm.quadratic import QuadraticUnit, _check_squarefree
from fibercomm.torus import PERIODIC, REDUCIBLE, TorusAutomorphism, classify_torus


# ---------------------------------------------------------------------------
# fundamental units: the oracle for unit_log_ratio

def _continued_fraction_period(Delta, P0, Q0):
    """Continued fraction of (P0 + sqrt(Delta)) / Q0.

    Returns (preperiod_digits, periodic_digits).  State iteration is the
    classical P, Q recursion on the discriminant Delta; exact because the
    floor is computed with isqrt.
    """
    r = math.isqrt(Delta)
    seen = {}
    digits = []
    P, Q = P0, Q0
    while (P, Q) not in seen:
        seen[(P, Q)] = len(digits)
        # floor((P + sqrt(Delta)) / Q) with Q possibly negative never
        # occurs here (Q stays positive for our starting data)
        a = (P + r) // Q
        digits.append(a)
        P = a * Q - P
        Q = (Delta - P * P) // Q
    start = seen[(P, Q)]
    return digits[:start], digits[start:]


def fundamental_unit(D):
    """Smallest unit > 1 of the maximal order of Q(sqrt(D)).

    Uses the purely periodic part of the continued fraction of the field
    generator: sqrt(D) when D = 2, 3 mod 4, (1 + sqrt(D))/2 when
    D = 1 mod 4 (working with discriminant Delta = 4D resp. D keeps the
    complete quotients inside the maximal order).  The unit is read off
    the convergent matrix of one full period.
    """
    _check_squarefree(D)
    if D % 4 == 1:
        Delta, P0, Q0 = D, 1, 2
    else:
        Delta, P0, Q0 = 4 * D, 0, 2

    pre, period = _continued_fraction_period(Delta, P0, Q0)

    # recover the (P, Q) state at the start of the periodic part
    P, Q = P0, Q0
    for a in pre:
        P = a * Q - P
        Q = (Delta - P * P) // Q

    # convergent matrix of one period: columns give q_{l-1}, q_{l-2}
    m00, m01, m10, m11 = 1, 0, 0, 1
    for a in period:
        m00, m01, m10, m11 = m00 * a + m01, m00, m10 * a + m11, m10
    q_last, q_prev = m10, m11

    # unit = q_{l-1} * omega + q_{l-2}, omega = (P + sqrt(Delta)) / Q
    # with sqrt(Delta) = sqrt(D) or 2*sqrt(D)
    surd_scale = Fraction(1) if D % 4 == 1 else Fraction(2)
    a_part = Fraction(q_last * P, Q) + q_prev
    b_part = Fraction(q_last, Q) * surd_scale
    unit = QuadraticUnit(D, a_part, b_part)
    assert unit.number.norm() in (1, -1)
    return unit


def unit_power_of(u, eps):
    """Exponent k >= 0 with u = eps**k, or None.

    u and eps are QuadraticNumbers > 1 in the same field; eps > 1 so the
    division loop strictly decreases and terminates as soon as the
    quotient drops to or below 1.  Linear in k: a test oracle only.
    """
    x = u
    k = 0
    while x > 1:
        x = x / eps
        k += 1
    return k if x == 1 else None


# ---------------------------------------------------------------------------
# decomposition-graph invariants

def a_total_by_curves(phi):
    """Same invariant summed curve by curve (consistency oracle)."""
    pos = Fraction(0)
    neg = Fraction(0)
    for c in phi.curves:
        if c.twist > 0:
            pos += 1 / c.twist
        else:
            neg += -1 / c.twist
    return (pos, neg)


def p_polynomial_eval(coeffs, x, y):
    """Evaluate the polynomial pair at rational (x, y).

    Exponents are rational, so only evaluation points where x**p, y**q
    stay rational are supported; (1, 1) is the case of interest.
    """
    if (x, y) != (1, 1):
        raise NotImplementedError("rational-exponent evaluation only at (1, 1)")
    total = (Fraction(0), Fraction(0))
    for (p, q), lam in coeffs.items():
        total = (total[0] + p * lam, total[1] + q * lam)
    return total


# ---------------------------------------------------------------------------
# periodic and reducible torus classes

def generate_same_cyclic_group(phi, psi):
    """Covering-equivalence test for periodic maps.

    Two periodic torus maps are covering equivalent iff they generate
    the same finite cyclic subgroup of GL(2, Z).
    """
    for f in (phi, psi):
        if classify_torus(f).kind != PERIODIC:
            raise ValueError("both maps must be periodic")

    def group(f):
        elems = set()
        p = f
        while p.matrix not in elems:
            elems.add(p.matrix)
            p = p * f
        return elems

    return group(phi) == group(psi)


def minimal_representatives(kind):
    """Minimal elements of the periodic / reducible torus classes.

    Periodic: the order-4 and order-6 rotations (square and hexagonal
    torus).  Reducible: the two displayed parabolic conjugacy classes.
    """
    if kind == PERIODIC:
        return [TorusAutomorphism(((0, -1), (1, 0))), TorusAutomorphism(((0, -1), (1, 1)))]
    if kind == REDUCIBLE:
        return [TorusAutomorphism(((1, 1), (0, 1))), TorusAutomorphism(((-1, 1), (0, -1)))]
    raise ValueError("no canonical minimal list for kind %r" % (kind,))


# ---------------------------------------------------------------------------
# the comparator's feasible set

def brute_force_feasible(x, y, mode):
    """Feasible scales of two invariant reports in ``mode``, by search.

    Tries as s every positive ratio of a nonzero coordinate of y's
    normalized A or Pi elements to one of x's, and in ``combined`` every
    log-ratio of a stretch factor of x to one of y; ``topological``
    tries s = 1 only.  An s is feasible when, under either flip of x's
    pairs, s scales x's Pi onto y's and also x's normalized A onto y's
    (``full``, ``topological``) or, in ``combined``, some bijection of
    the two sets of stretch-factor values has log-ratio s throughout.
    """

    def coordinates(r):
        return {c for pair in (r.a_normalized, *r.pi) for c in pair if c != 0}

    tries = {c2 / c1 for c1 in coordinates(x) for c2 in coordinates(y)}
    if mode == COMBINED:
        tries |= {u.log_ratio(v) for u in x.dilatations for v in y.dilatations} - {None}
    if mode == TOPOLOGICAL:
        tries = {Fraction(1)}

    values1 = list({u.value for u in x.dilatations})
    values2 = list({v.value for v in y.dilatations})

    def stretch_factors_match(s):
        return len(values1) == len(values2) and any(
            all(u.log_ratio(v) == s for u, v in zip(values1, order)) for order in permutations(values2)
        )

    def scaled(pair, s, flip):
        p, q = (pair[1], pair[0]) if flip else pair
        return (s * p, s * q)

    feasible = set()
    for s in tries:
        if s <= 0:
            continue
        for flip in (False, True):
            if {scaled(p, s, flip) for p in x.pi} != y.pi:
                continue
            if mode == COMBINED:
                ok = stretch_factors_match(s)
            else:
                ok = scaled(x.a_normalized, s, flip) == y.a_normalized
            if ok:
                feasible.add(s)
    return feasible
