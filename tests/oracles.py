"""Independent oracles the library's fast paths are tested against.

None of these is on a decision path of the library:

* ``fundamental_unit`` (continued fractions) and ``unit_power_of``
  (repeated division) -- the oracle for ``quadratic.unit_log_ratio``;
* ``a_total_by_curves`` and ``p_polynomial_eval`` -- the pair invariant
  summed curve by curve, and the P polynomial evaluated at (1, 1);
* ``matrix_power`` -- integer matrix powers by repeated products, the
  oracle for ``TorusAutomorphism.__pow__``;
* ``generate_same_cyclic_group`` and ``minimal_representatives`` --
  covering equivalence of periodic torus maps, and the minimal
  periodic / reducible torus classes;
* ``brute_force_feasible`` -- the comparator's feasible set by
  exhaustive search over ratios; ``match_flip_scale`` is not an oracle
  but a shorthand for the library's feasible set in the full mode;
* ``euler_characteristic`` and ``surfaces_commensurable`` -- chi from
  genus and boundary count, and the boundary parity test for a common
  cover of two surfaces;
* ``negate_twists`` -- orientation reversal of a graph, every twist
  negated;
* ``validate_by_scan`` -- the structural errors of a graph, found
  curve end by curve end;
* ``lift_cover_by_scan`` and ``normalize_by_retry`` -- a cover lifted
  slot by slot with explicit all-ones free circles, and the unit-twist
  normalization that lifts at degree L and, on failure, again at 2L;
* ``spectrum_keys_by_translates`` -- a spectrum query's integer keys
  evaluated translate by translate, the oracle for the row recurrences
  of ``spectrum._translates``;
* ``reducible_doc_by_dicts`` and ``plain_document`` -- a graph's
  document built as one dict and two lists per curve, and a result
  with its rationals written as strings and its tuples as lists, which
  ``json.dumps`` and ``text_lines_by_walk`` turn into the expected
  output of ``serialize.canonical_dumps`` and ``serialize.text_dumps``;
* ``text_lines_by_walk`` -- the text form of a plain document, line by
  line, by a generator of its own.
"""

import math
from dataclasses import replace
from fractions import Fraction
from itertools import permutations

from fibercomm.comparator import COMBINED, FULL, TOPOLOGICAL, _feasible
from fibercomm.cover import ComponentCover, CoveringData, NormalizationCertificate, _validate_cover
from fibercomm.decomposition import Piece, ReducibleMap, ReducingCurve, power, validate, validate_or_raise
from fibercomm.quadratic import QuadraticUnit, _check_squarefree
from fibercomm.spectrum import _measure_form
from fibercomm.surfaces import Surface
from fibercomm.torus import PERIODIC, REDUCIBLE, TorusAutomorphism, _det, _trace, _trace_field, classify_torus


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

    u and eps are QuadraticNumbers >= 1 in the same field; eps > 1 so the
    powers of eps strictly increase, and the loop stops at the first
    one not below u.  Linear in k: a test oracle only.
    """
    x = eps ** 0
    k = 0
    while x < u:
        x = x * eps
        k += 1
    return k if x == u else None


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
# torus maps

def matrix_power(m, k):
    """m**k for a 2x2 integer matrix, as k products by m (k >= 0)."""
    (a, b), (c, d) = (1, 0), (0, 1)
    (p, q), (r, s) = m
    for _ in range(k):
        a, b, c, d = a * p + b * r, a * q + b * s, c * p + d * r, c * q + d * s
    return ((a, b), (c, d))


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


def match_flip_scale(x, y):
    """Feasible scalars s of the full test: s*flip(A, Pi of x) = (A, Pi of y)."""
    return _feasible(x, y, FULL)


# ---------------------------------------------------------------------------
# surfaces

def euler_characteristic(surface):
    """2 - 2g - n, from the genus and boundary count."""
    return 2 - 2 * surface.genus - surface.boundary_components


def surfaces_commensurable(s1, s2):
    """Whether two hyperbolic-type surfaces admit a common finite cover.

    Both inputs must have chi < 0; two such surfaces have a common cover
    exactly when both are closed or both have boundary.
    """
    for s in (s1, s2):
        if s.chi >= 0:
            raise ValueError("%r has chi = %d >= 0" % (s, s.chi))
    return (s1.boundary_components == 0) == (s2.boundary_components == 0)


# ---------------------------------------------------------------------------
# decomposition graphs, covers and the unit-twist normalization

def negate_twists(phi):
    """Orientation reversal at the invariant level: all twists flip sign."""
    return replace(phi, curves=tuple(replace(c, twist=-c.twist) for c in phi.curves))


def validate_by_scan(phi):
    """``decomposition.validate`` by a scan: the same errors in the same
    order, counting slot use end by end."""
    errors = []
    ids = [p.id for p in phi.pieces]
    if len(set(ids)) != len(ids):
        errors.append("duplicate piece ids")
    curve_ids = [c.id for c in phi.curves]
    if any(curve_ids.count(cid) > 1 for cid in curve_ids):
        errors.append("duplicate curve ids")
    if not phi.curves:
        errors.append("reducing system is empty")
    slot_use = {}
    for p in phi.pieces:
        if p.surface.chi >= 0:
            errors.append("piece %s has chi = %d >= 0" % (p.id, p.surface.chi))
        if p.surface.boundary_components != len(p.slots) + p.free_boundary:
            errors.append(
                "piece %s: boundary count %d != slots %d + free %d"
                % (p.id, p.surface.boundary_components, len(p.slots), p.free_boundary)
            )
        for i, s in enumerate(p.slots):
            if p.slots.index(s) == i and p.slots.count(s) > 1:
                errors.append("piece %s repeats slot %s" % (p.id, s))
            slot_use[(p.id, s)] = 0
    by_id = {p.id: p for p in phi.pieces}
    for c in phi.curves:
        if c.twist == 0:
            errors.append("curve %s has zero twist" % c.id)
        for pid, slot in c.ends:
            if pid not in by_id:
                errors.append("curve %s references missing piece %s" % (c.id, pid))
            elif (pid, slot) not in slot_use:
                errors.append("curve %s references missing slot %s.%s" % (c.id, pid, slot))
            else:
                slot_use[(pid, slot)] += 1
    for (pid, slot), n in slot_use.items():
        if n != 1:
            errors.append("slot %s.%s used by %d curve ends (expected 1)" % (pid, slot, n))
    return errors


def lift_cover_by_scan(phi, c):
    """The graph ``cover.lift_cover`` builds, lifted component by component.

    Free circles lift by explicit all-ones partitions when the cover
    leaves them implicit; each component's surface is found as its piece
    is lifted; every preimage curve goes through the checked
    ``ReducingCurve`` constructor with a twist divided for it alone.
    """
    validate_or_raise(phi)
    errors = _validate_cover(phi, c)
    if errors:
        raise ValueError("inadmissible cover: " + "; ".join(errors))
    pieces = []
    lifted_ends = {}  # (pid, slot) -> [(d, lifted piece id, lifted slot), ...]
    for p in phi.pieces:
        for j, comp in enumerate(c.of(p.id)):
            new_id = "%s~%d" % (p.id, j)
            frees = comp.free_partitions
            if frees is None:
                frees = [(1,) * comp.degree for _ in range(p.free_boundary)]
            chi = comp.degree * p.surface.chi
            boundary = sum(len(comp.partition(s)) for s in p.slots) + sum(len(f) for f in frees)
            twice_genus = 2 - chi - boundary
            if twice_genus < 0 or twice_genus % 2 != 0:
                raise ValueError(
                    "piece %s: no surface with chi = %d and %d boundary circles" % (p.id, chi, boundary)
                )
            slots = []
            for slot in p.slots:
                for i, d in enumerate(comp.partition(slot)):
                    new_slot = "%s~%d" % (slot, i)
                    slots.append(new_slot)
                    lifted_ends.setdefault((p.id, slot), []).append((d, new_id, new_slot))
            surface = Surface(twice_genus // 2, boundary)
            pieces.append(Piece(new_id, surface, tuple(slots), boundary - len(slots), p.dilatation))
    curves = []
    for curve in phi.curves:
        side_a = sorted(lifted_ends[curve.end_a])
        side_b = sorted(lifted_ends[curve.end_b])
        for i, ((d, pa, sa), (d2, pb, sb)) in enumerate(zip(side_a, side_b)):
            assert d == d2
            curves.append(ReducingCurve("%s~%d" % (curve.id, i), (pa, sa), (pb, sb), curve.twist / d))
    lifted = ReducibleMap(tuple(pieces), tuple(curves))
    assert validate(lifted) == []
    return lifted


def normalize_by_retry(phi):
    """The certificate and graph of ``cover.normalize_unit_twists``,
    found by lifting at degree L and, when that raises, at 2L.

    L is the lcm of the integer twists of the power that clears every
    twist denominator; each slot facing a twist of absolute value d is
    cut into parts of size d.
    """
    validate_or_raise(phi)
    for p in phi.pieces:
        if not p.periodic:
            raise ValueError("piece %s is not periodic; normalization needs a D-type map" % p.id)
    m = math.lcm(*[c.twist.denominator for c in phi.curves])
    phim = power(phi, m) if m > 1 else phi
    d_at = {end: abs(int(c.twist)) for c in phim.curves for end in c.ends}
    L = math.lcm(*d_at.values())

    def build(L):
        def parts(p):
            return tuple((s, (d_at[(p.id, s)],) * (L // d_at[(p.id, s)])) for s in p.slots)

        return CoveringData(tuple((p.id, (ComponentCover(L, parts(p)),)) for p in phim.pieces))

    cover = build(L)
    try:
        normalized = lift_cover_by_scan(phim, cover)
    except ValueError:
        cover = build(2 * L)
        normalized = lift_cover_by_scan(phim, cover)
    return normalized, NormalizationCertificate(m, cover)


# ---------------------------------------------------------------------------
# graph documents: the oracle for the graph writers

def _rat(x):
    """A rational as its document string, "p/q" or "p"."""
    return "%d/%d" % (x.numerator, x.denominator) if x.denominator != 1 else "%d" % x.numerator


def _label(label):
    """A stretch-factor label as its document dict."""
    if label is None:
        return None
    if label.exact:
        d = {"kind": "exact", "unit": {"D": label.unit.D, "a": _rat(label.unit.a), "b": _rat(label.unit.b)}}
    else:
        d = {"kind": "symbol", "name": label.name, "exponent": _rat(label.exponent)}
    if label.rotation is not None:
        d["rotation"] = _rat(label.rotation)
    return d


def reducible_doc_by_dicts(phi):
    """The document of graph ``phi``, one dict and two lists per curve."""
    return {
        "type": "reducible_map",
        "pieces": [
            {
                "id": p.id,
                "genus": p.surface.genus,
                "boundary": p.surface.boundary_components,
                "slots": list(p.slots),
                "free_boundary": p.free_boundary,
                "dilatation": _label(p.dilatation),
            }
            for p in phi.pieces
        ],
        "curves": [
            {
                "id": c.id,
                "end_a": list(c.end_a),
                "end_b": list(c.end_b),
                "twist": _rat(c.twist),
            }
            for c in phi.curves
        ],
    }


def plain_document(doc):
    """``doc`` as plain JSON values: every graph replaced by
    ``reducible_doc_by_dicts``, every rational by its string and every
    tuple by a list."""
    if isinstance(doc, ReducibleMap):
        return reducible_doc_by_dicts(doc)
    if isinstance(doc, Fraction):
        return _rat(doc)
    if isinstance(doc, dict):
        return {k: plain_document(v) for k, v in doc.items()}
    if isinstance(doc, (list, tuple)):
        return [plain_document(v) for v in doc]
    return doc


def text_lines_by_walk(doc, prefix):
    """The lines of the text form of the plain document ``doc``, each
    line starting with ``prefix``: the oracle for ``serialize.text_dumps``."""
    if isinstance(doc, (dict, list, tuple)):
        items = [("%s:" % k, doc[k]) for k in sorted(doc)] if isinstance(doc, dict) else [("-", v) for v in doc]
        for head, v in items:
            if isinstance(v, (dict, list, tuple)):
                yield prefix + head
                yield from text_lines_by_walk(v, prefix + "  ")
            else:
                yield "%s%s %s" % (prefix, head, v)
    else:
        yield "%s%s" % (prefix, doc)


# ---------------------------------------------------------------------------
# spectrum keys one translate at a time: the oracle for the row recurrences

def spectrum_keys_by_translates(q):
    """Integer keys of the enumerated translates, in enumeration order.

    Returns (D, scale, L, keyed): keyed lists (k, w) for each translate
    v = w / L but 0, the self-pairings first, then the O-to-P translates,
    i outer, j inner; its measure product is k * sqrt(D) / scale, with
    k = |f(w)| evaluated for each w alone.
    """
    f = _measure_form(q.matrix)
    D, r = _trace_field(_trace(q.matrix), _det(q.matrix))
    L = math.lcm(*(x.denominator for x in q.origin + q.point))
    offset = (q.point[0] - q.origin[0], q.point[1] - q.origin[1])
    R = q.radius
    keyed = []
    for bx, by in ((0, 0), (int(offset[0] * L), int(offset[1] * L))):
        for i in range(-R, R + 1):
            for j in range(-R, R + 1):
                w = (bx + L * i, by + L * j)
                if w != (0, 0):
                    keyed.append((abs(f(w)), w))
    return D, L * L * r * abs(q.matrix[1][0]) * D, L, keyed
