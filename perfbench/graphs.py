"""Seeded input documents and the answer keys that check them.

Everything here works on plain JSON documents in the library's
canonical format and never calls the library, so an answer key cannot
inherit a defect of the code it checks.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction


def rat(x):
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else "%d/%d" % (x.numerator, x.denominator)


def pair(p):
    return [rat(p[0]), rat(p[1])]


def canonical(doc):
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


# ---------------------------------------------------------------------------
# decomposition graphs

def random_graph(rng, n_pieces, n_curves, max_part=12, twist=None):
    """A structurally valid D-type graph document.

    With ``n_pieces``/``n_curves`` drawn from (1..4, 1..5) and the same
    call order this is the criterion-8 generator of the test suite.
    ``twist`` overrides the random twist (used for unit-twist graphs).
    """
    slots = [[] for _ in range(n_pieces)]
    curves = []
    for ci in range(n_curves):
        ends = []
        for side in range(2):
            pi = rng.randrange(n_pieces)
            slot = "s%d_%d" % (ci, side)
            slots[pi].append(slot)
            ends.append(["p%d" % pi, slot])
        if twist is None:
            num = rng.randint(1, max_part) * rng.choice((1, -1))
            t = Fraction(num, rng.randint(1, max_part))
        else:
            t = twist * rng.choice((1, -1))
        curves.append({"id": "c%d" % ci, "end_a": ends[0], "end_b": ends[1], "twist": rat(t)})
    pieces = []
    for pi in range(n_pieces):
        genus = rng.randint(1, 3)
        free = rng.randint(0, 2)
        if not slots[pi] and free == 0 and genus == 1:
            free = 1  # keep chi negative
        pieces.append(
            {
                "id": "p%d" % pi,
                "genus": genus,
                "boundary": len(slots[pi]) + free,
                "slots": slots[pi],
                "free_boundary": free,
                "dilatation": None,
            }
        )
    return {"type": "reducible_map", "pieces": pieces, "curves": curves}


def criterion8_graph(rng):
    return random_graph(rng, rng.randint(1, 4), rng.randint(1, 5))


ANCHOR_TWISTS = (5, 7, 8, 9, 11)


def anchor_graph(rng):
    """A criterion-8 layout with five curves of twists +-5, 7, 8, 9, 11.

    Only layouts whose genus parity forces the doubled degree-55440 cover
    are kept (about half), so every anchor takes the normalization retry
    and lifts to 37138 curves, and needs about the same memory.
    """
    while True:
        g = random_graph(rng, rng.randint(1, 4), len(ANCHOR_TWISTS))
        for c, d in zip(g["curves"], rng.sample(ANCHOR_TWISTS, len(ANCHOR_TWISTS))):
            c["twist"] = rat(d * rng.choice((1, -1)))
        if normalization(g)[1] == 2 * math.lcm(*ANCHOR_TWISTS):
            return g


def twists(g):
    return [Fraction(c["twist"]) for c in g["curves"]]


def power_doc(g, k):
    return {**g, "curves": [{**c, "twist": rat(Fraction(c["twist"]) * k)} for c in g["curves"]]}


def normalization(g):
    """(power m, cover degree L, lifted curve count, free-circle sheets)
    of the unit-twist normalization, from the twists alone.

    m clears the twist denominators; L is the lcm of the resulting
    integer twists, doubled when a covered piece would need a genus of
    the wrong parity.  Each curve of integer twist d lifts to L/d curves.
    """
    m = math.lcm(*[t.denominator for t in twists(g)])
    d = {c["id"]: abs(Fraction(c["twist"]) * m).numerator for c in g["curves"]}
    at = {tuple(end): c["id"] for c in g["curves"] for end in (c["end_a"], c["end_b"])}
    L = math.lcm(*d.values())

    def parity_ok(L):
        for p in g["pieces"]:
            chi = 2 - 2 * p["genus"] - p["boundary"]
            boundary = sum(L // d[at[(p["id"], s)]] for s in p["slots"]) + p["free_boundary"] * L
            twice_genus = 2 - L * chi - boundary
            if twice_genus < 0 or twice_genus % 2:
                return False
        return True

    if not parity_ok(L):
        L *= 2
    curves = sum(L // v for v in d.values())
    free = L * sum(p["free_boundary"] for p in g["pieces"])
    return m, L, curves, free


def invariants(g):
    """The invariant report document (A, Pi, P, chi) of a D-type graph."""
    twist = {c["id"]: Fraction(c["twist"]) for c in g["curves"]}
    at = {tuple(end): c["id"] for c in g["curves"] for end in (c["end_a"], c["end_b"])}
    chi_f = 0
    total = [Fraction(0), Fraction(0)]
    normalized = []
    for p in g["pieces"]:
        chi = 2 - 2 * p["genus"] - p["boundary"]
        chi_f += chi
        pos = neg = Fraction(0)
        for s in p["slots"]:
            t = twist[at[(p["id"], s)]]
            if t > 0:
                pos += 1 / t
            else:
                neg -= 1 / t
        total[0] += pos
        total[1] += neg
        normalized.append(((pos / -chi, neg / -chi), chi))
    a = (total[0] / 2, total[1] / 2)
    weights = {}
    for key, chi in normalized:
        weights[key] = weights.get(key, Fraction(0)) + Fraction(chi, chi_f)
    return {
        "a": pair(a),
        "a_normalized": pair((a[0] / -chi_f, a[1] / -chi_f)),
        "chi": chi_f,
        "dilatations": [],
        "p": [{"coefficient": rat(w), "exponent": pair(e)} for e, w in sorted(weights.items()) if w],
        "pi": [pair(x) for x in sorted({key for key, _ in normalized})],
    }


def sheet_cover(g, L):
    """Covering document: every piece lifts to one degree-L component
    whose boundary circles all lift to L circles of local degree 1, so
    every curve lifts to L curves of the same twist."""
    return {
        "type": "covering_data",
        "pieces": [
            {
                "id": p["id"],
                "components": [{"degree": L, "slots": [[s, [1] * L] for s in p["slots"]], "free": None}],
            }
            for p in g["pieces"]
        ],
    }


# ---------------------------------------------------------------------------
# the bounded three-piece chain of acceptance criterion 2

def bounded_chain_docs(n):
    shear = [[-1, -1], [0, 1]]
    manifold = {
        "type": "graph_manifold",
        "pieces": [
            {"id": "S1", "genus": 1, "boundary_tori": ["f"]},
            {"id": "S2", "genus": 1, "boundary_tori": ["f", "g", "e2"]},
            {"id": "S3", "genus": 1, "boundary_tori": ["g", "e3"]},
        ],
        "gluings": [
            {"id": "f", "side_a": ["S1", "f"], "side_b": ["S2", "f"], "matrix": shear},
            {"id": "g", "side_a": ["S2", "g"], "side_b": ["S3", "g"], "matrix": shear},
        ],
    }
    plan = {
        "type": "refiber_plan",
        "pieces": [
            {"id": "S1", "n": n, "arcs": []},
            {"id": "S2", "n": n, "arcs": [["e2", "g"]]},
            {"id": "S3", "n": n + 1, "arcs": [["g", "e3"]]},
        ],
    }
    return manifold, plan


def bounded_chain_pi(n):
    """Closed form of Pi for the n-th bounded-chain refibering."""
    return [pair(p) for p in sorted({(Fraction(n), 0), (Fraction(2 * n + 1, 3), 0), (Fraction(n, 2), 0)})]


# ---------------------------------------------------------------------------
# torus maps

def mat_mul(m, n):
    return (
        (m[0][0] * n[0][0] + m[0][1] * n[1][0], m[0][0] * n[0][1] + m[0][1] * n[1][1]),
        (m[1][0] * n[0][0] + m[1][1] * n[1][0], m[1][0] * n[0][1] + m[1][1] * n[1][1]),
    )


def mat_pow(m, k):
    result = ((1, 0), (0, 1))
    for _ in range(k):
        result = mat_mul(result, m)
    return result


def random_sl2(rng, steps=3):
    """A product of elementary matrices, so det = 1 by construction."""
    p = ((1, 0), (0, 1))
    for _ in range(steps):
        e = rng.choice((1, -1)) * rng.randint(1, 2)
        p = mat_mul(p, ((1, e), (0, 1)) if rng.random() < 0.5 else ((1, 0), (e, 1)))
    return p


def conjugate(m, p):
    (a, b), (c, d) = p
    return mat_mul(mat_mul(p, m), ((d, -b), (-c, a)))


def det(m):
    return m[0][0] * m[1][1] - m[0][1] * m[1][0]


def nt_kind(m):
    t, dt = m[0][0] + m[1][1], det(m)
    if m in (((1, 0), (0, 1)), ((-1, 0), (0, -1))):
        return "periodic"
    if dt == 1:
        return "periodic" if abs(t) < 2 else "reducible" if abs(t) == 2 else "anosov"
    return "periodic" if t == 0 else "anosov"


def disc(m):
    t = m[0][0] + m[1][1]
    return t * t - 4 * det(m)


def same_field(m1, m2):
    """Anosov stretch factors share a quadratic field iff the product
    of the two discriminants is a perfect square."""
    x = disc(m1) * disc(m2)
    return math.isqrt(x) ** 2 == x


def log_ratio_holds(m1, m2, s):
    """lambda1**q == lambda2**p for s = p/q, via traces of squared powers
    (x + 1/x is injective on x > 1 and the squares have det 1)."""
    s = Fraction(s)
    t1 = mat_pow(mat_mul(m1, m1), s.denominator)
    t2 = mat_pow(mat_mul(m2, m2), s.numerator)
    return abs(t1[0][0] + t1[1][1]) == abs(t2[0][0] + t2[1][1])


def fibonacci(n):
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def cat_power_dilatation(k):
    """phi**(2k) = (L_2k + F_2k sqrt 5) / 2 for the cat map ((2,1),(1,1))."""
    f = fibonacci(2 * k)
    lucas = fibonacci(2 * k - 1) + fibonacci(2 * k + 1)
    return {"D": 5, "a": rat(Fraction(lucas, 2)), "b": rat(Fraction(f, 2))}


def random_gl2(rng, bound=3):
    while True:
        m = tuple(tuple(rng.randint(-bound, bound) for _ in range(2)) for _ in range(2))
        if det(m) in (1, -1):
            return m


def random_anosov(rng, bound=4):
    while True:
        m = random_gl2(rng, bound)
        if nt_kind(m) == "anosov":
            return m


def spectrum_form(m):
    """Integer form Q with measure product |Q(v)| / sqrt(disc): it vanishes
    exactly on the eigendirections c x**2 + (d - a) x y - b y**2 = 0."""
    (a, b), (c, d) = m
    return lambda v: c * v[0] * v[0] + (d - a) * v[0] * v[1] - b * v[1] * v[1]


def spectrum_key(m, origin, point, radius):
    """Distinct |Q(v)| over the translate box, sorted."""
    q = spectrum_form(m)
    offset = (point[0] - origin[0], point[1] - origin[1])
    values = set()
    for base in ((0, 0), offset):
        for i in range(-radius, radius + 1):
            for j in range(-radius, radius + 1):
                v = (base[0] + i, base[1] + j)
                if v != (0, 0):
                    values.add(abs(q(v)))
    return sorted(values)
