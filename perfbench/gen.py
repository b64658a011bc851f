"""Seeded input generators for the benchmark.

Every generator takes a ``random.Random`` and returns JSON-ready input
documents together with what the output must show.  Expectations come from
the construction itself or from small oracles in this file (prime
factorisation for square classes, slot permutations for Im(N,2) groups), not
from the code under test.  The one exception is rejection sampling of period
matrices: a draw that the library's validator refuses (a degenerate base
change) is redrawn, as the test suite's generator does.
"""

from __future__ import annotations

from fractions import Fraction


def rat(x) -> str:
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


# --------------------------------------------------------------------------
# square classes by prime factorisation


def _factor(n: int) -> dict:
    n = abs(n)
    out = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def is_square(x) -> bool:
    """x in (Q^x)^2, decided by the parity of every prime exponent."""
    x = Fraction(x)
    if x <= 0:
        return False
    exps = _factor(x.numerator)
    for p, e in _factor(x.denominator).items():
        exps[p] = exps.get(p, 0) + e
    return all(e % 2 == 0 for e in exps.values())


def square_free(n: int) -> bool:
    return n > 1 and all(e == 1 for e in _factor(n).values())


def quartic_case(d, p, q) -> str:
    """B when dp = p^2 - q^2 d lies in d*(Q^x)^2, C when it is neither
    there nor a square (the latter would make the field biquadratic)."""
    d, p, q = Fraction(d), Fraction(p), Fraction(q)
    dp = p * p - q * q * d
    if dp <= 0:
        raise ValueError("dp must be positive")
    if is_square(dp / d):
        return "B"
    if is_square(dp):
        raise ValueError("dp is a square: biquadratic, not quartic")
    return "C"


# --------------------------------------------------------------------------
# field parameters of the four kinds

CLOSURE_DEGREE = {"deg2": 2, "A": 4, "B": 4, "C": 8}
DEGREE = {"deg2": 2, "A": 4, "B": 4, "C": 4}
# square-free integers that are sums of two squares, with one representation
_TWO_SQUARES = {2: (1, 1), 5: (1, 2), 10: (1, 3), 13: (2, 3), 17: (1, 4),
                26: (1, 5), 29: (2, 5), 37: (1, 6), 41: (4, 5)}


def _neg_rational(rng, top=12):
    return -Fraction(rng.randint(1, top), rng.choice((1, 1, 2, 3)))


def field_deg2(rng) -> dict:
    return {"p": rat(_neg_rational(rng))}


def field_a(rng) -> dict:
    while True:
        p1, p2 = _neg_rational(rng), _neg_rational(rng)
        if not is_square(p1 / p2):
            return {"p1": rat(p1), "p2": rat(p2)}


def field_b(rng) -> dict:
    """p^2 = d (q^2 + e^2) with q = a k, e = b k for d = a^2 + b^2, so
    dp = d (b k)^2; the oracle confirms the class."""
    d = rng.choice(sorted(_TWO_SQUARES))
    a, b = _TWO_SQUARES[d]
    if rng.random() < 0.5:
        a, b = b, a
    k = Fraction(rng.randint(1, 4), rng.choice((1, 2)))
    q = a * k * rng.choice((1, -1))
    p = -d * k
    if quartic_case(d, p, q) != "B":
        raise AssertionError("generated case-B parameters fail the oracle")
    return {"d": d, "p": rat(p), "q": rat(q)}


def field_c(rng) -> dict:
    while True:
        d = rng.randint(2, 30)
        if not square_free(d):
            continue
        p = -Fraction(rng.randint(1, 9))
        q = Fraction(rng.randint(1, 3) * rng.choice((1, -1)))
        if p * p - q * q * d <= 0:
            continue
        try:
            if quartic_case(d, p, q) == "C":
                return {"d": d, "p": rat(p), "q": rat(q)}
        except ValueError:
            continue


FIELD_GENERATORS = {"deg2": field_deg2, "A": field_a, "B": field_b, "C": field_c}


# --------------------------------------------------------------------------
# period matrices, built backwards from the standard form

# the fixed fields of the split corpus, one per case
SPLIT_FIELDS = {
    "deg2": {"p": "-1"},
    "A": {"p1": "-1", "p2": "-3"},
    "B": {"d": 5, "p": "-5/2", "q": "-1/2"},
    "C": {"d": 2, "p": "-3", "q": "1"},
}
# one class per (case, n); the round visits each once
SPLIT_CLASSES = (("deg2", 2), ("deg2", 3), ("deg2", 4), ("A", 2), ("A", 3),
                 ("B", 2), ("B", 4), ("C", 2), ("C", 4))
# positions of the assembly monomials 1, m2, m3, m4 in the closure basis
_ASSEMBLY = {"deg2": (0, 1), "A": (0, 1, 2, 3), "B": (0, 1, 2, 3),
             "C": (0, 1, 4, 6)}


class SplitMaker:
    """Draws valid weak-CM period matrices of the split corpus.

    Start from the standard coordinate matrix of the target splitting,
    apply a random invertible rational base change T of H^1, and renormalise
    the coframe block to the identity: tau = A^-1 B for (A | B) = std . T.
    """

    def __init__(self):
        from weakcm import cmfield

        self.fields = {c: cmfield.classify(doc) for c, doc in SPLIT_FIELDS.items()}

    def draw(self, rng, case, n):
        from weakcm import linalg, tausplit

        field = self.fields[case]
        t = field.tower
        p_split = rng.randint(1, n - 1) if case == "A" else None
        std = tausplit.standard_form(field, n, p_split)
        coords = _ASSEMBLY[case]
        while True:
            T = [[Fraction(rng.randint(-3, 3)) for _ in range(2 * n)]
                 for _ in range(2 * n)]
            if not linalg.mat_det(T, Fraction(1)):
                continue
            M = [[_dot(row, T, j, t) for j in range(2 * n)] for row in std]
            A = [row[:n] for row in M]
            if not linalg.mat_det(A, t.one()):
                continue
            tau = linalg.mat_mul(linalg.mat_inverse(A, t.one()), [row[n:] for row in M])
            for row in tau:
                for x in row:
                    if any(c for k, c in enumerate(x.coeffs) if k not in coords):
                        raise AssertionError(
                            "generated tau left the distinguished embedding")
            Bs = [[[x.coeffs[k] for x in row] for row in tau] for k in coords]
            try:
                tausplit.validate_weak_cm(tausplit.period_matrix(field, *Bs))
            except Exception:
                continue  # degenerate draw, e.g. entries in a subfield
            doc = {"n": n, "field": SPLIT_FIELDS[case],
                   "B": [[[rat(c) for c in row] for row in B] for B in Bs]}
            target = [[x.serialize() for x in row] for row in std]
            return doc, {"kind": "split", "standard_form": target,
                         "p_split": p_split}


def _dot(row, T, j, t):
    acc = t.zero()
    for k, x in enumerate(row):
        if T[k][j]:
            acc = acc + x * T[k][j]
    return acc


def reject_odd_quartic(rng):
    """A case-B/C matrix of odd dimension: no weak-CM variety exists."""
    case = rng.choice(("B", "C"))
    n = rng.choice((1, 3))
    Bs = [[[str(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)]
          for _ in range(4)]
    return ({"n": n, "field": SPLIT_FIELDS[case], "B": Bs},
            {"kind": "reject", "condition": "odd-dimension-exclusion"})


def reject_subfield(rng):
    """A case-A matrix with entries in Q(sqrt(p1)) only: B3 = B4 = 0."""
    n = rng.choice((2, 3))
    zero = [["0"] * n for _ in range(n)]
    rand = [[[str(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)]
            for _ in range(2)]
    return ({"n": n, "field": SPLIT_FIELDS["A"], "B": rand + [zero, zero]},
            {"kind": "reject", "condition": "period-matrix:proper-subfield"})


# --------------------------------------------------------------------------
# Im(N,2) as permutations of the 2N signed slots (i, bar)


def slot_perm(bits, perm):
    """The slot action g(i, s) = (perm[i], s xor bits[perm[i]])."""
    n = len(perm)
    return tuple(2 * perm[i] + (s ^ bits[perm[i]]) for i in range(n) for s in (0, 1))


def perm_to_element(sp):
    n = len(sp) // 2
    perm = [sp[2 * i] // 2 for i in range(n)]
    bits = [0] * n
    for i in range(n):
        bits[perm[i]] = sp[2 * i] % 2
    return {"bits": bits, "perm": perm}


def closure(gens):
    ident = tuple(range(len(gens[0])))
    group = {ident}
    work = [ident]
    while work:
        h = work.pop()
        for g in gens:
            c = tuple(g[h[x]] for x in range(len(h)))
            if c not in group:
                group.add(c)
                work.append(c)
    return group


def phi_orbit(group, phi_slots):
    return {frozenset(g[s] for s in phi_slots) for g in group}


def cm_type_n3(rng):
    """A seeded subgroup of Im(3,2) containing rho, with a random CM type.

    Reflex degree and level Hodge numbers are the orbit of Phi and its
    overlaps with Phi.  Draws with reflex degree 8 are redrawn: that class
    (which builds Im(4,2)) is covered by the n' = 4 preset op each round.
    """
    rho = slot_perm((1, 1, 1), (0, 1, 2))
    while True:
        gens = [rho] + [
            slot_perm(tuple(rng.randint(0, 1) for _ in range(3)),
                      tuple(rng.sample(range(3), 3)))
            for _ in range(rng.randint(1, 2))
        ]
        group = closure(gens)
        signs = [rng.randint(0, 1) for _ in range(3)]
        phi = {2 * i + s for i, s in enumerate(signs)}
        orbit = phi_orbit(group, phi)
        if len(orbit) == 8:
            continue
        hodge = {}
        for img in orbit:
            p = len(img & phi)
            key = f"{p},{3 - p}"
            hodge[key] = hodge.get(key, 0) + 1
        elements = sorted((perm_to_element(g) for g in group),
                          key=lambda e: (e["bits"], e["perm"]))
        doc = {"n": 3, "elements": elements,
               "phi": [[i, s] for i, s in enumerate(signs)]}
        return doc, {"kind": "cm-reflex", "degree": len(orbit), "hodge": hodge}


# reflex degree 2n' of the 13 weight-1 presets (the published table) and
# the class tags the table pins
PRESET_NPRIME = {
    "Z3-1-triv": 1, "S3-1-triv": 1, "A-iso": 1, "sum-iso3": 1,
    "A-noniso": 2, "sum-iso2": 2,
    "Z3-1-nontriv": 3, "S3-1-nontriv": 3,
    "B": 4, "C": 4, "sum-distinct": 4, "Z3-3-triv": 4, "S3-3-triv": 4,
}
PRESET_CLASS = {
    "A-noniso": "A", "sum-iso2": "A",
    "Z3-3-triv": "(A4,1,non-triv.)", "S3-3-triv": "(S4,1,non-triv.)",
    "Z3-1-nontriv": "(Z3,1,non-triv.)", "S3-1-nontriv": "(S3,1,non-triv.)",
}
PRESETS_NPRIME4 = tuple(sorted(k for k, v in PRESET_NPRIME.items() if v == 4))


def preset_nprime4(rng):
    name = rng.choice(PRESETS_NPRIME4)
    return {"preset": name}, {"kind": "preset", "name": name}


def k3t2_contained(rng):
    """Quadratic transcendental field containing the elliptic field; the
    character is the nontrivial one on Im(1,2)."""
    doc = {
        "transcendental": {"field": field_deg2(rng)},
        "situation": "contained",
        "character": [{"element": {"bits": [0], "perm": [0]}, "value": 0},
                      {"element": {"bits": [1], "perm": [0]}, "value": 1}],
    }
    return doc, {"kind": "k3t2", "situation": "contained"}


def structure_doc(rng, kind):
    return {"type": kind, "group": {"preset": rng.choice(sorted(PRESET_NPRIME))}}


def product_doc(rng):
    """A K3- or CY3-type structure on a preset group (three pairs, one top
    form) tensored with an elliptic curve: 6 x 2 slots, weight + 1."""
    kind = rng.choice(("k3", "cy3"))
    weight = {"k3": 2, "cy3": 3}[kind]
    doc = {"factor1": structure_doc(rng, kind), "factor2": {"type": "elliptic"}}
    return doc, {"kind": "product", "weight": weight + 1, "dim": 12}


def weil_griffiths_doc(rng):
    return ({"structure": structure_doc(rng, "cy3")}, {"kind": "weil-griffiths"})
