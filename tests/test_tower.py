"""Tower construction, exact field arithmetic, and Galois actions."""

import math
import random
from fractions import Fraction

import pytest

from util import (
    fraction_mul_table,
    fraction_params,
    is_identity,
    is_multiplicative,
    is_rational_square_by_fraction,
    is_square_free_by_loop,
    min_poly_degree,
    rational_sqrt_by_fraction,
    rational_value,
    square_class_by_fraction,
    square_class_oracle,
    squarefree_part_by_loop,
    subspace_coordinates_by_solve,
)
from weakcm import linalg, tower as tw
from weakcm.errors import (
    DegenerateBiquadratic,
    DivisionByZero,
    FactorizationInconclusive,
    NotSquareFree,
    RationalTooLarge,
    SingularMatrix,
    SquareClassMismatch,
    TowerMismatch,
    WrongSign,
)


def all_towers():
    return [
        tw.quadratic_tower(-1),
        tw.biquadratic_tower(-1, -3),
        tw.cyclic_quartic_tower(5, Fraction(-5, 2), Fraction(-1, 2)),
        tw.quartic_closure_tower(2, -3, 1),
    ]


# ---------------------------------------------------------------- rationals


def test_rational_serialization():
    assert tw.format_rational(Fraction(3)) == "3"
    assert tw.format_rational(Fraction(-5, 2)) == "-5/2"
    assert tw.parse_rational("-5/2") == Fraction(-5, 2)
    assert tw.parse_rational("7") == 7


@pytest.mark.parametrize("text", [
    "1e4300", "-1e5001", "1e100000000", "0e100000000", "2.5e" + "9" * 30,
    "1e-4300", "1" * 4301, "-3/" + "7" * 4301, "0." + "0" * 4300 + "1",
    "1_0e4299",
], ids=lambda text: text if len(text) < 40 else f"{text[:12]}...({len(text)} chars)")
def test_parse_rational_refuses_literals_past_the_digit_limit(text):
    # refused before any expansion is computed: 10**10**8 would take minutes
    with pytest.raises(RationalTooLarge):
        tw.parse_rational(text)


@pytest.mark.parametrize("text, want", [
    ("1e4299", Fraction(10 ** 4299)),
    ("-1e-4299", Fraction(-1, 10 ** 4299)),
    ("1" * 4300, Fraction(int("1" * 4300))),
    ("2.5e3", Fraction(2500)),
    ("-0.125", Fraction(-1, 8)),
    (" 3/6 ", Fraction(1, 2)),
], ids=["1e4299", "-1e-4299", "4300-ones", "2.5e3", "-0.125", "3/6"])
def test_parse_rational_accepts_literals_up_to_the_digit_limit(text, want):
    assert tw.parse_rational(text) == want


def test_plain_literals_match_fraction():
    # plain "num/den" literals skip Fraction's parser; Fraction is the oracle
    rng = random.Random(61)
    texts = [" 3/6 ", "-0/5", "007", "+12/008", "1" * 4300, "-" + "9" * 4300,
             "9" * 4300 + "/" + "7" * 4300]
    for _ in range(300):
        digits = "".join(rng.choice("0123456789") for _ in range(rng.randint(1, 40)))
        text = rng.choice(("", "+", "-")) + digits
        if rng.random() < 0.6:
            text += "/" + "0" * rng.randint(0, 2) + str(rng.randint(1, 10 ** 30))
        texts.append(text)
    for text in texts:
        got = tw.parse_rational(text)
        assert type(got) is Fraction and got == Fraction(text)
    for text in ("3/0", "-7/000"):
        with pytest.raises(ZeroDivisionError, match=f"zero denominator in '{text}'"):
            tw.parse_rational(text)
    for text in ("1" * 4301, "-" + "9" * 4301, "1/" + "7" * 4301):
        with pytest.raises(RationalTooLarge):
            tw.parse_rational(text)


@pytest.mark.parametrize("text", ["1_000", "1_0/3", "-2_5", "3 / 4", "3/ 4", "3 /4",
                                  "1_0.5", "1 e3"])
def test_parse_rational_has_one_grammar_on_every_python(text):
    # Fraction accepts "_" from Python 3.11 and spaces around "/" from 3.12;
    # parse_rational keeps 3.10's grammar, the supported floor
    with pytest.raises(ValueError, match="Invalid literal for Fraction"):
        tw.parse_rational(text)


@pytest.mark.parametrize(
    "a,d,expect",
    [(5, 5, True), (20, 5, True), (7, 2, False),
     (Fraction(5, 4), 5, True), (-5, 5, False), (5, -5, False)],
)
def test_square_class_examples(a, d, expect):
    assert tw.square_class_test(a, d) is expect


def test_square_class_against_factorization_oracle():
    rng = random.Random(7)
    for _ in range(300):
        a = Fraction(rng.randint(-40, 40) or 1, rng.randint(1, 20))
        d = Fraction(rng.randint(-40, 40) or 3, rng.randint(1, 20))
        assert tw.square_class_test(a, d) == square_class_oracle(a, d)


def test_square_free():
    assert tw.is_square_free(5)
    assert tw.is_square_free(2 * 3 * 5 * 7)
    assert not tw.is_square_free(12)
    assert not tw.is_square_free(49)


def test_square_class_zero_denominator():
    with pytest.raises(DivisionByZero):
        tw.square_class_test(5, 0)


def test_squarefree_part():
    assert tw.squarefree_part(Fraction(-4, 9)) == -1
    assert tw.squarefree_part(Fraction(-3)) == -3
    assert tw.squarefree_part(Fraction(18)) == 2
    assert tw.squarefree_part(Fraction(5, 2)) == 10


def test_square_free_inconclusive_with_tiny_bound():
    from weakcm.errors import FactorizationInconclusive

    # 101^3 has all prime factors above the bound, exceeds bound^2, and is
    # not a perfect square: undecidable by trial division alone
    with pytest.raises(FactorizationInconclusive):
        tw.is_square_free(101 ** 3, bound=10)
    # remainders at most bound^2 are a prime or two distinct primes
    assert tw.is_square_free(101 * 103, bound=110)
    assert not tw.is_square_free(101 ** 2, bound=10)  # perfect square remainder


def _division_outcomes(fn, xs, bound):
    out = []
    for x in xs:
        try:
            out.append(fn(x, bound))
        except FactorizationInconclusive as exc:
            out.append(("inconclusive", str(exc)))
    return out


def test_trial_division_matches_both_loops():
    # one trial division serves is_square_free and squarefree_part; the two
    # loops it replaced are the oracles, inconclusive raises included
    fractions = [Fraction(-n, 7) for n in range(1, 300)]
    for bound in range(2, 51):
        ns = range(5001)
        assert _division_outcomes(tw.is_square_free, ns, bound) == \
            _division_outcomes(is_square_free_by_loop, ns, bound)
        for xs in (ns[1:], fractions):
            assert _division_outcomes(tw.squarefree_part, xs, bound) == \
                _division_outcomes(squarefree_part_by_loop, xs, bound)


def _seeded_rationals(rng):
    """Rationals of 1, 3 and 400 digits, of both signs, with squares, square
    classes of small integers and 0 among them."""
    out = [Fraction(0)]
    for digits in (1, 3, 400):
        for _ in range(12):
            a, b = (rng.randrange(1, 10 ** digits) for _ in range(2))
            sign = rng.choice((1, -1))
            c = rng.choice((1, 2, 3, 5, 6))
            out += [Fraction(sign * a, b), Fraction(a * a, b * b),
                    Fraction(sign * c * a * a, b * b)]
    return out


def _unreduced(x, rng):
    """x as an integer pair times a common factor of either sign."""
    k = rng.choice((1, -1)) * rng.randrange(1, 10 ** 6)
    return x.numerator * k, x.denominator * k


def _pair(x):
    return x.numerator, x.denominator


def test_pair_helpers_against_fraction_oracles():
    # the integer-pair helpers on unreduced pairs, against the Fraction
    # versions they replaced (tests/util.py) on the same values
    rng = random.Random(3400)
    xs = _seeded_rationals(rng)
    for x in xs:
        pair = _unreduced(x, rng)
        assert tw.read_rational(pair) == _pair(x)
        assert tw.format_rational(tw.read_rational(pair)) == str(x)
        assert tw.is_rational_square(pair) is is_rational_square_by_fraction(x)
        root = rational_sqrt_by_fraction(x)
        if root is None:
            with pytest.raises(SquareClassMismatch):
                tw.rational_sqrt(pair)
        else:
            assert tw.rational_sqrt(pair) == _pair(root)
    for x, y in zip(xs, xs[7:] + xs[:7]):
        px, py = _unreduced(x, rng), _unreduced(y, rng)
        assert tw.pair_mul(px, py) == _pair(x * y)
        assert tw.pair_add(px, py) == _pair(x + y)
        want = square_class_by_fraction(x, y)
        if want is None:
            with pytest.raises(DivisionByZero):
                tw.square_class_test(px, py)
            with pytest.raises(ZeroDivisionError):
                tw.pair_div(px, py)
        else:
            assert tw.square_class_test(px, py) is want
            assert tw.pair_div(px, py) == _pair(x / y)
        d = Fraction(rng.randrange(2, 10 ** rng.choice((1, 400))))
        assert tw.quartic_dprime(_unreduced(d, rng), px, py) == _pair(x * x - y * y * d)
    pairs = [_unreduced(x, rng) for x in xs]
    assert _division_outcomes(tw.squarefree_part, pairs, 50) == \
        _division_outcomes(squarefree_part_by_loop, xs, 50)


# ---------------------------------------------------------------- building


def test_build_biquadratic_valid():
    t = tw.biquadratic_tower(-1, -3)  # -1/-3 = 1/3 is not a square
    assert t.dim == 4


def test_build_cyclic_quartic_zeta5():
    # dp = 25/4 - 5/4 = 5 lies in 5*(Q^x)^2
    t = tw.cyclic_quartic_tower(5, Fraction(-5, 2), Fraction(-1, 2))
    assert t.params == {"d": (5, 1), "p": (-5, 2), "q": (-1, 2)}
    p, q, d = (fraction_params(t)[k] for k in "pqd")
    dp = p * p - q * q * d
    assert dp == 5
    assert square_class_oracle(dp, d)


def test_build_closure_case_c():
    t = tw.quartic_closure_tower(2, -3, 1)
    assert t.dim == 8
    assert not square_class_oracle(7, 2)


def test_wrong_case_requested():
    with pytest.raises(SquareClassMismatch):
        tw.quartic_closure_tower(5, Fraction(-5, 2), Fraction(-1, 2))
    with pytest.raises(SquareClassMismatch):
        tw.cyclic_quartic_tower(2, -3, 1)


def test_build_errors():
    with pytest.raises(WrongSign):
        tw.quadratic_tower(2)
    with pytest.raises(WrongSign):
        tw.biquadratic_tower(-1, 3)
    with pytest.raises(DegenerateBiquadratic):
        tw.biquadratic_tower(-1, -4)
    with pytest.raises(NotSquareFree):
        tw.cyclic_quartic_tower(12, -3, 1)
    with pytest.raises(NotSquareFree):
        tw.cyclic_quartic_tower(Fraction(5, 2), -3, 1)
    with pytest.raises(WrongSign):
        # dp = 1 - 4*5 < 0: not totally imaginary
        tw.cyclic_quartic_tower(5, -1, 2)


def test_perfect_square_dprime_rejected():
    # q = 0 gives dp = p^2, a rational square: the field is biquadratic
    with pytest.raises(SquareClassMismatch):
        tw.quartic_closure_tower(2, -3, 0)


# ---------------------------------------------------------------- field ops


def test_inverse_of_sqrt_minus_one():
    t = tw.biquadratic_tower(-1, -3)
    s1 = t.gen("sqrt(p1)")
    assert s1.inv() == -s1
    assert s1 * s1.inv() == t.one()


def test_sigma0_sends_xi_plus_to_xi_minus():
    t = tw.cyclic_quartic_tower(5, Fraction(-5, 2), Fraction(-1, 2))
    xi = t.gen("xi+")
    xi_minus = t.generators["s0"](xi)
    # xi- = -sqrt(dp)/xi+, i.e. xi+ * xi- = -sqrt(dp) = -sqrt(d) here (e = 1)
    assert xi * xi_minus == -t.gen("sqrt(d)")


def test_xi_product_in_closure():
    t = tw.quartic_closure_tower(2, -3, 1)
    assert t.gen("xi+") * t.gen("xi-") == -t.gen("sqrt(dp)")


def test_inverses_random_all_towers():
    rng = random.Random(11)
    for t in all_towers():
        for _ in range(25):
            x = t.element([Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                           for _ in range(t.dim)])
            if not x:
                continue
            assert x * x.inv() == t.one()


def test_division_by_zero():
    t = tw.quadratic_tower(-1)
    with pytest.raises(DivisionByZero):
        t.zero().inv()


def test_tower_mismatch():
    a = tw.quadratic_tower(-1).one()
    b = tw.quadratic_tower(-3).one()
    with pytest.raises(TowerMismatch):
        a + b


def test_own_coerces_rationals_and_checks_the_tower():
    t = tw.biquadratic_tower(-1, -3)
    x = tw.biquadratic_tower(-1, -3).gen_index(3)
    assert t.own(x) is x and t.own(Fraction(-2, 5)) == Fraction(-2, 5)
    assert t.own(Fraction(-2, 5)).tower is t
    for g in t.galois_elements():
        assert g(3) == 3 and g(3).tower is t
        with pytest.raises(TowerMismatch, match="elements live in different towers"):
            g(tw.quadratic_tower(-1).one())


def test_kept_builds_once_and_keeps_none():
    t = tw.quadratic_tower(-7)
    builds = []

    def build():
        builds.append(1)
        return None

    assert t.kept("probe", build) is None and t.kept("probe", build) is None
    assert builds == [1]
    assert t.kept(("probe", 2), list) is t.kept(("probe", 2), list)


def test_mul_table_associative_commutative():
    rng = random.Random(5)
    for t in all_towers():
        for _ in range(10):
            x, y, z = (
                t.element([Fraction(rng.randint(-3, 3)) for _ in range(t.dim)])
                for _ in range(3)
            )
            assert (x * y) * z == x * (y * z)
            assert x * y == y * x


# ---------------------------------------------------------------- min poly


def test_min_poly_degrees():
    t = tw.cyclic_quartic_tower(5, Fraction(-5, 2), Fraction(-1, 2))
    assert min_poly_degree(t.rational(Fraction(3, 2))) == 1
    b = tw.biquadratic_tower(-1, -3)
    assert min_poly_degree(b.gen("sqrt(p1)")) == 2

    # independent oracle for deg(xi+) = 4: the 4x4 coordinate matrix of
    # 1, xi, xi^2, xi^3 has nonzero determinant, and the quartic relation
    # xi^4 - 2p xi^2 + dp = 0 holds exactly
    xi = t.gen("xi+")
    powers = [t.one(), xi, xi * xi, xi * xi * xi]
    coords = [list(x.coeffs) for x in powers]
    assert linalg.mat_det(coords, Fraction(1)) != 0
    p, q, d = (fraction_params(t)[k] for k in "pqd")
    dp = p * p - q * q * d
    assert xi ** 4 - xi * xi * (2 * p) + t.rational(dp) == t.zero()
    assert min_poly_degree(xi) == 4


def test_min_poly_divides_dimension():
    rng = random.Random(3)
    for t in all_towers():
        for _ in range(8):
            x = t.element([Fraction(rng.randint(-2, 2)) for _ in range(t.dim)])
            assert t.dim % min_poly_degree(x) == 0


# ---------------------------------------------------------------- Galois


def _composition_table(elements):
    idx = {g: i for i, g in enumerate(elements)}
    return tuple(
        tuple(idx[a.compose(b)] for b in elements) for a in elements
    )


def test_galois_group_orders():
    sizes = [len(t.galois_elements()) for t in all_towers()]
    assert sizes == [2, 4, 4, 8]


def test_every_galois_element_is_automorphism():
    rng = random.Random(13)
    for t in all_towers():
        for g in t.galois_elements():
            assert is_multiplicative(g) and tw._respects_rules(t, g)
            for _ in range(5):
                x, y = (
                    t.element([Fraction(rng.randint(-3, 3)) for _ in range(t.dim)])
                    for _ in range(2)
                )
                assert g(x * y) == g(x) * g(y)
                assert g(x + y) == g(x) + g(y)


def test_galois_group_structures():
    quad, biquad, cyc, clos = all_towers()

    # quadratic: Z2
    table = _composition_table(quad.galois_elements())
    assert len(table) == 2 and table[1][1] == 0

    # biquadratic: Z2 x Z2, every element an involution, abelian
    els = biquad.galois_elements()
    table = _composition_table(els)
    for i in range(4):
        assert table[i][i] == table[0][0] == 0
        for j in range(4):
            assert table[i][j] == table[j][i]

    # cyclic quartic: Z4 generated by s0, with s0^2 = rho
    s0 = cyc.generators["s0"]
    powers = [cyc.galois_elements()[0], s0, s0.compose(s0),
              s0.compose(s0).compose(s0)]
    assert len({p for p in powers}) == 4
    assert powers[2] == cyc.conjugation
    assert is_identity(s0.compose(powers[3]))

    # closure: order 8 with the dihedral relation s3 s0 s3 = s0^3
    s0, s3 = clos.generators["s0"], clos.generators["s3"]
    assert s3.compose(s0).compose(s3) == s0.compose(s0).compose(s0)
    assert len(clos.galois_elements()) == 8


def test_conjugation_action_cases_bc():
    for t in (tw.cyclic_quartic_tower(5, Fraction(-5, 2), Fraction(-1, 2)),
              tw.quartic_closure_tower(2, -3, 1)):
        rho = t.conjugation
        s0 = t.generators["s0"]
        assert rho == s0.compose(s0)
        assert rho(t.gen("xi+")) == -t.gen("xi+")
        assert rho(t.gen("sqrt(d)")) == t.gen("sqrt(d)")
    clos = tw.quartic_closure_tower(2, -3, 1)
    assert clos.conjugation(clos.gen("sqrt(dp)")) == clos.gen("sqrt(dp)")


def test_generators_permute_signed_monomials():
    # holds for the quadratic, biquadratic and closure presentations;
    # in the 4-dimensional cyclic presentation s0(xi+) is a 2-term combination
    for t in (tw.quadratic_tower(-1), tw.biquadratic_tower(-1, -3),
              tw.quartic_closure_tower(2, -3, 1)):
        for name, g in t.generators.items():
            for img in g.images:
                nonzero = [c for c in img.coeffs if c]
                assert len(nonzero) == 1 and abs(nonzero[0]) == 1


def _complex_embedding(t):
    """Numerical embedding honoring the tower module's sign conventions:
    real square roots positive, imaginary ones in the upper half plane.  Test-only
    oracle; the library itself never touches floats."""
    import cmath

    params = fraction_params(t)
    if t.case == tw.QUADRATIC:
        vals = {"sp": 1j * abs(params["p"]) ** 0.5}
    elif t.case == tw.BIQUADRATIC:
        vals = {
            "s1": 1j * abs(params["p1"]) ** 0.5,
            "s2": 1j * abs(params["p2"]) ** 0.5,
        }
    else:
        d, p, q = params["d"], params["p"], params["q"]
        sd = float(d) ** 0.5
        xp = cmath.sqrt(complex(p + q * sd))
        if xp.imag < 0:
            xp = -xp
        vals = {"sd": sd, "xp": xp}
        if t.case == tw.QUARTIC_CLOSURE:
            dp = p * p - q * q * d
            sdp = float(dp) ** 0.5
            vals["sdp"] = sdp
            vals["xm"] = -sdp / xp
    images = []
    for mono in t._monomials:
        z = complex(1)
        for r in mono:
            z *= vals[r]
        images.append(z)
    return images


def _embed(x, images):
    return sum(complex(c) * z for c, z in zip(x.coeffs, images))


def test_mul_table_against_complex_embedding():
    # independent check of every structure constant: exact products must
    # agree with honest complex arithmetic under the oriented embedding
    rng = random.Random(19)
    for t in all_towers():
        images = _complex_embedding(t)
        for i in range(t.dim):
            for j in range(t.dim):
                exact = _embed(t.gen_index(i) * t.gen_index(j), images)
                numeric = images[i] * images[j]
                assert abs(exact - numeric) < 1e-9, (t.case, i, j)
        for _ in range(10):
            x, y = (
                t.element([Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                           for _ in range(t.dim)])
                for _ in range(2)
            )
            assert abs(_embed(x * y, images) -
                       _embed(x, images) * _embed(y, images)) < 1e-7


def test_galois_images_are_field_embeddings():
    # each automorphism, followed by the standard embedding, must be an
    # embedding of the tower into C: check multiplicativity numerically
    rng = random.Random(29)
    for t in all_towers():
        images = _complex_embedding(t)
        for g in t.galois_elements():
            def embed_g(x):
                return _embed(g(x), images)

            for _ in range(5):
                x, y = (
                    t.element([Fraction(rng.randint(-3, 3)) for _ in range(t.dim)])
                    for _ in range(2)
                )
                assert abs(embed_g(x * y) - embed_g(x) * embed_g(y)) < 1e-7


def test_cyclic_quartic_is_fifth_cyclotomic():
    # with (d, p, q) = (5, -5/2, -1/2) the field is Q(zeta_5):
    # xi+ = zeta - zeta^4 and the order-4 generator is zeta -> zeta^2
    import cmath

    t = tw.cyclic_quartic_tower(5, Fraction(-5, 2), Fraction(-1, 2))
    images = _complex_embedding(t)
    zeta = cmath.exp(2j * cmath.pi / 5)
    xi = t.gen("xi+")
    assert abs(_embed(xi, images) - (zeta - zeta ** 4)) < 1e-9
    assert abs(_embed(t.gen("sqrt(d)"), images)
               - (1 + 2 * (zeta + zeta ** 4))) < 1e-9
    s0 = t.generators["s0"]
    assert abs(_embed(s0(xi), images) - (zeta ** 2 - zeta ** 3)) < 1e-9
    rho = t.conjugation
    assert abs(_embed(rho(xi), images) - (zeta ** 4 - zeta)) < 1e-9


def test_element_serialization_roundtrip():
    t = tw.cyclic_quartic_tower(5, Fraction(-5, 2), Fraction(-1, 2))
    x = t.element([Fraction(1, 2), Fraction(-3), 0, Fraction(7, 5)])
    assert x.serialize() == ["1/2", "-3", "0", "7/5"]
    y = t.element([tw.parse_rational(s) for s in x.serialize()])
    assert x == y


# ---------------------------------------------------------------- kernel oracle
#
# The kernel keeps integer numerators over one denominator and its own
# integer copies of the structure constants and Galois images.  The oracle
# below uses only the Fraction data: TowerSpec.mul_table, integer pairs read
# as ``Fraction``s, and the images' ``coeffs``.


def _oracle_towers():
    # the four split-corpus fields, plus a closure and a quadratic field
    # whose structure constants are not integers
    return all_towers() + [
        tw.quartic_closure_tower(2, Fraction(-5, 3), Fraction(1, 2)),
        tw.quadratic_tower(Fraction(-7, 12)),
    ]


def _presentation_digest(t):
    """sha256 over the tower key, its structure constants, every
    generator's images as (num, den) and the group's element labels."""
    import hashlib

    def frac(c):
        num, den = c
        return (num, den)

    data = (
        t.key[0],
        tuple((k, frac(v)) for k, v in t.key[1]),
        tuple(tuple(tuple(frac(c) for c in cell) for cell in row) for row in t.mul_table),
        tuple((name, tuple((img.num, img.den) for img in g.images))
              for name, g in sorted(t.generators.items())),
        tuple(g.label for g in t.galois_elements()),
    )
    return hashlib.sha256(repr(data).encode()).hexdigest()


# recorded while each presentation was still written out as square rules and
# hand-built generator images; one digest per tower of _oracle_towers()
_PRESENTATION_DIGESTS = (
    "b06e01796f2d194e03c884f6548361ad037a263ff0ddb38a19adcd6bc2b16a4c",
    "ead12f85c565ee7efd6a473c83e5f7653d09a7b2dc066076ff8bf0bde2290e4c",
    "5fb186e369c0f9da7622d0e59c983cc5b9654482b4a2b45b9465558f0ff6ac14",
    "bf0c3e69d2e68c2d5aff4776b8c4c9e5a56eb06116228b9276d7fa9454ca13c7",
    "da7f7d6c648dd66f88912e9f9848a6b3517a8c45480a1b6eee4e541a710f4ed1",
    "297fe793820439e68799c8f9a3c00157628c3dc5eff6173255629646c1525fb7",
)


def test_presentations_are_pinned():
    digests = tuple(_presentation_digest(t) for t in _oracle_towers())
    assert digests == _PRESENTATION_DIGESTS


def _ref_mul(t, a, b):
    out = [Fraction(0)] * t.dim
    table = fraction_mul_table(t)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            for k, c in enumerate(table[i][j]):
                out[k] += ai * bj * c
    return tuple(out)


def _ref_apply(images, a):
    out = [Fraction(0)] * len(a)
    for ai, img in zip(a, images):
        for k, c in enumerate(img):
            out[k] += ai * c
    return tuple(out)


def _oracle_coeff(rng):
    kind = rng.randrange(4)
    if kind == 0:
        return Fraction(0)
    if kind == 1:
        return Fraction(rng.randint(-5, 5))
    if kind == 2:
        return Fraction(rng.randint(-9, 9), rng.randint(1, 12))
    return Fraction(rng.randint(-10 ** 15, 10 ** 15), rng.randint(1, 10 ** 12))


def _oracle_elements(t, rng, count):
    els = [t.zero(), t.one(), t.rational(Fraction(-3, 7)),
           t.rational(Fraction(10 ** 20 + 1, 3 ** 30))]
    els += [t.gen_index(i) for i in range(t.dim)]
    els += [t.element([_oracle_coeff(rng) for _ in range(t.dim)])
            for _ in range(count)]
    return els


def _assert_normal_form(x):
    assert x.den > 0 and math.gcd(x.den, *x.num) == 1
    assert x.coeffs == tuple(Fraction(a, x.den) for a in x.num)


def test_kernel_ring_ops_against_fraction_oracle():
    rng = random.Random(41)
    scalars = [0, 1, -2, Fraction(3, 4), Fraction(-10 ** 9, 7 ** 11)]
    for t in _oracle_towers():
        els = _oracle_elements(t, rng, 12)
        for x in els:
            a = x.coeffs
            _assert_normal_form(x)
            assert (-x).coeffs == tuple(-c for c in a)
            for c in scalars:
                assert (x * c).coeffs == tuple(ai * c for ai in a)
                assert (c * x).coeffs == tuple(ai * c for ai in a)
                assert (x + c).coeffs == (a[0] + c,) + a[1:]
                assert (c - x).coeffs == tuple((c if k == 0 else 0) - ai
                                               for k, ai in enumerate(a))
                if c:
                    assert (x / c).coeffs == tuple(ai / c for ai in a)
            for y in els[::3]:
                b = y.coeffs
                for z, want in ((x * y, _ref_mul(t, a, b)),
                                (x + y, tuple(p + q for p, q in zip(a, b))),
                                (x - y, tuple(p - q for p, q in zip(a, b)))):
                    _assert_normal_form(z)
                    assert z.coeffs == want


@pytest.mark.parametrize("t", _oracle_towers(), ids=lambda t: t.case)
def test_dot_against_fraction_oracle(t):
    # seeded sums of products as the matrix product and the elimination
    # update hand them to dot: single products, products over other
    # denominators than x.den * y.den, and negated left factors
    rng = random.Random(47)
    els = list(filter(None, _oracle_elements(t, rng, 8)))
    assert t.dot([]) == t.zero()
    for length in (1, 2, 3, 5) * 5:
        prods, want = [], (Fraction(0),) * t.dim
        for _ in range(length):
            x, y = rng.choice(els), rng.choice(els)
            (dx, tx), (dy, ty) = t.terms(x), t.terms(y)
            k, sign = rng.choice((1, 1, 6, 35)), rng.choice((1, -1))
            prods.append((dx * dy * k, [(i, sign * a) for i, a in tx], ty))
            xy = _ref_mul(t, x.coeffs, y.coeffs)
            want = tuple(w + sign * c / k for w, c in zip(want, xy))
        got = t.dot(prods)
        _assert_normal_form(got)
        assert got.coeffs == want
        # the negated sum cancels to the normal form of zero
        negated = [(d, [(i, -a) for i, a in tx], ty) for d, tx, ty in prods]
        zero = t.dot(prods + negated)
        assert (zero.num, zero.den) == ((0,) * t.dim, 1)


def test_terms_coerce_rationals_and_check_the_tower():
    t = tw.biquadratic_tower(-1, -3)
    assert t.terms(t.zero()) is None and t.terms(0) is None
    assert t.terms(Fraction(-3, 7)) == (7, [(0, -3)])
    assert t.terms(t.rational(Fraction(-3, 7))) == (7, [(0, -3)])
    x = t.element([Fraction(1, 2), 0, Fraction(-5, 6), 0])
    assert t.terms(x) == (6, [(0, 3), (2, -5)])
    assert t.terms(tw.biquadratic_tower(-1, -3).element(x.coeffs)) == (6, [(0, 3), (2, -5)])
    with pytest.raises(TowerMismatch):
        t.terms(tw.quadratic_tower(-1).one())


def test_kernel_inverse_against_fraction_oracle():
    rng = random.Random(43)
    for t in _oracle_towers():
        e1 = tuple(Fraction(int(k == 0)) for k in range(t.dim))
        for x in filter(None, _oracle_elements(t, rng, 10)):
            y = x.inv()
            _assert_normal_form(y)
            assert x * y == 1 and x * y == t.one()
            assert _ref_mul(t, x.coeffs, y.coeffs) == e1
            assert (t.one() / x) == y
        with pytest.raises(DivisionByZero):
            t.zero().inv()


def test_kernel_galois_against_fraction_oracle():
    rng = random.Random(47)
    for t in _oracle_towers():
        els = _oracle_elements(t, rng, 8)
        group = t.galois_elements()
        assert len(group) == t.dim
        for g in group:
            images = [img.coeffs for img in g.images]
            for x in els:
                gx = g(x)
                _assert_normal_form(gx)
                assert gx.coeffs == _ref_apply(images, x.coeffs)
        # closing the generators' images under the oracle's composition
        # yields exactly the kernel's group
        gens = [tuple(img.coeffs for img in g.images)
                for g in t.generators.values()]
        identity = tuple(t.gen_index(i).coeffs for i in range(t.dim))
        closure = {identity}
        frontier = [identity]
        while frontier:
            new = []
            for h in frontier:
                for g in gens:
                    gh = tuple(_ref_apply(g, img) for img in h)
                    if gh not in closure:
                        closure.add(gh)
                        new.append(gh)
            frontier = new
        assert closure == {tuple(img.coeffs for img in g.images) for g in group}


def _perturbed_maps(t, rng):
    """Maps near each group element: the element itself, one image moved
    by a rational multiple of a monomial, one image scaled, two images
    swapped, and ring maps of the presentation at sign-flipped radical
    images (some of them automorphisms)."""
    radicals = [m[0] for m in t._monomials if len(m) == 1]
    for g in t.galois_elements():
        yield g
        images = list(g.images)
        for _ in range(2):
            k = rng.randrange(t.dim)
            moved = images[k] + t.gen_index(rng.randrange(t.dim)) * Fraction(
                rng.choice((-2, -1, 1, 3)), rng.randint(1, 3))
            yield tw.GaloisElement(t, images[:k] + [moved] + images[k + 1:], "moved")
            i, j = rng.sample(range(t.dim), 2)
            swapped = list(images)
            swapped[i], swapped[j] = images[j], images[i]
            yield tw.GaloisElement(t, swapped, "swapped")
        k = rng.randrange(t.dim)
        yield tw.GaloisElement(t, images[:k] + [images[k] * 2] + images[k + 1:], "scaled")
        for _ in range(3):
            yield t._ring_map("flipped", **{
                r: g.images[t._index[(r,)]] * rng.choice((1, -1)) for r in radicals})


def test_rule_table_check_agrees_with_the_pairwise_oracle():
    # the construction check reads the rule table; the oracle multiplies
    # every pair of basis monomials.  They agree on maps off the group too
    rng = random.Random(67)
    outcomes = []
    for t in _oracle_towers():
        for g in _perturbed_maps(t, rng):
            want = is_multiplicative(g)
            assert tw._respects_rules(t, g) == want, (t, g.images)
            outcomes.append(want)
    assert len(outcomes) >= 250
    assert outcomes.count(True) >= 50 and outcomes.count(False) >= 100


def test_kernel_equality_hash_and_coeffs_roundtrip():
    rng = random.Random(53)
    for t in _oracle_towers():
        els = _oracle_elements(t, rng, 10)
        for x in els:
            y = els[-1]
            same = [(x + y) - y, x * t.one(), x * Fraction(3, 5) / Fraction(3, 5),
                    t.element(x.coeffs), t.element(list(x.serialize()))]
            if x:
                same.append(x.inv().inv())
            for z in same:
                assert z == x and hash(z) == hash(x)
                assert (z.num, z.den) == (x.num, x.den)
            assert t.element(x.coeffs).coeffs == x.coeffs
            if not any(x.num[1:]):
                q = rational_value(x)
                assert x == q and x == t.rational(q)
                assert hash(x) == hash(t.rational(q))
            assert x != x + 1
        assert t.zero() == 0 and not t.zero() and t.zero().den == 1
        assert t.rational(Fraction(6, 4)).coeffs[0] == Fraction(3, 2)


def test_serialize_matches_format_rational_over_coeffs():
    rng = random.Random(83)
    for t in _oracle_towers():
        els = _oracle_elements(t, rng, 12)
        els.append(t.element([Fraction((-1) ** k * 10 ** (40 + k), 3 ** k)
                              for k in range(t.dim)]))
        els.append(t.element([0] * (t.dim - 1) + [Fraction(-6, 4)]))
        for x in els:
            assert x.serialize() == [tw.format_rational(c) for c in x.coeffs]


# ---------------------------------------------------------------- coordinate maps


def _outcome(f, *args):
    try:
        return f(*args)
    except SingularMatrix:
        return SingularMatrix


def test_coordinate_maps_match_the_solve_oracle():
    rng = random.Random(89)
    for t in _oracle_towers():
        els = _oracle_elements(t, rng, 8)
        randoms = [t.element([_oracle_coeff(rng) for _ in range(t.dim)])
                   for _ in range(t.dim)]
        bases = [[t.one()], [t.one(), t.gen_index(1)], [t.gen_index(t.dim - 1), t.one()],
                 randoms[:2], randoms[:max(1, t.dim // 2)], randoms]
        for basis in bases:
            members = []
            for _ in range(4):
                c = [_oracle_coeff(rng) for _ in basis]
                x = t.zero()
                for cj, b in zip(c, basis):
                    x = x + b * cj
                members.append((x, c))
            for x, c in members:
                assert linalg.subspace_coordinates(basis, x) == c
                assert subspace_coordinates_by_solve(basis, x) == c
            for x in els + [b + 1 for b in els]:
                assert (linalg.subspace_coordinates(basis, x)
                        == subspace_coordinates_by_solve(basis, x))
            # one map per basis, kept on the tower
            assert linalg.coordinate_map(list(basis)) is linalg.coordinate_map(basis)
        for dependent in ([t.one(), t.rational(Fraction(-3, 7))],
                          [randoms[0], randoms[1], randoms[0] * 2 - randoms[1]],
                          [t.zero()]):
            for x in (t.one(), randoms[0]):
                assert _outcome(subspace_coordinates_by_solve, dependent, x) is SingularMatrix
                assert _outcome(linalg.subspace_coordinates, dependent, x) is SingularMatrix
        assert linalg.subspace_coordinates([], t.one()) is None
