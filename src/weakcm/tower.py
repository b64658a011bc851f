"""Exact arithmetic in the normal closures of small CM fields.

Four tower families are supported, each presented by a rule table on a
fixed monomial basis over Q:

* quadratic            Q(sqrt(p)),                basis {1, sqrt(p)}
* biquadratic          Q(sqrt(p1), sqrt(p2)),     basis of dimension 4
* cyclic quartic       Q(sqrt(d), xi+),           xi+^2 = p + q*sqrt(d),
                       with dp := p^2 - q^2 d in d*(Q^x)^2 (Galois, Z4)
* quartic closure      degree-8 splitting field of the non-Galois quartic,
                       basis {1, sqrt(d), sqrt(dp), sqrt(d)sqrt(dp),
                              xi+, xi-, sqrt(d)xi+, sqrt(d)xi-},
                       with xi+ * xi- = -sqrt(dp)

The rule table is one ordered list of radical-pair products, squares first;
``TowerSpec._coordinates`` rewrites a word of radicals with it until no rule
applies, and the structure constants ``mul_table`` are those coordinates for
each pair of basis monomials.  The closure's three rules for xi+ * xi- and
sqrt(dp) * xi+- undo one another, so they terminate only because squares are
rewritten first.  Every Galois generator is a ring map given by the images
of the radicals: a monomial goes to the product of its radicals' images.

An element stores integer numerators over one common denominator, and
each tower keeps its structure constants as a sparse integer table over one
common denominator, so products, sums and Galois images are computed in
integers with one gcd per result.  ``TowerSpec.dot`` is the one product
kernel: ``FieldElement.__mul__`` and the tower products of ``linalg`` each
call it once per result.  ``FieldElement.coeffs`` still exposes the
coefficients as ``fractions.Fraction``s, and ``serialize`` formats straight
from the integers.  Matrices over a tower, generated subalgebras and
coordinates in the Q-span of given elements live in ``linalg``, which this
module imports only to invert an element.  There is no floating point.
Galois actions are stored as explicit Q-linear maps on the basis, as dense
integer rows over one denominator (``apply_matrix``).  At construction each
generator's radical images are checked against every rule of the table, and
each monomial's image against the product of its radicals' images.

``TowerSpec.own`` is the one membership check (a rational is coerced, an
element of another tower raises TowerMismatch), and ``TowerSpec.kept`` the
one table of what other modules build once per tower.

Sign conventions (recorded, never evaluated numerically): sqrt(p) and xi+
denote the purely imaginary root in the upper half plane, sqrt(d) and
sqrt(dp) the positive real root.
"""

from __future__ import annotations

import math
import os
import re
from fractions import Fraction
from operator import mul

from .errors import (
    BadFactorBound,
    DegenerateBiquadratic,
    DivisionByZero,
    FactorizationInconclusive,
    MathError,
    NotSquareFree,
    RationalTooLarge,
    SingularMatrix,
    SquareClassMismatch,
    TowerMismatch,
    WrongSign,
)

_FACTOR_BOUND_ENV = "WEAKCM_FACTOR_BOUND"
_DEFAULT_FACTOR_BOUND = 100_000


# --------------------------------------------------------------------------
# rationals


_PLAIN_RATIONAL = re.compile(r"([-+]?[0-9]+)(?:/([0-9]+))?")


def parse_rational(text) -> Fraction:
    """Parse "num/den" (den omitted when 1) into a Fraction.

    Decimal and exponent literals ("1.5", "-2e3") are accepted too, in
    Python 3.10's grammar on every version: no "_" digit separators and no
    whitespace inside the literal.  A zero denominator raises
    ZeroDivisionError naming the literal.  A literal whose numerator or
    denominator would have more than ``RationalTooLarge.DIGITS`` digits is
    refused with ``RationalTooLarge`` before anything is computed:
    "1e100000000" would otherwise ask for 10**10**8.  A plain "num/den" of
    at most that many characters is read with ``int``, not ``Fraction``'s
    parser.  A bool (a JSON true or false) raises ValueError.
    """
    if isinstance(text, bool):
        raise ValueError(f"{str(text).lower()} is not a rational")
    if isinstance(text, (int, Fraction)):
        return Fraction(text)
    text = str(text).strip()
    plain = _PLAIN_RATIONAL.fullmatch(text)
    try:
        if plain and len(text) <= RationalTooLarge.DIGITS:
            num, den = plain.groups()
            return Fraction(int(num), int(den or 1))
        _check_literal_size(text)
        if "_" in text or any(map(str.isspace, text)):
            raise ValueError(f"Invalid literal for Fraction: {text!r}")
        return Fraction(text)
    except ZeroDivisionError:
        raise ZeroDivisionError(f"zero denominator in {text!r}") from None


def _digit_count(part: str) -> int:
    return sum(ch.isdigit() for ch in part)


def _check_literal_size(text: str):
    """Raise RationalTooLarge when the rational literal ``text`` expands to
    a numerator or a denominator of more than ``RationalTooLarge.DIGITS``
    digits (an upper bound: before the fraction is reduced)."""
    limit = RationalTooLarge.DIGITS
    if len(text) <= limit and "e" not in text and "E" not in text:
        return  # without an exponent no part has more digits than the text
    if "/" in text:
        sizes = [_digit_count(part) for part in text.split("/", 1)]
    else:
        mantissa, _, exponent = text.lower().partition("e")
        digits = _digit_count(mantissa)
        decimals = _digit_count(mantissa.partition(".")[2])
        shift = 0
        if exponent:
            exp_digits = exponent.lstrip("+-").replace("_", "").lstrip("0")
            if len(exp_digits) > len(str(limit)):
                raise RationalTooLarge(
                    f"rational literal {text[:40]!r} has an exponent of "
                    f"{len(exp_digits)} digits; at most {limit} digits are allowed "
                    "in a numerator or denominator"
                )
            try:
                shift = int(exponent)
            except ValueError:
                shift = 0  # not a literal; Fraction names the error
        shift -= decimals
        sizes = [digits + max(shift, 0), 1 - min(shift, 0)]
    if max(sizes) > limit:
        raise RationalTooLarge(
            f"rational literal {text[:40]!r} expands to {max(sizes)} digits; "
            f"at most {limit} digits are allowed in a numerator or denominator"
        )


def format_rational(x: Fraction) -> str:
    if not isinstance(x, (int, Fraction)):
        x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def is_rational_square(x: Fraction) -> bool:
    """True iff x is the square of a rational (0 counts)."""
    x = Fraction(x)
    if x < 0:
        return False
    rn = math.isqrt(x.numerator)
    rd = math.isqrt(x.denominator)
    return rn * rn == x.numerator and rd * rd == x.denominator


def rational_sqrt(x: Fraction) -> Fraction:
    """Positive rational square root of a rational square."""
    x = Fraction(x)
    if not is_rational_square(x):
        raise SquareClassMismatch(f"{format_rational(x)} is not a rational square")
    return Fraction(math.isqrt(x.numerator), math.isqrt(x.denominator))


def square_class_test(a: Fraction, d: Fraction) -> bool:
    """True iff a lies in the square class d*(Q^x)^2.

    Equivalently a/d is a positive rational whose lowest-terms numerator and
    denominator are both perfect squares.
    """
    a = Fraction(a)
    d = Fraction(d)
    if d == 0:
        raise DivisionByZero("square class of 0 is undefined")
    if a == 0:
        return False
    return is_rational_square(a / d)


def _factor_bound() -> int:
    raw = os.environ.get(_FACTOR_BOUND_ENV)
    if raw is None:
        return _DEFAULT_FACTOR_BOUND
    try:
        # bounded: the CLI lifts the int-string limit while it runs
        bound = int(raw) if len(raw) <= RationalTooLarge.DIGITS else None
    except ValueError:
        bound = None
    if bound is None or bound < 2:
        raise BadFactorBound(
            f"{_FACTOR_BOUND_ENV}={raw!r} is not an integer >= 2"
        )
    return bound


def _trial_division(n: int, bound: int):
    """``(s, rest, square)``: n > 0 divided fully by 2 and the odd p with p * p
    <= rest and p <= bound; s is the product of the p dividing n to an odd
    power, rest what is left, square whether some p divides n twice."""
    s, square = 1, False
    p = 2
    while p * p <= n and p <= bound:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            if e % 2:
                s *= p
            square = square or e > 1
        p += 1 if p == 2 else 2
    return s, n, square


def is_square_free(n: int, bound: int | None = None) -> bool:
    """Square-free test by trial division up to a configurable bound.

    Raises FactorizationInconclusive when the unfactored remainder is too
    large to decide (remainder exceeding bound^2 that is not itself a
    perfect square may still hide a square factor).
    """
    n = abs(int(n))
    if n == 0:
        return False
    if n <= 3:
        return True
    bound = bound or _factor_bound()
    _, n, square = _trial_division(n, bound)
    if square:
        return False
    if n == 1 or n <= bound:
        return True
    root = math.isqrt(n)
    if root * root == n:
        return False
    if n <= bound * bound:
        # remainder is prime or a product of two distinct primes > bound
        return True
    raise FactorizationInconclusive(
        f"cannot certify square-freeness of remainder {n}; raise {_FACTOR_BOUND_ENV}"
    )


def squarefree_part(x: Fraction, bound: int | None = None) -> int:
    """Square-free integer s with x in s*(Q^x)^2.  Used for display tags."""
    x = Fraction(x)
    if x == 0:
        return 0
    n = x.numerator * x.denominator
    sign = 1 if n > 0 else -1
    bound = bound or _factor_bound()
    s, n, _ = _trial_division(abs(n), bound)
    root = math.isqrt(n)
    if root * root == n:
        return sign * s
    if n <= bound * bound:
        return sign * s * n
    raise FactorizationInconclusive(
        f"cannot extract square-free part of remainder {n}; raise {_FACTOR_BOUND_ENV}"
    )


# --------------------------------------------------------------------------
# tower cases

QUADRATIC = "quadratic"
BIQUADRATIC = "biquadratic"
CYCLIC_QUARTIC = "cyclic-quartic"
QUARTIC_CLOSURE = "nongalois-quartic-closure"


class FieldElement:
    """Element of a tower: integer numerators over one common denominator.

    The value is ``sum_k num[k] / den * basis[k]`` with ``den > 0`` and
    ``gcd(den, *num) == 1``, so equal elements have equal ``(num, den)``;
    zero is ``num = (0, ..., 0)``, ``den = 1``.  Arithmetic works on these
    integers only, with one gcd per result.  ``coeffs`` is the same vector
    as a tuple of ``Fraction``s, built on first use.  No floating point.
    """

    __slots__ = ("tower", "num", "den", "_coeffs", "_hash")

    def __init__(self, tower: "TowerSpec", coeffs):
        coeffs = tuple(
            c if type(c) is Fraction else Fraction(c) for c in coeffs
        )
        if len(coeffs) != tower.dim:
            raise TowerMismatch("coefficient vector has the wrong length")
        # lowest-terms entries over their lcm leave gcd(den, *num) == 1
        den = math.lcm(*(c.denominator for c in coeffs))
        self.tower = tower
        self.num = tuple(c.numerator * (den // c.denominator) for c in coeffs)
        self.den = den
        self._coeffs = coeffs
        self._hash = None

    @property
    def coeffs(self) -> tuple:
        """Coefficients over the monomial basis, as ``Fraction``s."""
        if self._coeffs is None:
            den = self.den
            self._coeffs = tuple(Fraction(a, den) for a in self.num)
        return self._coeffs

    # -- structure

    def __bool__(self):
        return any(self.num)

    def __eq__(self, other):
        if isinstance(other, FieldElement):
            return (self.num == other.num and self.den == other.den
                    and self.tower.key == other.tower.key)
        if isinstance(other, (int, Fraction)):
            return (self.den == other.denominator and self.num[0] == other.numerator
                    and not any(self.num[1:]))
        return NotImplemented

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.tower.key, self.num, self.den))
        return self._hash

    def _coerce(self, other):
        if isinstance(other, (FieldElement, int, Fraction)):
            return self.tower.own(other)
        return None

    # -- arithmetic

    def _combine(self, other, sa, sb):
        """sa * self + sb * other for signs sa, sb, over the lcm of the two
        denominators; NotImplemented when other is neither an element nor a
        rational."""
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        da, db = self.den, o.den
        g = math.gcd(da, db)
        fa, fb = sa * (db // g), sb * (da // g)
        return _normalised(
            self.tower, [a * fa + b * fb for a, b in zip(self.num, o.num)], da * (db // g)
        )

    def __add__(self, other):
        return self._combine(other, 1, 1)

    __radd__ = __add__

    def __neg__(self):
        return _element(self.tower, tuple(-a for a in self.num), self.den)

    def __sub__(self, other):
        return self._combine(other, 1, -1)

    def __rsub__(self, other):
        return self._combine(other, -1, 1)

    def __mul__(self, other):
        if not isinstance(other, FieldElement):
            if isinstance(other, (int, Fraction)):
                n = other.numerator
                return _normalised(self.tower, [a * n for a in self.num],
                                   self.den * other.denominator)
            return NotImplemented
        o = self._coerce(other)
        left = [(i, a) for i, a in enumerate(self.num) if a]
        right = [(j, b) for j, b in enumerate(o.num) if b]
        return self.tower.dot(((self.den * o.den, left, right),))

    __rmul__ = __mul__

    def inv(self) -> "FieldElement":
        """Multiplicative inverse, by ``linalg.bareiss`` over Z: the shared
        fraction-free elimination of ``linalg``, on integers.

        The solve runs on the span of the fewest basis monomials that holds
        self and 1 and is closed under products: a subfield, so it holds
        the inverse (for a rational, a 1 x 1 system).  With R the integer
        matrix of multiplication by ``num`` on that span (over den times
        the table denominator), ``linalg.bareiss`` on (R | e_1) returns
        det R and det R * R^-1 e_1, so the inverse is that vector times
        den * table_den over det R.
        """
        from . import linalg

        if not self:
            raise DivisionByZero("inverse of zero")
        t = self.tower
        num = self.num
        span, pos = t._subalgebra(tuple(i for i, a in enumerate(num) if a))
        n = len(span)
        R = [[0] * (n + 1) for _ in range(n)]
        for i in span:
            a = num[i]
            if a:
                row = t._int_table[i]
                for q, j in enumerate(span):
                    for k, c in row[j]:
                        R[pos[k]][q] += a * c
        R[0][n] = 1
        try:
            det, x = linalg.bareiss(R)
        except SingularMatrix:
            raise DivisionByZero("element is a zero divisor") from None
        scale = self.den * t._int_den
        if det < 0:
            det, scale = -det, -scale
        out = [0] * t.dim
        for k, (v,) in zip(span, x):
            out[k] = scale * v
        return _normalised(t, out, det)

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            if other == 0:
                raise DivisionByZero("division by zero")
            n, d = other.numerator, other.denominator
            if n < 0:
                n, d = -n, -d
            return _normalised(self.tower, [a * d for a in self.num], self.den * n)
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inv()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inv()

    def __pow__(self, n: int):
        if n == -1:
            return self.inv()
        if n < 0:
            return (self.inv()) ** (-n)
        out = self.tower.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    # -- queries

    def serialize(self):
        """The coefficients as "num/den" strings (den omitted when 1), the
        strings ``format_rational`` gives for ``coeffs``, formatted from
        ``num`` and ``den`` with one gcd per coefficient."""
        den = self.den
        if den == 1:
            return [str(a) for a in self.num]
        out = []
        for a in self.num:
            g = math.gcd(a, den)
            out.append(str(a // den) if g == den else f"{a // g}/{den // g}")
        return out

    def __repr__(self):
        return f"FieldElement({self})"

    def __str__(self):
        parts = []
        for c, label in zip(self.coeffs, self.tower.basis):
            if not c:
                continue
            cs = format_rational(c)
            if label == "1":
                parts.append(cs)
            elif c == 1:
                parts.append(label)
            elif c == -1:
                parts.append(f"-{label}")
            else:
                parts.append(f"{cs}*{label}")
        if not parts:
            return "0"
        text = parts[0]
        for p in parts[1:]:
            text += f" + {p}" if not p.startswith("-") else f" - {p[1:]}"
        return text


def _element(tower: "TowerSpec", num: tuple, den: int) -> FieldElement:
    """Element from numerators already in normal form over ``den > 0``."""
    x = object.__new__(FieldElement)
    x.tower = tower
    x.num = num
    x.den = den
    x._coeffs = None
    x._hash = None
    return x


def _normalised(tower: "TowerSpec", num, den: int) -> FieldElement:
    """Element num/den for integer numerators and ``den > 0``, reduced."""
    g = math.gcd(den, *num)
    if g == 1:
        return _element(tower, tuple(num), den)
    return _element(tower, tuple([a // g for a in num]), den // g)


class GaloisElement:
    """Ring automorphism of a tower, as images of the basis monomials."""

    __slots__ = ("tower", "images", "label", "_matrix")

    def __init__(self, tower: "TowerSpec", images, label: str):
        self.tower = tower
        self.images = tuple(images)
        self.label = label
        self._matrix = None

    def matrix(self):
        """(rows, den): the integer matrix of this Q-linear map, the form
        ``apply_matrix`` takes.  Built on first use and kept."""
        if self._matrix is None:
            images = self.images
            den = math.lcm(*(img.den for img in images))
            cols = [[a * (den // img.den) for a in img.num] for img in images]
            self._matrix = (tuple(zip(*cols)), den)
        return self._matrix

    def __call__(self, x) -> FieldElement:
        return apply_matrix(self._matrix or self.matrix(), self.tower.own(x))

    def compose(self, other: "GaloisElement") -> "GaloisElement":
        """self after other: (self*other)(x) = self(other(x))."""
        images = [self(img) for img in other.images]
        label = _join_words(self.label, other.label)
        return GaloisElement(self.tower, images, label)

    def __eq__(self, other):
        if not isinstance(other, GaloisElement):
            return NotImplemented
        return self.tower.key == other.tower.key and self.images == other.images

    def __hash__(self):
        return hash(self.images)

    def action_table(self):
        """Monomial label -> image string, for case reports."""
        return {
            label: str(img) for label, img in zip(self.tower.basis, self.images)
        }

    def __repr__(self):
        return f"GaloisElement({self.label})"


def apply_matrix(matrix, x: FieldElement) -> FieldElement:
    """x's image under the Q-linear map ``matrix = (rows, den)`` of dense
    integer rows: numerator k is sum(map(mul, x.num, rows[k])) over
    x.den * den, reduced once.  Galois images and ``tausplit``'s difference
    maps are both applied by it."""
    rows, den = matrix
    num = x.num
    return _normalised(x.tower, [sum(map(mul, num, row)) for row in rows], x.den * den)


def _join_words(a: str, b: str) -> str:
    if a == "1":
        return b
    if b == "1":
        return a
    return _compress_word(f"{a}*{b}")


def _compress_word(word: str) -> str:
    """Run-length encode generator words: s0*s0*s3 -> s0^2*s3."""
    letters = []
    for part in word.split("*"):
        if "^" in part:
            name, k = part.split("^")
            letters.extend([name] * int(k))
        else:
            letters.append(part)
    out = []
    i = 0
    while i < len(letters):
        j = i
        while j < len(letters) and letters[j] == letters[i]:
            j += 1
        out.append(letters[i] if j - i == 1 else f"{letters[i]}^{j - i}")
        i = j
    return "*".join(out)


class TowerSpec:
    """A tower presented by an ordered rule table on a monomial basis:
    ``rules`` lists ``((a, b), {word: coefficient})``, the product of the
    radicals a and b as a combination of words (tuples of radicals)."""

    def __init__(self, case, params, rules, basis_monomials, basis_labels):
        self.case = case
        self.params = {k: Fraction(v) for k, v in params.items()}
        self.key = (case, tuple(sorted(self.params.items())))
        self._rules = tuple(rules)
        self._monomials = tuple(basis_monomials)
        self._index = {tuple(sorted(m)): i for i, m in enumerate(self._monomials)}
        self.basis = tuple(basis_labels)
        self.dim = len(self._monomials)
        self.mul_table = tuple(
            tuple(self._coordinates(mi + mj) for mj in self._monomials)
            for mi in self._monomials
        )
        # the same structure constants as sparse integers over one common
        # denominator: basis_i * basis_j = sum(c * basis_k for k, c in
        # _int_table[i][j]) / _int_den
        self._int_den = math.lcm(
            *(c.denominator for row in self.mul_table for cell in row for c in cell)
        )
        self._int_table = tuple(
            tuple(
                tuple((k, c.numerator * (self._int_den // c.denominator))
                      for k, c in enumerate(cell) if c)
                for cell in row
            )
            for row in self.mul_table
        )
        self.generators: dict[str, GaloisElement] = {}
        self._kept = {}  # what is built from the tower once; see kept()

    def __eq__(self, other):
        return isinstance(other, TowerSpec) and self.key == other.key

    def __hash__(self):
        return hash(self.key)

    def __repr__(self):
        ps = ", ".join(f"{k}={format_rational(v)}" for k, v in sorted(self.params.items()))
        return f"TowerSpec({self.case}; {ps})"

    # -- construction helpers

    def _coordinates(self, word) -> tuple:
        """Basis coordinates of the product of the radicals in ``word``: the
        pair of the first rule, in table order, that the word holds is
        rewritten until no rule applies."""
        out = [Fraction(0)] * self.dim
        todo = [(tuple(word), Fraction(1))]
        while todo:
            word, c = todo.pop()
            for (a, b), product in self._rules:
                rest = list(word)
                if a in rest:
                    rest.remove(a)
                    if b in rest:
                        rest.remove(b)
                        todo += [(tuple(rest) + w, c * k) for w, k in product.items()]
                        break
            else:
                out[self._index[tuple(sorted(word))]] += c
        return tuple(out)

    def kept(self, key, build):
        """The value kept under ``key``: ``build()`` on the first call, the
        same object (None included) on every later one."""
        try:
            return self._kept[key]
        except KeyError:
            value = self._kept[key] = build()
            return value

    def own(self, x) -> FieldElement:
        """x as an element of this tower: a rational is coerced, and an
        element of another tower raises TowerMismatch."""
        if not isinstance(x, FieldElement):
            return self.rational(x)
        if x.tower is self or x.tower.key == self.key:
            return x
        raise TowerMismatch("elements live in different towers")

    def _subalgebra(self, support: tuple):
        """(span, pos): the sorted indices of the fewest basis monomials that
        contain ``support`` and 1 and whose span is closed under products,
        and each index's position in ``span``.  Kept per support."""
        return self.kept(("subalgebra", support), lambda: self._close_span(support))

    def _close_span(self, support):
        span = set(support) | {0}
        while True:
            grown = span | {k for i in span for j in span
                            for k, _ in self._int_table[i][j]}
            if grown == span:
                span = tuple(sorted(span))
                return span, {k: q for q, k in enumerate(span)}
            span = grown

    def terms(self, x):
        """(den, nonzero (index, numerator) pairs) of x, or None at zero:
        the operand form of ``dot``.  x goes through ``own``."""
        x = self.own(x)
        nz = [(i, a) for i, a in enumerate(x.num) if a]
        return (x.den, nz) if nz else None

    def dot(self, prods) -> FieldElement:
        """The sum of x * y / den over the ``(den, x terms, y terms)`` in
        ``prods``, with x and y given by their nonzero numerators (as from
        ``terms``): the one product kernel.  The products are brought to the
        lcm of their dens and summed in one pass through ``_int_table``,
        over that lcm times ``_int_den``, and the sum is reduced once; an
        empty list gives zero."""
        if not prods:
            return self.zero()
        den = math.lcm(*[d for d, _, _ in prods])
        table = self._int_table
        acc = [0] * self.dim
        for d, ta, tb in prods:
            s = den // d
            for i, a in ta:
                trow = table[i]
                a *= s
                for j, b in tb:
                    ab = a * b
                    for m, c in trow[j]:
                        acc[m] += ab * c
        return _normalised(self, acc, den * self._int_den)

    # -- element constructors

    def zero(self) -> FieldElement:
        return _element(self, (0,) * self.dim, 1)

    def one(self) -> FieldElement:
        return self.rational(1)

    def rational(self, c) -> FieldElement:
        if not isinstance(c, (int, Fraction)):
            c = Fraction(c)
        return _element(self, (c.numerator,) + (0,) * (self.dim - 1), c.denominator)

    def element(self, coeffs) -> FieldElement:
        return FieldElement(self, coeffs)

    def gen_index(self, i: int) -> FieldElement:
        return _element(self, tuple(int(k == i) for k in range(self.dim)), 1)

    def gen(self, label: str) -> FieldElement:
        return self.gen_index(self.basis.index(label))

    def radical(self, r: str) -> FieldElement:
        return self.gen_index(self._index[(r,)])

    def _ring_map(self, label: str, **images) -> GaloisElement:
        """The ring map sending each radical named in ``images`` to its
        image and fixing the others: a monomial goes to the product of its
        radicals' images.  ``_check_generators`` checks it is a ring map."""
        out = []
        for mono in self._monomials:
            x = self.one()
            for r in mono:
                x = x * images.get(r, self.radical(r))
            out.append(x)
        return GaloisElement(self, out, label)

    # -- Galois machinery

    @property
    def conjugation(self) -> GaloisElement:
        return self.generators["rho"]

    def galois_elements(self):
        """The full automorphism group, closed over the named generators.

        Deterministic order: identity first, then by (word length, word).
        Breadth first, each element is first found at the depth of its label.
        """
        identity = GaloisElement(
            self, [self.gen_index(i) for i in range(self.dim)], "1"
        )
        seen = {identity}
        elems = []
        frontier = [identity]
        # rho is a product of the others, except when it is the only one
        gens = [g for name, g in sorted(self.generators.items())
                if name != "rho"] or [self.conjugation]
        while frontier:
            elems += sorted(frontier, key=lambda g: g.label)
            new = []
            for h in frontier:
                for g in gens:
                    prod = g.compose(h)
                    if prod not in seen:
                        seen.add(prod)
                        new.append(prod)
            frontier = new
        return tuple(elems)


# --------------------------------------------------------------------------
# the four constructors


def quadratic_tower(p) -> TowerSpec:
    p = parse_rational(p)
    if p >= 0:
        raise WrongSign("quadratic case needs p < 0")
    tower = TowerSpec(
        QUADRATIC,
        {"p": p},
        rules=[(("sp", "sp"), {(): p})],
        basis_monomials=[(), ("sp",)],
        basis_labels=["1", "sqrt(p)"],
    )
    tower.generators = {"rho": tower._ring_map("rho", sp=-tower.radical("sp"))}
    _check_generators(tower)
    return tower


def biquadratic_tower(p1, p2) -> TowerSpec:
    p1, p2 = parse_rational(p1), parse_rational(p2)
    if p1 >= 0 or p2 >= 0:
        raise WrongSign("biquadratic case needs p1 < 0 and p2 < 0")
    if is_rational_square(p1 / p2):
        raise DegenerateBiquadratic("p1/p2 is a rational square, fields coincide")
    tower = TowerSpec(
        BIQUADRATIC,
        {"p1": p1, "p2": p2},
        rules=[(("s1", "s1"), {(): p1}), (("s2", "s2"), {(): p2})],
        basis_monomials=[(), ("s1",), ("s2",), ("s1", "s2")],
        basis_labels=["1", "sqrt(p1)", "sqrt(p2)", "sqrt(p1)*sqrt(p2)"],
    )
    s1 = tower._ring_map("s1", s1=-tower.radical("s1"))
    s2 = tower._ring_map("s2", s2=-tower.radical("s2"))
    tower.generators = {"s1": s1, "s2": s2, "rho": s1.compose(s2)}
    _check_generators(tower)
    return tower


def _check_quartic_params(d, p, q):
    d = parse_rational(d)
    if d.denominator != 1 or d <= 1:
        raise NotSquareFree("d must be a square-free integer > 1")
    if not is_square_free(d.numerator):
        raise NotSquareFree(f"d = {d.numerator} is not square-free")
    p, q = parse_rational(p), parse_rational(q)
    if p >= 0:
        raise WrongSign("quartic cases need p < 0")
    dprime = p * p - q * q * d
    if dprime <= 0:
        raise WrongSign("p^2 - q^2 d must be positive for a CM field")
    return d, p, q, dprime


def cyclic_quartic_tower(d, p, q) -> TowerSpec:
    """Case with cyclic Galois group Z4; needs dp = p^2 - q^2 d in d*(Q^x)^2."""
    d, p, q, dprime = _check_quartic_params(d, p, q)
    if not square_class_test(dprime, d):
        raise SquareClassMismatch(
            f"dp = {format_rational(dprime)} is not in {format_rational(d)}*(Q^x)^2"
        )
    e = rational_sqrt(dprime / d)  # sqrt(dp) = e*sqrt(d), e > 0
    tower = TowerSpec(
        CYCLIC_QUARTIC,
        {"d": d, "p": p, "q": q},
        rules=[(("sd", "sd"), {(): d}), (("xp", "xp"), {(): p, ("sd",): q})],
        basis_monomials=[(), ("sd",), ("xp",), ("sd", "xp")],
        basis_labels=["1", "sqrt(d)", "xi+", "sqrt(d)*xi+"],
    )
    # sigma0: sqrt(d) -> -sqrt(d), xi+ -> xi- = -sqrt(dp)/xi+
    #   = (q/e)*xi+ - (p/(d*e))*sqrt(d)*xi+
    xi_minus = tower.element([0, 0, q / e, -p / (d * e)])
    s0 = tower._ring_map("s0", sd=-tower.radical("sd"), xp=xi_minus)
    tower.generators = {"s0": s0, "rho": s0.compose(s0)}
    _check_generators(tower)
    return tower


def quartic_closure_tower(d, p, q) -> TowerSpec:
    """Degree-8 normal closure for the non-Galois case (group Z4 x| Z2)."""
    d, p, q, dprime = _check_quartic_params(d, p, q)
    if square_class_test(dprime, d):
        raise SquareClassMismatch(
            f"dp = {format_rational(dprime)} lies in d*(Q^x)^2: cyclic case, not closure"
        )
    if is_rational_square(dprime):
        raise SquareClassMismatch(
            f"dp = {format_rational(dprime)} is a rational square: field is biquadratic"
        )
    tower = TowerSpec(
        QUARTIC_CLOSURE,
        {"d": d, "p": p, "q": q},
        rules=[
            (("sd", "sd"), {(): d}), (("sdp", "sdp"), {(): dprime}),
            (("xp", "xp"), {(): p, ("sd",): q}), (("xm", "xm"), {(): p, ("sd",): -q}),
            # xi+ * xi- = -sqrt(dp), so sqrt(dp) * xi+- = -xi+ * xi- * xi+-
            (("xp", "xm"), {("sdp",): -1}),
            (("sdp", "xp"), {("xp", "xp", "xm"): -1}),
            (("sdp", "xm"), {("xp", "xm", "xm"): -1}),
        ],
        basis_monomials=[
            (), ("sd",), ("sdp",), ("sd", "sdp"),
            ("xp",), ("xm",), ("sd", "xp"), ("sd", "xm"),
        ],
        basis_labels=[
            "1", "sqrt(d)", "sqrt(dp)", "sqrt(d)*sqrt(dp)",
            "xi+", "xi-", "sqrt(d)*xi+", "sqrt(d)*xi-",
        ],
    )
    sd, sdp, xp, xm = (tower.radical(r) for r in ("sd", "sdp", "xp", "xm"))
    s0 = tower._ring_map("s0", sd=-sd, sdp=-sdp, xp=xm, xm=-xp)
    s3 = tower._ring_map("s3", sd=-sd, xp=xm, xm=xp)
    tower.generators = {"s0": s0, "s3": s3, "rho": s0.compose(s0)}
    _check_generators(tower)
    return tower


def _check_generators(tower: TowerSpec):
    for name, g in tower.generators.items():
        if not _respects_rules(tower, g):
            raise MathError(
                f"generator {name} is not a ring automorphism; inconsistent parameters"
            )


def _respects_rules(tower: TowerSpec, g: GaloisElement) -> bool:
    """Whether each monomial's image under g is the product of its radicals'
    images, and those images satisfy every rule of the table: for a map on
    a presentation, the same as g(x y) = g(x) g(y) on every basis pair."""
    image = dict(zip(tower._monomials, g.images))

    def word(w):
        x = tower.one()
        for r in w:
            x = x * image[(r,)]
        return x

    return (all(img == word(m) for m, img in image.items())
            and all(word(pair) == sum((word(w) * c for w, c in product.items()),
                                      tower.zero())
                    for pair, product in tower._rules))


def serialize_tower(tower: TowerSpec) -> dict:
    return {
        "case": tower.case,
        "params": {k: format_rational(v) for k, v in sorted(tower.params.items())},
    }
