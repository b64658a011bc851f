"""Validation of weak-CM period matrices and certified isogeny splitting.

A period matrix is the n x n matrix tau with coframe rows (1 | tau) over a
rational basis of H^1, det(tau - taubar) != 0, entries in the distinguished
embedding of the CM field.  Validation computes the Galois difference
matrices

    delta = tau - tau^g,   eps = tau^(g g') - tau^g

(g = s1, g' = s2 in the biquadratic case; g = s0, eps = -s0(delta) in the
quartic cases) and checks the rank split that makes the top-form conjugate
pure.  A period matrix keeps its B entries as integer pairs (num, den), tau
is assembled from them, and each difference matrix (tau - taubar too) is
one integer map, (1 - g) or (rho - g), applied to each entry's numerators
and reduced once; the map is built once per tower from the generators'
images.  Each difference matrix
is eliminated once, by ``linalg.column_relations`` of its transpose.
Splitting reads the renaming and c1/c2 or M off those passes and produces
an exact certificate (P, S, renaming, c1/c2 or M, standard form) whose
verification is an independent recomputation from the certificate's data.
Each split verifies its certificate once and returns that result with it.
Split and verify build each piece with the same function: C with
``coordinate_change``, the coframe with ``_coframe``.

The S search works on the rational "realification": each coframe row over
its coefficient field F expands into [F:Q] rational rows, scaled to
integers; the standard form realifies to a permutation matrix, so S is a
single fraction-free solve (``linalg.bareiss``), kept as integer rows over
one denominator, and P is the identity block matrix, which verification
checks rather than inverts.  Only the coframe rows S is solved from are
built for the split (in cases B/C the top n/2); verification rebuilds all
n.
"""

from __future__ import annotations

import itertools
import math
from typing import NamedTuple

from . import linalg, tower as tw
from .cmfield import CASE_A, CASE_B, CASE_C, DEG2, CMFieldData, dprime_of, reflex_bc
from .errors import (
    DegenerateP,
    MathError,
    NotFullSpan,
    OddDimension,
    ProperSubfield,
    SearchBoundExceeded,
    SingularMatrix,
    SingularTauBar,
    TowerMismatch,
)

# Case A renaming tries at most this many index subsets (each costs two
# passes over relation matrices); C(n, n - p) is unbounded in n.
RENAMING_SEARCH_BOUND = 1000

class PeriodMatrix:
    """tau = sum_k B_k * (field.phi_basis monomial k), all B_k rational n x n.

    ``pairs`` holds the B_k row-major, each entry an integer pair
    ``(num, den)`` in lowest terms with ``den > 0``, the form that
    ``tower.read_rational`` gives.  The number and shape of the B_k are
    checked when it is built."""

    __slots__ = ("field", "n", "pairs", "_tau")

    def __init__(self, field: CMFieldData, n: int, pairs: tuple):
        if len(pairs) != field.degree:
            raise TowerMismatch(f"case {field.case} needs {field.degree} B-matrices")
        for M in pairs:
            if len(M) != n or any(len(r) != n for r in M):
                raise TowerMismatch("B matrices must be n x n")
        self.field = field
        self.n = n
        self.pairs = pairs
        self._tau = None

    def __repr__(self):
        return f"PeriodMatrix(field={self.field!r}, n={self.n!r}, pairs={self.pairs!r})"

    def tau(self):
        """tau as a fresh list of rows.  The entries are assembled on the
        first call and kept; each call hands out a copy of the rows.  An
        entry's numerators over its denominator (the lcm of its B entries'
        denominators) are written at the assembly monomials and reduced
        once."""
        rows = self._tau
        if rows is None:
            t = self.field.tower
            pos = [t.basis.index(lbl) for lbl in self.field.phi_basis]
            rows = []
            for i in range(self.n):
                row = []
                for j in range(self.n):
                    den, ints = tw.pair_row([M[i][j] for M in self.pairs])
                    num = [0] * t.dim
                    for k, a in zip(pos, ints):
                        num[k] = a
                    row.append(tw._normalised(t, num, den))
                rows.append(tuple(row))
            rows = self._tau = tuple(rows)
        return [list(row) for row in rows]


def period_matrix(field: CMFieldData, *Bs) -> PeriodMatrix:
    """The period matrix with the given B matrices, each entry anything
    ``tower.read_rational`` reads (an int, a ``Fraction``, an integer pair
    or a literal)."""
    read = tw.read_rational
    pairs = tuple(tuple(tuple(map(read, row)) for row in M) for M in Bs)
    return PeriodMatrix(field=field, n=len(Bs[0]), pairs=pairs)


def _difference_map(t, plus: str, minus: str):
    """The integer matrix ``(rows, den)`` of plus - minus, for generator
    names or "1" (the identity), the form ``tower.apply_matrix`` takes.
    Built from the generators' matrices once per tower and pair and kept
    by ``TowerSpec.kept``."""
    return t.kept(("difference_map", plus, minus),
                  lambda: _build_difference_map(t, plus, minus))


def _build_difference_map(t, plus, minus):
    unit = (tuple(tuple(int(i == k) for i in range(t.dim)) for k in range(t.dim)), 1)
    (ra, da), (rb, db) = (unit if name == "1" else t.generators[name].matrix()
                          for name in (plus, minus))
    den = math.lcm(da, db)
    fa, fb = den // da, den // db
    return tuple(tuple(a * fa - b * fb for a, b in zip(xa, xb))
                 for xa, xb in zip(ra, rb)), den


def _difference(t, plus: str, minus: str, tau):
    """(plus - minus)(tau), entrywise: one integer map per entry."""
    matrix = _difference_map(t, plus, minus)
    return [[tw.apply_matrix(matrix, x) for x in row] for row in tau]


class DeltaEps(NamedTuple):
    """Galois difference data of a validated period matrix.

    ``delta_relations`` (outside degree 2) and ``eps_relations`` (case A)
    are ``linalg.column_relations`` of transpose(delta) and transpose(eps).
    """

    delta: list
    eps: list
    rank_delta: int
    rank_eps: int
    p_split: int | None
    delta_relations: tuple = ()
    eps_relations: tuple = ()


def _generated_field(pm: PeriodMatrix, tau):
    """(dimension, echelon basis) of the subfield generated by the entries.

    The entries lie in the span of the assembly monomials, so 1 and the
    entries span K exactly when the entries' integer numerators at the
    assembly monomials other than 1 have rank [K:Q] - 1 (each row is an
    entry's coordinates scaled by its denominator, which keeps the rank);
    then the basis is not computed (None).  Only otherwise is the span
    closed up by ``linalg.subalgebra_basis``.
    """
    t = pm.field.tower
    want = pm.field.degree
    pos = [t.basis.index(lbl) for lbl in pm.field.phi_basis[1:]]
    if linalg.row_rank([[x.num[k] for k in pos] for row in tau for x in row]) == want - 1:
        return want, None
    alg = linalg.subalgebra_basis(t, [x for row in tau for x in row])
    return len(alg), alg


def validate_weak_cm(pm: PeriodMatrix) -> DeltaEps:
    """Check the weak-CM conditions exactly; raises on any failure.

    Order of checks: entries generate the full field, tau - taubar
    invertible (full rank; its determinant is not computed), then the
    delta/eps rank split.  tau - taubar, delta and eps are each one integer
    map (``_difference_map``) applied to tau's entries; no conjugate of tau
    is built.
    """
    t = pm.field.tower
    case = pm.field.case
    if case in (CASE_B, CASE_C) and pm.n % 2:
        raise OddDimension(
            "no weak CM abelian variety exists in cases B/C with odd "
            f"complex dimension (n = {pm.n})"
        )
    tau = pm.tau()
    want = pm.field.degree
    field_dim, alg = _generated_field(pm, tau)
    if field_dim < want:
        basis_desc = [str(v) for v in alg]
        raise ProperSubfield(
            f"tau entries generate a subfield of dimension {field_dim} < {want}: "
            f"spanned by {basis_desc}",
            subfield_dim=field_dim,
            subfield_basis=tuple(basis_desc),
        )

    n = pm.n
    diff = _difference(t, "1", "rho", tau)
    if linalg.row_rank(diff) < n:
        raise SingularTauBar("det(tau - taubar) = 0")

    if case == DEG2:
        delta = diff
        eps = [[t.zero()] * n for _ in range(n)]
        return DeltaEps(delta, eps, n, 0, None)

    # delta = tau - tau^g and eps = taubar - tau^g, with g = s1 (rho = s1 s2)
    # in case A and g = s0 (rho = s0^2) in cases B/C
    g = "s1" if case == CASE_A else "s0"
    delta = _difference(t, "1", g, tau)
    eps = _difference(t, "rho", g, tau)

    # in cases B/C, eps = -s0(delta) and s0 keeps linear relations, so
    # delta's basis rows are a basis of eps's rows
    delta_relations = linalg.column_relations(linalg.transpose(delta))
    eps_relations = ()
    eps_pivots = delta_pivots = delta_relations[0]
    if case == CASE_A:
        eps_relations = linalg.column_relations(linalg.transpose(eps))
        eps_pivots = eps_relations[0]
    rank_delta, rank_eps = len(delta_pivots), len(eps_pivots)
    # the basis rows span what all the rows span
    rank_joint = linalg.row_rank([delta[i] for i in delta_pivots]
                                 + [eps[i] for i in eps_pivots])
    if rank_joint != n or rank_delta + rank_eps != n:
        raise NotFullSpan(
            f"delta/eps spans do not split C^n: rank(delta) = {rank_delta}, "
            f"rank(eps) = {rank_eps}, joint = {rank_joint}, n = {n}; the "
            "top-form conjugate is not of pure Hodge type"
        )
    p = rank_eps
    if p == 0 or p == n:
        raise DegenerateP("rank split degenerated; tau lies in a subfield")
    return DeltaEps(delta, eps, rank_delta, rank_eps, p, delta_relations,
                    eps_relations)


# --------------------------------------------------------------------------
# certificates


class LevelNReport(NamedTuple):
    hodge_numbers: dict   # (p, q) -> count
    p_split: int | None


class FactorDescriptor(NamedTuple):
    kind: str         # "elliptic" | "abelian-surface"
    cm_field: str
    multiplicity: int


class SplitCertificate(NamedTuple):
    """Exact witness of the isogeny decomposition.

    verify_certificate recomputes C . Pi . (1|tau) . S entrywise, where Pi
    is the renaming permutation and C the recorded c1/c2 or M coordinate
    change, and compares it with standard_form.  P is always the identity
    block matrix (one block over the field of each factor, a single r x r
    block in cases B/C); it is recorded for the report and checked, not
    applied.
    """

    case: str
    n: int
    renaming: tuple            # row i of the renamed tau is tau[renaming[i]]
    P: list                    # identity, sum(block_sizes) square
    block_sizes: tuple
    block_fields: tuple        # basis labels of each block's field
    S: tuple                   # (rows, den): 2n x 2n ints over den > 0
    standard_form: list        # tower-valued target matrix
    factors: tuple
    level: LevelNReport
    c1: list | None = None
    c2: list | None = None
    M: list | None = None


class VerifyResult(NamedTuple):
    ok: bool
    diagnostic: str | None


def _realify_rows(rows, basis_elements):
    """Expand field-valued rows over the Q-basis of their coefficient field.

    A row w = sum_k omega_k x_k contributes the rows x_1 ... x_m of the
    coordinates of its entries, read from the tower's ``CoordinateMap`` of
    the basis and returned as integers: each rational row is multiplied by
    one positive integer (its common denominator), which changes no linear
    relation between the columns.  Raises when some entry falls outside
    the claimed field.
    """
    cmap = linalg.coordinate_map(basis_elements)
    out = []
    for row in rows:
        nums = []
        for x in row:
            a = cmap.numerators(x)
            if a is None:
                raise MathError(
                    f"entry {x} is not valued in the claimed coefficient field"
                )
            nums.append(a)
        den = math.lcm(*(x.den for x in row))
        scales = [den // x.den for x in row]
        for j in range(len(basis_elements)):
            out.append([a[j] * f for a, f in zip(nums, scales)])
    return out


def _field_tag(x: tuple) -> str:
    return f"Q(sqrt({tw.squarefree_part(x)}))"


def _blocks_basis(field: CMFieldData, n: int, p_split):
    """(block sizes, per-block field basis elements, per-block labels)."""
    t = field.tower
    one = t.one()
    if field.case == DEG2:
        return (n,), ([one, t.gen("sqrt(p)")],), (("1", "sqrt(p)"),)
    if field.case == CASE_A:
        bas1 = [one, t.gen("sqrt(p1)")]
        bas2 = [one, t.gen("sqrt(p2)")]
        return (
            (n - p_split, p_split),
            (bas1, bas2),
            (("1", "sqrt(p1)"), ("1", "sqrt(p2)")),
        )
    reflex = reflex_bc(field)
    labels = ("1", "sqrt(dp)", "xi+ + xi-", "sqrt(d)*(xi+ - xi-)")
    return (n // 2,), (list(reflex.basis),), (labels,)


def standard_form(field: CMFieldData, n: int, p_split):
    """The target coframe matrix, rows grouped by factor blocks.

    Degree 2 and case A: row a is (e_a | m e_a), where (1, m) is the basis
    of its block's field: m = sqrt(p), or sqrt(p1) on the first n - p rows
    and sqrt(p2) on the last p.  Cases B/C: row a < n/2 carries the
    reflex basis (1, sqrt(dp), xi+ + xi-, sqrt(d)(xi+ - xi-)) at column a of
    four n/2-wide blocks, and the bottom rows are their s0^3-conjugates.

    It depends on (field, n, p) alone, so it is built once per (n, p) and
    kept by the field's tower (``TowerSpec.kept``); each call hands out a
    fresh list of rows.
    """
    rows = field.tower.kept(("standard_form", n, p_split), lambda: tuple(
        map(tuple, _build_standard_form(field, n, p_split))))
    return [list(row) for row in rows]


def _build_standard_form(field: CMFieldData, n: int, p_split):
    t = field.tower
    zero = t.zero()
    if field.case in (DEG2, CASE_A):
        sizes, bases, _ = _blocks_basis(field, n, p_split)
        row_bases = [basis for size, basis in zip(sizes, bases) for _ in range(size)]
        return [[w if j == a else zero for w in basis for j in range(n)]
                for a, basis in enumerate(row_bases)]
    r = n // 2
    top = [[w if j == a else zero for w in reflex_bc(field).basis for j in range(r)]
           for a in range(r)]
    s03 = _s0_cubed(t)
    return top + [[s03(x) for x in row] for row in top]


def _s0_cubed(t):
    """s0^3, composed once per tower and kept by ``TowerSpec.kept``."""
    s0 = t.generators["s0"]
    return t.kept("s0_cubed", lambda: s0.compose(s0).compose(s0))


def _choose_renaming(case, p_split, delta_relations, eps_relations):
    """(renaming, c1, c2, M): the lexicographically first index split with
    the required independence, read off the relations of ``DeltaEps``.

    Cases B/C: the basis of the delta rows goes to the bottom, and M holds
    the other rows in it.  Case A needs k = n - p independent delta rows
    whose complement holds p independent eps rows; subsets are tried in
    lexicographic order, at most ``RENAMING_SEARCH_BOUND`` of them, and the
    passes over the relations that accept one give c2 and c1.
    """
    pivots, X = delta_relations
    n = len(X[0])
    if case != CASE_A:
        comp = tuple(j for j in range(n) if j not in pivots)
        M = [[X[b][q] for b in range(len(pivots))] for q in comp]
        return comp + tuple(pivots), None, None, M
    k, p = n - p_split, p_split
    eps_X = eps_relations[1]
    for tried, subset in enumerate(itertools.combinations(range(n), k)):
        if tried == RENAMING_SEARCH_BOUND:
            raise SearchBoundExceeded(
                f"case A renaming: no index split among the first "
                f"{RENAMING_SEARCH_BOUND} subsets (n = {n}, p = {p_split}), "
                "where the search stops"
            )
        comp = tuple(i for i in range(n) if i not in subset)
        top, Y2 = linalg.column_relations([[row[i] for i in subset + comp] for row in X])
        if top != list(range(k)):
            continue
        bottom, Y1 = linalg.column_relations([[row[i] for i in comp + subset]
                                              for row in eps_X])
        if bottom != list(range(p)):
            continue
        # eps_top + c1 . eps_bottom = 0 and c2 . delta_top + delta_bottom = 0
        c1 = [[-Y1[b][p + a] for b in range(p)] for a in range(k)]
        c2 = [[-Y2[a][k + b] for a in range(k)] for b in range(p)]
        return subset + comp, c1, c2, None
    raise MathError("no index split achieves the delta/eps independence")


def coordinate_change(t, case, n, block_sizes, c1=None, c2=None, M=None):
    """The coordinate change C of a certificate, from its recorded data.

    Degree 2: the identity.  Case A, blocks (k, p): rows (I_k | s1(c1)) over
    rows (c2 | I_p).  Cases B/C, block r: rows (I_r | -M) over rows
    (I_r | -s0^3(M)).  Used by both ``split`` and ``verify_certificate``.
    """
    one, zero = t.one(), t.zero()
    if case == DEG2:
        return linalg.identity_matrix(n, one)
    if case == CASE_A:
        k, p = block_sizes
        s1 = t.generators["s1"]
        top = [[one if j == a else zero for j in range(k)]
               + [s1(c1[a][b]) for b in range(p)] for a in range(k)]
        bottom = [[c2[b][d] for d in range(k)]
                  + [one if j == b else zero for j in range(p)] for b in range(p)]
        return top + bottom
    r = block_sizes[0]
    s03 = _s0_cubed(t)
    top = [[one if j == a else zero for j in range(r)]
           + [-M[a][b] for b in range(r)] for a in range(r)]
    bottom = [[one if j == a else zero for j in range(r)]
              + [-s03(M[a][b]) for b in range(r)] for a in range(r)]
    return top + bottom


def _coframe(tau, C, renaming):
    """C . Pi . (1 | tau): the coframe rows of a certificate.

    Row i of Pi . (1 | tau) is (e_j | tau[j]) for j = renaming[i].  So the
    left block C . Pi is C with column i moved to column renaming[i],
    written down directly, and the one tower product is C times the
    renamed tau.  Used by both ``split`` and ``verify_certificate``.
    """
    moved = [0] * len(tau)
    for i, j in enumerate(renaming):
        moved[j] = i
    right = linalg.mat_mul(C, [tau[j] for j in renaming])
    return [[row[i] for i in moved] + rest for row, rest in zip(C, right)]


def _solve_s(W_rows_blocks, std_rows_blocks, block_bases):
    """Realify both sides blockwise and solve RW . S = RStd for the rational
    S, returned as ``(rows, den)``: integer rows over one positive
    denominator with ``gcd(den, *entries) == 1``.

    Each row of W is realified together with its standard-form row, so
    both sides of every rational equation carry the same scale, and the
    realified rows (RW | RStd) are integers: ``linalg.bareiss`` gives
    det(RW) and det(RW) * S, which one gcd reduces.
    """
    R = []
    for rows, std_rows, basis in zip(W_rows_blocks, std_rows_blocks, block_bases):
        R += _realify_rows([w + s for w, s in zip(rows, std_rows)], basis)
    try:
        det, X = linalg.bareiss(R)
    except SingularMatrix as exc:
        raise MathError(
            "realified coordinate matrix is singular; coordinate change "
            "is not invertible"
        ) from exc
    g = math.gcd(det, *(x for row in X for x in row))
    if det < 0:
        g = -g
    return [[x // g for x in row] for row in X], det // g


def _level_numbers(n, p_split):
    """h^{n,0} = h^{0,n} = 1, plus h^{p,n-p} and h^{n-p,p} when the rank
    split p is defined (they add up to h^{r,r} = 2 in cases B/C)."""
    numbers = {(n, 0): 1, (0, n): 1}
    if p_split is not None:
        for key in ((p_split, n - p_split), (n - p_split, p_split)):
            numbers[key] = numbers.get(key, 0) + 1
    return numbers


def _factors(field: CMFieldData, n: int, p_split):
    """The factor list of a split of the field with n and p, built once per
    (n, p) from the tower's integer parameters and kept by
    ``TowerSpec.kept``."""
    return field.tower.kept(("factors", n, p_split),
                            lambda: _build_factors(field, n, p_split))


def _build_factors(field: CMFieldData, n: int, p_split):
    params = field.tower.params
    if field.case == DEG2:
        return (FactorDescriptor("elliptic", _field_tag(params["p"]), n),)
    if field.case == CASE_A:
        return (
            FactorDescriptor("elliptic", _field_tag(params["p1"]), n - p_split),
            FactorDescriptor("elliptic", _field_tag(params["p2"]), p_split),
        )
    tag = (
        f"reflex quartic of Q(xi+) [d={tw.format_rational(params['d'])}, "
        f"p={tw.format_rational(params['p'])}, q={tw.format_rational(params['q'])}, "
        f"dp={tw.format_rational(dprime_of(field))}]"
    )
    return (FactorDescriptor("abelian-surface", tag, n // 2),)


class SplitResult(NamedTuple):
    certificate: SplitCertificate
    verified: VerifyResult


def split(pm: PeriodMatrix) -> SplitResult:
    """Validate, build the certificate of the case, and verify it once.

    Returns the certificate with the result of its one
    ``verify_certificate`` call.  A fresh certificate that fails to verify
    is a library bug and raises MathError.
    """
    cert = _certificate(pm)
    verified = verify_certificate(pm, cert)
    if not verified.ok:
        raise MathError(
            f"internal: fresh certificate failed to verify: {verified.diagnostic}"
        )
    return SplitResult(cert, verified)


def _certificate(pm: PeriodMatrix) -> SplitCertificate:
    de = validate_weak_cm(pm)  # raises OddDimension for odd n in cases B/C
    field = pm.field
    t, case, n = field.tower, field.case, pm.n
    renaming = tuple(range(n))
    p_split = c1 = c2 = M = None
    if case != DEG2:
        p_split = de.p_split
        renaming, c1, c2, M = _choose_renaming(case, p_split, de.delta_relations,
                                               de.eps_relations)

    sizes, bases, labels = _blocks_basis(field, n, p_split)
    C = coordinate_change(t, case, n, sizes, c1, c2, M)
    # S maps the rows of each factor block onto the standard form; in cases
    # B/C the bottom block is the conjugate of the top one, so only the top
    # r rows of the coframe are built.  W's left half is those rows of C
    # with their columns permuted, so realifying W in _solve_s also checks
    # that c1/c2 or M lie in their block fields.  That C is invertible, and
    # (B/C) that the coframe's bottom rows are the s0^3-conjugates of its
    # top rows, follow from split's verify_certificate match of the whole
    # coframe times S with the standard form, for a rational invertible S
    std = standard_form(field, n, p_split)
    ends = list(itertools.accumulate(sizes))
    starts = [0] + ends[:-1]
    W = _coframe(pm.tau(), C[:ends[-1]], renaming)
    S = _solve_s([W[a:b] for a, b in zip(starts, ends)],
                 [std[a:b] for a, b in zip(starts, ends)], bases)
    return SplitCertificate(
        case=case,
        n=n,
        renaming=renaming,
        P=linalg.identity_matrix(ends[-1], t.one()),
        block_sizes=sizes,
        block_fields=labels,
        S=S,
        standard_form=std,
        factors=_factors(field, n, p_split),
        level=LevelNReport(_level_numbers(n, p_split), p_split),
        c1=c1,
        c2=c2,
        M=M,
    )


# --------------------------------------------------------------------------
# verification


def _s_form_diagnostic(S, size):
    """Why S is not ``(rows, den)``, size x size rows of ints over an int
    ``den > 0``; None when it is.  The rows need not be reduced."""
    if not isinstance(S, (tuple, list)) or len(S) != 2:
        return "S is not a pair (rows, den)"
    rows, den = S
    if not isinstance(rows, (tuple, list)) or not all(
            isinstance(row, (tuple, list)) for row in rows):
        return "S's rows are not a list of rows"
    widths = sorted({len(row) for row in rows})
    if len(rows) != size or widths != [size]:
        shape = f"{len(rows)} x {'/'.join(map(str, widths)) or 0}"
        return f"S is {shape}, not {size} x {size}"
    if type(den) is not int or den <= 0:
        return "S's denominator is not a positive integer"
    for i, row in enumerate(rows):
        for j, x in enumerate(row):
            if type(x) is not int:
                return f"S has a non-integer entry at row {i}, column {j}"
    return None


def verify_certificate(pm: PeriodMatrix, cert: SplitCertificate) -> VerifyResult:
    """Recompute C Pi (1|tau) S exactly and compare it entrywise with
    ``standard_form(field, n, p)``, the canonical target, which the
    recorded standard form must also equal.

    An independent recomputation from the certificate's data, for the
    period matrix's case and n: p is read from the block sizes, checked
    against the case (degree 2 ``(n,)``, case A ``(n - p, p)`` with
    0 < p < n, cases B/C ``(n/2,)``); S must be ``(rows, den)``, 2n x 2n
    integer rows over a positive integer denominator, of full rank (a
    malformed S is a diagnostic, not an exception), and the factor list,
    level numbers and block field labels those that the field, n and p
    give; C is rebuilt from the recorded c1/c2 or M.  P must be the
    identity block matrix, which ``split`` always records.  The coframe is
    multiplied by the integer rows and compared with den times the standard
    form.  ``split`` runs this once on every certificate it returns.
    """
    field, n = pm.field, pm.n
    t = field.tower
    if (cert.case, cert.n) != (field.case, n):
        return VerifyResult(False, f"certificate is for case {cert.case} with n = "
                                   f"{cert.n}, not {field.case} with n = {n}")
    sizes = tuple(cert.block_sizes)
    if field.case == DEG2:
        p_split, fits = None, sizes == (n,)
    elif field.case == CASE_A:
        p_split = sizes[1] if len(sizes) == 2 else None
        fits = type(p_split) is int and 0 < p_split < n and sizes[0] == n - p_split
    else:
        p_split = n // 2
        fits = n % 2 == 0 and sizes == (p_split,)
    if not fits:
        return VerifyResult(False, f"block sizes {list(sizes)} do not fit case "
                                   f"{field.case} with n = {n}")
    refused = _s_form_diagnostic(cert.S, 2 * n)
    if refused:
        return VerifyResult(False, refused)
    rows, den = cert.S
    if cert.factors != _factors(field, n, p_split):
        return VerifyResult(False, "recorded factors are not the field's")
    if cert.level != LevelNReport(_level_numbers(n, p_split), p_split):
        return VerifyResult(False, "recorded level numbers are not the split's")
    if tuple(map(tuple, cert.block_fields)) != _blocks_basis(field, n, p_split)[2]:
        return VerifyResult(False, "recorded block fields are not the split's")
    if linalg.row_rank(rows) < 2 * n:
        return VerifyResult(False, "S is singular over Q")
    if cert.P != linalg.identity_matrix(sum(sizes), t.one()):
        return VerifyResult(False, "P is not the identity block matrix")
    try:
        C = coordinate_change(t, cert.case, n, sizes, cert.c1, cert.c2, cert.M)
    except Exception as exc:  # malformed certificate payloads
        return VerifyResult(False, f"cannot rebuild coordinate change: {exc}")
    if sorted(cert.renaming) != list(range(n)):
        return VerifyResult(False, "renaming is not a permutation")
    # the integer rows give den * C Pi (1|tau) S; entry a matches std entry b
    # when a = den * b, whose lowest terms are b.num * (den / g) over
    # b.den / g for g = gcd(den, b.den)
    lhs = linalg.mat_mul(_coframe(pm.tau(), C, cert.renaming), rows)
    std = standard_form(field, n, p_split)
    for i, (lr, sr) in enumerate(zip(lhs, std)):
        for j, (a, b) in enumerate(zip(lr, sr)):
            g = math.gcd(den, b.den)
            f = den // g
            if a.den != b.den // g or a.num != tuple([x * f for x in b.num]):
                return VerifyResult(
                    False,
                    f"standard form mismatch at row {i}, column {j}: "
                    f"{tw._normalised(t, a.num, a.den * den)} != {b}",
                )
    if cert.standard_form != std:
        return VerifyResult(False, "recorded standard form is not the canonical one")
    return VerifyResult(True, None)
