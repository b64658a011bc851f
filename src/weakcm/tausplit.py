"""Validation of weak-CM period matrices and certified isogeny splitting.

A period matrix is the n x n matrix tau with coframe rows (1 | tau) over a
rational basis of H^1, det(tau - taubar) != 0, entries in the distinguished
embedding of the CM field.  Validation computes the Galois difference
matrices

    delta = tau - tau^g,   eps = tau^(g g') - tau^g

(g = s1, g' = s2 in the biquadratic case; g = s0, eps = -s0(delta) in the
quartic cases) and checks the rank split that makes the top-form conjugate
pure.  Splitting then produces an exact certificate (P, S, renaming, c1/c2
or M, standard form) whose verification is an independent recomputation.

The P/S search works on the rational "realification": each coframe row over
its coefficient field F expands into [F:Q] rational rows; the standard form
realifies to a permutation matrix, so S is a single exact linear solve and
P can be taken to be the identity block matrix.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from . import linalg, tower as tw
from .cmfield import CASE_A, CASE_B, CASE_C, DEG2, CMFieldData, dprime_of, reflex_bc
from .errors import (
    DegenerateP,
    MathError,
    NotFullSpan,
    OddDimension,
    ProperSubfield,
    SingularMatrix,
    SingularTauBar,
    TowerMismatch,
)

_ASSEMBLY_LABELS = {
    DEG2: ("1", "sqrt(p)"),
    CASE_A: ("1", "sqrt(p1)", "sqrt(p2)", "sqrt(p1)*sqrt(p2)"),
    CASE_B: ("1", "sqrt(d)", "xi+", "sqrt(d)*xi+"),
    CASE_C: ("1", "sqrt(d)", "xi+", "sqrt(d)*xi+"),
}


@dataclass(frozen=True)
class PeriodMatrix:
    """tau = sum_k B_k * (assembly monomial k), all B_k rational n x n."""

    field: CMFieldData
    n: int
    B: tuple  # 2 matrices for deg2, else 4; row-major tuples of Fractions

    def __post_init__(self):
        want = 2 if self.field.case == DEG2 else 4
        if len(self.B) != want:
            raise TowerMismatch(f"case {self.field.case} needs {want} B-matrices")
        for M in self.B:
            if len(M) != self.n or any(len(r) != self.n for r in M):
                raise TowerMismatch("B matrices must be n x n")

    def tau(self):
        t = self.field.tower
        labels = _ASSEMBLY_LABELS[self.field.case]
        monos = [t.gen(lbl) for lbl in labels]
        out = []
        for i in range(self.n):
            row = []
            for j in range(self.n):
                acc = t.zero()
                for M, mono in zip(self.B, monos):
                    c = M[i][j]
                    if c:
                        acc = acc + mono * c
                row.append(acc)
            out.append(row)
        return out


def period_matrix(field: CMFieldData, *Bs) -> PeriodMatrix:
    n = len(Bs[0])
    mats = tuple(
        tuple(tuple(Fraction(x) for x in row) for row in M) for M in Bs
    )
    return PeriodMatrix(field=field, n=n, B=mats)


def _apply_galois(g, M):
    return [[g(x) for x in row] for row in M]


def _mat_sub(A, B):
    return [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(A, B)]


@dataclass
class DeltaEps:
    """Galois difference data of a validated period matrix."""

    delta: list
    eps: list
    rank_delta: int
    rank_eps: int
    rank_joint: int
    p_split: int | None
    subfield_dim: int


def _expected_field_dim(case: str) -> int:
    return 2 if case == DEG2 else 4


def validate_weak_cm(pm: PeriodMatrix) -> DeltaEps:
    """Check the weak-CM conditions exactly; raises on any failure.

    Order of checks: entries generate the full field, det(tau - taubar)
    nonzero, then the delta/eps rank split.
    """
    t = pm.field.tower
    case = pm.field.case
    if case in (CASE_B, CASE_C) and pm.n % 2:
        raise OddDimension(
            "no weak CM abelian variety exists in cases B/C with odd "
            f"complex dimension (n = {pm.n})"
        )
    tau = pm.tau()
    entries = [x for row in tau for x in row]

    alg = tw.generated_subalgebra(t, entries)
    want = _expected_field_dim(case)
    if len(alg) < want:
        basis_desc = [str(t.element(v)) for v in alg]
        raise ProperSubfield(
            f"tau entries generate a subfield of dimension {len(alg)} < {want}: "
            f"spanned by {basis_desc}",
            subfield_dim=len(alg),
            subfield_basis=tuple(basis_desc),
        )

    taubar = _apply_galois(t.conjugation, tau)
    diff = _mat_sub(tau, taubar)
    if not linalg.mat_det(diff, t.one()):
        raise SingularTauBar("det(tau - taubar) = 0")

    n = pm.n
    if case == DEG2:
        delta = diff
        eps = [[t.zero()] * n for _ in range(n)]
        return DeltaEps(delta, eps, n, 0, n, None, len(alg))

    if case == CASE_A:
        s1 = t.generators["s1"]
        delta = _mat_sub(tau, _apply_galois(s1, tau))
        eps = _mat_sub(taubar, _apply_galois(s1, tau))  # rho = s1 s2 here
        if _mat_sub(delta, eps) != diff:
            raise MathError("delta - eps != tau - taubar")
    else:
        s0 = t.generators["s0"]
        tau_s0 = _apply_galois(s0, tau)
        delta = _mat_sub(tau, tau_s0)
        eps = _mat_sub(_apply_galois(s0, tau_s0), tau_s0)
        minus_s0_delta = [[-s0(x) for x in row] for row in delta]
        if eps != minus_s0_delta:
            raise MathError("eps != -s0(delta)")

    rank_delta = linalg.row_rank(delta)
    rank_eps = linalg.row_rank(eps)
    rank_joint = linalg.row_rank(delta + eps)
    if rank_joint != n or rank_delta + rank_eps != n:
        raise NotFullSpan(
            f"delta/eps spans do not split C^n: rank(delta) = {rank_delta}, "
            f"rank(eps) = {rank_eps}, joint = {rank_joint}, n = {n}; the "
            "top-form conjugate is not of pure Hodge type"
        )
    p = rank_eps
    if case in (CASE_B, CASE_C) and (rank_delta != rank_eps or 2 * p != n):
        raise NotFullSpan(
            f"cases B/C need rank(delta) = rank(eps) = n/2, got "
            f"{rank_delta}/{rank_eps}"
        )
    if p == 0 or p == n:
        raise DegenerateP("rank split degenerated; tau lies in a subfield")
    return DeltaEps(delta, eps, rank_delta, rank_eps, rank_joint, p, len(alg))


# --------------------------------------------------------------------------
# certificates


@dataclass
class LevelNReport:
    hodge_numbers: dict   # (p, q) -> count
    p_split: int | None


class FactorDescriptor(NamedTuple):
    kind: str         # "elliptic" | "abelian-surface"
    cm_field: str
    multiplicity: int


@dataclass
class SplitCertificate:
    """Exact witness of the isogeny decomposition.

    verify_certificate recomputes P^-1 . (C . Pi . (1|tau)) . S entrywise
    where Pi is the renaming permutation and C the recorded c1/c2 or M
    coordinate change, and compares with standard_form.
    """

    case: str
    n: int
    renaming: tuple            # row i of the renamed tau is tau[renaming[i]]
    P: list                    # block-diagonal over the stated fields
    block_sizes: tuple
    block_fields: tuple        # basis labels of each block's field
    S: list                    # 2n x 2n rational
    standard_form: list        # tower-valued target matrix
    factors: tuple
    level: LevelNReport
    c1: list | None = None
    c2: list | None = None
    M: list | None = None


class VerifyResult(NamedTuple):
    ok: bool
    diagnostic: str | None


def _identity_tower(t, n):
    return linalg.identity_matrix(n, t.one())


def _perm_matrix(t, renaming):
    n = len(renaming)
    out = [[t.zero() for _ in range(n)] for _ in range(n)]
    for i, j in enumerate(renaming):
        out[i][j] = t.one()
    return out


def _coordinate_matrix(t, tau):
    n = len(tau)
    left = _identity_tower(t, n)
    return [left[i] + list(tau[i]) for i in range(n)]


def _realify_rows(rows, basis_elements):
    """Expand field-valued rows over the Q-basis of their coefficient field.

    A row w = sum_k omega_k x_k contributes the rational rows x_1 ... x_m;
    the coordinates of every entry come from one multi-column solve.
    Raises when some entry falls outside the claimed field.
    """
    entries = [x for row in rows for x in row]
    if not entries:
        return []
    dim = entries[0].tower.dim
    A = [[b.coeffs[i] for b in basis_elements] for i in range(dim)]
    X = linalg.solve_columns(A, [[x.coeffs[i] for x in entries] for i in range(dim)])
    if X is None:
        bad = next(x for x in entries
                   if tw.subspace_coordinates(basis_elements, x) is None)
        raise MathError(
            f"entry {bad} is not valued in the claimed coefficient field"
        )
    out = []
    start = 0
    for row in rows:
        stop = start + len(row)
        out.extend(coords[start:stop] for coords in X)
        start = stop
    return out


def _field_tag(x: Fraction) -> str:
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
    """The target coframe matrix, rows grouped by factor blocks."""
    t = field.tower
    zero, one = t.zero(), t.one()
    case = field.case
    if case == DEG2:
        sp = t.gen("sqrt(p)")
        return [
            [one if j == a else zero for j in range(n)]
            + [sp if j == a else zero for j in range(n)]
            for a in range(n)
        ]
    if case == CASE_A:
        sp1, sp2 = t.gen("sqrt(p1)"), t.gen("sqrt(p2)")
        rows = []
        for a in range(n):
            mult = sp1 if a < n - p_split else sp2
            rows.append(
                [one if j == a else zero for j in range(n)]
                + [mult if j == a else zero for j in range(n)]
            )
        return rows
    r = n // 2
    _, (basis,), _ = _blocks_basis(field, n, p_split)
    omega = basis  # (1, sqrt(dp), xi+ + xi-, sqrt(d)(xi+ - xi-))
    top = []
    for a in range(r):
        row = []
        for k in range(4):
            row.extend(omega[k] if j == a else zero for j in range(r))
        top.append(row)
    s03 = _s0_cubed(t)
    bottom = [[s03(x) for x in row] for row in top]
    return top + bottom


def _s0_cubed(t):
    s0 = t.generators["s0"]
    return s0.compose(s0).compose(s0)


def _choose_renaming(case, delta, eps, p_split):
    """Lexicographically first index split with the required independence."""
    n = len(delta)
    if case == CASE_A:
        k = n - p_split
        for subset in itertools.combinations(range(n), k):
            comp = tuple(i for i in range(n) if i not in subset)
            if linalg.row_rank([delta[i] for i in subset]) != k:
                continue
            if linalg.row_rank([eps[i] for i in comp]) != p_split:
                continue
            return subset + comp
        raise MathError("no index split achieves the delta/eps independence")
    r = n // 2
    for subset in itertools.combinations(range(n), r):
        if linalg.row_rank([delta[i] for i in subset]) == r:
            comp = tuple(i for i in range(n) if i not in subset)
            return comp + subset  # independent delta rows go to the bottom
    raise MathError("no independent bottom delta rows found")


def _solve_s(t, W_rows_blocks, std_rows_blocks, block_bases):
    """Realify both sides blockwise and solve RW . S = RStd for the rational S."""
    RW, RStd = [], []
    for rows, std_rows, basis in zip(W_rows_blocks, std_rows_blocks, block_bases):
        RW.extend(_realify_rows(rows, basis))
        RStd.extend(_realify_rows(std_rows, basis))
    try:
        return linalg.solve_rational(RW, RStd)
    except SingularMatrix as exc:
        raise MathError(
            "realified coordinate matrix is singular; coordinate change "
            "is not invertible"
        ) from exc


def _certify_membership(M, basis_elements, what):
    for row in M:
        for x in row:
            if tw.subspace_coordinates(basis_elements, x) is None:
                raise MathError(f"{what} has an entry outside its stated field")


def split_degree2(pm: PeriodMatrix) -> SplitCertificate:
    if pm.field.case != DEG2:
        raise TowerMismatch("split_degree2 expects an imaginary quadratic field")
    validate_weak_cm(pm)
    t = pm.field.tower
    n = pm.n
    renaming = tuple(range(n))
    W = _coordinate_matrix(t, pm.tau())
    std = standard_form(pm.field, n, None)
    sizes, bases, labels = _blocks_basis(pm.field, n, None)
    S = _solve_s(t, [W], [std], bases)
    cert = SplitCertificate(
        case=DEG2,
        n=n,
        renaming=renaming,
        P=_identity_tower(t, n),
        block_sizes=sizes,
        block_fields=labels,
        S=S,
        standard_form=std,
        factors=(
            FactorDescriptor("elliptic", _field_tag(t.params["p"]), n),
        ),
        level=LevelNReport({(n, 0): 1, (0, n): 1}, None),
    )
    _selfcheck(pm, cert)
    return cert


def split_caseA(pm: PeriodMatrix):
    if pm.field.case != CASE_A:
        raise TowerMismatch("split_caseA expects a biquadratic field")
    de = validate_weak_cm(pm)
    t = pm.field.tower
    n, p = pm.n, de.p_split
    renaming = _choose_renaming(CASE_A, de.delta, de.eps, p)
    delta = [de.delta[i] for i in renaming]
    eps = [de.eps[i] for i in renaming]
    k = n - p

    # eps_top + c1 . eps_bottom = 0 and c2 . delta_top + delta_bottom = 0
    c1 = linalg.solve_left(eps[k:], [[-x for x in row] for row in eps[:k]])
    c2 = linalg.solve_left(delta[:k], [[-x for x in row] for row in delta[k:]])
    if c1 is None or c2 is None:
        raise MathError("delta/eps relation rows are not in the claimed spans")
    one_q = [t.one(), t.gen("sqrt(p1)")]
    two_q = [t.one(), t.gen("sqrt(p2)")]
    _certify_membership(c1, one_q, "c1")
    _certify_membership(c2, two_q, "c2")

    s1 = t.generators["s1"]
    C = []
    for a in range(k):
        C.append(
            [t.one() if j == a else t.zero() for j in range(k)]
            + [s1(c1[a][b]) for b in range(p)]
        )
    for b in range(p):
        C.append(
            [c2[b][d] for d in range(k)]
            + [t.one() if j == b else t.zero() for j in range(p)]
        )
    if not linalg.mat_det(C, t.one()):
        raise MathError("dw coordinate change is singular")

    L = linalg.mat_mul(C, _perm_matrix(t, renaming))
    W = linalg.mat_mul(L, _coordinate_matrix(t, pm.tau()))
    std = standard_form(pm.field, n, p)
    sizes, bases, labels = _blocks_basis(pm.field, n, p)
    S = _solve_s(t, [W[:k], W[k:]], [std[:k], std[k:]], bases)

    level = LevelNReport(_level_numbers_A(n, p), p)
    cert = SplitCertificate(
        case=CASE_A,
        n=n,
        renaming=renaming,
        P=_identity_tower(t, n),
        block_sizes=sizes,
        block_fields=labels,
        S=S,
        standard_form=std,
        factors=(
            FactorDescriptor("elliptic", _field_tag(t.params["p1"]), k),
            FactorDescriptor("elliptic", _field_tag(t.params["p2"]), p),
        ),
        level=level,
        c1=c1,
        c2=c2,
    )
    _selfcheck(pm, cert)
    return cert, level


def _level_numbers_A(n, p):
    numbers = {(n, 0): 1, (0, n): 1}
    for key in ((p, n - p), (n - p, p)):
        numbers[key] = numbers.get(key, 0) + 1
    return numbers


def split_caseBC(pm: PeriodMatrix):
    if pm.field.case not in (CASE_B, CASE_C):
        raise TowerMismatch("split_caseBC expects a quartic case B/C field")
    de = validate_weak_cm(pm)  # raises OddDimension for odd n
    t = pm.field.tower
    n = pm.n
    r = n // 2
    renaming = _choose_renaming(pm.field.case, de.delta, de.eps, r)
    delta = [de.delta[i] for i in renaming]

    # delta_top = M . delta_bottom with the bottom rows independent
    M = linalg.solve_left(delta[r:], delta[:r])
    if M is None:
        raise MathError("top delta rows are not spanned by the bottom rows")
    reflex = reflex_bc(pm.field)
    _certify_membership(M, list(reflex.basis), "M")

    s03 = _s0_cubed(t)
    C = []
    for a in range(r):
        C.append(
            [t.one() if j == a else t.zero() for j in range(r)]
            + [-M[a][b] for b in range(r)]
        )
    for a in range(r):
        C.append(
            [t.one() if j == a else t.zero() for j in range(r)]
            + [-s03(M[a][b]) for b in range(r)]
        )
    if not linalg.mat_det(C, t.one()):
        raise MathError("dw coordinate change is singular")

    L = linalg.mat_mul(C, _perm_matrix(t, renaming))
    W = linalg.mat_mul(L, _coordinate_matrix(t, pm.tau()))
    for a in range(r):  # bottom rows are the s0^3-conjugates of the top rows
        if W[r + a] != [s03(x) for x in W[a]]:
            raise MathError("bottom coframe rows are not the s0^3 conjugates")

    std = standard_form(pm.field, n, r)
    sizes, bases, labels = _blocks_basis(pm.field, n, r)
    S = _solve_s(t, [W[:r]], [std[:r]], bases)

    dp = dprime_of(pm.field)
    params = pm.field.tower.params
    tag = (
        f"reflex quartic of Q(xi+) [d={tw.format_rational(params['d'])}, "
        f"p={tw.format_rational(params['p'])}, q={tw.format_rational(params['q'])}, "
        f"dp={tw.format_rational(dp)}]"
    )
    level = LevelNReport({(n, 0): 1, (0, n): 1, (r, r): 2}, r)
    cert = SplitCertificate(
        case=pm.field.case,
        n=n,
        renaming=renaming,
        P=_identity_tower(t, r),
        block_sizes=sizes,
        block_fields=labels,
        S=S,
        standard_form=std,
        factors=(FactorDescriptor("abelian-surface", tag, r),),
        level=level,
        M=M,
    )
    _selfcheck(pm, cert)
    return cert, level


def split(pm: PeriodMatrix):
    """Dispatch on the case; returns (certificate, level report)."""
    if pm.field.case == DEG2:
        cert = split_degree2(pm)
        return cert, cert.level
    if pm.field.case == CASE_A:
        return split_caseA(pm)
    return split_caseBC(pm)


def _selfcheck(pm, cert):
    res = verify_certificate(pm, cert)
    if not res.ok:
        raise MathError(f"internal: fresh certificate failed to verify: {res.diagnostic}")


# --------------------------------------------------------------------------
# verification


def _rebuild_C(pm: PeriodMatrix, cert: SplitCertificate):
    t = pm.field.tower
    n = cert.n
    if cert.case == DEG2:
        return _identity_tower(t, n)
    if cert.case == CASE_A:
        k, p = cert.block_sizes
        s1 = t.generators["s1"]
        C = []
        for a in range(k):
            C.append(
                [t.one() if j == a else t.zero() for j in range(k)]
                + [s1(cert.c1[a][b]) for b in range(p)]
            )
        for b in range(p):
            C.append(
                [cert.c2[b][d] for d in range(k)]
                + [t.one() if j == b else t.zero() for j in range(p)]
            )
        return C
    r = cert.block_sizes[0]
    s03 = _s0_cubed(t)
    C = []
    for a in range(r):
        C.append(
            [t.one() if j == a else t.zero() for j in range(r)]
            + [-cert.M[a][b] for b in range(r)]
        )
    for a in range(r):
        C.append(
            [t.one() if j == a else t.zero() for j in range(r)]
            + [-s03(cert.M[a][b]) for b in range(r)]
        )
    return C


def verify_certificate(pm: PeriodMatrix, cert: SplitCertificate) -> VerifyResult:
    """Recompute P^-1 (C Pi (1|tau)) S exactly and compare entrywise."""
    t = pm.field.tower
    one = t.one()
    if not linalg.mat_det(cert.S, Fraction(1)):
        return VerifyResult(False, "S is singular over Q")
    if not linalg.mat_det(cert.P, one):
        return VerifyResult(False, "P is singular over its field")
    try:
        P_inv = linalg.mat_inverse(cert.P, one)
    except SingularMatrix:
        return VerifyResult(False, "P is singular over its field")

    try:
        C = _rebuild_C(pm, cert)
    except Exception as exc:  # malformed certificate payloads
        return VerifyResult(False, f"cannot rebuild coordinate change: {exc}")
    if sorted(cert.renaming) != list(range(cert.n)):
        return VerifyResult(False, "renaming is not a permutation")
    L = linalg.mat_mul(C, _perm_matrix(t, cert.renaming))
    W = linalg.mat_mul(L, _coordinate_matrix(t, pm.tau()))

    if cert.case in (CASE_B, CASE_C):
        r = cert.block_sizes[0]
        s03 = _s0_cubed(t)
        P_inv_conj = [[s03(x) for x in row] for row in P_inv]
        lhs = linalg.mat_mul(P_inv, W[:r]) + linalg.mat_mul(P_inv_conj, W[r:])
    else:
        lhs = linalg.mat_mul(P_inv, W)
    lhs = linalg.mat_mul(lhs, [[t.rational(x) for x in row] for row in cert.S])

    for i, (lr, sr) in enumerate(zip(lhs, cert.standard_form)):
        for j, (a, b) in enumerate(zip(lr, sr)):
            if a != b:
                return VerifyResult(
                    False,
                    f"standard form mismatch at row {i}, column {j}: "
                    f"{a} != {b}",
                )
    return VerifyResult(True, None)
