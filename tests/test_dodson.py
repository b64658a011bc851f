"""Im(N,2) machinery: triples, enumeration, classification, reflex data."""

import itertools
import json
import os
import random

import pytest

from util import (
    CayleyTable,
    burnside_class_count,
    class_table,
    class_tag_by_table,
    classify_by_bfs,
    conjugacy_orbit_bfs,
    element_key,
    find_class,
    group_from_triple_by_tuples,
    identify_group_by_universe,
    im_inv,
    is_subgroup,
    model_group,
    reflex_by_cosets,
    stabilizer_by_universe,
    subgroup_key,
)
from weakcm import dodson, hodge, serialize
from weakcm.dodson import (
    AbstractCMType,
    DodsonTriple,
    ImN2Element,
    enumerate_admissible,
    group_from_triple,
    im_identity,
    im_mul,
    im_rho,
    perm_apply_bits,
    perm_mul,
    reflex_from_dodson,
    standard_phi,
    triple_from_group,
    universe,
)
from weakcm.errors import BoundExceeded, InvalidCMType, InvalidTriple, NotAdmissible
from weakcm.presets import preset_by_name, preset_reflex_reports, weight1_presets

ID3 = (0, 1, 2)
C3 = (1, 2, 0)


# ---------------------------------------------------------------- group law


def test_semidirect_associativity_exhaustive_n2():
    els = universe(2).elements
    for a in els:
        for b in els:
            for c in els:
                assert im_mul(im_mul(a, b), c) == im_mul(a, im_mul(b, c))


def test_semidirect_associativity_sampled_n3():
    els = universe(3).elements
    rng = random.Random(2)
    for _ in range(500):
        a, b, c = (els[rng.randrange(len(els))] for _ in range(3))
        assert im_mul(im_mul(a, b), c) == im_mul(a, im_mul(b, c))


def test_rho_central():
    for N in (1, 2, 3):
        rho = im_rho(N)
        for g in universe(N).elements:
            assert im_mul(rho, g) == im_mul(g, rho)


def test_inverses():
    for N in (2, 3):
        e = im_identity(N)
        for g in universe(N).elements:
            assert im_mul(g, im_inv(g)) == e


def test_ambient_orders():
    # |Im(N,2)| = 2^N N!: constructed independently by direct product counting
    for N in (1, 2, 3, 4):
        direct = len(list(itertools.product((0, 1), repeat=N))) * len(
            list(itertools.permutations(range(N)))
        )
        assert dodson.im_order(N) == direct
    assert len(universe(3).elements) == 48


@pytest.mark.parametrize("N", [1, 2, 3, 4])
def test_universe_tables_match_element_product(N):
    # the structural tables against the element-level product and inverse
    U = universe(N)
    full = [ImN2Element(b, p) for b in itertools.product((0, 1), repeat=N)
            for p in itertools.permutations(range(N))]
    assert U.elements == sorted(full, key=element_key) == sorted(full)
    els = U.elements
    assert U.mul == [[U.index[im_mul(a, b)] for b in els] for a in els]
    assert U.inv == [U.index[im_inv(g)] for g in els]
    assert els[U.identity_idx] == im_identity(N)
    assert els[U.rho_idx] == im_rho(N)


def _cayley_groups():
    groups = [universe(2).elements, universe(3).elements]
    for pr, rep in preset_reflex_reports():
        groups += [pr.cm_type.group, rep.group]
    return groups


def test_cayley_from_imn2_matches_element_product():
    # the universe tables restricted to a subgroup, and the invariants that
    # identify_group reads off them, against a Cayley table of im_mul
    for G in _cayley_groups():
        U = universe(G[0].N)
        ids = [U.index[g] for g in G]
        local = {u: i for i, u in enumerate(ids)}
        slow = CayleyTable(G, im_mul)
        assert slow.elements == list(G)
        assert [[local[U.mul[a][b]] for b in ids] for a in ids] == slow.mul
        assert local[U.identity_idx] == slow.identity
        assert [local[U.inv[a]] for a in ids] == slow.inv == [slow.index[im_inv(g)] for g in G]
        assert dodson._group_invariants(U.mul, U.inv, ids) == slow.invariants()
        # the subgroup's own table, tabulated without the universe
        assert dodson._subgroup_table(G) == (slow.mul, slow.inv)


def test_group_invariants_match_cayley_tables():
    # every admissible subgroup at N <= 3 on the Im(N,2) tables, and every
    # subgroup of S_3 and S_4 on the S_N tables
    for N in (1, 2, 3):
        U = universe(N)
        for G in enumerate_admissible(N):
            ids = [U.index[g] for g in G]
            assert dodson._group_invariants(U.mul, U.inv, ids) == \
                CayleyTable(G, im_mul).invariants()
    for N in (3, 4):
        _, perms, pmul, _, pinv = dodson._sn_tables(N)
        subgroups = dodson._sn_subgroups(N)
        assert len(subgroups) == {3: 6, 4: 30}[N]
        for H in subgroups:
            ids = sorted(H)
            assert dodson._group_invariants(pmul, pinv, ids) == \
                CayleyTable([perms[x] for x in ids], perm_mul).invariants()


# ---------------------------------------------------------------- triples


def test_group_from_triple_examples():
    # (Z3 cyclic, V = {0, rho}, trivial s) has order |G0| * |V| = 6
    t = DodsonTriple(
        N=3,
        g0=(ID3, C3, (2, 0, 1)),
        v=((0, 0, 0), (1, 1, 1)),
        s=((ID3, (0, 0, 0)), (C3, (0, 0, 0)), ((2, 0, 1), (0, 0, 0))),
    )
    assert len(group_from_triple(t)) == 6

    # (S3, full bits, trivial s) is all of Im(3,2)
    s3 = tuple(sorted(itertools.permutations(range(3))))
    t_full = DodsonTriple(
        N=3,
        g0=s3,
        v=tuple(sorted(itertools.product((0, 1), repeat=3))),
        s=tuple((p, (0, 0, 0)) for p in s3),
    )
    assert len(group_from_triple(t_full)) == 48


def test_group_from_triple_rejects_non_cocycle():
    # s(c) = 100 but s(c^2) = 000 violates s(gh) = s(g) + g.s(h) mod V
    t = DodsonTriple(
        N=3,
        g0=(ID3, C3, (2, 0, 1)),
        v=((0, 0, 0), (1, 1, 1)),
        s=((ID3, (0, 0, 0)), (C3, (1, 0, 0)), ((2, 0, 1), (0, 0, 0))),
    )
    with pytest.raises(InvalidTriple) as err:
        group_from_triple(t)
    assert "cocycle" in err.value.condition


def test_group_from_triple_rejects_intransitive_and_no_rho():
    t = DodsonTriple(N=2, g0=((0, 1),), v=((0, 0), (1, 1)),
                     s=(((0, 1), (0, 0)),))
    with pytest.raises(InvalidTriple) as err:
        group_from_triple(t)
    assert err.value.condition == "dodson-triple:transitivity"

    t2 = DodsonTriple(N=2, g0=((0, 1), (1, 0)), v=((0, 0),),
                      s=(((0, 1), (0, 0)), ((1, 0), (0, 0))))
    with pytest.raises(InvalidTriple) as err:
        group_from_triple(t2)
    assert err.value.condition == "dodson-triple:contains-rho"


S2 = ((0, 1), (1, 0))


@pytest.mark.parametrize("triple, condition", [
    # G0 = {1, c} misses c^2
    (DodsonTriple(N=3, g0=(ID3, C3), v=((0, 0, 0), (1, 1, 1)),
                  s=((ID3, (0, 0, 0)), (C3, (0, 0, 0)))), "g0-subgroup"),
    # 01 + 11 = 10 is missing
    (DodsonTriple(N=2, g0=S2, v=((0, 0), (0, 1), (1, 1)),
                  s=((S2[0], (0, 0)), (S2[1], (0, 0)))), "v-subgroup"),
    # c moves 100 to 010
    (DodsonTriple(N=3, g0=(ID3, C3, (2, 0, 1)),
                  v=((0, 0, 0), (0, 1, 1), (1, 0, 0), (1, 1, 1)),
                  s=((ID3, (0, 0, 0)), (C3, (0, 0, 0)), ((2, 0, 1), (0, 0, 0)))),
     "v-stability"),
    # s is not defined on the swap
    (DodsonTriple(N=2, g0=S2, v=((0, 0), (1, 1)), s=((S2[0], (0, 0)),)),
     "cocycle-domain"),
    # s(1) = 10 is not in V
    (DodsonTriple(N=2, g0=S2, v=((0, 0), (1, 1)),
                  s=((S2[0], (1, 0)), (S2[1], (0, 0)))), "cocycle-normalized"),
])
def test_group_from_triple_names_each_subgroup_condition(triple, condition):
    with pytest.raises(InvalidTriple) as err:
        group_from_triple(triple)
    assert err.value.condition == f"dodson-triple:{condition}"


@pytest.mark.parametrize("triple, condition", [
    (DodsonTriple(N=2, g0=((0, 1), (1, 0), (0, 0)), v=((0, 0), (1, 1)),
                  s=(((0, 1), (0, 0)), ((1, 0), (0, 0)))), "g0-subgroup"),
    (DodsonTriple(N=2, g0=S2, v=((0, 0), (1, 1), (1, 1, 1)),
                  s=((S2[0], (0, 0)), (S2[1], (0, 0)))), "v-subgroup"),
    (DodsonTriple(N=2, g0=S2, v=((0, 0), (1, 1)),
                  s=((S2[0], (0, 0)), (S2[1], (2, 0)))), "cocycle"),
])
def test_group_from_triple_names_entries_outside_sn(triple, condition):
    # a permutation or bit vector outside S_N or (Z2)^N fails the condition
    # that reads it, instead of a lookup error
    with pytest.raises(InvalidTriple) as err:
        group_from_triple(triple)
    assert err.value.condition == f"dodson-triple:{condition}"


def _single_mutations(t, rng):
    """The triple t with one entry of G0, V or s added, dropped or changed,
    or with V grown by one generator."""
    N = t.N
    perms = list(itertools.permutations(range(N)))
    bitvecs = list(itertools.product((0, 1), repeat=N))
    out = []
    for p in t.g0:
        out.append(t._replace(g0=tuple(x for x in t.g0 if x != p)))
    for p in perms:
        if p not in t.g0:
            out.append(t._replace(g0=tuple(sorted(t.g0 + (p,)))))
            out.append(t._replace(s=t.s + ((p, rng.choice(bitvecs)),)))
    for w in t.v:
        out.append(t._replace(v=tuple(x for x in t.v if x != w)))
    for w in bitvecs:
        if w not in t.v:
            out.append(t._replace(v=tuple(sorted(t.v + (w,)))))
            grown = {tuple(a ^ b for a, b in zip(w, x)) for x in t.v}
            out.append(t._replace(v=tuple(sorted(set(t.v) | grown))))
    for k, (p, _) in enumerate(t.s):
        out.append(t._replace(s=t.s[:k] + t.s[k + 1:]))
        out.append(t._replace(s=t.s[:k] + ((p, rng.choice(bitvecs)),) + t.s[k + 1:]))
    return out


def test_group_from_triple_matches_tuple_oracle():
    # every admissible triple, and (G0, {0, rho}, 0) for every subgroup G0 of
    # S_N, transitive or not, each with its single mutations
    rng = random.Random(1303)
    tried = set()
    for N in (2, 3):
        _, perms, _, _, _ = dodson._sn_tables(N)
        bases = [triple_from_group(G) for G in enumerate_admissible(N)]
        for H in dodson._sn_subgroups(N):
            g0 = tuple(sorted(perms[x] for x in H))
            bases.append(DodsonTriple(N=N, g0=g0, v=((0,) * N, (1,) * N),
                                      s=tuple((p, (0,) * N) for p in g0)))
        for t in bases:
            for triple in [t] + _single_mutations(t, rng):
                want, elements = group_from_triple_by_tuples(triple)
                tried.add(want)
                if want is None:
                    assert group_from_triple(triple) == elements
                    continue
                with pytest.raises(InvalidTriple) as err:
                    group_from_triple(triple)
                assert err.value.condition == f"dodson-triple:{want}"
    assert len(tried) == 9  # every condition, and valid triples


def test_triple_from_group_full_im22():
    t = triple_from_group(universe(2).elements)
    assert len(t.g0) == 2 and len(t.v) == 4
    assert t.is_trivial_cocycle()
    assert t.tag() == "(S2,2,triv.)"


def test_triple_from_group_rejects():
    N = 2
    with pytest.raises(NotAdmissible) as err:
        triple_from_group((im_identity(N), im_rho(N)))
    assert err.value.condition == "dodson-triple:transitivity"

    sw = ImN2Element((0, 0), (1, 0))
    with pytest.raises(NotAdmissible) as err:
        triple_from_group((im_identity(N), sw))
    assert err.value.condition == "dodson-triple:contains-rho"

    with pytest.raises(NotAdmissible) as err:
        triple_from_group((im_identity(N), ImN2Element((0, 1), (1, 0))))
    assert err.value.condition == "dodson-triple:subgroup"


def test_subgroup_test_on_fibres_matches_tables():
    # triple_from_group decides "subgroup" from the (G0, V, s) conditions;
    # the O(|G|^2) check over the Im(N,2) tables is the oracle
    rng = random.Random(97)
    for N in (1, 2, 3):
        U = universe(N)
        order = len(U.elements)
        candidates = [U.closure(rng.sample(range(order), rng.randint(1, min(3, order))))
                      for _ in range(60)]
        candidates += [frozenset(rng.sample(range(order), rng.randint(1, order)))
                       for _ in range(60)]
        # unions of V-cosets over the perms of a subgroup, V often not stable
        for _ in range(60):
            perms = {U.elements[i].perm for i in U.closure(rng.sample(range(order), 1))}
            V = {(0,) * N}
            for _ in range(rng.randint(0, N)):
                x = tuple(rng.randint(0, 1) for _ in range(N))
                V |= {tuple(a ^ b for a, b in zip(x, w)) for w in V}
            shift = {p: tuple(rng.randint(0, 1) for _ in range(N)) for p in perms}
            shift[tuple(range(N))] = (0,) * N
            candidates.append(frozenset(
                U.index[ImN2Element(tuple(a ^ b for a, b in zip(shift[p], w)), p)]
                for p in perms for w in V))
        for G in list(candidates):
            candidates.append(G - {rng.choice(sorted(G))})
            candidates.append(G | {rng.randrange(order)})
        subgroups = 0
        for G in filter(None, candidates):
            fibres = {}
            for g in (U.elements[i] for i in G):
                fibres.setdefault(g.perm, set()).add(g.bits)
            want = is_subgroup(U, G)
            subgroups += want
            assert dodson._fibres_form_subgroup(fibres, N) == want
        assert 60 <= subgroups < len(candidates) - 60


def test_roundtrip_all_admissible():
    for N in (2, 3):
        for G in enumerate_admissible(N):
            assert group_from_triple(triple_from_group(G)) == G


# ---------------------------------------------------------------- enumeration


def test_enumerate_n1():
    subs = enumerate_admissible(1)
    assert len(subs) == 1
    assert set(subs[0]) == {im_identity(1), im_rho(1)}


def test_enumerate_n2():
    assert sorted(len(g) for g in enumerate_admissible(2)) == [4, 4, 8]


def _oracle_enumerate_n3():
    """Triple-based enumeration, independent of the lattice walk: transitive
    subgroups of S3 and rho-containing stable bit subgroups are hard-coded,
    cocycles found by brute force over all coset-valued maps."""
    z3 = (ID3, C3, (2, 0, 1))
    s3 = tuple(sorted(itertools.permutations(range(3))))
    v1 = ((0, 0, 0), (1, 1, 1))
    v3 = tuple(sorted(itertools.product((0, 1), repeat=3)))
    found = set()
    for g0 in (z3, s3):
        for v in (v1, v3):
            vset = set(v)
            reps = []
            seen = set()
            for bits in itertools.product((0, 1), repeat=3):
                coset = frozenset(
                    tuple(x ^ y for x, y in zip(bits, w)) for w in vset
                )
                if coset not in seen:
                    seen.add(coset)
                    reps.append(min(coset))
            for values in itertools.product(reps, repeat=len(g0)):
                s = dict(zip(g0, values))
                ok = all(
                    tuple(
                        a ^ b
                        for a, b in zip(
                            s[perm_mul(g, h)],
                            tuple(
                                x ^ y
                                for x, y in zip(s[g], perm_apply_bits(g, s[h]))
                            ),
                        )
                    )
                    in vset
                    for g in g0
                    for h in g0
                )
                if not ok:
                    continue
                elements = []
                for g in g0:
                    for w in vset:
                        elements.append(
                            ImN2Element(tuple(x ^ y for x, y in zip(s[g], w)), g)
                        )
                found.add(tuple(sorted(set(elements), key=element_key)))
    return found


def test_enumerate_n3_against_triple_oracle():
    found = set(enumerate_admissible(3))
    oracle = _oracle_enumerate_n3()
    assert found == oracle
    assert len(found) == 10


@pytest.mark.parametrize("N", [1, 2, 3])
def test_enumeration_matches_walk(N):
    # the lattice walk over Im(N,2) is the oracle, compared as ordered lists;
    # the order itself is checked against the hand-written keys
    walk = dodson._enumerate_admissible_walk(N)
    assert enumerate_admissible(N) == walk
    _check_admissible_list(N, walk)


@pytest.mark.slow
def test_enumeration_matches_walk_n4():
    # the walk takes minutes at N = 4
    walk = dodson._enumerate_admissible_walk(4)
    assert len(walk) == 202
    assert enumerate_admissible(4) == walk


def _check_admissible_list(N, subgroups):
    """Own checks of an enumeration: sorted by subgroup_key without
    duplicates, each entry a subgroup that round-trips through its triple."""
    U = universe(N)
    keys = [subgroup_key(G) for G in subgroups]
    assert keys == sorted(set(keys))
    for G in subgroups:
        assert list(G) == sorted(G, key=element_key)
        assert is_subgroup(U, (U.index[g] for g in G))
        assert group_from_triple(triple_from_group(G)) == G


def test_enumerate_n4_pinned_without_walk():
    subgroups = enumerate_admissible(4)
    assert len(subgroups) == 202
    _check_admissible_list(4, subgroups)


@pytest.mark.slow
def test_enumerate_n5_own_checks():
    # informational: no independent oracle pins the N = 5 list
    subgroups = enumerate_admissible(5, bound=5)
    assert len(subgroups) == 340
    _check_admissible_list(5, subgroups)


def test_enumerate_bound():
    with pytest.raises(BoundExceeded):
        enumerate_admissible(5)
    with pytest.raises(BoundExceeded) as err:
        enumerate_admissible(6, bound=6)
    assert "N <= 5" in str(err.value)


def test_enumeration_never_walks(monkeypatch):
    # the walk and the Im(N,2) closures are test oracles only
    def refuse(*args, **kwargs):
        raise AssertionError("production path reached the lattice walk")

    monkeypatch.setattr(dodson, "_enumerate_admissible_walk", refuse)
    monkeypatch.setattr(dodson._Universe, "closure", refuse)
    monkeypatch.setattr(dodson._Universe, "closure_extend", refuse)
    dodson._enumerate_admissible_cached.cache_clear()
    try:
        for N in (1, 2, 3, 4):
            enumerate_admissible(N)
        dodson.classify_conjugacy(3, dodson.partition_preset("cy3", 3))
        preset_reflex_reports()
    finally:
        dodson._enumerate_admissible_cached.cache_clear()


# ---------------------------------------------------------------- classification


@pytest.mark.parametrize(
    "N,name,expect",
    [(2, "k3", 3), (2, "abl", 3), (3, "cy3", 8), (3, "abl", 6),
     (4, "abl", 54), (4, "k3", 38), (4, "cy3", 64)],
)
def test_classification_counts(N, name, expect):
    part = dodson.partition_preset(name, N)
    classes = dodson.classify_conjugacy(N, part)
    assert len(classes) == expect


@pytest.mark.parametrize("N", [2, 3, 4])
@pytest.mark.parametrize("name", ["abl", "k3", "cy3"])
def test_classification_matches_bfs_oracle(N, name):
    # one breadth-first orbit per subgroup, the classification before the
    # direct orbit, is the oracle: representatives, orbit sizes and tags
    part = dodson.partition_preset(name, N)
    classes = dodson.classify_conjugacy(N, part)
    assert [(c.representative, c.orbit_size, c.tag) for c in classes] == \
        classify_by_bfs(N, part)


@pytest.mark.parametrize(
    "N,name,expect",
    [(2, "k3", 3), (2, "abl", 3), (3, "cy3", 8), (3, "abl", 6),
     (4, "cy3", 64), (4, "abl", 54), (4, "k3", 38),
     (5, "cy3", 33), (5, "abl", 20), (5, "k3", 10)],
)
def test_class_counts_by_burnside(N, name, expect):
    # Burnside's lemma counts the classes without assembling any orbit; the
    # classifications give the same counts in test_classification_counts
    # (N <= 4) and test_dodson_n5_stdout_pinned (N = 5)
    assert burnside_class_count(N, dodson.partition_preset(name, N), bound=5) == expect


def test_classification_n2_matches_cases():
    part = dodson.partition_preset("k3", 2)
    classes = dodson.classify_conjugacy(2, part)
    assert sorted(c.case_alias for c in classes) == ["A", "B", "C"]


def test_classification_cy3_tags():
    part = dodson.partition_preset("cy3", 3)
    tags = sorted(c.tag for c in dodson.classify_conjugacy(3, part))
    assert tags == sorted(
        [
            "(Z3,1,triv.)", "(Z3,1,non-triv.)", "(Z3,1,non-triv.)",
            "(S3,1,triv.)", "(S3,1,non-triv.)", "(S3,1,non-triv.)",
            "(Z3,3,triv.)", "(S3,3,triv.)",
        ]
    )


def test_classification_abl_merges_nontrivial_cocycles():
    part = dodson.partition_preset("abl", 3)
    tags = [c.tag for c in dodson.classify_conjugacy(3, part)]
    assert tags.count("(Z3,1,non-triv.)") == 1
    assert tags.count("(S3,1,non-triv.)") == 1


def test_conjugation_preserves_admissibility():
    U = universe(3)
    stab = dodson.partition_preset("abl", 3).stabilizer()
    for G in enumerate_admissible(3):
        idxs = frozenset(U.index[g] for g in G)
        for s in stab:
            conj = U.conjugate(U.index[s], idxs)
            elements = tuple(
                sorted((U.elements[i] for i in conj), key=element_key)
            )
            triple_from_group(elements)  # raises if not admissible


@pytest.mark.parametrize("name", ["cy3", "abl", "k3"])
def test_find_class_against_direct_orbit(name):
    # for every N = 3 subgroup: the orbit on the S_N tables, one
    # conjugation per stabiliser element, against the breadth-first orbit
    # on the universe(3) tables; the stabiliser against its filter of all
    # of Im(3,2); and the class that the oracle find_class picks
    U = universe(3)
    part = dodson.partition_preset(name, 3)
    stab = part.stabilizer()
    stab_idx = stabilizer_by_universe(U, part)
    assert stab == tuple(U.elements[i] for i in stab_idx)
    classes = class_table(3, part)
    seen = set()
    for G in enumerate_admissible(3):
        H = frozenset(U.index[g] for g in G)
        orbit = conjugacy_orbit_bfs(U, stab_idx, H)
        assert dodson._conjugacy_orbit(stab, H) == orbit
        i = find_class(G, classes, part)
        rep, size, _ = classes[i]
        assert frozenset(U.index[g] for g in rep) in orbit
        assert size == len(orbit)
        seen.add(i)
    assert seen == set(range(len(classes)))


def test_partition_validation():
    with pytest.raises(Exception):
        dodson.HodgePartition(
            2, 2, (((2, 0), frozenset({(0, 0), (0, 1)})),)
        ).validate()


_RHO2 = ImN2Element((1, 1), (0, 1))
_ID2 = ImN2Element((0, 0), (0, 1))
_SWAP2 = ImN2Element((0, 0), (1, 0))


@pytest.mark.parametrize("group, phi, message", [
    ((), standard_phi(2), "empty group"),
    ((_ID2, _SWAP2), standard_phi(2), "does not contain the conjugation rho"),
    ((_ID2, _RHO2, ImN2Element((1, 0), (0, 1))), standard_phi(2),
     "do not form a subgroup"),
    ((_ID2, _RHO2), ((0, 0), (0, 1)), "one slot per pair"),
])
def test_cm_type_is_checked_when_built(group, phi, message):
    with pytest.raises(InvalidCMType, match=message):
        AbstractCMType(group, phi)


# ---------------------------------------------------------------- reflex


def test_reflex_composite_case_a_level2():
    # K = Q(sqrt(p1)) + Q(sqrt(p2)) acting on an abelian surface: the level-2
    # data has reflex degree 4 with h^{2,0} = h^{0,2} = 1 and h^{1,1} = 2
    bits_only = tuple(
        sorted(ImN2Element(b, (0, 1)) for b in itertools.product((0, 1), repeat=2))
    )
    ct = AbstractCMType(bits_only, standard_phi(2))
    report = reflex_from_dodson(ct, 2)
    assert report.degree == 4
    assert report.hodge_numbers == {(2, 0): 1, (1, 1): 2, (0, 2): 1}
    assert report.class_tag == "A"


def test_reflex_and_group_names_match_universe_oracles():
    # every admissible subgroup at N = 1..4, with the standard Phi and with
    # the last pair barred: the type orbit against the coset search on the
    # universe(N) tables, the subgroup's own table against universe(N')
    types = 0
    for N in (1, 2, 3, 4):
        for G in enumerate_admissible(N):
            for phi in (standard_phi(N), standard_phi(N - 1) + ((N - 1, 1),)):
                ct = AbstractCMType(G, phi)
                types += 1
                try:
                    want = reflex_by_cosets(ct, N)
                except BoundExceeded as exc:
                    with pytest.raises(BoundExceeded) as got_exc:
                        reflex_from_dodson(ct, N)
                    assert str(got_exc.value) == str(exc)
                    continue
                got = reflex_from_dodson(ct, N)
                assert got == want
                assert list(got.hodge_numbers.items()) == list(want.hodge_numbers.items())
                assert list(got.pair_labels.items()) == list(want.pair_labels.items())
                U = universe(got.n_prime)
                mul, inv = dodson._subgroup_table(got.group)
                assert dodson._group_invariants(mul, inv, range(len(mul))) == \
                    dodson._group_invariants(U.mul, U.inv, [U.index[g] for g in got.group])
    assert types == 432
    for G in enumerate_admissible(3):
        assert dodson.identify_group(G) == identify_group_by_universe(G)


def test_class_tag_differs_from_tag_through_a_middle_pair():
    # an intransitive N = 4 type whose n' = 3 data has a (2, 2) pair: S~
    # then holds bit flips, and the class of the induced group carries
    # another tag than its own triple
    path = os.path.join(os.path.dirname(__file__), "data", "cm_type_n4.json")
    with open(path, encoding="utf-8") as fh:
        ct = serialize.parse_cm_type(json.load(fh))
    report = reflex_from_dodson(ct, 4)
    assert report.n_prime == 3
    assert report.hodge_numbers == {(4, 0): 1, (2, 2): 4, (0, 4): 1}
    assert (report.tag, report.group_name) == ("(Z3,1,non-triv.)", "Z6")
    assert report.class_tag == class_tag_by_table(report) == "(Z3,1,triv.)"
    assert report == reflex_by_cosets(ct, 4)


def test_level_data_build_no_universe_tables():
    # the N = 5 reflex of degree 10 and its group name, the classifications
    # at N = 1..4, the preset reflex table (with its n' = 3 class tags) and
    # the structures of the Hodge subcommands, all on the S_N tables: no
    # Im(N,2) table is built
    path = os.path.join(os.path.dirname(__file__), "data", "cm_type_n5.json")
    with open(path, encoding="utf-8") as fh:
        ct = serialize.parse_cm_type(json.load(fh))
    dodson.universe.cache_clear()
    report = reflex_from_dodson(ct, 5)
    assert (report.degree, report.group_name) == (10, "order-240")
    assert dodson.identify_group(ct.group) == "order-240"
    for N in (1, 2, 3, 4):
        for name in ("abl", "k3", "cy3"):
            dodson.classify_conjugacy(N, dodson.partition_preset(name, N))
    preset_reflex_reports()
    group = preset_by_name("S3-3-triv").cm_type.group
    im22 = tuple(ImN2Element(b, p) for b in itertools.product((0, 1), repeat=2)
                 for p in ((0, 1), (1, 0)))
    e = hodge.elliptic_structure()
    hodge.k3t2_analyze(hodge.k3_structure(im22), e, "disjoint")
    hodge.weight1_structure(group)
    hodge.level_subspace(hodge.tensor_cm(hodge.cy3_structure(group), e))
    hodge.weil_griffiths(hodge.cy3_structure(group))
    assert dodson.universe.cache_info().currsize == 0


def test_reflex_requires_matching_n():
    ct = preset_by_name("B").cm_type
    with pytest.raises(InvalidCMType):
        reflex_from_dodson(ct, 2)


def test_reflex_hodge_numbers_consistent():
    for pr, rep in preset_reflex_reports():
        assert sum(rep.hodge_numbers.values()) == rep.degree
        for (p, q), c in rep.hodge_numbers.items():
            assert rep.hodge_numbers[(q, p)] == c
        assert rep.bound_ok


def test_bound_exhaustive_n3():
    # every admissible N=3 subgroup, with every choice of CM type, satisfies
    # the reflex bound 2n' <= 2^3
    for G in enumerate_admissible(3):
        for signs in itertools.product((0, 1), repeat=3):
            phi = tuple((i, s) for i, s in enumerate(signs))
            ct = AbstractCMType(G, phi)
            rep = reflex_from_dodson(ct, 3)
            assert rep.degree <= 8
            assert rep.bound_ok


# ---------------------------------------------------------------- presets


EXPECTED_PRESETS = {
    "Z3-1-triv": (1, "Deg2"),
    "Z3-1-nontriv": (3, "(Z3,1,non-triv.)"),
    "S3-1-triv": (1, "Deg2"),
    "S3-1-nontriv": (3, "(S3,1,non-triv.)"),
    "Z3-3-triv": (4, "(A4,1,non-triv.)"),
    "S3-3-triv": (4, "(S4,1,non-triv.)"),
    "B": (4, None),
    "C": (4, None),
    "A-iso": (1, "Deg2"),
    "A-noniso": (2, "A"),
    "sum-iso3": (1, "Deg2"),
    "sum-iso2": (2, "A"),
    "sum-distinct": (4, None),
}


def test_weight1_presets_load_and_validate():
    presets = weight1_presets()
    assert len(presets) == 13
    names = [p.name for p in presets]
    assert len(set(names)) == 13
    for pr in presets:
        assert im_rho(3) in pr.cm_type.group


def test_preset_reflex_table():
    for pr, rep in preset_reflex_reports():
        n_prime, class_tag = EXPECTED_PRESETS[pr.name]
        assert rep.n_prime == n_prime, pr.name
        if class_tag is not None:
            assert rep.class_tag == class_tag, pr.name


def test_preset_degree8_galois_groups():
    expected = {
        "B": "Z2xZ4",
        "C": "Z2xD4",
        "Z3-3-triv": "Z2xA4",
        "S3-3-triv": "Z2xS4",
        "sum-distinct": "Z2^3",
    }
    seen = {}
    for pr, rep in preset_reflex_reports():
        if rep.degree == 8:
            seen[pr.name] = rep.group_name
    assert seen == expected


def test_preset_iii_discrepancy_note():
    assert "flag" in preset_by_name("sum-distinct").note


def test_model_invariants_match_model_groups():
    # identify_group reads the constants; the Cayley tables are the oracle
    assert dodson._MODEL_INVARIANTS == tuple(
        model_group(n).invariants() for n in dodson.LEVEL_GROUP_MODELS
    )


def test_model_groups_pairwise_distinct():
    invs = [model_group(n).invariants() for n in dodson.LEVEL_GROUP_MODELS]
    assert len(set(invs)) == len(invs)


def test_identify_group_on_models():
    # the Z2^3 model identifies through the small-group table
    bits_only = tuple(
        sorted(
            ImN2Element(b, (0, 1, 2))
            for b in itertools.product((0, 1), repeat=3)
        )
    )
    assert dodson.identify_group(bits_only) == "Z2^3"
