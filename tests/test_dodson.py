"""Im(N,2) machinery: triples, enumeration, classification, reflex data."""

import itertools
import random

import pytest

from weakcm import dodson
from weakcm.dodson import (
    AbstractCMType,
    DodsonTriple,
    ImN2Element,
    element_key,
    enumerate_admissible,
    group_from_triple,
    im_identity,
    im_inv,
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
    assert U.elements == sorted(full, key=element_key)
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
    for G in _cayley_groups():
        fast = dodson.CayleyTable.from_imn2(G)
        slow = dodson.CayleyTable(G, im_mul)
        assert fast.elements == slow.elements
        assert fast.mul == slow.mul
        assert fast.identity == slow.identity
        assert fast.inv == slow.inv == [fast.index[im_inv(g)] for g in G]
        assert fast.invariants() == slow.invariants()


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
            want = U.is_subgroup(G)
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
    # the lattice walk over Im(N,2) is the oracle, compared as ordered lists
    assert enumerate_admissible(N) == dodson._enumerate_admissible_walk(N)


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
    keys = [dodson.subgroup_key(G) for G in subgroups]
    assert keys == sorted(set(keys))
    for G in subgroups:
        assert list(G) == sorted(G, key=element_key)
        assert U.is_subgroup(U.index[g] for g in G)
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
    dodson._classification_cached.cache_clear()
    try:
        for N in (1, 2, 3, 4):
            enumerate_admissible(N)
        dodson.classify_conjugacy(3, dodson.partition_preset("cy3", 3))
        preset_reflex_reports()
    finally:
        dodson._enumerate_admissible_cached.cache_clear()
        dodson._classification_cached.cache_clear()


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
    # the stabiliser is a group, so one conjugation by each of its elements
    # gives the whole orbit, without the breadth-first search
    U = universe(3)
    part = dodson.partition_preset(name, 3)
    stab = [U.index[s] for s in part.stabilizer()]
    classes = dodson.classify_conjugacy(3, part)
    seen = set()
    for G in enumerate_admissible(3):
        orbit = {U.conjugate(s, frozenset(U.index[g] for g in G)) for s in stab}
        i = dodson.find_class(G, classes, part)
        rep = classes[i]
        assert frozenset(U.index[g] for g in rep.representative) in orbit
        assert rep.orbit_size == len(orbit)
        seen.add(i)
    assert seen == set(range(len(classes)))


def test_partition_validation():
    with pytest.raises(Exception):
        dodson.HodgePartition(
            2, 2, (((2, 0), frozenset({(0, 0), (0, 1)})),)
        ).validate()


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
    reports = dict((pr.name, rep) for pr, rep in preset_reflex_reports())
    notes = reports["sum-distinct"].notes
    assert any("flag" in n for n in notes)


def test_model_invariants_match_model_groups():
    # identify_group reads the constants; the Cayley tables are the oracle
    assert dodson._MODEL_INVARIANTS == tuple(
        dodson.model_group(n).invariants() for n in dodson.LEVEL_GROUP_MODELS
    )


def test_model_groups_pairwise_distinct():
    invs = [dodson.model_group(n).invariants() for n in dodson.LEVEL_GROUP_MODELS]
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
