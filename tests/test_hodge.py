"""Hodge-structure combinatorics: tensors, level pieces, K3 x T^2, the
product's factor verdicts, and the Weil/Griffiths repackagings."""

import itertools
import json
from fractions import Fraction

import pytest

from util import k3t2_counts_by_pairs, same_structure
from weakcm import cli, cmfield, dodson, hodge, serialize
from weakcm.errors import (
    IncompatibleIdentifications,
    MultipleTopForms,
    NoTopForm,
    NotWeakCM,
    WrongWeight,
)
from weakcm.presets import preset_by_name


def quartic_k3(case):
    params = {
        "A": {"p1": -1, "p2": -3},
        "B": {"d": 5, "p": Fraction(-5, 2), "q": Fraction(-1, 2)},
        "C": {"d": 2, "p": -3, "q": 1},
    }[case]
    ct = cmfield.dodson_type(cmfield.classify(params))
    return hodge.k3_structure(ct.group)


def character_with_kernel(ts, kernel_pred, e):
    """Identification list sending elements satisfying the predicate to the
    identity of the elliptic pair and everything else to the flip."""
    ident2 = tuple(e.slots)
    ident_idx = e.group.index(ident2)
    flip_idx = 1 - ident_idx
    return [ident_idx if kernel_pred(g) else flip_idx for g in ts.group]


def analyze(ts, e, situation="disjoint", character=None):
    """``hodge.k3t2_analyze``, its orbit, star and coset counts checked
    against the ones recomputed from the factor pairs."""
    rep = hodge.k3t2_analyze(ts, e, situation, character)
    assert (rep.tau_orbit_size, rep.star1_count, rep.star2_count,
            rep.coset_types) == k3t2_counts_by_pairs(ts, e, character)
    return rep


# ---------------------------------------------------------------- tensors


def test_tensor_weight_and_dimension():
    a, b = hodge.elliptic_structure(), hodge.elliptic_structure()
    prod = hodge.tensor_cm(a, b)
    assert prod.weight == 2
    assert prod.dim == 4


def test_tensor_k3_times_elliptic_has_one_top_slot():
    ts = hodge.k3_structure(dodson.universe(1).elements)
    prod = hodge.tensor_cm(ts, hodge.elliptic_structure())
    assert prod.weight == 3
    assert len(prod.slots_with_label((3, 0))) == 1


def test_tensor_disjoint_quartic_level_is_eight_slots():
    ts = quartic_k3("B")
    prod = hodge.tensor_cm(ts, hodge.elliptic_structure())
    level = hodge.level_subspace(prod)
    assert len(level.slots) == 8


def test_tensor_rejects_bad_identification():
    ts = hodge.k3_structure(dodson.universe(1).elements)
    e = hodge.elliptic_structure()
    ident_idx = e.group.index(tuple(e.slots))
    with pytest.raises(IncompatibleIdentifications):
        # constant character: not surjective, kills the conjugation
        hodge.tensor_cm(ts, e, identification=[ident_idx, ident_idx])


# ---------------------------------------------------------------- level


def test_level_subspace_of_simple_structure_is_everything():
    pr = preset_by_name("Z3-3-triv")
    h = hodge.cy3_structure(pr.cm_type.group)
    level = hodge.level_subspace(h)
    assert same_structure(level, h)


def test_level_subspace_idempotent():
    ts = quartic_k3("A")
    prod = hodge.tensor_cm(ts, hodge.elliptic_structure())
    level = hodge.level_subspace(prod)
    assert same_structure(hodge.level_subspace(level), level)


def test_multiple_top_forms_rejected():
    labels = {(0, 0): (1, 0), (0, 1): (0, 1), (1, 0): (1, 0), (1, 1): (0, 1)}
    h = hodge.from_group(1, dodson.universe(2).elements, labels)
    with pytest.raises(MultipleTopForms):
        h.top_slot()


def test_no_top_form_rejected():
    labels = {(0, 0): (1, 1), (0, 1): (1, 1)}
    h = hodge.from_group(2, dodson.universe(1).elements, labels)
    with pytest.raises(NoTopForm):
        hodge.level_subspace(h)


# ---------------------------------------------------------------- K3 x T^2


def test_k3t2_disjoint_quadratic():
    ts = hodge.k3_structure(dodson.universe(1).elements)  # Q(i)-type, dim 2
    rep = analyze(ts, hodge.elliptic_structure(), "disjoint")
    assert rep.level_dim == 4 == 2 * len(ts.slots)
    assert serialize.product_report_out(rep)["endo_field_degree"] == 4
    assert rep.level_case_alias == "A"
    assert rep.tau_orbit_size == 2
    assert rep.strong_cm_verdict


def test_k3t2_contained_quadratic():
    ts = hodge.k3_structure(dodson.universe(1).elements)
    e = hodge.elliptic_structure()
    chi = character_with_kernel(ts, lambda g: g == tuple(ts.slots), e)
    rep = analyze(ts, e, "contained", chi)
    assert rep.level_dim == len(ts.slots) == 2
    assert rep.tau_orbit_size == 2
    assert rep.strong_cm_verdict


def test_k3t2_contained_case_a():
    ts = quartic_k3("A")
    e = hodge.elliptic_structure()
    # kernel = elements fixing the second quadratic: slot (0,*) labels... use
    # the elements that do not flip pair 0 jointly with pair 1; search all
    # valid characters and check the ones accepted give half dimension
    accepted = []
    for bits in itertools.product((0, 1), repeat=len(ts.group)):
        chi = [
            e.group.index(tuple(e.slots)) if b == 0 else
            1 - e.group.index(tuple(e.slots))
            for b in bits
        ]
        try:
            rep = analyze(ts, e, "contained", chi)
        except (IncompatibleIdentifications, NotWeakCM):
            continue
        accepted.append(rep)
    assert accepted
    for rep in accepted:
        assert rep.level_dim == len(ts.slots)  # half of dim(T_S) * 2
        assert rep.strong_cm_verdict
        assert rep.tau_orbit_size == 2


@pytest.mark.parametrize("case", ["B", "C"])
def test_k3t2_contained_impossible_for_cyclic_and_closure(case):
    # the only quadratic subfields in cases B/C are real, so no character
    # with the required kernel exists
    ts = quartic_k3(case)
    e = hodge.elliptic_structure()
    ident_idx = e.group.index(tuple(e.slots))
    for bits in itertools.product((0, 1), repeat=len(ts.group)):
        chi = [ident_idx if b == 0 else 1 - ident_idx for b in bits]
        with pytest.raises((IncompatibleIdentifications, NotWeakCM)):
            analyze(ts, e, "contained", chi)


def test_k3t2_all_quartic_cases_strong():
    e = hodge.elliptic_structure()
    for case in ("A", "B", "C"):
        rep = analyze(quartic_k3(case), e, "disjoint")
        assert rep.strong_cm_verdict
        assert rep.tau_orbit_size == 2
        assert rep.level_dim == 8
        # exactly n' - 1 = 3 cosets give a (2,1)-form
        assert rep.coset_types == {(3, 0): 1, (2, 1): 3, (1, 2): 3, (0, 3): 1}
        assert rep.star1_count >= 1


def test_k3t2_rejects_impure_transcendental_data():
    base = hodge.k3_structure(dodson.universe(1).elements)
    spreads = {g: base.spread(g) for g in base.group}
    flip = next(g for g in base.group if g != tuple(base.slots))
    spreads[flip] = frozenset({(0, 0), (0, 1)})  # mixes (2,0) with (0,2)
    bad = hodge.CMHodgeStructure(2, base.slots, base.labels, base.rho,
                                 list(base.group), top_spreads=spreads)
    with pytest.raises(NotWeakCM):
        analyze(bad, hodge.elliptic_structure(), "disjoint")
    # the purity check runs before the product is formed, in either situation
    e = hodge.elliptic_structure()
    chi = character_with_kernel(base, lambda g: g == tuple(base.slots), e)
    with pytest.raises(NotWeakCM, match="not of pure type"):
        analyze(bad, e, "contained", chi)


# ---------------------------------------------------------------- factors


def product_verdicts(tmp_path, capsys, factor1, factor2):
    """The ``product`` subcommand's factor verdicts and witnesses."""
    path = tmp_path / "prod.json"
    path.write_text(json.dumps({"factor1": factor1, "factor2": factor2}),
                    encoding="utf-8")
    assert cli.main(["product", "--input", str(path)]) == 0
    payload = json.loads(capsys.readouterr().out)["payload"]
    return payload["factor_weak_cm"], payload["witnesses"]


_ELLIPTIC = {"type": "elliptic"}


def test_factor_weak_cm_k3_times_elliptic(tmp_path, capsys):
    assert quartic_k3("B").is_cm() and hodge.elliptic_structure().is_cm()
    k3 = {"type": "k3", "group": {"field": {"d": 5, "p": "-5/2", "q": "-1/2"}}}
    assert product_verdicts(tmp_path, capsys, k3, _ELLIPTIC) == ([True, True], [None, None])


def test_factor_weak_cm_two_elliptic(tmp_path, capsys):
    assert hodge.elliptic_structure().is_cm()
    assert product_verdicts(tmp_path, capsys, _ELLIPTIC, _ELLIPTIC) == ([True, True], [None, None])


def test_factor_weak_cm_witness_on_synthetic_factor(tmp_path, capsys):
    base = hodge.k3_structure(dodson.universe(1).elements)
    spreads = {g: base.spread(g) for g in base.group}
    flip = next(g for g in base.group if g != tuple(base.slots))
    spreads[flip] = frozenset({(0, 0), (0, 1)})
    bad = hodge.CMHodgeStructure(2, base.slots, base.labels, base.rho,
                                 list(base.group), top_spreads=spreads)
    assert not bad.is_cm()
    # a document cannot declare that spread: the conjugation sends the top
    # form to its conjugate, one slot.  On two pairs, g = (bits [0, 1],
    # perm [1, 0]) mixes (2,0) with (1,1), and rho g the conjugate types
    explicit = {
        "type": "explicit", "weight": 2, "pairs": 2, "labels": [[2, 0], [1, 1]],
        "elements": [{"bits": [0, 0], "perm": [0, 1]}, {"bits": [1, 1], "perm": [0, 1]},
                     {"bits": [0, 1], "perm": [1, 0]}, {"bits": [1, 0], "perm": [1, 0]}],
        "spreads": [{"element": {"bits": [0, 1], "perm": [1, 0]}, "slots": [[0, 0], [1, 0]]},
                    {"element": {"bits": [1, 0], "perm": [1, 0]}, "slots": [[0, 1], [1, 1]]}],
    }
    assert product_verdicts(tmp_path, capsys, explicit, _ELLIPTIC) == (
        [False, True], [{"factor": 1}, None])


# ---------------------------------------------------------------- repackaging


def test_weil_griffiths_cy3_simple():
    pr = preset_by_name("Z3-3-triv")
    h = hodge.cy3_structure(pr.cm_type.group)
    pair = hodge.weil_griffiths(h)
    assert pair.weil_cm and pair.griffiths_cm and pair.common_algebra_ok
    assert pair.weil.weight == 1 and pair.griffiths.weight == 1
    assert pair.weil.dim == h.dim
    assert pair.weil.rho == h.rho


def test_weil_griffiths_case_b_weight3():
    # h^{3,0} = h^{0,3} = 1, h^{2,1} = h^{1,2} = 1 on a cyclic quartic group
    field = cmfield.classify({"d": 5, "p": Fraction(-5, 2), "q": Fraction(-1, 2)})
    ct = cmfield.dodson_type(field)
    h = hodge.cy3_structure(ct.group)
    assert h.hodge_numbers() == {(3, 0): 1, (2, 1): 1, (1, 2): 1, (0, 3): 1}
    pair = hodge.weil_griffiths(h)
    assert pair.weil_cm and pair.griffiths_cm and pair.common_algebra_ok


def test_weil_griffiths_label_maps():
    pr = preset_by_name("S3-3-triv")
    h = hodge.cy3_structure(pr.cm_type.group)
    pair = hodge.weil_griffiths(h)
    # V^{1,0}_W = V^{2,1} + V^{0,3} and V^{1,0}_G = V^{3,0} + V^{2,1}
    w10 = {s for s in h.slots if pair.weil.labels[s] == (1, 0)}
    expect_w = {s for s in h.slots if h.labels[s] in ((2, 1), (0, 3))}
    assert w10 == expect_w
    g10 = {s for s in h.slots if pair.griffiths.labels[s] == (1, 0)}
    expect_g = {s for s in h.slots if h.labels[s] in ((3, 0), (2, 1))}
    assert g10 == expect_g


def _weight3_structures():
    """The weight-3 structures built above: two presets, case B, and the
    synthetic structure with a mixed (3,0)/(2,1) conjugate."""
    out = [hodge.cy3_structure(preset_by_name(name).cm_type.group)
           for name in ("Z3-3-triv", "S3-3-triv")]
    field = cmfield.classify({"d": 5, "p": Fraction(-5, 2), "q": Fraction(-1, 2)})
    out.append(hodge.cy3_structure(cmfield.dodson_type(field).group))
    h = out[0]
    spreads = {g: h.spread(g) for g in h.group}
    some = next(g for g in h.group if g != tuple(h.slots))
    spreads[some] = frozenset({h.top_slot(), (1, 0)})
    out.append(hodge.CMHodgeStructure(3, h.slots, h.labels, h.rho, list(h.group),
                                      top_spreads=spreads))
    return out


def test_weil_griffiths_common_algebra_is_independent_and_agrees():
    verdicts = []
    for h in _weight3_structures():
        pair = hodge.weil_griffiths(h)
        assert pair.common_algebra_ok == h.is_cm()
        assert pair.common_algebra_ok == (pair.weil_cm and pair.griffiths_cm)
        verdicts.append(pair.common_algebra_ok)
    assert verdicts == [True, True, True, False]


def test_weil_griffiths_wrong_weight():
    with pytest.raises(WrongWeight):
        hodge.weil_griffiths(hodge.k3_structure(dodson.universe(1).elements))


def test_weil_griffiths_synthetic_non_cm_fails_some_bullet():
    pr = preset_by_name("Z3-3-triv")
    h = hodge.cy3_structure(pr.cm_type.group)
    spreads = {g: h.spread(g) for g in h.group}
    some = next(g for g in h.group if g != tuple(h.slots))
    spreads[some] = frozenset({h.top_slot(), (1, 0)})  # (3,0) mixed with (2,1)
    bad = hodge.CMHodgeStructure(3, h.slots, h.labels, h.rho, list(h.group),
                                 top_spreads=spreads)
    assert not bad.is_cm()
    pair = hodge.weil_griffiths(bad)
    assert not (pair.weil_cm and pair.griffiths_cm and pair.common_algebra_ok)
