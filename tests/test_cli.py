"""CLI behaviour: exit codes, diagnostics, determinism, golden files."""

import itertools
import json
import os
import random
import shlex
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from util import missing_product_by_loop
from weakcm import cli, dodson_classes, dodson_core, serialize, tausplit
from weakcm.errors import InvalidPairCount, MathError

DATA = os.path.join(os.path.dirname(__file__), "data")


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def _child_env():
    # the child must import the same weakcm as this process, installed or not
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path)


def _limit_address_space():
    import resource

    limit = 1536 * 2 ** 20
    _, hard = resource.getrlimit(resource.RLIMIT_AS)
    if hard != resource.RLIM_INFINITY:
        limit = min(limit, hard)
    resource.setrlimit(resource.RLIMIT_AS, (limit, hard))


def test_dodson_classify_cy3(capsys):
    code, out = run_cli(capsys, "dodson-classify", "--n", "3", "--partition", "cy3")
    assert code == 0
    payload = json.loads(out)["payload"]
    assert payload["class_count"] == 8


def test_split_diag_case_a(capsys):
    code, out = run_cli(capsys, "split", "--input",
                        os.path.join(DATA, "torus_a_diag.json"))
    assert code == 0
    payload = json.loads(out)["payload"]
    assert payload["verified"] is True
    assert payload["factors"] == [
        {"kind": "elliptic", "cm_field": "Q(sqrt(-1))", "multiplicity": 1},
        {"kind": "elliptic", "cm_field": "Q(sqrt(-3))", "multiplicity": 1},
    ]


def test_split_odd_n_rejected_with_named_condition(capsys):
    code, out = run_cli(capsys, "split", "--input",
                        os.path.join(DATA, "torus_b_n3.json"))
    assert code == 1
    report = json.loads(out)
    assert report["status"] == "invalid-input"
    assert report["diagnostics"][0]["condition"] == "odd-dimension-exclusion"


def test_split_singular_tau_bar_rejected_with_named_condition(tmp_path, capsys):
    # case A, tau with two equal rows: the entries generate the field
    doc = tmp_path / "doc.json"
    doc.write_text(json.dumps({"n": 2, "field": {"p1": "-1", "p2": "-3"}, "B": [
        [["0", "0"], ["0", "0"]], [["1", "0"], ["1", "0"]],
        [["0", "1"], ["0", "1"]], [["1", "1"], ["1", "1"]]]}), encoding="utf-8")
    code, out = run_cli(capsys, "split", "--input", str(doc))
    assert code == 1
    diag = json.loads(out)["diagnostics"][0]
    assert diag["condition"] == "period-matrix:singular-tau-bar"
    assert diag["message"] == "det(tau - taubar) = 0"


def test_malformed_json_is_exit_1_not_crash(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    code, out = run_cli(capsys, "classify-field", "--input", str(bad))
    assert code == 1
    assert json.loads(out)["status"] == "invalid-input"


def test_missing_keys_is_exit_1(tmp_path, capsys):
    doc = tmp_path / "doc.json"
    doc.write_text("{\"n\": 2}", encoding="utf-8")
    code, out = run_cli(capsys, "split", "--input", str(doc))
    assert code == 1


def test_wrong_case_request_is_exit_1(tmp_path, capsys):
    doc = tmp_path / "doc.json"
    doc.write_text(
        json.dumps({"d": 5, "p": "-5/2", "q": "-1/2", "case": "C"}),
        encoding="utf-8",
    )
    code, out = run_cli(capsys, "classify-field", "--input", str(doc))
    assert code == 1
    assert json.loads(out)["diagnostics"][0]["condition"] == "tower:square-class"


@pytest.mark.parametrize("raw", ["abc", "1"])
def test_bad_factor_bound_names_the_variable(monkeypatch, capsys, raw):
    monkeypatch.setenv("WEAKCM_FACTOR_BOUND", raw)
    code, out = run_cli(capsys, "classify-field", "--input",
                        os.path.join(DATA, "field_b.json"))
    assert code == 1
    diag = json.loads(out)["diagnostics"][0]
    assert diag["condition"] == "tower:factor-bound"
    assert f"WEAKCM_FACTOR_BOUND='{raw}'" in diag["message"]


def test_internal_error_is_exit_2(monkeypatch, capsys):
    def boom(args):
        raise RuntimeError("synthetic failure")

    monkeypatch.setitem(cli._COMMANDS, "presets",
                        (boom, "broken", False))
    parser = cli.build_parser("presets")
    assert parser.parse_args(["presets"]).subcommand == "presets"
    # go through main to exercise the envelope
    monkeypatch.setattr(cli, "_PARSERS", {})
    monkeypatch.setattr(cli, "build_parser", lambda only=None: parser)
    code = cli.main(["presets"])
    out = capsys.readouterr().out
    assert code == 2
    assert json.loads(out)["status"] == "internal-error"


_PARSER_RUNS = [[], ["bogus"], ["split", "extra"], ["dodson-enum"],
                ["split", "--emit", "xml"], ["--help"], ["split", "--help"]]


def _parse_outcome(capsys, parse, argv):
    """(exit code, stdout, stderr) of parsing argv, which ends in argparse's
    exit: a usage error or help."""
    with pytest.raises(SystemExit) as exc:
        parse(argv)
    out, err = capsys.readouterr()
    return exc.value.code, out, err


@pytest.mark.parametrize("argv", _PARSER_RUNS, ids=[" ".join(a) or "-" for a in _PARSER_RUNS])
def test_parser_output_matches_the_full_parser(monkeypatch, capsys, argv):
    # main parses with a parser holding only the subcommand argv[0] names,
    # or the full one; usage, errors and help are the full parser's, byte
    # for byte
    monkeypatch.setattr(cli, "_PARSERS", {})
    got = _parse_outcome(capsys, cli.main, argv)
    assert set(cli._PARSERS) == {argv[0] if argv and argv[0] in cli._COMMANDS else None}
    assert got == _parse_outcome(capsys, cli.build_parser().parse_args, argv)
    assert got[0] == (0 if "--help" in argv else 2)
    assert "usage: weakcm" in (got[1] if "--help" in argv else got[2])


def test_main_builds_each_parser_once(monkeypatch, capsys):
    build, built = cli.build_parser, []
    monkeypatch.setattr(cli, "_PARSERS", {})
    monkeypatch.setattr(cli, "build_parser", lambda only=None: built.append(only) or build(only))
    for _ in range(3):
        code, _ = run_cli(capsys, "classify-field", "--input", os.path.join(DATA, "field_b.json"))
        assert code == 0
    assert built == ["classify-field"]
    # and importing the CLI builds none
    proc = subprocess.run([sys.executable, "-c", "import weakcm.cli as c; print(c._PARSERS)"],
                          capture_output=True, text=True, env=_child_env(), timeout=60)
    assert proc.stdout == "{}\n", proc.stderr


@pytest.mark.parametrize("exc, status, condition", [
    (RuntimeError("synthetic library bug"), "internal-error", "internal"),
    (MathError("synthetic math error"), "math-error", "math-error"),
])
def test_library_bug_is_internal_error_not_math_error(monkeypatch, capsys, exc,
                                                      status, condition):
    def broken_split(pm):
        raise exc

    monkeypatch.setattr(tausplit, "split", broken_split)
    code, out = run_cli(capsys, "split", "--input",
                        os.path.join(DATA, "torus_a_diag.json"))
    report = json.loads(out)
    assert code == 2
    assert report["status"] == status
    assert report["diagnostics"][0]["condition"] == condition


def test_split_verifies_once(monkeypatch, tmp_path, capsys):
    from util import random_period_matrix
    from weakcm import cmfield

    calls = []
    verify = tausplit.verify_certificate

    def counting(pm, cert):
        calls.append(cert.case)
        return verify(pm, cert)

    monkeypatch.setattr(tausplit, "verify_certificate", counting)
    pm = random_period_matrix(cmfield.classify({"d": 2, "p": -3, "q": 1}), 2,
                              random.Random(8))
    doc = tmp_path / "torus_c.json"
    doc.write_text(json.dumps({"n": 2, "field": {"d": 2, "p": -3, "q": 1},
                               "B": [[[f"{a}/{d}" for a, d in row] for row in M]
                                     for M in pm.pairs]}),
                   encoding="utf-8")
    for path in (os.path.join(DATA, "torus_a_diag.json"), str(doc)):
        calls.clear()
        code, out = run_cli(capsys, "split", "--input", path)
        assert code == 0
        assert json.loads(out)["payload"]["verified"] is True
        assert len(calls) == 1


def test_case_a_renaming_search_is_capped(monkeypatch, tmp_path, capsys):
    # tau = diag(sqrt(p2), sqrt(p1)): row 0 has delta = 0, so the renaming
    # search rejects the first index subset and takes the second
    doc = tmp_path / "torus_a_swapped.json"
    doc.write_text(json.dumps({"n": 2, "field": {"p1": "-1", "p2": "-3"},
                               "B": [[["0", "0"], ["0", "0"]], [["0", "0"], ["0", "1"]],
                                     [["1", "0"], ["0", "0"]], [["0", "0"], ["0", "0"]]]}),
                   encoding="utf-8")
    monkeypatch.setattr(tausplit, "RENAMING_SEARCH_BOUND", 2)
    code, out = run_cli(capsys, "split", "--input", str(doc))
    assert code == 0 and json.loads(out)["payload"]["renaming"] == [1, 0]
    monkeypatch.setattr(tausplit, "RENAMING_SEARCH_BOUND", 1)
    code, out = run_cli(capsys, "split", "--input", str(doc))
    assert code == 1
    diag = json.loads(out)["diagnostics"][0]
    assert diag["condition"] == "tausplit:search-bound"
    assert "first 1 subsets (n = 2, p = 1)" in diag["message"]


def test_presets_payload(capsys):
    code, out = run_cli(capsys, "presets")
    assert code == 0
    payload = json.loads(out)["payload"]
    assert payload["count"] == 13
    by_name = {p["name"]: p for p in payload["presets"]}
    assert by_name["Z3-3-triv"]["reflex"]["class_tag"] == "(A4,1,non-triv.)"
    notes = by_name["sum-distinct"]["reflex"].get("notes", [])
    assert any("flag" in n for n in notes)
    assert payload["informational"]["reflex_degrees_realized"] == [2, 4, 6, 8]


def test_custom_partition_block_list(capsys):
    # explicit block list equivalent to the K3 preset at N = 2
    blocks = json.dumps([
        {"label": [2, 0], "slots": [[0, 0]]},
        {"label": [0, 2], "slots": [[0, 1]]},
        {"label": [1, 1], "slots": [[1, 0], [1, 1]]},
    ])
    code, out = run_cli(capsys, "dodson-classify", "--n", "2",
                        "--partition", blocks)
    assert code == 0
    payload = json.loads(out)["payload"]
    assert payload["class_count"] == 3
    assert payload["partition"] == "custom"


@pytest.mark.parametrize("partition, what", [
    ("[]", "non-empty JSON list"),
    ("5", "non-empty JSON list"),
    ('{"label": [2, 0], "slots": [[0, 0]]}', "non-empty JSON list"),
    ('[{"label": [2, 0]}]', "'label' and 'slots'"),
    ('[{"slots": [[0, 0]]}]', "'label' and 'slots'"),
    ('[7]', "'label' and 'slots'"),
    ('[{"label": [2, 0], "slots": [["a", 0]]}]', "slot must be a pair of integers"),
    ('[{"label": [2, 0], "slots": [[0.5, 0]]}]', "slot must be a pair of integers"),
    ('[{"label": [2, 0], "slots": [[0]]}]', "slot must be a pair of integers"),
    ('[{"label": [2, 0], "slots": 5}]', "slots must be a list"),
    ('[{"label": ["2", 0], "slots": [[0, 0]]}]', "label must be a pair of integers"),
    ('[{"label": [2], "slots": [[0, 0]]}]', "label must be a pair of integers"),
    ("not json", "abl, k3, cy3 or an inline JSON block list"),
])
def test_malformed_partition_is_named(capsys, partition, what):
    code, out = run_cli(capsys, "dodson-classify", "--n", "2",
                        "--partition", partition)
    report = json.loads(out)
    assert code == 1
    assert report["status"] == "invalid-input"
    diag = report["diagnostics"][0]
    assert diag["condition"] == "cli:partition"
    assert "--partition" in diag["message"] and what in diag["message"]


@pytest.mark.parametrize("partition, quoted", [
    (json.dumps("x" * 100_000), '"' + "x" * 39),
    (json.dumps([{"label": [2, 0], "slots": [["x" * 100_000, 0]]}]), '["' + "x" * 38),
], ids=["block-list", "slot"])
def test_partition_refusals_quote_a_bounded_prefix(capsys, partition, quoted):
    # both refusals quoted the whole option: 100,205 and 100,209 bytes
    code, out = run_cli(capsys, "dodson-classify", "--n", "3", "--partition", partition)
    assert code == 1
    diag = json.loads(out)["diagnostics"][0]
    assert diag["condition"] == "cli:partition"
    assert len(diag["message"]) < 200
    assert diag["message"].endswith(f", got {quoted}")


def test_byte_identical_output(capsys):
    _, out1 = run_cli(capsys, "dodson-classify", "--n", "3", "--partition", "abl")
    _, out2 = run_cli(capsys, "dodson-classify", "--n", "3", "--partition", "abl")
    assert out1 == out2


@pytest.mark.parametrize("argv", [
    ["dodson-enum", "--n", "0"],
    ["dodson-enum", "--n", "-1"],
    ["dodson-classify", "--n", "0", "--partition", "abl"],
])
def test_pair_count_below_one_is_named(capsys, argv):
    code, out = run_cli(capsys, *argv)
    assert code == 1
    diag = json.loads(out)["diagnostics"][0]
    assert diag["condition"] == "dodson:pair-count"
    assert f"--n {argv[2]} " in diag["message"]
    # the library call is refused by the same condition
    with pytest.raises(InvalidPairCount, match=f"N = {argv[2]} is below 1"):
        dodson_classes.enumerate_admissible(int(argv[2]))


def _element(bits, perm):
    return {"bits": list(bits), "perm": list(perm)}


_QUADRATIC_PAIR = [_element((0, 0), (0, 1)), _element((1, 1), (0, 1))]


@pytest.mark.parametrize("phi", [
    [[0, 0], [1, 7]],   # a bar flag outside {0, 1} used to act as 7 mod 2
    [[0, 0], [1, -1]],
    [[0, 0], [0, 1]],   # pair 1 has no slot
    [[0, 0], [2, 0]],
])
def test_dodson_reflex_phi_must_pick_slots(tmp_path, capsys, phi):
    path = tmp_path / "ct.json"
    path.write_text(json.dumps({"n": 2, "elements": _QUADRATIC_PAIR, "phi": phi}),
                    encoding="utf-8")
    code, out = run_cli(capsys, "dodson-reflex", "--input", str(path))
    assert code == 1
    diag = json.loads(out)["diagnostics"][0]
    assert diag["condition"] == "dodson:invalid-cm-type"
    assert diag["message"] == "phi must pick exactly one slot per pair"


@pytest.mark.parametrize("doc,N", [
    # the single element rho of Im(6,2)
    ({"n": 6, "elements": [_element((1,) * 6, range(6))]}, 6),
    # all of Im(4,2) with the standard Phi: the reflex data live in Im(8,2)
    ({"n": 4, "elements": [_element(b, p)
                           for b in itertools.product((0, 1), repeat=4)
                           for p in itertools.permutations(range(4))]}, 8),
])
def test_dodson_reflex_table_bound(tmp_path, doc, N):
    # a child process under an address-space limit: a table build that
    # ignored the bound would end in MemoryError, not take the machine
    path = tmp_path / "ct.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "weakcm.cli", "dodson-reflex", "--input", str(path)],
        capture_output=True, text=True, env=_child_env(), timeout=60,
        preexec_fn=_limit_address_space,
    )
    assert proc.returncode == 1, proc.stdout
    diag = json.loads(proc.stdout)["diagnostics"][0]
    assert diag["condition"] == "dodson:bound-exceeded"
    assert f"Im({N},2)" in diag["message"] and "N <= 5" in diag["message"]


# sha256 of the stdout at N = 4, computed from the lattice walk's output
_N4_STDOUT_SHA256 = {
    ("dodson-enum",): "83b6bc2961848f49ee80d8ef5475c86307bd1e9ce62ab9c36f61515a47f32ce2",
    ("dodson-classify", "--partition", "abl"):
        "67c6eb704bd884352e9309721962a95457aff16638b8de38259970f2c501ad67",
    ("dodson-classify", "--partition", "k3"):
        "a52d327e00a84376cb7e5ed2c4c79a1e3fea2f21d341bfc77cb0b50c40502b6a",
    ("dodson-classify", "--partition", "cy3"):
        "4919484d8d349e3ad105799402c82ef50e948551f55a0d84cf4adaa93163c4b9",
}


@pytest.mark.parametrize("argv", sorted(_N4_STDOUT_SHA256))
def test_dodson_n4_stdout_pinned(capsys, argv):
    import hashlib

    code, out = run_cli(capsys, argv[0], "--n", "4", *argv[1:])
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == _N4_STDOUT_SHA256[argv]
    assert out == json.dumps(json.loads(out), indent=2) + "\n"


# sha256 of the stdout at N = 5.  The class counts are also found by
# Burnside's lemma (test_dodson.py); the 340-subgroup list passes only its
# own checks, as no independent oracle pins it
_N5_STDOUT_SHA256 = {
    "abl": "0ec31b332c48477b3cad5284ada58c11235ce20fd55f816d2b126d91f6ef94b4",
    "k3": "0eac37534fd0b17980f89bde6b3399ad9d641a4bcb20ee34d1c069e13cc21f32",
    "cy3": "8356a34adc209486c96bca9cb5476e9bad7e72c0f94a4f5fd9a0bbc549b4fb82",
}
_N5_CLASS_COUNTS = {"abl": 20, "k3": 10, "cy3": 33}


@pytest.mark.parametrize("partition", sorted(_N5_STDOUT_SHA256))
def test_dodson_n5_stdout_pinned(capsys, partition):
    import hashlib

    code, out = run_cli(capsys, "dodson-classify", "--n", "5", "--bound", "5",
                        "--partition", partition)
    assert code == 0
    assert json.loads(out)["payload"]["class_count"] == _N5_CLASS_COUNTS[partition]
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == _N5_STDOUT_SHA256[partition]
    assert out == json.dumps(json.loads(out), indent=2) + "\n"


def test_dodson_enum_beyond_tables_is_refused_at_once():
    # --bound 6 lifts the enumeration bound, but Im(6,2) is past the tables:
    # the command must stop before any work, in a bounded child process
    proc = subprocess.run(
        [sys.executable, "-m", "weakcm.cli", "dodson-enum", "--n", "6", "--bound", "6"],
        capture_output=True, text=True, env=_child_env(), timeout=60,
        preexec_fn=_limit_address_space,
    )
    assert proc.returncode == 1, proc.stdout
    diag = json.loads(proc.stdout)["diagnostics"][0]
    assert diag["condition"] == "dodson:bound-exceeded"
    assert diag["message"] == (
        "Im(6,2) has order 46080; Dodson computations are bounded to N <= 5"
    )


@pytest.mark.parametrize("argv,message", [
    # the enumeration bound refuses a preset partition of 10^12 pairs
    (["--partition", "k3"], "N = 1000000000000 exceeds the enumeration bound 4"),
    # the tables refuse an inline one, once --bound lifts the enumeration bound
    (["--bound", "1000000000000", "--partition",
      '[{"label": [1, 0], "slots": [[0, 0]]}, {"label": [0, 1], "slots": [[0, 1]]}]'],
     "Im(1000000000000,2) has order 2^1000000000000 * 1000000000000!; "
     "Dodson computations are bounded to N <= 5"),
])
def test_classify_checks_sizes_before_the_partition(argv, message):
    # the partition has 2N slots: built first, it would end in MemoryError
    # under the address-space limit of this child process
    proc = subprocess.run(
        [sys.executable, "-m", "weakcm.cli", "dodson-classify", "--n", "1000000000000",
         *argv],
        capture_output=True, text=True, env=_child_env(), timeout=60,
        preexec_fn=_limit_address_space,
    )
    assert proc.returncode == 1, proc.stdout
    diag = json.loads(proc.stdout)["diagnostics"][0]
    assert diag == {"condition": "dodson:bound-exceeded", "message": message}


def test_size_error_precedes_a_partition_error(capsys):
    # N = 5 is past the default enumeration bound: that is reported, not the
    # malformed --partition
    code, out = run_cli(capsys, "dodson-classify", "--n", "5", "--partition", "not json")
    assert code == 1
    assert json.loads(out)["diagnostics"][0]["message"] == \
        "N = 5 exceeds the enumeration bound 4"


def test_refusal_of_a_large_n_is_short(capsys):
    # the exact order 2^N N! of Im(30000,2) has about 130,000 digits; the
    # message writes it as a formula
    code, out = run_cli(capsys, "dodson-enum", "--n", "30000", "--bound", "30000")
    assert code == 1
    diag = json.loads(out)["diagnostics"][0]
    assert diag["condition"] == "dodson:bound-exceeded"
    assert len(diag["message"]) < 200
    assert diag["message"].startswith("Im(30000,2) has order 2^30000 * 30000!;")


_HUGE_N = "9" * 4000  # argparse reads --n and --bound under the int-string limit


@pytest.mark.parametrize("argv", [
    ["dodson-enum", "--n", _HUGE_N],
    ["dodson-enum", "--n", _HUGE_N, "--bound", _HUGE_N],
    ["dodson-enum", "--n", "-" + _HUGE_N],
    ["dodson-enum", "--n", "3", "--bound", "-" + _HUGE_N],
    ["dodson-classify", "--n", _HUGE_N, "--partition", "k3"],
    ["dodson-classify", "--n", _HUGE_N, "--bound", _HUGE_N, "--partition", "abl"],
    ["dodson-classify", "--n", "-" + _HUGE_N, "--partition", "cy3"],
], ids=["enum-n", "enum-n-bound", "enum-negative-n", "enum-negative-bound",
        "classify-n", "classify-n-bound", "classify-negative-n"])
def test_every_refusal_of_a_long_size_is_short(capsys, argv):
    # N and the bound are quoted in full up to 20 digits, then by their digit
    # count: these messages ran to 4,036 and 12,066 characters
    code, out = run_cli(capsys, *argv)
    assert code == 1
    diag = json.loads(out)["diagnostics"][0]
    assert diag["condition"] in ("dodson:bound-exceeded", "dodson:pair-count")
    assert len(diag["message"]) < 200
    assert "<4000 digits>" in diag["message"]


def test_emit_text(capsys):
    code, out = run_cli(capsys, "dodson-enum", "--n", "2", "--emit", "text")
    assert code == 0
    assert 'status: "ok"' in out
    assert "count: 3" in out


def test_dodson_reflex_preset(tmp_path, capsys):
    doc = tmp_path / "ct.json"
    doc.write_text(json.dumps({"preset": "S3-3-triv"}), encoding="utf-8")
    code, out = run_cli(capsys, "dodson-reflex", "--input", str(doc))
    assert code == 0
    payload = json.loads(out)["payload"]
    assert payload["n_prime"] == 4
    assert payload["tag"] == "(S4,1,non-triv.)"
    assert payload["galois_group"] == "Z2xS4"


def test_dodson_reflex_explicit_elements(tmp_path, capsys):
    # the composite quadratic + quadratic type on two pairs (case A shape)
    elements = [
        {"bits": [0, 0], "perm": [0, 1]},
        {"bits": [1, 0], "perm": [0, 1]},
        {"bits": [0, 1], "perm": [0, 1]},
        {"bits": [1, 1], "perm": [0, 1]},
    ]
    doc = tmp_path / "ct.json"
    doc.write_text(json.dumps({"n": 2, "elements": elements}), encoding="utf-8")
    code, out = run_cli(capsys, "dodson-reflex", "--input", str(doc))
    assert code == 0
    payload = json.loads(out)["payload"]
    assert payload["reflex_degree"] == 4
    assert payload["hodge_numbers"] == {"2,0": 1, "1,1": 2, "0,2": 1}


def test_product_command(tmp_path, capsys):
    doc = tmp_path / "prod.json"
    doc.write_text(
        json.dumps({"factor1": {"type": "elliptic"},
                    "factor2": {"type": "elliptic"}}),
        encoding="utf-8",
    )
    code, out = run_cli(capsys, "product", "--input", str(doc))
    assert code == 0
    payload = json.loads(out)["payload"]
    assert payload["factor_weak_cm"] == [True, True]
    assert payload["product_is_weak_cm"] is True


def test_weil_griffiths_command(tmp_path, capsys):
    doc = tmp_path / "wg.json"
    doc.write_text(
        json.dumps({"structure": {"type": "cy3", "group": {"preset": "Z3-3-triv"}}}),
        encoding="utf-8",
    )
    code, out = run_cli(capsys, "weil-griffiths", "--input", str(doc))
    assert code == 0
    payload = json.loads(out)["payload"]
    assert payload["weil_cm"] and payload["griffiths_cm"]
    assert payload["common_algebra_ok"]


# weight-3 structure on two pairs with a declared mixed-type conjugate
_SYNTHETIC = {
    "type": "explicit",
    "weight": 3,
    "pairs": 2,
    "labels": [[3, 0], [2, 1]],
    "elements": [
        {"bits": [0, 0], "perm": [0, 1]},
        {"bits": [1, 1], "perm": [0, 1]},
        {"bits": [0, 1], "perm": [1, 0]},
        {"bits": [1, 0], "perm": [1, 0]},
    ],
    "spreads": [
        {"element": {"bits": [0, 1], "perm": [1, 0]},
         "slots": [[0, 0], [1, 0]]},
        {"element": {"bits": [1, 0], "perm": [1, 0]},
         "slots": [[0, 1], [1, 1]]},
    ],
}


def test_weil_griffiths_explicit_synthetic(tmp_path, capsys):
    # the Griffiths relabeling stays pure but the Weil one fails
    doc = tmp_path / "wg.json"
    doc.write_text(json.dumps({"structure": _SYNTHETIC}), encoding="utf-8")
    code, out = run_cli(capsys, "weil-griffiths", "--input", str(doc))
    assert code == 0
    payload = json.loads(out)["payload"]
    assert payload["griffiths_cm"] is True
    assert payload["weil_cm"] is False
    assert payload["common_algebra_ok"] is False


def test_product_keeps_the_declared_spreads(tmp_path, capsys):
    # the synthetic factor's mixed-type conjugate stays mixed in the product
    doc = tmp_path / "prod.json"
    doc.write_text(json.dumps({"factor1": _SYNTHETIC, "factor2": {"type": "elliptic"}}),
                   encoding="utf-8")
    code, out = run_cli(capsys, "product", "--input", str(doc))
    assert code == 0
    payload = json.loads(out)["payload"]
    assert payload["factor_weak_cm"] == [False, True]
    assert payload["product_is_weak_cm"] is False


@pytest.mark.parametrize("spread, rule", [
    # the image of the top form touches at least one slot
    ({"element": {"bits": [0, 1], "perm": [1, 0]}, "slots": []},
     "spread 'slots' must not be empty"),
    # the identity fixes the top form
    ({"element": {"bits": [0, 0], "perm": [0, 1]}, "slots": [[0, 0], [1, 0]]},
     "the identity's spread must be the top slot alone"),
], ids=["empty", "identity"])
def test_product_refuses_spreads_no_structure_has(tmp_path, capsys, spread, rule):
    # both used to run, and reported the factor as not weak CM
    doc = tmp_path / "prod.json"
    doc.write_text(json.dumps({"factor1": dict(_SYNTHETIC, spreads=[spread]),
                               "factor2": {"type": "elliptic"}}), encoding="utf-8")
    code, out = run_cli(capsys, "product", "--input", str(doc))
    report = json.loads(out)
    assert code == 1 and report["status"] == "invalid-input"
    assert rule in report["diagnostics"][0]["message"]


def test_spreads_must_respect_the_conjugation(tmp_path, capsys):
    # the mixed-type conjugate declared without its conjugate's spread:
    # rho g would keep the single-slot spread {rho(g(top))}
    one_sided = dict(_SYNTHETIC, spreads=_SYNTHETIC["spreads"][:1])
    doc = tmp_path / "wg.json"
    doc.write_text(json.dumps({"structure": one_sided}), encoding="utf-8")
    code, out = run_cli(capsys, "weil-griffiths", "--input", str(doc))
    report = json.loads(out)
    assert code == 1 and report["status"] == "invalid-input"
    message = report["diagnostics"][0]["message"]
    assert "must be the conjugate of the spread of" in message
    assert "(bits [0, 1], perm [1, 0])" in message
    assert "(bits [1, 0], perm [1, 0])" in message


def test_explicit_elements_not_closed_are_named(tmp_path, capsys):
    # identity, rho and the 3-cycle (1, 2, 0), without the 3-cycle's square
    structure = {
        "type": "explicit", "weight": 3, "pairs": 3,
        "labels": [[3, 0], [2, 1], [2, 1]],
        "elements": [{"bits": [0, 0, 0], "perm": [0, 1, 2]},
                     {"bits": [1, 1, 1], "perm": [0, 1, 2]},
                     {"bits": [0, 0, 0], "perm": [1, 2, 0]}],
    }
    doc = tmp_path / "wg.json"
    doc.write_text(json.dumps({"structure": structure}), encoding="utf-8")
    code, out = run_cli(capsys, "weil-griffiths", "--input", str(doc))
    report = json.loads(out)
    assert code == 1 and report["status"] == "invalid-input"
    diag = report["diagnostics"][0]
    assert diag["condition"] == "hodge:elements-not-closed"
    cycle = "(bits [0, 0, 0], perm [1, 2, 0])"
    assert f"{cycle} * {cycle} = (bits [0, 0, 0], perm [2, 0, 1]) is missing" in diag["message"]
    # with the square added the elements form Z2 x Z3, and the structure is accepted
    structure["elements"].append({"bits": [0, 0, 0], "perm": [2, 0, 1]})
    structure["elements"] += [{"bits": [1, 1, 1], "perm": p} for p in ([1, 2, 0], [2, 0, 1])]
    doc.write_text(json.dumps({"structure": structure}), encoding="utf-8")
    code, out = run_cli(capsys, "weil-griffiths", "--input", str(doc))
    assert code == 0 and json.loads(out)["status"] == "ok"


@pytest.mark.parametrize("labels, elements, message", [
    ([[3, 1]], [_element((0,), (0,)), _element((1,), (0,))],
     "label (3, 1) has weight != 3"),
    ([[3, 0]], [_element((0,), (0,))], "group does not contain the conjugation"),
])
def test_inconsistent_explicit_structure_is_a_hodge_fault(tmp_path, capsys, labels,
                                                          elements, message):
    structure = {"type": "explicit", "weight": 3, "pairs": 1,
                 "labels": labels, "elements": elements}
    doc = tmp_path / "wg.json"
    doc.write_text(json.dumps({"structure": structure}), encoding="utf-8")
    code, out = run_cli(capsys, "weil-griffiths", "--input", str(doc))
    diag = json.loads(out)["diagnostics"][0]
    assert code == 1
    assert diag == {"condition": "hodge:invalid-structure", "message": message}


def test_explicit_elements_of_im52(tmp_path, capsys):
    # all 3840 elements of Im(5,2) are accepted; without one non-identity
    # element the message names the first missing product, as the |G|^2 loop
    # of tests/util.py finds it
    elements = [dodson_core.ImN2Element(b, p) for b in itertools.product((0, 1), repeat=5)
                for p in itertools.permutations(range(5))]
    structure = {"type": "explicit", "weight": 3, "pairs": 5,
                 "labels": [[3, 0]] + [[2, 1]] * 4,
                 "elements": [_element(g.bits, g.perm) for g in elements]}
    doc = tmp_path / "wg.json"
    doc.write_text(json.dumps({"structure": structure}), encoding="utf-8")
    code, out = run_cli(capsys, "weil-griffiths", "--input", str(doc))
    assert code == 0 and json.loads(out)["status"] == "ok"
    drop = random.Random(52).randrange(1, len(elements))
    del elements[drop], structure["elements"][drop]
    doc.write_text(json.dumps({"structure": structure}), encoding="utf-8")
    code, out = run_cli(capsys, "weil-griffiths", "--input", str(doc))
    diag = json.loads(out)["diagnostics"][0]
    assert code == 1 and diag["condition"] == "hodge:elements-not-closed"
    assert diag["message"] == ("explicit structure 'elements' are not closed under "
                               f"composition: {missing_product_by_loop(elements)}")


_PAIR_OF_6 = [_element((0,) * 6, range(6)), _element((1,) * 6, range(6))]


@pytest.mark.parametrize("argv,doc", [
    (["dodson-enum", "--n", "6", "--bound", "6"], None),
    (["dodson-classify", "--n", "6", "--bound", "6", "--partition", "k3"], None),
    (["dodson-reflex"], {"n": 6, "elements": _PAIR_OF_6}),
    (["weil-griffiths"], {"structure": {"type": "explicit", "weight": 3, "pairs": 6,
                                        "labels": [[3, 0]] + [[2, 1]] * 5,
                                        "elements": _PAIR_OF_6}}),
    (["k3t2"], {"transcendental": {"n": 6, "elements": _PAIR_OF_6}}),
], ids=["enum", "classify", "reflex", "explicit", "k3t2"])
def test_beyond_the_bound_is_refused_by_the_tables(tmp_path, capsys, argv, doc):
    # every Dodson entry point reaches Im(6,2) through the S_N tables, which
    # refuse it with one message and keep no table for it
    if doc is not None:
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        argv = argv + ["--input", str(path)]
    tables = (dodson_core._sn_tables.cache_info().currsize,
              dodson_core._sn_index.cache_info().currsize)
    code, out = run_cli(capsys, *argv)
    assert code == 1
    assert json.loads(out)["diagnostics"][0] == {
        "condition": "dodson:bound-exceeded",
        "message": "Im(6,2) has order 46080; Dodson computations are bounded to N <= 5",
    }
    assert (dodson_core._sn_tables.cache_info().currsize,
            dodson_core._sn_index.cache_info().currsize) == tables


def test_weil_griffiths_wrong_weight(tmp_path, capsys):
    doc = tmp_path / "wg.json"
    doc.write_text(
        json.dumps({"structure": {"type": "k3", "group": {"preset": "B"}}}),
        encoding="utf-8",
    )
    code, out = run_cli(capsys, "weil-griffiths", "--input", str(doc))
    assert code == 1
    assert json.loads(out)["diagnostics"][0]["condition"] == "hodge:wrong-weight"


# (input name, argv[, golden name when it is not the input's]); an argv that
# ends in --input reads tests/data/<input name>.json
GOLDEN = [
    ("field_b", ["classify-field", "--input"]),
    ("torus_a_diag", ["split", "--input"]),
    ("torus_b_n3", ["split", "--input"]),
    ("k3t2_disjoint", ["k3t2", "--input"]),
    ("torus_b_n4", ["split", "--input"]),
    ("torus_c_n4", ["split", "--input"]),
    ("torus_a_diag", ["validate", "--input"], "validate_a_diag"),
    ("torus_b_n4", ["validate", "--input"], "validate_b_n4"),
    ("torus_c_n4", ["validate", "--input"], "validate_c_n4"),
    ("cm_type_n4", ["dodson-reflex", "--input"]),
    ("presets", ["presets"]),
    ("field_b", ["galois", "--input"], "galois_b"),
    ("field_b", ["reflex", "--input"], "reflex_b"),
    ("field_c", ["galois", "--input"], "galois_c"),
    ("field_c", ["reflex", "--input"], "reflex_c"),
    ("cm_type_n5", ["dodson-reflex", "--input"]),
    ("classify_cy3", ["dodson-classify", "--n", "3", "--partition", "cy3"]),
    ("k3t2_contained_a", ["k3t2", "--input"]),
    ("product_cy3_elliptic", ["product", "--input"]),
    ("weil_griffiths_z3", ["weil-griffiths", "--input"]),
]


@pytest.mark.parametrize("name,argv,golden", [
    pytest.param(name, argv, golden[0] if golden else name, id=f"{name}-argv{i}")
    for i, (name, argv, *golden) in enumerate(GOLDEN)
])
def test_golden_files(name, argv, golden, capsys):
    if argv[-1] == "--input":
        argv = argv + [os.path.join(DATA, f"{name}.json")]
    code, out = run_cli(capsys, *argv)
    with open(os.path.join(DATA, f"{golden}.golden.json"), encoding="utf-8") as fh:
        assert out == fh.read()


def test_every_golden_file_is_checked():
    # a golden that only tests/golden_cli.sh compares would not be checked here
    checked = {golden[0] if golden else name for name, _, *golden in GOLDEN}
    suffix = ".golden.json"
    on_disk = {f[:-len(suffix)] for f in os.listdir(DATA) if f.endswith(suffix)}
    assert sorted(on_disk - checked) == []


def test_golden_script_checks_the_golden_table():
    # tests/golden_cli.sh compares the same (golden, argv) pairs in fresh
    # interpreters, each expecting the exit code of its golden's status
    with open(os.path.join(os.path.dirname(__file__), "golden_cli.sh"), encoding="utf-8") as fh:
        lines = [shlex.split(line) for line in fh if line.startswith("check ")]
    in_script = {(golden, tuple(argv)) for _, _, golden, *argv in lines}
    in_table = {(golden[0] if golden else name,
                 tuple(argv + [f"$DATA/{name}.json"] if argv[-1] == "--input" else argv))
                for name, argv, *golden in GOLDEN}
    assert in_script == in_table
    for _, want, golden, *_ in lines:
        with open(os.path.join(DATA, f"{golden}.golden.json"), encoding="utf-8") as fh:
            status = json.load(fh)["status"]
        assert want == {"ok": "0", "invalid-input": "1"}[status], golden


# ---------------------------------------------------------------- the emitter


@pytest.fixture
def no_int_digit_limit():
    # 5000-digit ints, as cli.main prints them
    limit = getattr(sys, "get_int_max_str_digits", None)
    if limit is None:
        yield
        return
    saved = limit()
    sys.set_int_max_str_digits(0)
    yield
    sys.set_int_max_str_digits(saved)


@pytest.mark.parametrize("golden", sorted(f for f in os.listdir(DATA)
                                          if f.endswith(".golden.json")))
def test_emitter_matches_json_dumps_on_the_goldens(golden):
    with open(os.path.join(DATA, golden), encoding="utf-8") as fh:
        text = fh.read()
    report = json.loads(text)
    assert cli._json_text(report) + "\n" == json.dumps(report, indent=2) + "\n" == text


_EMIT_CHARS = 'ab/-09 "\\\x00\x1f\x7f\n\t\u00e9\u2603\ud800\U0001f600'


def _report_tree(rng, depth):
    roll = rng.random()
    if depth == 0 or roll < 0.3:
        return rng.choice([
            lambda: "".join(rng.choice(_EMIT_CHARS) for _ in range(rng.randrange(6))),
            lambda: rng.randrange(-10 ** 6, 10 ** 6),
            lambda: rng.randrange(10 ** 4999, 10 ** 5000) * rng.choice((1, -1)),
            lambda: rng.choice((True, False, None, 0, 1)),
        ])()
    size = rng.randrange(5)
    if roll < 0.5:  # a list of strings, the emitter's one-join case
        return [_report_tree(rng, 0) if rng.random() < 0.1 else
                "".join(rng.choice(_EMIT_CHARS) for _ in range(rng.randrange(4)))
                for _ in range(size)]
    if roll < 0.75:
        return [_report_tree(rng, depth - 1) for _ in range(size)]
    return {"".join(rng.choice(_EMIT_CHARS) for _ in range(rng.randrange(4))):
            _report_tree(rng, depth - 1) for _ in range(size)}


def test_emitter_matches_json_dumps_on_random_trees(no_int_digit_limit):
    rng = random.Random(2031)
    for _ in range(400):
        tree = _report_tree(rng, rng.randrange(6))
        assert cli._json_text(tree) == json.dumps(tree, indent=2)
    for empty in ([], {}, [[]], [{}], {"a": []}, {"a": {}}, [[], [[]], {}]):
        assert cli._json_text(empty) == json.dumps(empty, indent=2)


@pytest.mark.parametrize("value", [
    1.5, (1, 2), Fraction(1, 2), {1: "a"}, ["a", 1.5], ["a", ("b",)],
    {"a": [Fraction(1, 2)]}, [[0, 1], {"x": {2: None}}],
], ids=["float", "tuple", "Fraction", "int-key", "float-in-strings",
        "tuple-in-strings", "nested-Fraction", "nested-int-key"])
def test_emitter_refuses_what_reports_do_not_hold(value):
    with pytest.raises(TypeError):
        cli._json_text(value)


def test_galois_subcommand(capsys):
    code, out = run_cli(capsys, "galois", "--input",
                        os.path.join(DATA, "field_b.json"))
    assert code == 0
    payload = json.loads(out)["payload"]
    assert payload["order"] == 4
    assert payload["conjugation"] == "s0^2"
    assert payload["embedding_pairing"] == [2, 3, 0, 1]


def test_reflex_subcommand(capsys):
    code, out = run_cli(capsys, "reflex", "--input",
                        os.path.join(DATA, "field_b.json"))
    assert code == 0
    payload = json.loads(out)["payload"]
    assert payload["degree"] == 4
    assert payload["equals_field"] is True


def test_reflex_subcommand_wrong_case(tmp_path, capsys):
    doc = tmp_path / "a.json"
    doc.write_text(json.dumps({"p1": "-1", "p2": "-3"}), encoding="utf-8")
    code, out = run_cli(capsys, "reflex", "--input", str(doc))
    assert code == 1
    assert json.loads(out)["diagnostics"][0]["condition"] == "cmfield:wrong-case"


def test_validate_subcommand(capsys):
    code, out = run_cli(capsys, "validate", "--input",
                        os.path.join(DATA, "torus_a_diag.json"))
    assert code == 0
    payload = json.loads(out)["payload"]
    assert payload["rank_delta"] == payload["rank_eps"] == 1
    assert payload["p_split"] == 1


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "weakcm.cli", "dodson-enum", "--n", "2"],
        capture_output=True, text=True, env=_child_env(),
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["payload"]["count"] == 3


# ---------------------------------------------------------------- process exit


def _fresh(argv, **kwargs):
    """``python ARGV...`` in a child that imports this weakcm."""
    kwargs.setdefault("capture_output", True)
    return subprocess.run([sys.executable, *argv], env=_child_env(),
                          timeout=60, **kwargs)


def _script(tmp_path, setup):
    """A script that runs SETUP, then the CLI as ``python -m weakcm.cli``
    runs it, on the script's own arguments."""
    path = tmp_path / "run_cli.py"
    path.write_text(f"import runpy\n{setup}\n"
                    "runpy.run_module('weakcm.cli', run_name='__main__')\n",
                    encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("argv, code", [
    (["classify-field", "--input", os.path.join(DATA, "field_b.json")], 0),
    (["split", "--input", os.path.join(DATA, "torus_b_n3.json")], 1),
    # a usage error: argparse's SystemExit takes the interpreter's own exit
    (["dodson-enum"], 2),
], ids=["ok", "invalid-input", "usage"])
def test_fresh_process_exit_code_and_stdout(capsys, argv, code):
    proc = _fresh(["-m", "weakcm.cli", *argv])
    assert proc.returncode == code, proc.stderr
    try:
        assert cli.main(argv) == code
    except SystemExit as exc:
        assert exc.code == code
    assert proc.stdout == capsys.readouterr().out.encode()


def test_fresh_process_internal_error(tmp_path):
    setup = ("from weakcm import cli_dodson\n"
             "def broken(args):\n"
             "    raise RuntimeError('synthetic library bug')\n"
             "cli_dodson.cmd_presets = broken")
    proc = _fresh([_script(tmp_path, setup), "presets"], text=True)
    assert proc.returncode == 2
    assert "Traceback" in proc.stderr and "synthetic library bug" in proc.stderr
    assert json.loads(proc.stdout) == {
        "status": "internal-error",
        "payload": None,
        "diagnostics": [{"condition": "internal",
                         "message": "RuntimeError('synthetic library bug')"}],
    }


def test_fresh_process_runs_exit_handlers(tmp_path):
    # a handler registered before the CLI runs; what it prints is flushed
    setup = "import atexit\natexit.register(print, 'exit handler ran')"
    proc = _fresh([_script(tmp_path, setup), "dodson-enum", "--n", "2"], text=True)
    assert proc.returncode == 0, proc.stderr
    report, handler = proc.stdout.rsplit("}\n", 1)
    assert json.loads(report + "}")["payload"]["count"] == 3
    assert handler == "exit handler ran\n"


_LOUD_AT_TEARDOWN = """import os
class Loud:
    def __del__(self, write=os.write):
        write(2, b'torn down\\n')
loud = Loud()"""


def test_fresh_process_skips_teardown(tmp_path):
    # a module-level object is freed only by the interpreter's teardown
    proc = _fresh([_script(tmp_path, _LOUD_AT_TEARDOWN), "dodson-enum", "--n", "2"])
    assert proc.returncode == 0 and proc.stderr == b""


def test_profiled_process_exits_normally(tmp_path):
    # a profiler writes its results only at a normal exit
    prof = tmp_path / "p.prof"
    proc = _fresh(["-m", "cProfile", "-o", str(prof),
                   _script(tmp_path, _LOUD_AT_TEARDOWN), "dodson-enum", "--n", "2"])
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == b"torn down\n"
    assert prof.stat().st_size > 0


@pytest.mark.parametrize("argv", [
    ["presets"],                  # 71 KB: the report's write fails
    ["dodson-enum", "--n", "2"],  # fits the buffer: the final flush fails
], ids=["write", "flush"])
def test_closed_stdout_exits_141_quietly(argv):
    read, write = os.pipe()
    os.close(read)
    try:
        proc = _fresh(["-m", "weakcm.cli", *argv], stdout=write, stderr=subprocess.PIPE,
                      capture_output=False)
    finally:
        os.close(write)
    assert proc.returncode == 141 and proc.stderr == b""


_TRACED_RUNS = """
import contextlib, io, json, sys
import spans
from weakcm import cli
tracer = spans.Tracer().install()
tracer.active = True
edges = {}
for label, argv in json.loads(sys.argv[1]).items():
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0, argv
    edges[label] = sorted(tracer.edges)
    tracer.edges.clear()
print(json.dumps(edges))
"""


def test_benchmark_tracer_installs(tmp_path):
    # perfbench/spans.py wraps library functions by name, so deleting or
    # renaming one of them fails here, not only in a benchmark run; and it
    # wraps the Dodson entry points as dodson.<name>, so the production
    # calls, made from the modules that hold the code, must reach its spans
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = _child_env()
    env["PYTHONPATH"] = os.pathsep.join([env["PYTHONPATH"], os.path.join(root, "perfbench")])
    reflex_doc, product_doc = tmp_path / "reflex.json", tmp_path / "product.json"
    reflex_doc.write_text(json.dumps({"preset": "Z3-3-triv"}), encoding="utf-8")
    product_doc.write_text(json.dumps({"factor1": {"type": "k3", "group": {"preset": "Z3-3-triv"}},
                                       "factor2": {"type": "elliptic"}}), encoding="utf-8")
    runs = {"classify": ["dodson-classify", "--n", "3", "--partition", "k3"],
            "reflex": ["dodson-reflex", "--input", str(reflex_doc)],
            "product": ["product", "--input", str(product_doc)]}
    proc = subprocess.run(
        [sys.executable, "-c", _TRACED_RUNS, json.dumps(runs)],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    edges = {label: {tuple(e) for e in found} for label, found in json.loads(proc.stdout).items()}
    spans = {label: {name for _, name in found} for label, found in edges.items()}
    assert {("dodson.classify", "dodson.enumerate"),
            ("dodson.classify", "dodson.triple_from_group")} <= edges["classify"]
    assert ("dodson.reflex", "dodson.triple_from_group") in edges["reflex"]
    assert "dodson.group_from_triple" in spans["reflex"]
    assert "dodson.group_from_triple" in spans["product"]


# the weakcm modules each subcommand may load: a library module imported at
# the top of cli or serialize (or cmfield importing dodson or linalg) shows
# up here
_BASE = {"weakcm", "weakcm.cli", "weakcm.errors"}
_FIELD_FOOTPRINT = _BASE | {"weakcm.serialize", "weakcm.cmfield", "weakcm.tower"}
_FIELD_LAYERS = {"weakcm.tower", "weakcm.linalg", "weakcm.cmfield",
                 "weakcm.tausplit"}
_U1 = {"n": 1, "elements": [_element((0,), (0,)), _element((1,), (0,))]}
# stdlib modules no subcommand may load: importing dataclasses pulls in
# inspect, ast, dis and tokenize, about 10 ms of every fresh process, and
# fractions pulls in decimal and numbers, about 3 ms; rationals are integer
# pairs, and only a decimal or exponent literal loads fractions
_HEAVY = ("dataclasses", "inspect", "fractions", "decimal", "numbers")
_FOOTPRINT_RUN = """
import contextlib, io, json, sys
import weakcm.cli
with contextlib.redirect_stdout(io.StringIO()):
    code = weakcm.cli.main(sys.argv[1:]) if sys.argv[1:] else 0
print(json.dumps([code, sorted(m for m in sys.modules
                               if m == "weakcm" or m.startswith("weakcm.")),
                  [m for m in %r if m in sys.modules]]))
""" % (_HEAVY,)


def _footprint(argv):
    """The weakcm modules a fresh interpreter loads to run ``argv``; it
    must load none of ``_HEAVY``, nor ``weakcm.dodson``, which holds only
    test oracles and the names the benchmark's tracer wraps."""
    proc = subprocess.run([sys.executable, "-c", _FOOTPRINT_RUN, *argv],
                          capture_output=True, text=True, env=_child_env(),
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    code, modules, heavy = json.loads(proc.stdout)
    assert code == 0, argv
    assert heavy == [], argv
    assert "weakcm.dodson" not in modules, argv
    return set(modules)


@pytest.mark.parametrize("sub", ["classify-field", "galois", "reflex"])
def test_field_subcommands_load_no_dodson_or_split(sub):
    # only the reflex field is certified by solving over the tower
    argv = [sub, "--input", os.path.join(DATA, "field_b.json")]
    solves = {"weakcm.linalg"} if sub == "reflex" else set()
    assert _footprint(argv) == _FIELD_FOOTPRINT | solves


@pytest.mark.parametrize("sub", ["validate", "split"])
def test_period_matrix_subcommands_load_the_split(sub):
    argv = [sub, "--input", os.path.join(DATA, "torus_a_diag.json")]
    assert _footprint(argv) == _FIELD_FOOTPRINT | {"weakcm.linalg", "weakcm.tausplit"}


def test_cli_import_loads_no_library_module():
    assert _footprint([]) == _BASE


def test_k3t2_on_a_field_document_loads_no_split():
    # the transcendental factor given by its field: the towers, the Dodson
    # core, the reflex module (which reads the Galois action as an Im(N,2)
    # subgroup) and the Hodge layer all load, but not linalg, since nothing
    # is solved over the tower, nor the enumeration
    argv = ["k3t2", "--input", os.path.join(DATA, "k3t2_disjoint.json")]
    assert _footprint(argv) == _FIELD_FOOTPRINT | {"weakcm.dodson_core", "weakcm.dodson_reflex",
                                                   "weakcm.hodge", "weakcm.cli_hodge"}


_DODSON = _BASE | {"weakcm.serialize", "weakcm.dodson_core", "weakcm.cli_dodson"}
_HODGE = _BASE | {"weakcm.serialize", "weakcm.dodson_core", "weakcm.hodge", "weakcm.cli_hodge"}
_CLASSES = {"weakcm.dodson_classes"}
_REFLEX = {"weakcm.dodson_reflex"}
_PRESETS = {"weakcm.presets"}
_PRESET_DOC = {"preset": "Z3-3-triv"}
# id -> (argv, input document, the modules it loads): each loads its own
# handler module and the Dodson core; the enumeration only to enumerate or
# classify, the reflex module only for reflex data or a level group, and a
# preset the preset table
_DODSON_RUNS = {
    "dodson-enum": (["dodson-enum", "--n", "2"], None, _DODSON | _CLASSES),
    "dodson-classify": (["dodson-classify", "--n", "2", "--partition", "abl"], None,
                        _DODSON | _CLASSES),
    "presets": (["presets"], None, _DODSON | _PRESETS | _REFLEX),
    "dodson-reflex": (["dodson-reflex"], _PRESET_DOC, _DODSON | _PRESETS | _REFLEX),
    "k3t2": (["k3t2"], {"transcendental": _U1}, _HODGE | _REFLEX),
    "product": (["product"], {"factor1": {"type": "elliptic"},
                              "factor2": {"type": "weight1", "group": _U1}}, _HODGE),
    "product-preset": (["product"], {"factor1": {"type": "k3", "group": _PRESET_DOC},
                                     "factor2": {"type": "elliptic"}}, _HODGE | _PRESETS),
    "weil-griffiths": (["weil-griffiths"], {"structure": {"type": "cy3", "group": _PRESET_DOC}},
                       _HODGE | _PRESETS),
    "weil-griffiths-explicit": (["weil-griffiths"], {"structure": _SYNTHETIC},
                                _HODGE | {"weakcm.serialize_explicit"}),
}


@pytest.mark.parametrize("argv, doc, expected", list(_DODSON_RUNS.values()),
                         ids=list(_DODSON_RUNS))
def test_dodson_subcommands_load_no_field_tower(tmp_path, argv, doc, expected):
    if doc is not None:
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        argv = [*argv, "--input", str(path)]
    modules = _footprint(argv)
    assert modules == expected
    assert not modules & _FIELD_LAYERS


def test_decimal_literal_field_gives_the_report_of_its_fraction(tmp_path, capsys):
    # field_b with its parameters written as decimal and exponent literals:
    # each report is the one of the "num/den" literals, byte for byte
    plain = os.path.join(DATA, "field_b.json")
    decimal = tmp_path / "field_b_decimal.json"
    decimal.write_text(json.dumps({"d": "5", "p": "-2.5", "q": "-5e-1"}), encoding="utf-8")
    for sub in ("classify-field", "galois", "reflex"):
        assert run_cli(capsys, sub, "--input", str(decimal)) == \
            run_cli(capsys, sub, "--input", plain)
    # that path, and only that one, goes through Fraction's parser: a fresh
    # process loads fractions for the decimal literals (and _footprint shows
    # that the "num/den" document loads none of _HEAVY)
    proc = subprocess.run([sys.executable, "-c", _FOOTPRINT_RUN, "classify-field",
                           "--input", str(decimal)],
                          capture_output=True, text=True, env=_child_env(), timeout=60)
    assert proc.returncode == 0, proc.stderr
    code, _, heavy = json.loads(proc.stdout)
    assert code == 0 and "fractions" in heavy


_INPUT_SUBCOMMANDS = ["classify-field", "galois", "reflex", "validate", "split",
                      "dodson-reflex", "k3t2", "product", "weil-griffiths"]


@pytest.mark.parametrize("sub", _INPUT_SUBCOMMANDS)
@pytest.mark.parametrize("text", ["[1, 2]", '"x"', "null"])
def test_non_object_document_is_named_input_error(tmp_path, capsys, sub, text):
    path = tmp_path / "doc.json"
    path.write_text(text, encoding="utf-8")
    code, out = run_cli(capsys, sub, "--input", str(path))
    report = json.loads(out)
    assert code == 1
    assert report["status"] == "invalid-input"
    assert "must be an object" in report["diagnostics"][0]["message"]


# ---------------------------------------------------------------- deep documents


_DEEP = "[" * 990 + "]" * 990


@pytest.mark.parametrize("sub", _INPUT_SUBCOMMANDS)
@pytest.mark.parametrize("text", [_DEEP, '{"p": %s}' % _DEEP], ids=["list", "in-object"])
def test_deep_document_is_a_named_input_error(tmp_path, capsys, sub, text):
    # json.loads ran out of stack here: exit 2, internal-error
    path = tmp_path / "doc.json"
    path.write_text(text, encoding="utf-8")
    code, out = run_cli(capsys, sub, "--input", str(path))
    assert code == 1
    assert json.loads(out)["diagnostics"][0] == {
        "condition": "input:depth",
        "message": "the input document nests lists and objects more than 64 levels deep",
    }


@pytest.mark.parametrize("text, refused", [
    ("[" * 64 + "]" * 64, False),
    ("[" * 65 + "]" * 65, True),
    ('{"p": %s}' % ("[" * 63 + "]" * 63), False),
    ('{"p": %s}' % ("[" * 64 + "]" * 64), True),
    ('{"p": "%s", "q": %s}' % ("[" * 1000, "[[[]]]"), False),  # brackets in a string
    ('{"p": "\\"%s"}' % ("{" * 1000), False),  # after an escaped quote
    ("[%s]" % ",".join(["[]"] * 500), False),  # many brackets, shallow
    # walked (65 brackets), then a string with no closing quote
    ('[%s, "%s' % (",".join(["[]"] * 65), '\\"' * 100_000), False),
])
def test_the_depth_cap_counts_nesting(tmp_path, capsys, text, refused):
    path = tmp_path / "doc.json"
    path.write_text(text, encoding="utf-8")
    code, out = run_cli(capsys, "classify-field", "--input", str(path))
    assert code == 1
    assert (json.loads(out)["diagnostics"][0]["condition"] == "input:depth") == refused


def test_the_depth_walk_is_linear_in_an_unterminated_string():
    # every escaped quote could start a string token: a walk that rescans
    # the rest of the text from each one takes minutes here, not milliseconds
    text = "[]" * 65 + '"' + '\\"' * 100_000
    start = time.perf_counter()
    serialize.check_depth(text, "the input document")
    assert time.perf_counter() - start < 5


def test_deep_partition_is_a_named_input_error(capsys):
    code, out = run_cli(capsys, "dodson-classify", "--n", "3", "--partition", "[" * 990)
    assert code == 1
    assert json.loads(out)["diagnostics"][0] == {
        "condition": "input:depth",
        "message": "--partition nests lists and objects more than 64 levels deep",
    }


def _k3t2_contained(tmp_path, capsys, character):
    path = tmp_path / "k3t2.json"
    path.write_text(json.dumps({"transcendental": _U1, "situation": "contained",
                                "character": character}), encoding="utf-8")
    code, out = run_cli(capsys, "k3t2", "--input", str(path))
    return code, json.loads(out)


@pytest.mark.parametrize("character, what", [
    (5, "'character' must be a list"),
    ({"element": _element((0,), (0,)), "value": 0}, "'character' must be a list"),
    ([{"value": 1}], "'character' entry 0"),
    ([{"element": _element((0,), (0,)), "value": 0}, [1, 0]], "'character' entry 1"),
    ([{"element": _element((1,), (0,)), "value": "one"}], "'character' entry 0"),
    ([{"element": "rho", "value": 1}], "group element needs 'bits' and 'perm'"),
    ([{"element": _element((0,), (0,)), "value": True}], "'character' entry 0"),
    ([{"element": _element((0,), (0,)), "value": 1.5}], "'character' entry 0"),
    ([{"element": _element((0,), (0,)), "value": "1"}], "'character' entry 0"),
    ([{"element": {"bits": ["1"], "perm": [0]}, "value": 1}],
     "group element needs 'bits' and 'perm'"),
    ([{"element": {"bits": [1], "perm": [0.0]}, "value": 1}],
     "group element needs 'bits' and 'perm'"),
])
def test_k3t2_malformed_character_is_named(tmp_path, capsys, character, what):
    code, report = _k3t2_contained(tmp_path, capsys, character)
    assert code == 1
    assert report["status"] == "invalid-input"
    assert what in report["diagnostics"][0]["message"]


def test_k3t2_character_contained_in_the_k3_field(tmp_path, capsys):
    # Q(i) inside Q(i): the character is the nontrivial one on Im(1,2)
    code, report = _k3t2_contained(tmp_path, capsys, [
        {"element": _element((0,), (0,)), "value": 0},
        {"element": _element((1,), (0,)), "value": 1},
    ])
    assert code == 0
    assert report["payload"]["situation"] == "contained"
    assert report["payload"]["level_dim"] == 2


@pytest.mark.parametrize("sub, doc, what", [
    ("dodson-reflex", {"preset": "B", "n": "x"}, "'n' must be an integer"),
    ("dodson-reflex", {"n": 1, "elements": 5}, "'elements' must be a list"),
    ("dodson-reflex", {"n": 1, "elements": [], "phi": 5}, "'phi' must be a list"),
    ("dodson-reflex", {"n": 1, "elements": [], "phi": [[0]]}, "'phi' must be a list"),
    ("weil-griffiths", dict(_SYNTHETIC, labels=5), "'labels' must be a list"),
    ("weil-griffiths", dict(_SYNTHETIC, labels=[[3, 0], 5]),
     "'labels' must be a list"),
    ("weil-griffiths", dict(_SYNTHETIC, elements=7), "'elements' must be a non-empty"),
    ("weil-griffiths", dict(_SYNTHETIC, elements=[]), "'elements' must be a non-empty"),
    ("weil-griffiths", dict(_SYNTHETIC, spreads=5), "'spreads' must be a list"),
    ("weil-griffiths", dict(_SYNTHETIC, spreads=[[0, 1]]),
     "each spread needs an 'element' and 'slots'"),
    ("weil-griffiths", dict(_SYNTHETIC, spreads=[dict(_SYNTHETIC["spreads"][0],
                                                      slots=[[0, 0, 1]])]),
     "spread 'slots' must be a list"),
    ("weil-griffiths", dict(_SYNTHETIC, spreads=[dict(_SYNTHETIC["spreads"][0],
                                                      slots=[[0, 0], [2, 0]])]),
     "spread 'slots' must be slots of the structure"),
    ("dodson-reflex", {"preset": "B", "n": 3.0}, "'n' must be an integer"),
    ("dodson-reflex", {"n": True, "elements": []}, "'n' must be an integer"),
    ("weil-griffiths", dict(_SYNTHETIC, weight=3.0), "'weight' must be an integer"),
    ("weil-griffiths", dict(_SYNTHETIC, pairs=True), "'pairs' must be an integer"),
    ("weil-griffiths", dict(_SYNTHETIC, pairs="2"), "'pairs' must be an integer"),
    ("weil-griffiths", dict(_SYNTHETIC, labels=[[3, 0], [1.5, 1]]),
     "'labels' must be a list of integer pairs"),
    ("weil-griffiths", dict(_SYNTHETIC, labels=[[3, 0], ["2", 1]]),
     "'labels' must be a list of integer pairs"),
    ("weil-griffiths", dict(_SYNTHETIC, labels=[[3, 0], [True, 1]]),
     "'labels' must be a list of integer pairs"),
    # a zero denominator names the literal, and in a matrix its entry
    ("classify-field", {"p": "1/0"},
     "bad rational parameter: zero denominator in '1/0'"),
    ("k3t2", {"transcendental": {"field": {"d": 5, "p": "-5/2", "q": "-1/0"}}},
     "bad rational parameter: zero denominator in '-1/0'"),
    ("split", {"n": 2, "field": {"p": -1},
               "B": [[["0", "0"], ["0", "0"]], [["1", "0"], ["3/0", "1"]]]},
     "bad rational in B2 at row 1, column 0: zero denominator in '3/0'"),
    ("validate", {"n": 2, "field": {"p": -1},
                  "B": [[["0", "abc"], ["0", "0"]], [["1", "0"], ["0", "1"]]]},
     "bad rational in B1 at row 0, column 1: Invalid literal"),
    # a bad field parameter names its key
    ("k3t2", {"transcendental": {"field": {"d": 5, "p": "-5/2", "q": "-1/0"}}},
     "bad rational parameter: zero denominator in '-1/0' (parameter 'q')"),
    ("classify-field", {"p1": "-1", "p2": "x"},
     "bad rational parameter: Invalid literal for Fraction: 'x' (parameter 'p2')"),
    # a character onto Z2 takes the values 0 and 1; 7 used to run as 1
    ("k3t2", {"transcendental": _U1, "situation": "contained",
              "character": [{"element": _element((0,), (0,)), "value": 0},
                            {"element": _element((1,), (0,)), "value": 7}]},
     "'character' entry 1 has value 7"),
    ("k3t2", {"transcendental": _U1, "situation": "contained",
              "character": [{"element": _element((0,), (0,)), "value": -1},
                            {"element": _element((1,), (0,)), "value": 1}]},
     "'character' entry 0 has value -1"),
    ("k3t2", {"transcendental": _U1, "situation": "contained",
              "character": [{"element": _element((0,), (0,)), "value": 0},
                            {"element": _element((1,), (0,)), "value": 2}]},
     "'character' entry 1 has value 2"),
    # d = 0 is a bad parameter like d = 1, not a division by zero
    *[(sub, doc, "d must be a square-free integer > 1")
      for d in (0, "0")
      for sub, doc in (
          ("classify-field", {"d": d, "p": "-5/2", "q": "-1/2"}),
          ("galois", {"d": d, "p": "-5/2", "q": "-1/2"}),
          ("reflex", {"d": d, "p": "-5/2", "q": "-1/2"}),
          ("k3t2", {"transcendental": {"field": {"d": d, "p": "-5/2", "q": "-1/2"}}}))],
    # no pair count below 1 reaches the group checks
    ("dodson-reflex", {"n": 0, "elements": [_element((), ())]},
     "'n' must be an integer >= 1, got 0"),
    ("k3t2", {"transcendental": {"n": 0, "elements": [_element((), ())]}},
     "'n' must be an integer >= 1, got 0"),
    ("weil-griffiths", dict(_SYNTHETIC, pairs=0), "'pairs' must be an integer >= 1, got 0"),
    ("weil-griffiths", dict(_SYNTHETIC, pairs=-1), "'pairs' must be an integer >= 1, got -1"),
    # a present 'spreads' that is not a list is refused, falsy or not
    *[("weil-griffiths", dict(_SYNTHETIC, spreads=spreads), "'spreads' must be a list")
      for spreads in ({}, 0, False, "")],
    # a JSON bool is not a rational: it used to read as 0 or 1
    ("split", {"n": 1, "field": {"p": -1}, "B": [[[False]], [[True]]]},
     "bad rational in B1 at row 0, column 0: false is not a rational"),
    ("classify-field", {"d": 5, "p": "-5/2", "q": False},
     "bad rational parameter: false is not a rational (parameter 'q')"),
    # one literal grammar on every Python: Fraction takes "_" from 3.11 and
    # spaces around "/" from 3.12
    *[("split", {"n": 1, "field": {"p": -1}, "B": [[[entry]], [["1"]]]},
       f"bad rational in B1 at row 0, column 0: Invalid literal for Fraction: '{entry}'")
      for entry in ("1_000", "1_0/3", "3 / 4", "3/ 4")],
])
def test_malformed_nested_field_is_named(tmp_path, capsys, sub, doc, what):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out = run_cli(capsys, sub, "--input", str(path))
    report = json.loads(out)
    assert code == 1
    assert report["status"] == "invalid-input"
    assert what in report["diagnostics"][0]["message"]


# ---------------------------------------------------------------- document integers


@pytest.mark.parametrize("n, what", [
    (1.0, "'n' must be an integer, got 1.0"),
    (1.5, "'n' must be an integer, got 1.5"),
    (True, "'n' must be an integer, got true"),
    ("1", "'n' must be an integer, got \"1\""),
    (None, "'n' must be an integer, got null"),
    (0, "'n' must be an integer >= 1, got 0"),
    (-2, "'n' must be an integer >= 1, got -2"),
])
def test_period_matrix_n_must_be_a_positive_json_integer(tmp_path, capsys, n, what):
    # each of these used to be truncated by int(): 1.0, 1.5, true and "1"
    # split as n = 1, and 0 reported a proper subfield
    path = tmp_path / "pm.json"
    path.write_text(json.dumps({"n": n, "field": {"p": -1}, "B": [[[0]], [[1]]]}),
                    encoding="utf-8")
    code, out = run_cli(capsys, "split", "--input", str(path))
    report = json.loads(out)
    assert code == 1
    assert report["diagnostics"][0]["condition"] == "input:integer"
    assert what in report["diagnostics"][0]["message"]
    path.write_text(json.dumps({"field": {"p": -1}, "B": [[[0]], [[1]]]}), encoding="utf-8")
    code, out = run_cli(capsys, "split", "--input", str(path))
    assert code == 1 and "needs an integer 'n'" in out


# ---------------------------------------------------------------- big numbers


def _big(rng, digits):
    return str(rng.randrange(10 ** (digits - 1), 10 ** digits))


def test_large_exact_results_print(tmp_path, capsys):
    # 3000-digit inputs parse, and the certificate's entries have more
    # digits than Python converts to a string by default
    rng = random.Random(97)
    B = [[[_big(rng, 3000) for _ in range(2)] for _ in range(2)] for _ in range(2)]
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"n": 2, "field": {"p": -1}, "B": B}), encoding="utf-8")
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    code, out = run_cli(capsys, "split", "--input", str(path))
    report = json.loads(out)
    assert code == 0 and report["status"] == "ok"
    assert report["payload"]["verified"] is True
    longest = max(len(x) for row in report["payload"]["S"] for x in row)
    assert longest > 4300
    if limit is not None:
        assert sys.get_int_max_str_digits() == limit  # restored after the call


def _pm_text(entry):
    return json.dumps({"n": 2, "field": {"p": -1},
                       "B": [[[entry, "1"], ["0", "1"]], [["1", "0"], ["0", "1"]]]})


_HUGE = "7" * 5000  # more digits than any document number may have


@pytest.mark.parametrize("sub, doc, what", [
    ("weil-griffiths", dict(_SYNTHETIC, labels=[[3, 0], [_HUGE, 1]]),
     "'labels' must be a list of integer pairs"),
    ("weil-griffiths", dict(_SYNTHETIC, elements=[{"bits": [_HUGE, 0], "perm": [0, 1]}]),
     "group element needs 'bits' and 'perm'"),
    ("k3t2", {"transcendental": _U1, "situation": "contained",
              "character": [{"element": _element((0,), (0,)), "value": _HUGE}]},
     "'character' entry 0"),
], ids=["label", "bits", "character-value"])
def test_huge_integer_strings_are_refused(tmp_path, capsys, sub, doc, what):
    # integers are JSON literals, so a string of digits is refused before
    # it is converted (the CLI lifts the int-string limit while it runs)
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out = run_cli(capsys, sub, "--input", str(path))
    report = json.loads(out)
    assert code == 1 and report["status"] == "invalid-input"
    assert what in report["diagnostics"][0]["message"]


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="no int-string limit before Python 3.11")
def test_command_line_is_parsed_under_the_int_string_limit(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["dodson-enum", "--n", _HUGE])
    assert exc.value.code == 2
    assert "invalid int value" in capsys.readouterr().err


@pytest.mark.parametrize("sub, text", [
    ("split", _pm_text("1e5000")),
    ("split", _pm_text("1e100000000")),
    ("split", _pm_text("1_0e4299")),
    ("classify-field", json.dumps({"p": "-1e5001"})),
    ("classify-field", '{"p": -%s}' % ("7" * 4301)),
], ids=["B-1e5000", "B-1e100000000", "B-1_0e4299", "p-1e5001", "p-json-int-4301-digits"])
def test_oversized_numbers_are_named_input_errors(tmp_path, capsys, sub, text):
    # each ended in internal-error (exit 2); "1e100000000" computed 10**10**8
    path = tmp_path / "doc.json"
    path.write_text(text, encoding="utf-8")
    code, out = run_cli(capsys, sub, "--input", str(path))
    report = json.loads(out)
    assert code == 1
    assert report["diagnostics"][0]["condition"] == "input:number-size"


# The leaf-mutation fuzz.  Its seed documents are every tests/data input with
# each subcommand that reads it, the d = 0 field (once an exit-2 division by
# zero), the explicit structure above, and cm-type documents given by a
# preset or a field with their level n; each run replaces one or two leaves
# of a seed (or deletes a key) with a leaf of the same document, an integer
# one off, or a value from _FUZZ_VALUES.  Nothing is seeded from the clock.
_D0_FIELD = {"d": 0, "p": "-5/2", "q": "-1/2"}
_FUZZ_SEEDS = [
    *[(sub, name) for name in ("field_b.json", "field_c.json", _D0_FIELD)
      for sub in ("classify-field", "galois", "reflex")],
    ("k3t2", {"transcendental": {"field": _D0_FIELD}}),
    *[(sub, name) for name in ("torus_a_diag.json", "torus_b_n3.json", "torus_b_n4.json",
                               "torus_c_n4.json")
      for sub in ("validate", "split")],
    ("dodson-reflex", "cm_type_n4.json"),
    ("dodson-reflex", "cm_type_n5.json"),
    ("dodson-reflex", {"preset": "Z3-3-triv", "n": 3}),
    ("dodson-reflex", {"field": {"d": 5, "p": "-5/2", "q": "-1/2"}, "n": 2}),
    ("k3t2", "k3t2_disjoint.json"),
    ("k3t2", "k3t2_contained_a.json"),
    ("product", "product_cy3_elliptic.json"),
    ("product", {"factor1": _SYNTHETIC, "factor2": {"type": "elliptic"}}),
    ("weil-griffiths", "weil_griffiths_z3.json"),
    ("weil-griffiths", {"structure": _SYNTHETIC}),
]
_FUZZ_VALUES = [0, 1, -1, 2, 3, 7, 10 ** 30, "0", "1", "-1", "1/0", "-5/2", "3/4", "x", "",
                0.5, True, None, [], {}, [0], [[0, 0]], "explicit", "contained"]
_FUZZ_RUNS = 1500


def _leaf_paths(doc, path=()):
    """The key paths of the scalars and empty containers in a document."""
    if isinstance(doc, (dict, list)) and doc:
        for key, value in doc.items() if isinstance(doc, dict) else enumerate(doc):
            yield from _leaf_paths(value, path + (key,))
    else:
        yield path


def _mutate(doc, rng):
    doc = json.loads(json.dumps(doc))
    for _ in range(rng.randint(1, 2)):
        paths = list(_leaf_paths(doc))
        path = rng.choice(paths)
        if not path:
            return rng.choice(_FUZZ_VALUES)
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        old, r = parent[path[-1]], rng.random()
        if isinstance(parent, dict) and r < 0.15:
            del parent[path[-1]]
            continue
        if r < 0.4 and type(old) is int:
            new = old + rng.choice((-1, 1))
        elif r < 0.65:
            new = doc
            for key in rng.choice(paths):
                new = new[key]
        else:
            new = rng.choice(_FUZZ_VALUES)
        parent[path[-1]] = json.loads(json.dumps(new))
    return doc


def test_mutated_documents_end_in_a_named_condition(tmp_path, capsys):
    # exit 0, or exit 1 with a named condition: never a math-error or an
    # internal error, which a library bug, or an import a module forgot on
    # an error path, would give
    seeds = []
    for sub, doc in _FUZZ_SEEDS:
        if isinstance(doc, str):
            with open(os.path.join(DATA, doc), encoding="utf-8") as fh:
                doc = json.load(fh)
        seeds.append((sub, doc))
    rng = random.Random(29)
    path = tmp_path / "doc.json"
    codes = set()
    for i in range(_FUZZ_RUNS):
        sub, doc = seeds[i % len(seeds)]
        if i >= len(seeds):
            doc = _mutate(doc, rng)
        text = json.dumps(doc)
        path.write_text(text, encoding="utf-8")
        code, out = run_cli(capsys, sub, "--input", str(path))
        report = json.loads(out)
        diagnostics = report["diagnostics"]
        condition = diagnostics[0]["condition"] if diagnostics else None
        assert (code, report["status"]) in ((0, "ok"), (1, "invalid-input")), \
            (sub, text, diagnostics)
        assert (condition is None) == (code == 0), (sub, text, diagnostics)
        assert code == 0 or condition not in ("", "internal"), (sub, text, diagnostics)
        codes.add(code)
    assert codes == {0, 1}
