#!/bin/sh
# The golden CLI calls of tests/data, each in a fresh interpreter that writes
# no bytecode cache, so every subcommand's own imports run cold, outside
# pytest.  Compares stdout with the golden file byte for byte.
#
# Then, from the -X importtime trace of eight subcommands, that none imports
# dataclasses, inspect, fractions, decimal or numbers where the interpreter's
# own start-up does not, nor weakcm.cli as a module, nor weakcm.dodson (test
# oracles only); that classify-field and galois do not import linalg; and
# that each Dodson or Hodge subcommand imports only the group code it runs.
#
# Then the N = 5 class tables, two refusals of N = 400000, one of a
# 100,000-character --partition, and documents with big numbers, written
# here: Python's limit on the digits of an int converted to or from a string
# is set per interpreter, so these run in fresh ones too.  Each checks the exit code and one line of the report
# (its class count, verdict, condition or message).
#
# Then how a process ends: a closed stdout exits 141 with nothing on stderr,
# and under cProfile, which needs the interpreter's normal exit, the profile
# is written.
#
# Run from the repository root:  sh tests/golden_cli.sh
# PYTHON selects the interpreter (default: python).
set -u
PYTHON=${PYTHON:-python}
DATA=tests/data
OUT=$(mktemp)
BASE=$(mktemp)
BIG=$(mktemp -d)
trap 'rm -rf "$OUT" "$BASE" "$BIG"' EXIT
export PYTHONDONTWRITEBYTECODE=1
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"
failed=0

# usage: check EXPECTED_EXIT GOLDEN_NAME SUBCOMMAND [ARGS...]
check() {
    want=$1 golden=$2
    shift 2
    "$PYTHON" -m weakcm.cli "$@" > "$OUT"
    code=$?
    if [ "$code" != "$want" ]; then
        echo "FAIL $golden: exit $code, expected $want"
        failed=1
    elif ! cmp -s "$OUT" "$DATA/$golden.golden.json"; then
        echo "FAIL $golden: output differs from $DATA/$golden.golden.json"
        failed=1
    else
        echo "ok   $golden"
    fi
}

check 0 field_b classify-field --input "$DATA/field_b.json"
check 0 galois_b galois --input "$DATA/field_b.json"
check 0 reflex_b reflex --input "$DATA/field_b.json"
check 0 galois_c galois --input "$DATA/field_c.json"
check 0 reflex_c reflex --input "$DATA/field_c.json"
check 0 torus_a_diag split --input "$DATA/torus_a_diag.json"
check 1 torus_b_n3 split --input "$DATA/torus_b_n3.json"
check 0 torus_b_n4 split --input "$DATA/torus_b_n4.json"
check 0 torus_c_n4 split --input "$DATA/torus_c_n4.json"
check 0 validate_a_diag validate --input "$DATA/torus_a_diag.json"
check 0 validate_b_n4 validate --input "$DATA/torus_b_n4.json"
check 0 validate_c_n4 validate --input "$DATA/torus_c_n4.json"
check 0 k3t2_disjoint k3t2 --input "$DATA/k3t2_disjoint.json"
check 0 classify_cy3 dodson-classify --n 3 --partition cy3
check 0 cm_type_n5 dodson-reflex --input "$DATA/cm_type_n5.json"
check 0 cm_type_n4 dodson-reflex --input "$DATA/cm_type_n4.json"
check 0 presets presets
check 0 k3t2_contained_a k3t2 --input "$DATA/k3t2_contained_a.json"
check 0 product_cy3_elliptic product --input "$DATA/product_cy3_elliptic.json"
check 0 weil_griffiths_z3 weil-griffiths --input "$DATA/weil_griffiths_z3.json"

# usage: check_line EXPECTED_EXIT LINE NAME SUBCOMMAND [ARGS...]
check_line() {
    want=$1 line=$2 name=$3
    shift 3
    "$PYTHON" -m weakcm.cli "$@" > "$OUT"
    code=$?
    if [ "$code" != "$want" ]; then
        echo "FAIL $name: exit $code, expected $want"
        failed=1
    elif ! grep -qF "$line" "$OUT"; then
        echo "FAIL $name: the report has no line $line"
        failed=1
    else
        echo "ok   $name"
    fi
}

# usage: check_imports NAME 'MODULES' SUBCOMMAND [ARGS...]
# No subcommand may import dataclasses or inspect: dataclasses pulls in
# inspect, ast, dis and tokenize, about 10 ms of every fresh process.  Nor
# fractions, which pulls in decimal (the _decimal extension) and numbers,
# about 3 ms: rationals are integer pairs, and only a decimal or exponent
# literal in a document loads it.  Some
# interpreters import inspect at start-up (a conda-built 3.13 does, through
# importlib.resources), so a module counts only if the interpreter's own
# trace, of -c pass, lacks it.  Nor may it import weakcm.cli as a module:
# it runs as __main__, so that import would compile cli.py a second time.
# MODULES names further weakcm modules the subcommand must not import.
"$PYTHON" -X importtime -c pass 2> "$BASE"
check_imports() {
    name=$1 forbidden=$2
    shift 2
    "$PYTHON" -X importtime -m weakcm.cli "$@" 2> "$OUT" > /dev/null
    extra=
    for module in dataclasses inspect fractions decimal numbers; do
        if grep -qE "\| +$module\$" "$OUT" && ! grep -qE "\| +$module\$" "$BASE"; then
            extra="$extra $module"
        fi
    done
    for module in weakcm.cli $forbidden; do
        if grep -qE "\| +$module\$" "$OUT"; then
            extra="$extra $module"
        fi
    done
    if ! grep -qE '\| +weakcm\.errors$' "$OUT"; then
        echo "FAIL imports_$name: no import trace"
        failed=1
    elif [ -n "$extra" ]; then
        echo "FAIL imports_$name: imports$extra"
        failed=1
    else
        echo "ok   imports_$name"
    fi
}

check_imports classify_field 'weakcm.dodson weakcm.linalg' classify-field --input "$DATA/field_b.json"
check_imports galois 'weakcm.dodson weakcm.linalg' galois --input "$DATA/field_b.json"
check_imports reflex 'weakcm.dodson weakcm.tausplit' reflex --input "$DATA/field_c.json"
check_imports validate weakcm.dodson validate --input "$DATA/torus_a_diag.json"
check_imports split weakcm.dodson split --input "$DATA/torus_a_diag.json"
check_imports dodson_classify 'weakcm.dodson weakcm.dodson_reflex' dodson-classify --n 3 --partition cy3
check_imports k3t2 'weakcm.dodson weakcm.dodson_classes weakcm.linalg' k3t2 --input "$DATA/k3t2_disjoint.json"
check_imports product 'weakcm.dodson weakcm.dodson_classes weakcm.dodson_reflex' product --input "$DATA/product_cy3_elliptic.json"

# the N = 5 class tables, cold: a few seconds each (Burnside's lemma gives
# the same counts in tests/test_dodson.py)
check_line 0 '"class_count": 10' classify_n5_k3 dodson-classify --n 5 --bound 5 --partition k3
check_line 0 '"class_count": 20' classify_n5_abl dodson-classify --n 5 --bound 5 --partition abl
check_line 0 '"class_count": 33' classify_n5_cy3 dodson-classify --n 5 --bound 5 --partition cy3

# N past the tables is refused before the 2N-slot partition is built, and
# the message writes the order 2^N N! as a formula, not as its digits
check_line 1 '"message": "N = 400000 exceeds the enumeration bound 4"' classify_n400000_abl dodson-classify --n 400000 --partition abl
check_line 1 '"message": "Im(400000,2) has order 2^400000 * 400000!; Dodson computations are bounded to N <= 5"' enum_n400000 dodson-enum --n 400000 --bound 400000

# a 100,000-character --partition is quoted by its first 40 characters
LONG=$("$PYTHON" -c 'print(chr(34) + "x" * 100000 + chr(34))')
check_line 1 '"message": "--partition block list must be a non-empty JSON list, got \"xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx"' partition_100000 dodson-classify --n 3 --partition "$LONG"

"$PYTHON" - "$BIG" <<'PY'
import json
import random
import sys

big, rng = sys.argv[1], random.Random(3000)


def pm(entries):
    it = iter(entries)
    return {"n": 2, "field": {"p": -1},
            "B": [[[next(it) for _ in range(2)] for _ in range(2)] for _ in range(2)]}


rest = ["1", "0", "1", "1", "0", "0", "1"]
docs = {
    # 3000-digit entries parse, and the certificate's entries have more
    # digits than the default limit lets str() print
    "digits3000": pm(str(rng.randrange(10 ** 2999, 10 ** 3000)) for _ in range(8)),
    "e5000": pm(["1e5000"] + rest),
    "e100000000": pm(["1e100000000"] + rest),
    "p_e5001": {"p": "-1e5001"},
}
for name, doc in docs.items():
    with open(f"{big}/{name}.json", "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
PY
check_line 0 '"verified": true' big_digits3000 split --input "$BIG/digits3000.json"
check_line 1 '"condition": "input:number-size"' big_e5000 split --input "$BIG/e5000.json"
check_line 1 '"condition": "input:number-size"' big_e100000000 split --input "$BIG/e100000000.json"
check_line 1 '"condition": "input:number-size"' big_p_e5001 classify-field --input "$BIG/p_e5001.json"

# a closed stdout: exit 141, the status a shell reports for SIGPIPE, and no
# traceback.  presets writes more than a pipe holds, so its write fails
# however soon the reader, which reads nothing, exits
{ "$PYTHON" -m weakcm.cli presets 2> "$OUT"; echo $? > "$BIG/code"; } | true
code=$(cat "$BIG/code")
if [ "$code" != 141 ]; then
    echo "FAIL closed_stdout: exit $code, expected 141"
    failed=1
elif [ -s "$OUT" ]; then
    echo "FAIL closed_stdout: stderr is not empty"
    failed=1
else
    echo "ok   closed_stdout"
fi

# a profiled process takes the normal exit, which writes the profile
"$PYTHON" -m cProfile -o "$BIG/p.prof" -m weakcm.cli dodson-enum --n 2 > /dev/null
code=$?
if [ "$code" != 0 ]; then
    echo "FAIL cprofile: exit $code, expected 0"
    failed=1
elif [ ! -s "$BIG/p.prof" ]; then
    echo "FAIL cprofile: no profile written"
    failed=1
else
    echo "ok   cprofile"
fi
exit $failed
