#!/bin/sh
# The golden CLI calls of tests/data, each in a fresh interpreter that writes
# no bytecode cache, so every subcommand's own imports run cold, outside
# pytest.  Compares stdout with the golden file byte for byte.
#
# Run from the repository root:  sh tests/golden_cli.sh
# PYTHON selects the interpreter (default: python).
set -u
PYTHON=${PYTHON:-python}
DATA=tests/data
OUT=$(mktemp)
trap 'rm -f "$OUT"' EXIT
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
check 0 torus_a_diag split --input "$DATA/torus_a_diag.json"
check 1 torus_b_n3 split --input "$DATA/torus_b_n3.json"
check 0 k3t2_disjoint k3t2 --input "$DATA/k3t2_disjoint.json"
check 0 classify_cy3 dodson-classify --n 3 --partition cy3
exit $failed
