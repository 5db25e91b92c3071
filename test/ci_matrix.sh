#!/bin/sh
# The CI matrix: each suite once, next to the configurations it runs
# under.  A configuration is a `+`-joined list of settings:
#
#   default    the environment as given (DLZ_TEST_JOBS unset = width 4)
#   w2         DLZ_TEST_JOBS=2, the width of two-core runners
#   chaos=S:R  DLZ_CHAOS=S:R, process-wide fault injection
#   seed=N     DLZ_ORACLE_SEED=N, a second differential-sweep seed
#   sweep      only the oracle's `sweep` group
#
# Only suites whose assertions hold under injection get a chaos
# configuration; tests that need a clean run switch it off locally.
#
# Run from the directory holding the test executables, as
# `dune build @matrix-ci` does.  Arguments restrict the run to the
# named suites.  Every configuration runs; the exit status is 1 when
# any of them failed, and the failures are listed at the end.

matrix='
test_parallel w2 chaos=7:0.1
test_chaos    chaos=7:0.1 chaos=1234:0.1
test_trace    default w2 chaos=7:0.1
test_oracle   default seed=2+sweep seed=2+w2+sweep
test_persist  default w2 chaos=7:0.1
test_serve    default chaos=7:0.05 chaos=1234:0.05
test_obs      default w2 chaos=7:0.05
'

# run SUITE CONFIG: the suite's executable under one configuration.
run() {
  vars= args=
  for s in $(echo "$2" | tr + ' '); do
    case $s in
      default) ;;
      w2) vars="$vars DLZ_TEST_JOBS=2" ;;
      chaos=*) vars="$vars DLZ_CHAOS=${s#chaos=}" ;;
      seed=*) vars="$vars DLZ_ORACLE_SEED=${s#seed=}" ;;
      sweep) args="test sweep" ;;
      *) echo "ci_matrix: unknown setting '$s'" >&2; return 2 ;;
    esac
  done
  echo "== $1 [$2]"
  # shellcheck disable=SC2086 # vars and args are word lists
  env $vars "./$1.exe" $args </dev/null
}

wanted() {
  [ -z "$only" ] && return 0
  for w in $only; do [ "$w" = "$1" ] && return 0; done
  return 1
}

only="$*"
failed=
while read -r suite configs; do
  [ -n "$suite" ] && wanted "$suite" || continue
  for c in $configs; do
    run "$suite" "$c" || failed="$failed $suite[$c]"
  done
done <<EOF
$matrix
EOF

if [ -n "$failed" ]; then
  echo "ci_matrix: failed:$failed" >&2
  exit 1
fi
