#!/bin/sh
# Smoke run of every layer bench, then the artifact schema check: each
# fresh smoke_<name>.json must carry every key path of the committed
# BENCH_<name>.json (bench_diff exits 1 on a GONE path, a gate that
# went from true to false, or a move of a field the artifact declares
# exact with tolerance 0). Every check runs; exit 1 if any failed.
#
#   sh smoke.sh MAIN_EXE BENCH_DIFF_EXE BASELINE_DIR
case $1 in */*) main=$1 ;; *) main=./$1 ;; esac
bench_diff=$2
baselines=$3
status=0
rm -f smoke_*.json smoke_*.diff
"$main" --smoke || status=1
for base in "$baselines"/BENCH_*.json; do
  name=${base##*/BENCH_}
  name=${name%.json}
  if ! "$bench_diff" "$base" "smoke_$name.json" > "smoke_$name.diff" 2>&1; then
    cat "smoke_$name.diff"
    status=1
  fi
done
exit $status
