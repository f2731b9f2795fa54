#!/bin/sh
# `osiris survivability --seed N` must reach the campaign: the seed
# picks the sampled fault set, so the outcome table moves with it.
# Without --seed the output must be the --seed 42 output.
# Usage: cli_seed.sh PATH/TO/osiris_cli.exe
set -eu
cli=$1
json=$(mktemp)
trap 'rm -f "$json"' EXIT
surv() {
  "$cli" survivability --sample 2 --jobs 1 --json "$json" "$@" 2>/dev/null
}
default=$(surv)
s42=$(surv --seed 42)
s7=$(surv --seed 7)
if [ "$default" != "$s42" ]; then
  echo "survivability: default output differs from --seed 42" >&2
  exit 1
fi
if [ "$s7" = "$s42" ]; then
  echo "survivability: --seed 7 gives the --seed 42 table; the seed is ignored" >&2
  exit 1
fi
