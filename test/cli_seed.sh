#!/bin/sh
# `osiris survive --seed N` must reach Campaign.survivability: the seed
# picks the sampled fault set, so the outcome table moves with it.
# Without --seed the output must be the --seed 42 output.
# Usage: cli_seed.sh PATH/TO/osiris_cli.exe
set -eu
cli=$1
survive() { "$cli" survive --sample 2 --jobs 1 "$@" 2>/dev/null; }
default=$(survive)
s42=$(survive --seed 42)
s7=$(survive --seed 7)
if [ "$default" != "$s42" ]; then
  echo "survive: default output differs from --seed 42" >&2
  exit 1
fi
if [ "$s7" = "$s42" ]; then
  echo "survive: --seed 7 gives the --seed 42 table; the seed is ignored" >&2
  exit 1
fi
