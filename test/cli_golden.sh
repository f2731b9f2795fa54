#!/bin/sh
# Golden CLI transcript. Runs each run-building subcommand at seed 42 in
# a fresh temporary directory and prints, per command, its stdout, its
# exit code and the md5 of every file it wrote. The runtest rule diffs
# the transcript against cli_golden.expected, so a change to what any
# of these runs prints or writes fails the build with the diff.
# Usage: cli_golden.sh PATH/TO/osiris_cli.exe
set -eu
cli=$(cd "$(dirname "$1")" && pwd)/$(basename "$1")
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT
cd "$dir"
export LC_ALL=C
run() {
  echo "### osiris $*"
  rc=0
  "$cli" "$@" --seed 42 2>/dev/null || rc=$?
  echo "### exit $rc"
  for f in *; do
    [ -e "$f" ] && md5sum "$f"
  done
  rm -f ./*
}
run suite
run fsck
run stress --runs 3
run events --last 5
run trace
run report
run profile
run health
run timeline --no-color
run why --crash ds
run record --crash ds
run record --ring 256
run survivability --sample 4 --jobs 1
