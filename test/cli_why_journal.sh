#!/bin/sh
# `osiris why --journal J` reads a recorded run, so a flag that
# describes a live run cannot apply: it must exit nonzero and name the
# flag on stderr rather than be silently ignored.
# Usage: cli_why_journal.sh PATH/TO/osiris_cli.exe
set -eu
cli=$1
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT
"$cli" record --journal "$dir/j.journal" --crash ds >/dev/null
rc=0
"$cli" why --journal "$dir/j.journal" --crash vm --json "$dir/why.json" \
  >/dev/null 2>"$dir/err" || rc=$?
if [ "$rc" -eq 0 ]; then
  echo "why --journal accepted --crash; the flag was silently ignored" >&2
  exit 1
fi
if ! grep -q -e '--crash' "$dir/err"; then
  echo "why --journal --crash: stderr does not name --crash" >&2
  exit 1
fi
