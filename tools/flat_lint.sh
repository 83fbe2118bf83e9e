#!/usr/bin/env bash
# @flat-lint: keep boxed LOCAL-engine calls from creeping back into lib/.
#
# Runtime.run_flat (record-of-arrays states) is the one LOCAL engine in
# lib/. The boxed API survives in exactly two forms, both confined:
#   - run_full_info       : the compatibility shim, defined in runtime.ml
#                           (and its mli) only;
#   - run_full_info_boxed : the retired engine, callable only from the
#                           reference implementations in mis and dist_lll.
# Any other spelling of run_full_info (a new _suffix variant included)
# is a regression.
set -u

fail=0

# Bare run_full_info (not the _boxed form) outside the shim.
bare=$(grep -rnP --include='*.ml' --include='*.mli' 'run_full_info(?!_boxed)' lib \
  | grep -vE '^lib/local/runtime\.(ml|mli):' || true)
if [ -n "$bare" ]; then
  echo "flat-lint: boxed run_full_info outside the runtime shim:" >&2
  echo "$bare" >&2
  fail=1
fi

# The retired engine outside the allowlisted reference implementations.
allow='^lib/local/(runtime|mis)\.(ml|mli):|^lib/lll/dist_lll\.(ml|mli):'
boxed=$(grep -rn --include='*.ml' --include='*.mli' 'run_full_info_boxed' lib \
  | grep -vE "$allow" || true)
if [ -n "$boxed" ]; then
  echo "flat-lint: run_full_info_boxed outside the allowlisted references:" >&2
  echo "$boxed" >&2
  fail=1
fi

if [ "$fail" -eq 0 ]; then
  echo "flat-lint: lib/ clean (boxed engine confined to the shim and reference allowlist)"
fi
exit "$fail"
