#!/usr/bin/env bash
# @flat-lint: keep boxed LOCAL-engine calls from creeping back into the
# program sources (lib/, bin/, examples/).
#
# Runtime.run_flat (record-of-arrays states) is the one LOCAL engine.
# The boxed API survives in exactly one form:
#   - run_full_info_boxed : the retired engine, callable only from the
#                           reference implementations in mis and dist_lll.
# Any other spelling of run_full_info (the bare name or a new _suffix
# variant) is a regression, in every file.
#
# It also bans Obj.magic: no value is reinterpreted at another type
# (the v3 container decodes with typed bigstring loads, not a cast
# view of its bytes).
#
# And it bans top-level refs in lib/prob: exact conditionals are a
# function of the space value alone (the enumerating reference is a
# value, Space.enumerating, not a process-wide mode).
#
# And it keeps float potentials confined: Fixing.fix_rank2_float,
# float Fixing.t and the float split Srep.decompose appear only in the
# rank-r experiment (lib/lll/fix_rankr.ml), Srep itself, the fuzz
# geometry oracle (lib/fuzz/fuzz.ml) and bin/ (experiments F1/F2 and
# the surface CLI). The rank-2 and rank-3 fixers, Dist_lll and Replay
# keep phi exact.
#
# And it keeps compiled tables in one representation: the space's flat
# table store. Event.table, Event.of_table, install_table and
# compile_event (the per-event table path the store replaced) may not
# appear in lib/, bin/, examples/ or test/.
set -u

dirs=(lib bin examples)
fail=0

# Any run_full_info other than the _boxed reference, anywhere.
bare=$(grep -rnP --include='*.ml' --include='*.mli' 'run_full_info(?!_boxed)' "${dirs[@]}" || true)
if [ -n "$bare" ]; then
  echo "flat-lint: boxed run_full_info API outside run_full_info_boxed:" >&2
  echo "$bare" >&2
  fail=1
fi

# The retired engine outside the allowlisted reference implementations.
allow='^lib/local/(runtime|mis)\.(ml|mli):|^lib/lll/dist_lll\.(ml|mli):'
boxed=$(grep -rn --include='*.ml' --include='*.mli' 'run_full_info_boxed' "${dirs[@]}" \
  | grep -vE "$allow" || true)
if [ -n "$boxed" ]; then
  echo "flat-lint: run_full_info_boxed outside the allowlisted references:" >&2
  echo "$boxed" >&2
  fail=1
fi

# Type reinterpretation, anywhere.
magic=$(grep -rn --include='*.ml' --include='*.mli' 'Obj\.magic' "${dirs[@]}" || true)
if [ -n "$magic" ]; then
  echo "flat-lint: Obj.magic in the program sources:" >&2
  echo "$magic" >&2
  fail=1
fi

# Process-global mutable state in the probability layer.
globals=$(grep -nE "^let +[a-z_][A-Za-z0-9_']* *(:[^=]*)?= *ref\b" lib/prob/*.ml || true)
if [ -n "$globals" ]; then
  echo "flat-lint: top-level ref in lib/prob:" >&2
  echo "$globals" >&2
  fail=1
fi

# Float potentials outside their allowlist.
allow='^lib/lll/(fix_rankr|srep)\.(ml|mli):|^lib/fuzz/fuzz\.(ml|mli):|^bin/'
floats=$(grep -rnP --include='*.ml' --include='*.mli' \
  'Fixing\.fix_rank2_float|float Fixing\.t|Srep\.decompose(?![A-Za-z0-9_])' "${dirs[@]}" \
  | grep -vE "$allow" || true)
if [ -n "$floats" ]; then
  echo "flat-lint: float potential outside the rank-r experiment, Srep, the geometry oracle and bin/:" >&2
  echo "$floats" >&2
  fail=1
fi

# A per-event table path beside the table store, anywhere, tests too.
tables=$(grep -rnP --include='*.ml' --include='*.mli' \
  'Event\.(of_)?table(?![A-Za-z0-9_])|install_table|compile_event(?![A-Za-z0-9_])' \
  "${dirs[@]}" test || true)
if [ -n "$tables" ]; then
  echo "flat-lint: per-event table API beside the table store:" >&2
  echo "$tables" >&2
  fail=1
fi

if [ "$fail" -eq 0 ]; then
  echo "flat-lint: lib/, bin/, examples/ clean (boxed engine confined to the reference allowlist, no Obj.magic, no top-level ref in lib/prob, float potentials confined, no per-event table API here or in test/)"
fi
exit "$fail"
