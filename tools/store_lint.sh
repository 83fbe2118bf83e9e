#!/usr/bin/env bash
# @store-lint: the artifact store is the only acquisition path.
#
# Since PR 10 every layer turns a generation spec into a built instance
# through Lll_store (canonical spec codec -> content key -> memory /
# artifact / generate). The scenario runner and the solve service must
# not regenerate, decode containers, or digest spec strings themselves:
#   - no generator calls (the girth sampler, the configuration model,
#     the synthetic/application instance builders);
#   - no direct container loads (Serial.load_binary_mmap, load_any,
#     of_binary_string, of_any_string) and no byte sources or readers
#     of their own (Bin.open_reader, source_of_path, source_of_string);
#   - no home-grown content digests (Digest.*) — keys come from
#     Spec.key / Store.descr_key / Memcache.content_key.
# Anything matching below in lib/scenario or lib/serve is a regression
# against the single-acquisition-path invariant.
set -u

fail=0

ban() {
  local what="$1" pattern="$2"
  local hits
  hits=$(grep -rnE --include='*.ml' --include='*.mli' "$pattern" lib/scenario lib/serve || true)
  if [ -n "$hits" ]; then
    echo "store-lint: $what outside lib/store:" >&2
    echo "$hits" >&2
    fail=1
  fi
}

ban "generator call" 'random_regular_girth|Generators\.|Synthetic\.(ring|random)|Sinkless\.|Hyper_orientation\.|Weak_splitting\.'
ban "direct container load" 'load_binary|load_any|of_binary_string|of_any_string|Bin\.open_reader|source_of_path|source_of_string'
ban "spec-digest logic" 'Digest\.'

if [ "$fail" -eq 0 ]; then
  echo "store-lint: lib/scenario and lib/serve acquire instances only through lib/store"
fi
exit "$fail"
