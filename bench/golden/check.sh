#!/bin/sh
# Paper-table goldens: runs the deterministic accuracy benches at
# --markets 4 --scale 10 and diffs each one's stdout against the file of the
# same name in this directory. A change that moves a paper number fails here.
#
#   bench/golden/check.sh BUILD_DIR            # diff; exit 1 on any change
#   bench/golden/check.sh BUILD_DIR --update   # rewrite the goldens
#
# bench_scaling is left out: it prints a wall-time column.
set -eu
build=$1
update=${2:-}
golden=$(dirname "$0")
out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT
status=0
for spec in bench_sec432_proximity bench_fig11_local_per_market bench_fig12_mismatch_labels \
            bench_ablation "bench_table4_global_accuracy --learners cf"; do
  name=${spec%% *}
  # shellcheck disable=SC2086  # spec carries the bench's own flags
  "$build/bench/"$spec --markets 4 --scale 10 > "$out/$name.txt" 2> /dev/null
  if [ "$update" = "--update" ]; then
    cp "$out/$name.txt" "$golden/$name.txt"
  elif diff -u "$golden/$name.txt" "$out/$name.txt"; then
    echo "$name: matches its golden"
  else
    status=1
  fi
done
exit $status
