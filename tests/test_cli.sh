#!/bin/sh
# End-to-end check of the built `ssresf` binary on one small scenario:
#   1. the records CSV and the sensitivity-stats CSV are byte-identical
#      across `simulate`, `simulate --shard 0/2` (v1) + `--shard 1/2` (v2)
#      + `merge` (into a v1 and, streamed, into a v2 records artifact), and
#      `simulate --workers 2`;
#   2. a malformed numeric flag value exits non-zero with an error that
#      names the flag and the value.
#
# Usage: test_cli.sh SSRESF_BINARY SCENARIO_YAML
set -eu
ssresf=$1
scenario=$2
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
cd "$work"

"$ssresf" simulate --scenario "$scenario" --out-dir single \
  --records-csv single.csv --stats-csv single_stats.csv
"$ssresf" simulate --scenario "$scenario" --out-dir shards --shard 0/2 \
  --record-format v1
"$ssresf" simulate --scenario "$scenario" --out-dir shards --shard 1/2 \
  --record-format v2
"$ssresf" merge --scenario "$scenario" --out-dir merged shards/*.ssfs \
  --records-csv merged.csv --stats-csv merged_stats.csv
"$ssresf" merge --scenario "$scenario" --out-dir merged_v2 --record-format v2 \
  shards/*.ssfs --records-csv merged_v2.csv --stats-csv merged_v2_stats.csv
"$ssresf" simulate --scenario "$scenario" --out-dir fleet --workers 2 \
  --records-csv fleet.csv --stats-csv fleet_stats.csv
for route in merged merged_v2 fleet; do
  cmp single.csv "$route.csv"
  cmp single_stats.csv "${route}_stats.csv"
done

# expect_flag_error FLAG VALUE ARGS...: `ssresf ARGS` must fail, and its
# error must name FLAG and VALUE.
expect_flag_error() {
  flag=$1
  value=$2
  shift 2
  if "$ssresf" "$@" 2>err.txt; then
    echo "FAIL: 'ssresf $*' exited 0"
    exit 1
  fi
  if ! grep -q -e "$flag.*'$value'" err.txt; then
    echo "FAIL: 'ssresf $*' error does not name $flag and '$value':"
    cat err.txt
    exit 1
  fi
}
expect_flag_error --threads abc run --scenario "$scenario" --threads abc
expect_flag_error --connect 7x worker --connect 127.0.0.1:7x

echo "OK: ssresf routes agree byte for byte; bad flag values are named"
