#!/bin/sh
# Prints the decisions every named admission test serves on one trace:
# stdin `serve` for the nine named tests, with status, rebalance and
# status directives after the trace's 60th line, then `replay
# --rebalance-every 16` for the five tests that take deadlines, whose
# clairvoyant runs the constrained batch partitioner.  The
# cli_serve_transcripts ctest diffs this output against
# results/serve_transcripts.txt.
#
#   tools/serve_transcripts.sh <hetsched_cli> <trace>
set -e
cli=$1
trace=$2
serve() {
  echo "=== serve $*"
  awk '{ print } NR == 60 { print "status"; print "rebalance"; print "status" }' \
    "$trace" | "$cli" serve "$@"
}
for kind in edf rms-ll rms-hb rms-rta; do
  serve --admission "$kind"
done
for test in bound dbf-approx qpa rta auto; do
  serve --admission-test "$test"
done
for test in bound dbf-approx qpa rta auto; do
  echo "=== replay --admission-test $test --rebalance-every 16"
  "$cli" replay "$trace" --admission-test "$test" --rebalance-every 16
done
