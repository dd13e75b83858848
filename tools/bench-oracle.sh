#!/usr/bin/env bash
# The refactoring oracle: the simulator is deterministic, so a change
# that keeps behaviour regenerates the committed virtual-time artifacts
# byte for byte.
#
#	tools/bench-oracle.sh
#
# Builds vbench once, regenerates
# BENCH_{perf,ckpt,detsupp,trace,fleet,chaos,elrep}.json under
# .bench_build/oracle with the flags the committed files were made with
# (the full sweeps, not -quick; ~9 s in all) and diffs each against the
# committed file. Every field of all seven is virtual time, so the
# comparison is plain. chaos and elrep are the only artifacts that kill
# service nodes (event loggers, checkpoint servers, replicas), so they
# witness the services' store and respawn model. Exits non-zero on any
# difference.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build/oracle"
rm -rf "$out"
mkdir -p "$out"
(cd "$root" && go build -o "$out/vbench" ./cmd/vbench)

cd "$out"
status=0
for exp in perf ckpt detsupp trace fleet chaos elrep; do
  ./vbench -exp "$exp" -json >/dev/null
  f="BENCH_$exp.json"
  diff -u --label "committed $f" --label "regenerated $f" "$root/$f" "$f" || status=1
done
if [ "$status" -eq 0 ]; then
  echo "bench-oracle: all seven artifacts reproduce"
fi
exit "$status"
