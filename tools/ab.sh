#!/usr/bin/env bash
# Paired A/B of the wall-clock benchmark: the working tree against REF.
#
#	tools/ab.sh REF [--workload W] [--pairs N] [--seed S]
#
# Checks REF out under .bench_build/ab/parent, builds the benchmark
# harness of each side from its own source, runs N pairs (default 10) of
# recorded end-to-end runs — pair i on seed S+i-1 (default 1) for both
# sides, the side that goes first flipped every pair — and prints the
# harness's -compare verdict (the paired rule: >= 10 pairs, wins in nine
# tenths, medians further apart than the parent's interquartile range).
# Without --workload every workload runs each time (~2 min per side per
# pair); with it only W does (~25 s).
#
# The parent is a `git archive` export, not a `git worktree`: nothing is
# registered in .git and deleting .bench_build removes every trace.
set -euo pipefail

usage() { sed -n '2,5p' "$0" >&2; exit 2; }
[ $# -ge 1 ] || usage
ref="$1"; shift
workload="" pairs=10 seed=1
while [ $# -gt 0 ]; do
  case "$1" in
    --workload) workload="$2"; shift 2 ;;
    --pairs) pairs="$2"; shift 2 ;;
    --seed) seed="$2"; shift 2 ;;
    *) usage ;;
  esac
done

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
ab="$build/ab"
rm -rf "$ab"
mkdir -p "$ab/parent" "$build/tmp"
git archive "$ref" | tar -x -C "$ab/parent"

# The environment benchmarks/stack/run.sh builds under, so both sides
# share one build cache and the go command writes only inside the checkout.
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOFLAGS=-mod=readonly GOTOOLCHAIN=local GOPROXY=off GOWORK=off
(cd "$ab/parent/benchmarks/stack" && go build -o "$ab/stack.parent" .)
(cd "$root/benchmarks/stack" && go build -o "$ab/stack.change" .)

# one SIDE SEED appends one run per workload to $ab/SIDE.jsonl. -record
# runs every workload; a single workload is run directly and its result
# line rewritten into a -record line ({"workload","seed","metrics":{name:value}}).
one() {
  local side="$1" s="$2" line
  if [ -z "$workload" ]; then
    "$ab/stack.$side" -record "$ab/$side.jsonl" -runs 1 -seed "$s"
    return
  fi
  line="$("$ab/stack.$side" --workload "$workload" --seed "$s" --trace 0 | tail -n 1)"
  case "$line" in
    '{"correct":true,'*) ;;
    *) echo "ab: $side seed $s: run failed: $line" >&2; return 1 ;;
  esac
  printf '{"workload":"%s","seed":%s,"metrics":%s}\n' "$workload" "$s" \
    "$(sed -E 's/.*"metrics":(\{.*\})\}$/\1/; s/\{"value":([^,}]*),"unit":"[^"]*"\}/\1/g' <<<"$line")" \
    >>"$ab/$side.jsonl"
}

for ((i = 0; i < pairs; i++)); do
  s=$((seed + i))
  if ((i % 2 == 0)); then first=parent second=change; else first=change second=parent; fi
  echo "ab: pair $((i + 1))/$pairs, seed $s: $first then $second" >&2
  one "$first" "$s"
  one "$second" "$s"
done

"$ab/stack.change" -compare "$ab/parent.jsonl" "$ab/change.jsonl"
