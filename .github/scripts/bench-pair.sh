#!/bin/sh
# bench-pair.sh <base-ref> [workload...] — the repository's one way to
# ask "did this change regress?": build bench/ at <base-ref> and at the
# working tree, run PAIRS (default 5) old/new pairs of every workload
# (default: all of BENCHMARK.json) on this host, alternating which side
# goes first, same seed on both sides of a pair, RUN_SECONDS each
# (default: BENCHMARK.json's run_seconds). Every run's JSON line is kept
# in $OUT/runs.jsonl (default .bench_build/pair/). Fails when a run is
# not `correct` or has `failed` checks, when alloc_mb_per_pass is worse
# in the median by more than its BENCHMARK.json bound, or when the new
# side loses every pair of a host-time metric by more than that
# metric's bound; otherwise prints medians, ratios and paired wins.
#
# CLAIM=<metric>@<workload> additionally judges a claimed gain by the
# rule of the choosing-metrics guide, section 8: at least ten pairs
# (fewer is a usage error, before anything is built), the new side
# better in at least nine tenths of them (a tie counts for neither
# side), and the two medians further apart than the old side's own
# inter-quartile distance. It prints `claim met` or `claim NOT met` with
# the three numbers and fails when the claim is not met.
#
# Host time follows the 64-byte phase of the issue walk's hot functions,
# which a change to the size of any code linked before them flips: a
# +-10 % launch-storm or suite-regular swing can be code placement
# alone. So the script prints, for both binaries, the address mod 64 of
# each of those functions (go tool nm), and when the phases differ it
# labels every host-time median "layout moved". The label changes no
# verdict.
set -eu
usage() { echo "usage: [CLAIM=<metric>@<workload>] [PAIRS=n] [RUN_SECONDS=s] [OUT=dir] $0 <base-ref> [workload...]" >&2; exit 2; }
[ $# -ge 1 ] || usage
root=$(git rev-parse --show-toplevel)
manifest=$root/BENCHMARK.json
base=$1
shift
[ $# -gt 0 ] || set -- $(jq -r '.workloads[].name' "$manifest")
pairs=${PAIRS:-5}
secs=${RUN_SECONDS:-$(jq -r .run_seconds "$manifest")}
out=${OUT:-$root/.bench_build/pair}
claim=${CLAIM:-}
if [ -n "$claim" ]; then
	jq -en --arg c "$claim" --slurpfile m "$manifest" \
		'($c | split("@")) as $p | ($p | length) == 2
		 and ($m[0].end_to_end | any(.name == $p[0])) and ($ARGS.positional | index($p[1]) != null)' \
		--args "$@" > /dev/null ||
		{ echo "bench-pair: CLAIM=$claim: want <end-to-end metric>@<one of the workloads run>" >&2; usage; }
	[ "$pairs" -ge 10 ] ||
		{ echo "bench-pair: CLAIM needs PAIRS >= 10 to judge a gain, got PAIRS=$pairs" >&2; usage; }
fi

rm -rf "$out/base"
mkdir -p "$out/base"
: > "$out/runs.jsonl"
git -C "$root" archive "$base" | tar -x -C "$out/base"
go build -C "$out/base/bench" -o "$out/old" .
go build -C "$root/bench" -o "$out/new" .

phases() { # binary: "function=address mod 64" for each hot function of the issue walk
	go tool nm "$1" |
		sed -nE 's/^ *([0-9a-f]+) T repro\/internal\/sm\.\(\*SM\)\.(step|fill|pick|selectPrimary|fastForward|refreshWarp)$/\2 \1/p' |
		sort | while read -r f a; do printf ' %s=%d' "$f" $((0x$a % 64)); done
}
old_phases=$(phases "$out/old")
new_phases=$(phases "$out/new")
echo "code layout, address mod 64, old:${old_phases}"
echo "code layout, address mod 64, new:${new_phases}"
layout=""
[ "$old_phases" = "$new_phases" ] || layout="  layout moved"

run() { # side workload pair: one run, its JSON line tagged and kept
	"$out/$1" -workload "$2" -seed "$3" -seconds "$secs" | tail -n 1 |
		jq -c --arg side "$1" --arg w "$2" --argjson pair "$3" \
			'{side: $side, workload: $w, pair: $pair} + .' >> "$out/runs.jsonl"
}
for w in "$@"; do
	i=1
	while [ "$i" -le "$pairs" ]; do
		if [ $((i % 2)) -eq 1 ]; then first=old second=new; else first=new second=old; fi
		echo "== $w pair $i/$pairs: $first, then $second" >&2
		run "$first" "$w" "$i"
		run "$second" "$w" "$i"
		i=$((i + 1))
	done
done

jq -rs --slurpfile m "$manifest" --arg claim "$claim" --arg layout "$layout" '
# quantile(q): linear interpolation between the order statistics
def quantile(q): sort | ((length - 1) * q) as $i | ($i | floor) as $lo
  | .[$lo] + (.[[$lo + 1, length - 1] | min] - .[$lo]) * ($i - $lo);
def median: quantile(0.5);
def r4: if . >= 1000 then round else . * 10000 | round / 10000 end;
# pairs(e): every pair of a workload as {o, n}, the old and the new value of metric e
def pairs($e): . as $runs | [.[] | select(.side == "old") | . as $o | $runs[]
  | select(.side == "new" and .pair == $o.pair) | {o: $o.metrics[$e].value, n: .metrics[$e].value}];
[ ( group_by(.workload)[] | . as $runs | .[0].workload as $w
  | ([$runs[] | select(.correct != true or .failed != 0)] | length) as $bad
  | {fail: ($bad > 0), text: "\($w): \($runs | length) runs, \($bad) incorrect or with failed checks"},
    ( $m[0].end_to_end[] | . as $e | ($runs | pairs($e.name)) as $p
      # worse > 1 means the new side is worse, whichever way the metric points
      | [$p[] | if $e.better == "lower" then .n / .o else .o / .n end] as $worse
      | ($worse | map(select(. < 1)) | length) as $wins
      | (if $e.name == "alloc_mb_per_pass" then ($worse | median) > 1 + $e.bound
         else ($worse | all(. > 1 + $e.bound)) end) as $fail
      | {fail: $fail, text: "  \($e.name): old \([$p[].o] | median | r4) new \([$p[].n] | median | r4) \($e.unit), new/old \([$p[] | .n / .o] | median | r4), new better in \($wins)/\($p | length) pairs\(if $e.name == "alloc_mb_per_pass" then "" else $layout end)\(if $fail then "  REGRESSION beyond \($e.bound)" else "" end)"} ) ),
  ( select($claim != "") | ($claim | split("@")) as [$metric, $w]
    | ($m[0].end_to_end[] | select(.name == $metric)) as $e
    | ([.[] | select(.workload == $w)] | pairs($metric)) as $p
    | (if $e.better == "lower" then 1 else -1 end) as $sign
    | ($p | map(select((.o - .n) * $sign > 0)) | length) as $wins
    | ((([$p[].o] | median) - ([$p[].n] | median)) * $sign) as $gain
    | ([$p[].o] | quantile(0.75) - quantile(0.25)) as $iqr
    | ($wins * 10 >= ($p | length) * 9 and $gain > $iqr) as $met
    | {fail: ($met | not), text: "claim \($claim): new better in \($wins)/\($p | length) pairs (need 9 in 10), medians old \([$p[].o] | median | r4) new \([$p[].n] | median | r4) \($e.unit) = \($gain | r4) better, old side inter-quartile distance \($iqr | r4): claim \(if $met then "met" else "NOT met" end)\(if $metric == "alloc_mb_per_pass" then "" else $layout end)"} )
] | (.[] | .text), (map(select(.fail)) | length | if . > 0 then "bench-pair: \(.) check(s) failed\n" | halt_error(1) else "bench-pair: ok" end)
' "$out/runs.jsonl"
