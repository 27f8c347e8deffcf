#!/bin/sh
# bench-pair.sh <base-ref> [workload...] — the repository's one way to
# ask "did this change regress?": build bench/ at <base-ref> and at the
# working tree, run PAIRS (default 5) old/new pairs of every workload
# (default: all of BENCHMARK.json) at each of two code phases (below) on
# this host, alternating which side goes first, same seed on both sides
# of a pair, RUN_SECONDS each
# (default: BENCHMARK.json's run_seconds). Every run's JSON line is kept
# in $OUT/runs.jsonl (default .bench_build/pair/). Fails when a run is
# not `correct` or has `failed` checks, when alloc_mb_per_pass is worse
# in the median by more than its BENCHMARK.json bound, or when the new
# side loses every pair of a host-time metric by more than that
# metric's bound; otherwise prints medians, ratios and paired wins.
#
# CLAIM=<metric>@<workload> additionally judges a claimed gain by the
# rule of the choosing-metrics guide, section 8: at least ten pairs
# per phase (fewer is a usage error, before anything is built), the new side
# better in at least nine tenths of them (a tie counts for neither
# side), and the two medians further apart than the old side's own
# inter-quartile distance. It prints `claim met` or `claim NOT met` with
# the three numbers and fails when the claim is not met.
#
# Host time follows the 64-byte phase of the hot functions of the issue
# walk and of warp execution, which a change to the size of any code
# linked before them flips: a +-10 % launch-storm or suite-regular swing
# can be code placement alone. So the script controls the phase. It
# builds each side twice, as it is and with a one-function phase pad
# added to internal/isa (the first internal package linked) through a
# build overlay, and fails unless the pad flips every listed function
# of both sides (go tool nm, address mod 64). The old side's two builds
# define phases a and b; the new side's build at each is the one whose
# functions sit where the old one's do, or, when neither does (the
# functions moved against each other), the one with the same pad, and
# every host-time median is then labelled "layout moved". Each pair
# runs the four binaries, old and new at phase a, then at phase b,
# alternating which side goes first. The "new side loses every pair"
# rule and a host-time CLAIM are judged at each phase on its own, with
# PAIRS pairs per phase; alloc_mb_per_pass, which placement does not
# move, is judged over the pairs of both phases. A 10-pair claim on one
# workload is 40 runs of RUN_SECONDS each.
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
printf 'package isa\n\nvar phasePad int\n\nfunc init() { phasePad++ }\n' > "$out/phasepad.go"
build() { # tree binary: bench/ of tree, as it is and with the phase pad
	printf '{"Replace": {"%s/internal/isa/zz_phasepad.go": "%s/phasepad.go"}}\n' "$1" "$out" > "$out/$2.overlay.json"
	go build -C "$1/bench" -o "$out/$2.0" .
	go build -C "$1/bench" -overlay "$out/$2.overlay.json" -o "$out/$2.pad" .
}
build "$out/base" old
build "$root" new

phases() { # binary: "function=address mod 64" for each hot function of the issue walk and of warp execution
	go tool nm "$1" |
		sed -nE 's/^ *([0-9a-f]+) T repro\/internal\/(sm\.\(\*SM\)\.(step|fill|pick|selectPrimary|fastForward|refreshWarp)|exec\.(EvalWarp|evalRun))$/\2 \1/p' |
		sort | while read -r f a; do printf ' %s=%d' "$f" $((0x$a % 64)); done
}
flips() { # side phases phases-with-pad: fails unless the pad moved every listed function
	echo "code layout, address mod 64, $1:$2"
	echo "code layout, address mod 64, $1 with the phase pad:$3"
	[ "$(echo "$2" | tr ' ' '\n' | grep -c =)" -eq 8 ] ||
		{ echo "bench-pair: $1: want the 8 listed functions in the binary, found:$2" >&2; exit 1; }
	for f in $2; do
		case " $3 " in *" $f "*)
			echo "bench-pair: $1: the phase pad left ${f%=*} at ${f#*=} mod 64" >&2; exit 1 ;;
		esac
	done
}
old0=$(phases "$out/old.0")
new0=$(phases "$out/new.0")
newpad=$(phases "$out/new.pad")
flips old "$old0" "$(phases "$out/old.pad")"
flips new "$new0" "$newpad"
layout=""
if [ "$new0" = "$old0" ]; then new_a=new.0 new_b=new.pad
elif [ "$newpad" = "$old0" ]; then new_a=new.pad new_b=new.0
else new_a=new.0 new_b=new.pad layout="  layout moved"
fi
echo "phase a: old.0 against $new_a; phase b: old.pad against $new_b${layout}"

run() { # side binary workload pair phase: one run, its JSON line tagged and kept
	"$out/$2" -workload "$3" -seed "$4" -seconds "$secs" | tail -n 1 |
		jq -c --arg side "$1" --arg w "$3" --argjson pair "$4" --arg phase "$5" \
			'{side: $side, workload: $w, pair: $pair, phase: $phase} + .' >> "$out/runs.jsonl"
}
for w in "$@"; do
	i=1
	while [ "$i" -le "$pairs" ]; do
		for phase in a b; do
			if [ "$phase" = a ]; then old=old.0 new=$new_a; else old=old.pad new=$new_b; fi
			echo "== $w pair $i/$pairs, phase $phase: $(if [ $((i % 2)) -eq 1 ]; then echo old, then new; else echo new, then old; fi)" >&2
			if [ $((i % 2)) -eq 1 ]; then
				run old "$old" "$w" "$i" "$phase"
				run new "$new" "$w" "$i" "$phase"
			else
				run new "$new" "$w" "$i" "$phase"
				run old "$old" "$w" "$i" "$phase"
			fi
		done
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
  | select(.side == "new" and .pair == $o.pair and .phase == $o.phase) | {o: $o.metrics[$e].value, n: .metrics[$e].value}];
# scopes(e): the runs each verdict on metric e is judged over, and their label:
# the runs of both phases for alloc_mb_per_pass, each phase on its own for host time
def scopes($e): . as $runs | if $e == "alloc_mb_per_pass" then {label: "", runs: $runs}
  else ("a", "b") as $ph | {label: " at phase \($ph)\($layout)", runs: [$runs[] | select(.phase == $ph)]} end;
[ ( group_by(.workload)[] | . as $runs | .[0].workload as $w
  | ([$runs[] | select(.correct != true or .failed != 0)] | length) as $bad
  | {fail: ($bad > 0), text: "\($w): \($runs | length) runs, \($bad) incorrect or with failed checks"},
    ( $m[0].end_to_end[] | . as $e | ($runs | scopes($e.name)) as $s | ($s.runs | pairs($e.name)) as $p
      # worse > 1 means the new side is worse, whichever way the metric points
      | [$p[] | if $e.better == "lower" then .n / .o else .o / .n end] as $worse
      | ($worse | map(select(. < 1)) | length) as $wins
      | (if $e.name == "alloc_mb_per_pass" then ($worse | median) > 1 + $e.bound
         else ($worse | all(. > 1 + $e.bound)) end) as $fail
      | {fail: $fail, text: "  \($e.name): old \([$p[].o] | median | r4) new \([$p[].n] | median | r4) \($e.unit), new/old \([$p[] | .n / .o] | median | r4), new better in \($wins)/\($p | length) pairs\($s.label)\(if $fail then "  REGRESSION beyond \($e.bound)" else "" end)"} ) ),
  ( select($claim != "") | ($claim | split("@")) as [$metric, $w]
    | ($m[0].end_to_end[] | select(.name == $metric)) as $e
    | ([.[] | select(.workload == $w)] | scopes($metric)) as $s | ($s.runs | pairs($metric)) as $p
    | (if $e.better == "lower" then 1 else -1 end) as $sign
    | ($p | map(select((.o - .n) * $sign > 0)) | length) as $wins
    | ((([$p[].o] | median) - ([$p[].n] | median)) * $sign) as $gain
    | ([$p[].o] | quantile(0.75) - quantile(0.25)) as $iqr
    | ($wins * 10 >= ($p | length) * 9 and $gain > $iqr) as $met
    | {fail: ($met | not), text: "claim \($claim): new better in \($wins)/\($p | length) pairs (need 9 in 10), medians old \([$p[].o] | median | r4) new \([$p[].n] | median | r4) \($e.unit) = \($gain | r4) better, old side inter-quartile distance \($iqr | r4): claim \(if $met then "met" else "NOT met" end)\($s.label)"} )
] | (.[] | .text), (map(select(.fail)) | length | if . > 0 then "bench-pair: \(.) check(s) failed\n" | halt_error(1) else "bench-pair: ok" end)
' "$out/runs.jsonl"
