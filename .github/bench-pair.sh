#!/usr/bin/env bash
# Paired performance check of the checked-out change against a base commit.
#
#   bash .github/bench-pair.sh <base-commit>
#
# The base is checked out into a temporary git worktree, and the change's
# bench/ is copied over the worktree's copy, so both sides build the same
# benchmark code (bench/README.md, "Comparing two commits"). For each
# workload it runs `bash bench/run.sh -workload W -seed 1` on both sides,
# pairs times, alternating which side runs first. It fails if any run exits
# non-zero, is incorrect or has failed ops, or if the change's median of an
# end-to-end metric in BENCHMARK.json is worse than the base's median by
# more than that metric's bound. Per-run output (-out JSON and the log) is
# kept in bench-pair/.
#
# dense-small times the vector production path at two workers; demoted-small
# the scalar event fallback and the carry lanes. fig8-xqvr1000 is left out
# to keep a check to a few minutes.
set -euo pipefail

pairs=5
workloads=(dense-small demoted-small)

if [ $# -ne 1 ]; then
	echo "usage: bash .github/bench-pair.sh <base-commit>" >&2
	exit 2
fi
cd "$(git rev-parse --show-toplevel)"
root=$PWD
base_rev=$(git rev-parse --verify "$1^{commit}")
out=$root/bench-pair
rm -rf "$out"
mkdir -p "$out"

tmp=$(mktemp -d)
base=$tmp/base
cleanup() {
	git worktree remove --force "$base" 2>/dev/null || true
	rm -rf "$tmp"
}
trap cleanup EXIT
git worktree add --quiet --detach "$base" "$base_rev"
rm -rf "$base/bench"
cp -R bench "$base/bench"

echo "base $base_rev, change $(git rev-parse HEAD); $pairs pairs per workload, seed 1"

# run SIDE WORKLOAD PAIR: one benchmark run; its final output line is
# appended to $out/WORKLOAD-SIDE.ndjson.
run() {
	local side=$1 w=$2 i=$3 dir=$root
	[ "$side" = base ] && dir=$base
	local name="$out/$w-$side-$i"
	if ! (cd "$dir" && bash bench/run.sh -workload "$w" -seed 1 -out "$name.json") >"$name.log" 2>&1; then
		echo "FAIL: $w, $side run $i exited non-zero:" >&2
		tail -n 20 "$name.log" >&2
		exit 1
	fi
	local last
	last=$(tail -n 1 "$name.log")
	if ! jq -e '.correct == true and .failed == 0' >/dev/null 2>&1 <<<"$last"; then
		echo "FAIL: $w, $side run $i is incorrect or has failed ops: $last" >&2
		exit 1
	fi
	echo "$last" >>"$out/$w-$side.ndjson"
}

# compare WORKLOAD: prints each side's median and quartiles per end-to-end
# metric, with a REGRESSION line (exit status 1) for every metric whose
# change median is worse than the base median by more than its bound.
compare() {
	local report
	report=$(jq -n -r --arg w "$1" --slurpfile bm BENCHMARK.json \
		--slurpfile base "$out/$1-base.ndjson" --slurpfile change "$out/$1-change.ndjson" '
		def q(p): sort as $s | ((($s | length) - 1) * p) as $i | ($i | floor) as $lo | ($i | ceil) as $hi
			| $s[$lo] + ($s[$hi] - $s[$lo]) * ($i - $lo);
		def r: . * 1000 | round / 1000;
		def stats: "\(q(0.5) | r) [\(q(0.25) | r), \(q(0.75) | r)]";
		$bm[0].end_to_end[] as $m
		| [$base[].metrics[$m.name].value] as $b
		| [$change[].metrics[$m.name].value] as $c
		| if ($b + $c | any(. == null)) then "REGRESSION \($w) \($m.name): missing from a run"
		  else ($b | q(0.5)) as $bmed | ($c | q(0.5)) as $cmed
		  | (if $m.better == "lower" then $cmed > $bmed * (1 + $m.bound) else $cmed < $bmed * (1 - $m.bound) end) as $bad
		  | "\(if $bad then "REGRESSION" else "ok" end) \($w) \($m.name) [\($m.unit), \($m.better) is better, bound \($m.bound * 100)%]: base \($b | stats), change \($c | stats)"
		  end')
	echo "$report"
	! grep -q '^REGRESSION' <<<"$report"
}

start=$SECONDS
status=0
for w in "${workloads[@]}"; do
	for i in $(seq 1 "$pairs"); do
		order="base change"
		[ $((i % 2)) = 0 ] && order="change base"
		for side in $order; do
			run "$side" "$w" "$i"
		done
	done
	compare "$w" || status=1
done
echo "wall time $((SECONDS - start)) s"
if [ "$status" != 0 ]; then
	echo "FAIL: the change regresses an end-to-end metric beyond its bound (REGRESSION lines above)" >&2
fi
exit "$status"
