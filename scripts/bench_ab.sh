#!/usr/bin/env bash
# Gates the working tree against a base commit on this machine: builds
# the root package's test binary at both, runs the benchmarks a -bench
# regexp selects in 10 alternating pairs, and hands both outputs to
# cmd/benchab, which fails on a consistent regression (see its doc).
#
# Usage, from anywhere in the repository:
#   scripts/bench_ab.sh BASE BENCH
#
# BASE is a commit (HEAD^1, a hash, a branch); BENCH is a -bench regexp.
# The base runs first in odd pairs, the working tree in even ones, each
# from its own tree. The raw outputs are left in bench_base.txt and
# bench_change.txt at the repository root, and benchab's report goes to
# standard output. The exit status is benchab's: 0 pass, 1 regression,
# 2 outputs that cannot be compared.
set -euo pipefail

if [ $# -ne 2 ]; then
	echo "usage: $0 BASE BENCH" >&2
	exit 2
fi
base=$(git rev-parse --verify "$1^{commit}")
bench=$2
root=$(git rev-parse --show-toplevel)
cd "$root"

tmp=$(mktemp -d)
cleanup() {
	git worktree remove --force "$tmp/base" 2>/dev/null || true
	rm -rf "$tmp"
}
trap cleanup EXIT
git worktree add --quiet --detach "$tmp/base" "$base"

(cd "$tmp/base" && go test -c -o "$tmp/base.test" .)
go test -c -o "$tmp/change.test" .
go build -o "$tmp/benchab" ./cmd/benchab

# run SIDE DIR appends one run of SIDE's binary, started in DIR, to
# bench_SIDE.txt.
run() {
	(cd "$2" && "$tmp/$1.test" -test.run '^$' -test.bench "$bench" \
		-test.benchmem -test.count 1 -test.timeout 60m) >>"$root/bench_$1.txt"
}
: >bench_base.txt
: >bench_change.txt
for pair in 1 2 3 4 5 6 7 8 9 10; do
	echo ">> pair $pair of 10" >&2
	if [ $((pair % 2)) -eq 1 ]; then
		run base "$tmp/base"
		run change "$root"
	else
		run change "$root"
		run base "$tmp/base"
	fi
done
"$tmp/benchab" bench_base.txt bench_change.txt
