#!/usr/bin/env bash
# Fails when an alternative of a `go test -run` pattern in the CI
# workflows matches no test, fuzz target or example in the packages its
# command runs. Such an alternative passes silently and tests nothing,
# so a renamed or deleted test would drop out of its CI job unnoticed.
# A pattern of exactly '^$' (run no tests, as a benchmark step asks) is
# exempt.
#
# Usage, from the repository root:
#   scripts/check_run_patterns.sh                      # .github/workflows/*.yml
#   scripts/check_run_patterns.sh path/to/workflow.yml ...
#
# A command may span lines joined by a trailing backslash. Its words are
# split with shell quoting rules, up to the first pipe or list operator;
# the packages are its words that start with "./" or are ".". Patterns
# are matched with grep -E against the top-level test names `go test
# -list .` prints, which covers the RE2 subset CI patterns use; only the
# part before the first '/' (the top-level test name) is checked.
set -euo pipefail

files=("$@")
if [ ${#files[@]} -eq 0 ]; then
	files=(.github/workflows/*.yml)
fi

# alternatives prints the top-level alternatives of a regexp, one a line.
alternatives() {
	local p=$1 depth=0 cur= c i
	for ((i = 0; i < ${#p}; i++)); do
		c=${p:i:1}
		case $c in
		'\')
			cur+=${p:i:2}
			i=$((i + 1))
			continue
			;;
		'(' | '[') depth=$((depth + 1)) ;;
		')' | ']') depth=$((depth - 1)) ;;
		'|')
			if [ $depth -eq 0 ]; then
				printf '%s\n' "$cur"
				cur=
				continue
			fi
			;;
		esac
		cur+=$c
	done
	printf '%s\n' "$cur"
}

declare -A listed # package list -> test names
checked=0 fail=0
while IFS=$'\t' read -r file cmd; do
	mapfile -t words < <(printf '%s\n' "$cmd" | xargs printf '%s\n')
	pattern= pkgs=() prev=
	for w in "${words[@]}"; do
		case $w in '|' | '||' | '&&' | ';') break ;; esac
		if [ "$prev" = -run ]; then
			pattern=$w
		else
			case $w in
			-run=*) pattern=${w#-run=} ;;
			./* | .) pkgs+=("$w") ;;
			esac
		fi
		prev=$w
	done
	if [ "$pattern" = '^$' ]; then
		continue
	fi
	if [ ${#pkgs[@]} -eq 0 ]; then
		echo "$file: no package in: $cmd" >&2
		fail=1
		continue
	fi
	key="${pkgs[*]}"
	if [ -z "${listed[$key]+set}" ]; then
		listed[$key]=$(go test -list . "${pkgs[@]}" | grep -E '^(Test|Fuzz|Example)' || true)
	fi
	while IFS= read -r alt; do
		checked=$((checked + 1))
		if ! grep -Eq -- "${alt%%/*}" <<<"${listed[$key]}"; then
			echo "$file: -run alternative '$alt' matches no test in ${pkgs[*]}" >&2
			fail=1
		fi
	done < <(alternatives "$pattern")
done < <(awk '
	# Skip comments, join continued lines, then keep each go test
	# command with -run.
	/^[ \t]*#/ { next }
	/\\$/ { line = line substr($0, 1, length($0) - 1); next }
	{ line = line $0 }
	line ~ /go test/ && line ~ /-run[ =]/ { sub(/^[ \t]*(-[ \t]+)?(run:[ \t]*)?/, "", line); print FILENAME "\t" line }
	{ line = "" }
' "${files[@]}")

if [ $fail -ne 0 ]; then
	exit 1
fi
echo "all $checked -run alternatives match a test"
