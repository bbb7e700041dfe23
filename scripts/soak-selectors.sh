#!/bin/sh
# Usage: soak-selectors.sh TARGET REGEX PKG...
#
# Checks one soak's go test -run selector: each top-level alternative of
# REGEX is passed to `go test -list` over the PKGs, and the number of tests
# it selects in each package is printed. Fails when an alternative selects
# no test in any of the packages, or a package gets no test from the whole
# regex, so a renamed or deleted test cannot leave a soak running nothing.
set -eu
target=$1
regex=$2
shift 2
go=${GO:-go}
mod=$("$go" list -m)

# count REGEX PKG...: prints "pkg count" per package. -run runs tests,
# examples and fuzz seed corpora, not benchmarks.
count() {
	re=$1
	shift
	"$go" test -list "$re" "$@" | awk '
		/^(Test|Example|Fuzz)/ { n++; next }
		/^(ok|\?|FAIL)[ \t]/ { print $2, n + 0; n = 0 }'
}

status=0
# Split REGEX at the |s outside any parentheses.
alts=$(printf '%s\n' "$regex" | awk '{
	depth = 0; cur = ""
	for (i = 1; i <= length($0); i++) {
		c = substr($0, i, 1)
		if (c == "(") depth++
		if (c == ")") depth--
		if (c == "|" && depth == 0) { print cur; cur = ""; continue }
		cur = cur c
	}
	print cur
}')
for alt in $alts; do
	total=0
	where=
	for line in $(count "$alt" "$@" | tr ' ' ':'); do
		n=${line##*:}
		total=$((total + n))
		pkg=${line%:*}
		case $pkg in
		"$mod") pkg=. ;;
		*) pkg=${pkg#"$mod"/} ;;
		esac
		if [ "$n" -gt 0 ]; then
			where="$where $pkg=$n"
		fi
	done
	printf '%-12s %-24s %4d  %s\n' "$target" "$alt" "$total" "${where# }"
	if [ "$total" -eq 0 ]; then
		echo "$target: -run alternative '$alt' selects no test" >&2
		status=1
	fi
done
for line in $(count "$regex" "$@" | tr ' ' ':'); do
	if [ "${line##*:}" -eq 0 ]; then
		echo "$target: -run '$regex' selects no test in ${line%:*}" >&2
		status=1
	fi
done
exit $status
