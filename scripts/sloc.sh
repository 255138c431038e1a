#!/bin/sh
# sloc.sh prints the root module's source lines per package and in total:
# non-test Go files, generated files ("Code generated ... DO NOT EDIT.")
# excluded, counting lines that are neither blank nor a // comment.
# perfbench/ is its own module, so `go list ./...` leaves it out.
#
# Usage: sh scripts/sloc.sh   (or: make sloc)
set -eu
GO=${GO:-go}
$GO list -f '{{range .GoFiles}}{{$.Dir}}/{{.}}
{{end}}' ./... | grep -v '^$' | awk -v root="$(pwd)/" '
	{
		f = $0
		dir = f; sub("/[^/]*$", "", dir)
		dir = (dir "/" == root) ? "." : substr(dir, length(root) + 1)
		n = 0
		while ((getline line < f) > 0) {
			if (line ~ /^\/\/ Code generated .* DO NOT EDIT\.$/) { n = -1; break }
			gsub(/^[ \t]+|[ \t]+$/, "", line)
			if (line != "" && line !~ /^\/\//) n++
		}
		close(f)
		if (n > 0) { lines[dir] += n; total += n }
	}
	END {
		for (d in lines) printf "%7d  %s\n", lines[d], d | "sort -k2"
		close("sort -k2")
		printf "%7d  total\n", total
	}'
