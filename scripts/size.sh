#!/usr/bin/env bash
# size.sh — code-size report: non-test Go lines per internal/ package and
# the module's exported-symbol count (scripts/exported.go), as a Markdown
# table. Informational; it exits non-zero only when a count cannot be
# taken.
#
#   bash scripts/size.sh
set -euo pipefail

cd "$(dirname "$0")/.."

echo "### Code size"
echo ""
echo "| Package | Non-test Go lines |"
echo "|---|---|"
total=0
for dir in $(find internal -name '*.go' ! -name '*_test.go' ! -path '*/testdata/*' -exec dirname {} \; | sort -u); do
    n=$(find "$dir" -maxdepth 1 -name '*.go' ! -name '*_test.go' -exec cat {} + | wc -l)
    total=$((total + n))
    echo "| $dir | $n |"
done
echo "| **internal total** | **$total** |"
echo ""
echo "Exported symbols (module, non-test): $(go run scripts/exported.go .)"
