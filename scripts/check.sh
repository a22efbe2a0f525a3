#!/bin/sh
# check.sh is the repository's full verification gate; CI and `make check`
# call it. Every named test already runs in one of the two full passes, so
# there are no per-feature gates here: tier-1 (`go test ./...`) runs the
# paper-shape, overload, and allocation-budget tests that skip or loosen
# themselves under the race detector, and the race pass runs everything
# else's interleavings.
set -eu
cd "$(dirname "$0")/.."

echo "== gofmt"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt: needs formatting:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go vet ./..."
go vet ./...

echo "== go build ./..."
go build ./...

echo "== go test ./... (tier-1)"
go test ./...

echo "== go test -race ./..."
go test -race ./...

# Benchmarks are not run by either pass; one iteration each proves they
# still compile and complete. The packages are listed, not named here, so a
# package that gains a benchmark joins without an edit.
echo "== bench smoke"
go test -list '^Benchmark' ./... |
    awk '/^Benchmark/ { n++ } /^ok / { if (n) print $2; n = 0 }' |
    xargs go test -run '^$' -bench . -benchtime 1x

# Every native fuzz target gets a few seconds of fuzzing past its seed
# corpus (the test passes above run the seeds alone). The targets are listed,
# not named here, so a new one joins without an edit.
echo "== fuzz smoke"
go test -list '^Fuzz' ./... |
    awk '/^Fuzz/ { t[n++] = $1 } /^ok / { for (i = 0; i < n; i++) print $2, t[i]; n = 0 }' |
    while read -r pkg target; do
        echo "-- $pkg $target"
        go test -run '^$' -fuzz "^${target}\$" -fuzztime 5s "$pkg"
    done

# bench/ is a module of its own, so ./... above never compiles it: vet it
# too, since it compiles against internal APIs a change may narrow.
echo "== go vet -C bench ./..."
go vet -C bench ./...

echo "== go test -C bench ./..."
go test -C bench ./...

echo "check: OK"
