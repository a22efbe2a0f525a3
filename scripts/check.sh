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
# not named here, so a new one joins without an edit. Minimizing an
# interesting input is capped at ten runs, or it can take the whole budget
# at 0 execs/s.
echo "== fuzz smoke"
go test -list '^Fuzz' ./... |
    awk '/^Fuzz/ { t[n++] = $1 } /^ok / { for (i = 0; i < n; i++) print $2, t[i]; n = 0 }' |
    while read -r pkg target; do
        echo "-- $pkg $target"
        go test -run '^$' -fuzz "^${target}\$" -fuzztime 5s -fuzzminimizetime 10x "$pkg"
    done

# bench/ is a module of its own, so ./... above never compiles it: vet it
# too, since it compiles against internal APIs a change may narrow.
echo "== go vet -C bench ./..."
go vet -C bench ./...

echo "== go test -C bench ./..."
go test -C bench ./...

# One HTTP client: outside the load harnesses, every request goes out on
# httpmsg.Client, so net/http's Transport and Client appear nowhere else.
echo "== http.Transport and http.Client only in the load harnesses"
stray=$(grep -rlE 'http\.(Transport|Client)\b' --include='*.go' . |
    grep -v '_test\.go$' |
    grep -vE '^\./(bench|cmd/appx-bench|internal/(device|chaos|exp))/' || true)
if [ -n "$stray" ]; then
    echo "http.Transport or http.Client outside the load harnesses:" >&2
    echo "$stray" >&2
    exit 1
fi

# One origin call: every origin fetch in the proxy goes through roundTrip in
# upstream.go, so none can skip the breaker or the retry count.
echo "== opts.Upstream only in internal/proxy/upstream.go"
stray=$(grep -lE 'opts\.Upstream\b' internal/proxy/*.go |
    grep -v '_test\.go$' |
    grep -vx 'internal/proxy/upstream.go' || true)
if [ -n "$stray" ]; then
    echo "opts.Upstream used outside internal/proxy/upstream.go:" >&2
    echo "$stray" >&2
    exit 1
fi

# One record per signature: the fan-out rule is learnFrom's, so no program
# code imports the inert policy package; the benchmark module still times it.
echo "== appx/internal/policy imported only by bench/"
stray=$(grep -rl '"appx/internal/policy"' --include='*.go' . |
    grep -v '_test\.go$' |
    grep -vE '^\./(bench|internal/policy)/' || true)
if [ -n "$stray" ]; then
    echo "appx/internal/policy imported outside internal/policy and bench/:" >&2
    echo "$stray" >&2
    exit 1
fi

# One pattern matcher: a signature pattern is literals and unknowns, and
# sig.Pattern.Capture matches it by literal segments, so no program code
# imports regexp; tests keep it as Capture's reference oracle.
echo "== regexp imported by no non-test Go file"
stray=$(grep -rl '"regexp"' --include='*.go' . | grep -v '_test\.go$' || true)
if [ -n "$stray" ]; then
    echo "regexp imported by non-test code:" >&2
    echo "$stray" >&2
    exit 1
fi

# No exported name without a program caller: every exported identifier of
# internal/ that no non-test code outside bench/ references is listed, with
# its reason, in testdata/deadsurface.allow, and a line whose name is gone
# or has a caller again fails too (deadsurface_test.go). The build tag keeps
# the scan out of the test passes above.
echo "== dead surface"
go test -tags deadsurface -run '^TestDeadSurface$' -count=1 .

# Informational, not a gate: the non-test Go line count outside bench/ that
# simplicity changes report, and the byte sizes of the long documents.
echo "== non-test Go lines outside bench/"
find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' | xargs cat | wc -l
echo "== document bytes"
wc -c EXPERIMENTS.md CHANGES.md DESIGN.md README.md

echo "check: OK"
