# Convenience targets; scripts/check.sh is the canonical gate.

.PHONY: build test check bench bench-ratchet bench-cache bench-overload bench-match bench-cluster bench-chaos

build:
	go build ./...

test:
	go test ./...

# check runs gofmt, vet, build, the tier-1 and race-enabled test suites, the
# benchmark smokes, and the bench module's tests.
check:
	./scripts/check.sh

bench:
	go run ./cmd/appx-bench

# bench-ratchet runs the BENCHMARK.json benchmark (every workload, untraced
# and traced) and compares it with the newest committed BENCH_<n>.json: any
# end-to-end metric worse than that file by more than its declared bound fails
# the target. Each PR commits its own `bash bench/run.sh --seed 1 --out
# BENCH_<n>.json` beside the previous ones. Not part of scripts/check.sh: it
# is a three-minute step whose numbers a busy shared box moves by more than
# most changes do — run it on a quiet machine before filing a PR.
bench-ratchet:
	bash bench/run.sh --seed 1 --out .bench_build/ratchet.json
	bash bench/run.sh --compare $$(ls BENCH_[0-9]*.json | sort -t_ -k2 -n | tail -1) .bench_build/ratchet.json

# bench-cache runs the prefetch-store microbenchmarks (sharding, eviction).
bench-cache:
	go test ./internal/cache/ -run '^$$' -bench . -benchmem

# bench-overload runs the scheduler dispatch microbenchmarks and the
# offered-load sweep (foreground latency vs prefetch shedding).
bench-overload:
	go test ./internal/proxy/sched/ -run '^$$' -bench . -benchmem
	go run ./cmd/appx-bench -experiment overload

# bench-match runs the signature-matching microbenchmarks (indexed vs naive
# scan, canonical-key memoization).
bench-match:
	go test ./internal/sig/ -run '^$$' -bench . -benchmem

# bench-cluster runs the scale-out sweep: origin offload of a clustered fleet
# vs independent instances, plus the kill/rejoin churn phase.
bench-cluster:
	go run ./cmd/appx-bench -experiment clustersweep

# bench-chaos replays the seeded fault schedules (partition, slow peer,
# flapping link, disk faults, kill/restart) against a 3-instance cluster and
# prints the oracle verdict plus the hedged-vs-unhedged fill comparison.
# Override the fault pattern with: make bench-chaos CHAOS_SEED=7
CHAOS_SEED ?= 42
bench-chaos:
	go run ./cmd/appx-bench -experiment chaossweep -chaos-seed $(CHAOS_SEED)
