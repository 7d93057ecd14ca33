#!/bin/sh
# Tier-1 gate: the minimal must-stay-green checks run on every change —
# static analysis, a clean build, and the full test suite. The heavier CI
# gate (race detector, chaos suite, fuzz smokes, formatting) lives in
# check.sh; tier-1 is the subset quick enough to run before every commit.
set -eux

go vet ./...
go build ./...
go test ./...

# The cluster package is all cross-shard concurrency (replication queues,
# failover, and the self-healing machinery: heartbeat loops,
# membership merges, repair sweeps racing live traffic); its suite is fast
# enough to run under the race detector on every commit. The symbolic and
# supernode packages start no goroutine of their own; they build the
# skeleton and plan that one analysis shares, read-only, with every
# concurrent factorization of it, so the race detector must see their
# suites run too.
go test -race ./internal/cluster ./internal/symbolic ./internal/supernode

# The block skeleton and the static update plan are built lazily, once per
# analysis, by whichever factorization reaches them first: many goroutines
# starting FactorizeWith on one never-used Analysis must race cleanly.
go test -race -count=10 -run 'TestConcurrentFactorizeWithSharedAnalysis' .
