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
# supernode packages carry the
# parallel analyze stages (subtree workers, candidate sweep, block builds)
# whose byte-identity contract the race detector must see exercised.
go test -race ./internal/cluster ./internal/symbolic ./internal/supernode

# The block skeleton and the static update plan are built lazily, once per
# analysis, by whichever factorization reaches them first: many goroutines
# starting FactorizeWith on one never-used Analysis must race cleanly.
go test -race -count=10 -run 'TestConcurrentFactorizeWithSharedAnalysis' .
