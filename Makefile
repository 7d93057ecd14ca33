GO ?= go
SERVE_ADDR ?= 127.0.0.1:7071

.PHONY: check tier1 build test race chaos cluster cluster-churn fuzz bench trace serve

check: ## gofmt + vet + build + tests + race detector (CI gate)
	sh scripts/check.sh

tier1: ## vet + build + full tests (the quick must-stay-green gate)
	sh scripts/tier1.sh

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race . ./internal/machine ./internal/core ./internal/xblas ./internal/server ./internal/obs ./client ./internal/cluster ./internal/symbolic ./internal/supernode

chaos: ## fault-injection suite: chaos conn/proxy tests + the end-to-end kill/restart workload, race detector on
	$(GO) test -race -count=1 ./internal/chaos
	$(GO) test -race -count=1 -run 'TestChaosEndToEnd' -timeout 600s ./internal/server
	$(GO) test -race -count=1 -run 'TestClusterChaosFailover' -timeout 600s ./internal/cluster

cluster: ## the sharded-cluster suite: ring placement, redirects, replication failover, chaos e2e — race detector on
	$(GO) test -race -count=1 -timeout 600s ./internal/cluster

cluster-churn: ## the self-healing suite: membership churn property test + kill/rejoin and partition e2e — race detector on
	$(GO) test -race -count=1 -run 'TestChurnConvergence|TestSelfHealKillRejoinE2E|TestClusterPartitionHeal' -timeout 600s ./internal/cluster

fuzz: ## short fuzz smokes over the wire codec and the server request/response decoders
	$(GO) test -run='^$$' -fuzz='^FuzzReadFrame$$' -fuzztime=10s ./internal/wire
	$(GO) test -run='^$$' -fuzz='^FuzzRequestDecode$$' -fuzztime=10s ./internal/server
	$(GO) test -run='^$$' -fuzz='^FuzzRedirectDecode$$' -fuzztime=10s ./internal/server
	$(GO) test -run='^$$' -fuzz='^FuzzMembershipDecode$$' -fuzztime=10s ./internal/server

bench: ## the repository's one benchmark: six workloads, end-to-end and per-layer metrics (benchmark/README.md)
	$(GO) run ./benchmark

trace: ## record a Chrome trace of a small parallel factorization and validate it
	$(GO) run ./cmd/sstar-bench -trace trace.json -matrix jpwh991 -scale 0.5 -procs 4
	$(GO) run ./scripts/checktrace trace.json

serve: ## run the sparse-solve service on $(SERVE_ADDR)
	$(GO) run ./cmd/sstar-serve -tcp $(SERVE_ADDR)
