#!/bin/sh
# Repo-wide checks: formatting, vet, build, full tests, then the race
# detector over the packages with real concurrency (the virtual machine, the
# shared-memory kernels with the host executor, the solver service with
# its client, and the facade that drives the parallel factorization). Run
# from the repo root; exits nonzero on the first failure.
set -eux

unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

go vet ./...
go build ./...

# The xblas kernels (GEMM tiles, MulSub, ElimStep) have vector assembly on
# amd64 and a pure-Go twin of the same bits everywhere else. Vetting and
# building for arm64 (offline, nothing is run) keeps the twins, their
# dispatch and the assembly declarations from rotting apart.
GOARCH=arm64 go vet ./internal/xblas ./internal/core
GOARCH=arm64 go build ./...

# Fusion guard: Go may compile x*y+z to one fused multiply-add where the ISA
# has it (arm64 does; amd64 at the default GOAMD64=v1 does not), and that
# moves bits. The numeric code rounds every product it adds explicitly,
# float64(x*y), so every platform computes amd64's bits; in the arm64
# assembly of these packages a fused op may only come from a line that asks
# for one through math.FMA. The compiler's output is replayed from the build
# cache, so this reads the whole listing every time.
GOARCH=arm64 go build -gcflags=-S . ./internal/xblas ./internal/core ./internal/supernode ./internal/sparse ./internal/machine ./internal/cluster 2>&1 |
    grep -E '\bFN?M(ADD|SUB)[DS]\b' | grep -oE '[^ (]+\.go:[0-9]+' | sort -u |
    while IFS=: read -r file line; do
        if ! sed -n "${line}p" "$file" | grep -q 'math\.FMA('; then
            echo "fused multiply-add without math.FMA at $file:$line" >&2
            exit 1
        fi
    done

go test ./...
# (./internal/xblas below carries the MulSub / ElimStep / TRSM bitwise
# property tests; ./internal/core the blocked-panel ones.)
go test -race . ./internal/machine ./internal/core ./internal/xblas ./internal/server ./internal/obs ./client ./internal/chaos ./internal/cluster ./internal/symbolic ./internal/supernode
# The replicator and the values push, ten runs each: coalescing marks shared
# by the request workers and the replicator, exports beside refactorizes,
# values installs beside solves on the copy they replace, the fallback to the
# full push.
go test -race -count=10 -run 'TestPushesCoalesce|TestFreedBeforePushIsNotExported|TestFullPushAbsorbsValuesPush|TestDroppedPushClearsMark|TestValuesPushesKeepCopyBitIdentical|TestValuesPushFallsBackToFull|TestOneExportInFlight' ./internal/cluster
go test -race -count=10 -run 'TestStoredNamesTheWrite|TestValuesPushInstalls' ./internal/server
go test -race -count=10 -run 'TestSaveValuesMatchesSave|TestLoadValuesRefuses' .
# The dynamic-fill count runs on its own goroutine beside every virtual
# factorization: the modelled bits and the joins on the error paths, with and
# without a second core for it (-short: the golden's two smallest matrices).
go test -race -short -cpu 1,2 -count=5 -run 'TestVirtualGolden|TestVirtualErrorsLeaveNothingRunning' .

# Chaos suite: the full client -> fault proxy -> server stack with a
# mid-workload server kill/restart; every completed solve must be
# bit-identical and nothing may leak. Bounded: ~10-20s under -race.
go test -race -count=1 -run 'TestChaosEndToEnd' -timeout 600s ./internal/server

# Cluster chaos suite: three shards behind fault-injecting proxies with one
# killed mid-workload; zero failed solves, bit-identical answers, and no
# refactorization on failover.
go test -race -count=1 -run 'TestClusterChaosFailover' -timeout 600s ./internal/cluster

# Self-healing suite (make cluster-churn): the membership churn property
# test (any join/leave/kill sequence converges to an empty manifest diff
# with every key at min(R, live) copies) plus the kill/rejoin and partition
# e2e tests — owner dies mid-workload behind fault proxies, the ring makes
# the replica holder the owner, the rejoined member is repopulated by repair
# without ever refactorizing.
make cluster-churn

# Fuzz smoke: the frame codec, the values stream and the request decoder face
# the raw network and must never panic; a few seconds of fuzzing guards the invariant
# without stalling CI (longer runs: make fuzz).
go test -run='^$' -fuzz='^FuzzReadFrame$' -fuzztime=5s ./internal/wire
go test -run='^$' -fuzz='^FuzzLoadValues$' -fuzztime=5s .
go test -run='^$' -fuzz='^FuzzRequestDecode$' -fuzztime=5s ./internal/server
go test -run='^$' -fuzz='^FuzzRedirectDecode$' -fuzztime=5s ./internal/server
go test -run='^$' -fuzz='^FuzzMembershipDecode$' -fuzztime=5s ./internal/server

# Observability overhead guard: the disabled instrumentation path (no
# Observer, stats off) must stay allocation-free in the kernels and the
# obs primitives.
go test -run 'ZeroAlloc' -count=1 ./internal/obs ./internal/xblas

# Numeric-only Refactorize guards: the steady state allocates O(1) objects
# whatever the matrix size (it used to allocate several per block), on the
# sequential driver and the host executor, and the refactorize benchmark
# runs end to end on both supernode regimes, one and two workers (w1, w2; 3
# iterations: a smoke, not a measurement).
go test -run 'TestRefactorizeSteadyStateAllocs|TestHostRefactorizeSteadyStateAllocs' -count=1 . ./internal/core
go test -run '^$' -bench 'Refactorize/.*/w[12]' -benchtime 3x ./internal/core
# Cold-analysis smoke: a cold Analyze, a near-miss Patch and the two ordering
# stages (AᵀA, minimum degree) of each cold-start base run end to end
# (3 iterations: a smoke, not a measurement).
go test -run '^$' -bench 'Analyze|Patch|Ordering' -benchtime 3x .
# Solve guards: Solve makes its two vectors and nothing else, SolveMany its
# result and one scratch slab, and their benchmarks run end to end on both
# supernode regimes (a smoke).
go test -run 'TestSolveAllocs|TestSolveManyAllocs|TestSolveGoldenBits' -count=1 ./internal/core
go test -run '^$' -bench 'Solve' -benchtime 3x ./internal/core

# The executor the facade now picks by default, under the race detector at
# GOMAXPROCS >= 2 (the tests raise it, and fail if the grain gate leaves them
# sequential): the reused per-run state, the task graph one analysis shares
# between concurrent factorizations, the observer's concurrent callbacks.
go test -race -count=1 -run 'Host|Parallel|Refactorize|Concurrent|Observer|TraceChrome' . ./internal/core
# The host executor's waits and its error path at 1, 2 and 4 processors, five
# runs each: a singular column fails while a worker is parked on the panel it
# will never publish (every worker must join, the previous factors stay live),
# the schedule replay, and the bit-identity of the executor's factors on the
# core and facade paths.
go test -race -cpu 1,2,4 -count=5 -run 'TestHostSingularLeavesNothingRunning|TestReplayScheduleOrders|TestFactorizeHostBitIdentical|TestHostRefactorizeSequence' ./internal/core
go test -race -cpu 1,2,4 -count=5 -run 'TestFactorizeHostParallelBitIdentical|TestHostWorkersGateBitIdentical' .
# Kernel bench smoke: every GEMM, MulSub and B-pack shape runs end to end
# (GEMM and the pack at every kernel level the host runs; 3 iterations: a
# smoke, not a measurement).
go test -run '^$' -bench 'Gemm|MulSub|Pack' -benchtime 3x ./internal/xblas

# Knob guard: the kernel level is the best the CPU runs, detected at startup,
# and nothing else. No environment variable or build tag beyond the arch
# split may select a kernel (tests lower the level through a package var).
if git grep -nE 'os\.(Getenv|LookupEnv)' -- 'internal/xblas/*.go' ':!*_test.go'; then exit 1; fi
if git grep -n 'go:build' -- 'internal/xblas/*.go' 'internal/xblas/*.s' ':!*_test.go' | grep -vE ':[0-9]+://go:build !?amd64$'; then exit 1; fi

# Deletion guard: the retired bench reports, the entrypoints folded into
# Options.Procs / core.SolvePar, the server's separate solve paths and
# width knob (every dequeued job runs through run), the parallel analyze
# paths (the analyze phase is sequential), the column minimum-degree
# ordering (minimum degree on AᵀA is the one ordering) and the knobs no
# workload set (tile autotuning, the coalescing window, tenant weights, the
# detector thresholds), server solve coalescing and the router's SolveMany
# scatter/gather (every request is solved as sent, on one holder) and the
# facade paths nothing served (block-triangular factorization, the transpose
# solve, iterative refinement, condition estimation, equilibration and the
# test-only generator wrappers; GenPerturb is spelled with its parenthesis
# because it prefixes the kept GenPerturbLocal) and the options only tests
# set (the pivot threshold, the patch budget — spelled so that the kept
# DefaultPatchMaxDiff does not match — and the frame caps) and the
# sequential driver's own panel declaration (the Factor task packs the
# panel for every executor), the separate analysis push with its hook,
# handler and file format (the handle push carries the analysis), the
# router's handle→key map (clients stamp the key), the second GEMM driver
# with its small-product loop, B packer and add form (Gemm is GemmUpdate with
# the zero map), the push built on the request path with its event-to-request
# mapping (the replicator exports as each push leaves), the registry's stored counter and gauge kinds (every counter
# and gauge is read at scrape time; spelled with a word boundary because they
# prefix the kept kindCounterFunc and kindGaugeFunc), the bench package's
# unused default config and the host executor's own scheduler — its ready
# heap, the bottom levels and in-degree counters it was keyed and released by,
# and the schedule's unread bottom levels (the host runs the compute-ahead
# lists with one flag per panel) — stay gone.
# RequestStats.BatchWidth, RouterStats.Scatters and the benchmark metrics
# reading them are not listed: they stay until the benchmark retires them.
# Scanned: every file but
# the result logs and this script; of the top-level markdown, the documents
# that describe the program and its sources (the changelog, roadmap and
# planning notes are history and may name what went). Spelled as an if
# because set -e ignores a command behind "!".
retired='BENCH_(kernels|hostpar|service)|FactorizeParallel|ParOptions|SolvePar1D|runSolveBatch|doSolveMany|CoalesceWidth|coalesce-width|ColEtree|detectSupernodesWorkers|parMinCols|partParMin|ColumnMinDegree|colmmd|SetTileShape|AutotuneResult|TileChoice|tileCandidates|CoalesceWindow|coalesce-window|TenantWeights|tenant-weights|parseTenantWeights|SuspectThreshold|DeadThreshold|collectRiders|takeSolves|solveBatch|batchColumns|scatterSolveMany|coalescedSolves|CoalescedSolves|SolveBatches|solve_batch_width|router_scatters_total|FactorizeBTF|BTFFactorization|BlockTriangular|btfcircuit|SolveTranspose|CondEst|Equilibrate|RefineResult|backwardError|GenDense|GenPerturb\(|\.Refine\(|PivotThreshold|PivotTol|pivotTol|WithMaxFrame|MaxFrame|\.PatchMaxDiff|PatchMaxDiff:|newPanel\(|dropPanel|doReplicateAnalysis|LoadAnalysis|analysisMeta|analysisMagic|Analyzed\(|placeMu|keyOf\(|gemmEngine|smallGemm|GemmAdd|packB\(|ReplicateRequest|kindCounter\b|kindGauge\b|DefaultConfig\(|taskHeap|hostDAG|InDegrees\(|BLevel'
if git grep -nE "$retired" -- . ':(exclude,glob)*.md' ':!results/' ':!scripts/check.sh' ||
	git grep -nE "$retired" -- README.md DESIGN.md EXPERIMENTS.md PAPER.md PAPERS.md SNIPPETS.md; then exit 1; fi

# Role guard: a handle's owner is a ring lookup, never stored, so the stored
# replica flag, its promotion/demotion counters and gauges stay gone (same
# scope as above). A bare "Replica" is not listed: replica sets, pushes and
# copies remain. The one file exempt rebuilds an old peer's wire shape to
# prove the retired fields still decode, and has to spell them.
roles='SetHandleRole|setRole|replicaCount|ReplicaHandles|promotions_total|demotions_total|sstar_server_replica_handles|\bPromotions\b|\bDemotions\b'
if git grep -nE "$roles" -- . ':(exclude,glob)*.md' ':!results/' ':!scripts/check.sh' ':!internal/server/oldpeer_test.go' ||
	git grep -nE "$roles" -- README.md DESIGN.md EXPERIMENTS.md PAPER.md PAPERS.md SNIPPETS.md; then exit 1; fi

# Tenant guard: admission is one queue, so the per-tenant fair scheduler, its
# wire fields, the client's tenant views, the per-tenant metric families and
# the labeled-metric vecs only they used stay gone (same scope and exemption
# as the role guard: the old peer's wire shape still carries the fields).
tenants='qosched|WithTenant|ForTenant|TenantStats|DefaultTenant|sstar_server_tenant|maxTenantQueues|spillTenant|CounterVec|GaugeVec'
if git grep -nE "$tenants" -- . ':(exclude,glob)*.md' ':!results/' ':!scripts/check.sh' ':!internal/server/oldpeer_test.go' ||
	git grep -nE "$tenants" -- README.md DESIGN.md EXPERIMENTS.md PAPER.md PAPERS.md SNIPPETS.md; then exit 1; fi

# sstar-info has no test of its own: one run end to end is its smoke.
go run ./cmd/sstar-info -gen lnsp3937 >/dev/null

# Seam guard: the service conversation — Hello handshake, frame types, gob
# codec on a socket — is spoken by internal/server (transport.go) alone;
# client and cluster go through its Endpoint and Pool. A second copy must not
# grow back. (benchmark/ times the codec; serialize.go uses the frame codec
# for the Save/Load file format, which is not the service protocol.)
if git grep -nE 'wire\.(WriteGob|ReadGob)|FrameHello|ProtoMagic' -- '*.go' ':!*_test.go' ':!internal/server/' ':!benchmark/' ':!serialize.go'; then exit 1; fi
