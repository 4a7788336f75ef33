# Tier-1 verification plus the stricter gates (vet, race detector).
#
#   make verify     - tier-1: build + full test suite
#   make vet        - static analysis, and fmt-check: gofmt -l must list no
#                     file (the benchmark's build directory aside)
#   make race       - full suite under the race detector (slow)
#   make adversary  - Byzantine defense matrix (screen, aggregators,
#                     poisoning suite, networked quarantine) under -race
#   make alloc      - allocation-regression guard: the training hot path,
#                     every optimizer's per-round Reset and its steps, the
#                     reusable quantized-delta encoder, the exact
#                     FedAvg fold and the lossless wire's plane-frame encode
#                     must stay zero-allocation in steady state (the decode
#                     allocates only what compress/flate does per stream);
#                     and a round makes no state-sized garbage: a steady-state
#                     round of an fl.System and of a two-client in-memory
#                     federation (lossless wire, sequential checkpoints, dinar)
#                     allocates at most two states' worth of bytes plus 1 MiB,
#                     an epoch of Batches one batch tensor (plus a ragged one),
#                     a DINAR personalization and a reused loss result nothing;
#                     and a federation keeps only what a peer can claim: at the
#                     end of a two-client dinar federation's last round (both
#                     wire setups) the live heap is at most its budget in
#                     states, nine below PR 24's
#   make parallel   - compute-pool guards: pool invariants plus the
#                     serial-vs-parallel bit-identity property tests,
#                     under -race
#   make telemetry  - observability guards: registry/event-log/admin tests
#                     under -race (including the rejoin log-serialization
#                     hammer), the /metrics golden test, the instrument
#                     zero-alloc guard, the /healthz e2e, and the two ownership
#                     tests: two servers in one process report their own
#                     rounds, and a service exposes a federation's series only
#                     under its job's label
#   make chaos      - crash-safe lifecycle acceptance under -race: the
#                     seeded chaos soak (server crash/resume, checkpoint
#                     corruption, client restarts, partitions), the drain
#                     lifecycle, the private-store restart test, and the
#                     checkpoint corruption/retention table
#   make soak       - overload-resilience soak at short scale under -race:
#                     the in-memory listener and the fleet harness (real
#                     flnet.RunClient sessions over synthetic trainers, pinned
#                     to golden final-state digests), the sampled streaming /
#                     partitioned-memory / async scale soaks, the
#                     sampling crash-resume + quarantine property tests
#                     (make chaos runs the same soaks at full 10k scale),
#                     and the async engine's arithmetic: no stragglers ≡
#                     sync, and a gated straggler against the
#                     staleness-weighted FedAvg oracle
#   make service    - multi-tenant control-plane acceptance under -race:
#                     the concurrent-job soak (3 named federations in one
#                     process on in-memory listeners), rolling restart with
#                     bit-identical resume, the job-churn leak hammer, the
#                     admin REST validation matrix, front-door rate
#                     limiting and backlog shedding, pause/resume, the
#                     pipelined-vs-sequential identity property tests, and the
#                     published-state oracle (no state the server has exposed
#                     is ever written again, while a background checkpoint
#                     reads what the next round shares)
#   make quant      - quantized-wire guards under -race: the linear-time
#                     top-k encoder against its sort oracle and golden
#                     payload digests, and the quantized federations (each
#                     session and the server's round loop own their encoder
#                     scratch; the race detector proves none is shared); the
#                     synchronous anchor ring holds two broadcasts, a peer back
#                     after a gap gets a full state, and a client decodes
#                     into two rotating anchor buffers
#   make wirebench  - wire-protocol benchmarks (binary frame encode/decode
#                     throughput, the lossless flate+delta encode/decode of a
#                     captured FCNN6 broadcast and upload with their frame
#                     sizes, bytes per federation round with the full codec
#                     stack, int8 upload encode at the FCNN6 state size,
#                     top-k and dense), merged into BENCH_hotpath.json
#   make bench-check - perf regression gate: rerun the benchmarks recorded
#                     in BENCH_hotpath.json and fail past +15% ns/op (or if
#                     a 0-alloc entry starts allocating); failing entries
#                     are retried and the minimum kept, so the gate trips
#                     on real regressions rather than scheduler noise
#   make benchmark-test - vet and test the round benchmark, a module of
#                     its own (repro/benchmark) that the root ./... patterns
#                     cannot see but that compiles against internal APIs
#   make nogob      - grep gate: encoding/gob is imported nowhere (the wire
#                     and the checkpoint chain have one serializer, binenc)
#   make oneclient  - grep gate: outside internal/flnet no non-test .go file
#                     handles KindWire or builds a KindHello (the client side
#                     of the protocol has one speaker, flnet.RunClient; the
#                     round benchmark's own module is exempt)
#   make oneassembly - grep gate: outside internal/fl and internal/data no
#                     non-test .go file calls data.NewFLSplit or
#                     data.PartitionDirichlet (a federation's seeded data,
#                     models and clients are derived in one place,
#                     internal/fl/assembly.go; the round benchmark's own
#                     module keeps its hand copy as the outside check)
#   make ownregistry - grep gate: no non-test .go file names defaultMetrics, and
#                     outside internal/telemetry telemetry.Default() is named
#                     only where an exposition is assembled (middleware.go,
#                     internal/service/service.go): a federation's series live
#                     in the registry its server was handed, never in a
#                     process-global bundle
#   make exptables  - byte-identity of the evaluation: rerun dinar-bench -exp all
#                     -quick (seed 1, about two minutes) and diff every table
#                     against internal/experiment/testdata/quick_seed1.golden;
#                     the "[… completed in …]" lines and Table 3 (wall clock,
#                     heap) are left out of both sides
#   make loc        - the line counter simplicity PRs quote: the root package,
#                     each cmd/* and internal/* package, and in total, the
#                     non-blank, non-// lines of non-test .go files
#   make check      - everything above (but loc, which gates nothing)
#   make fuzz       - short fuzz pass over the frame parser and the Hello
#                     parser, the top-k delta encoder against
#                     its sort oracle, the exact accumulator's bit-extracting
#                     conversion against its Frexp oracle, the update
#                     screen, the /healthz
#                     JSON round trip, the checkpoint envelope (CRC +
#                     corruption invariants) and payload decoders, the
#                     blocked-GEMM shape
#                     dispatch (arbitrary shapes vs the naive reference),
#                     and the service-mode job-spec decoder/validator
#   make bench      - kernel + per-layer hot-path microbenchmarks
#   make bench-json - rerun the tracked hot-path suite, updating
#                     BENCH_hotpath.json (baseline section is preserved)
#   make bench-scaling - GOMAXPROCS sweep: ns/op, speedup, and scaling
#                     efficiency per CPU count, recorded in the same file;
#                     fails if any parallel path diverges from serial

GO ?= go

.PHONY: verify vet fmt-check race adversary alloc parallel telemetry chaos soak service quant wirebench bench-check benchmark-test nogob oneclient oneassembly ownregistry exptables loc check fuzz bench bench-json bench-scaling

verify:
	$(GO) build ./...
	$(GO) test ./...

vet: fmt-check
	$(GO) vet ./...

fmt-check:
	@out=$$(gofmt -l . | grep -v '^\.bench_build/'); if [ -n "$$out" ]; then echo "gofmt -l lists:"; echo "$$out"; exit 1; fi

race:
	$(GO) test -race -timeout 30m ./...

adversary:
	$(GO) test -race ./internal/adversary/ ./internal/fl/ -run 'TestScreen|TestStreamingScreen|TestServerAggregate|TestKrum|TestMultiKrum|TestNormBounded|TestWithAggregator|TestMedian|TestTrimmedMean|Test.*Adversary|TestWrap|TestSignFlip|TestBoost|TestNoise|TestNaNBomb|TestReplay|TestStopAfter|TestFirstF|TestKinds|TestBenign'
	$(GO) test -race ./internal/flnet/ -run TestQuarantineSurvivesReconnect

alloc:
	$(GO) test ./internal/nn/ -run 'TestSteadyStateZeroAllocs|TestMatMulSteadyStateZeroAllocs' -v
	$(GO) test ./internal/tensor/ -run TestWorkspaceSteadyStateAllocs -v
	$(GO) test ./internal/optim/ -run 'TestResetKeepsStateBuffers|TestResetStepZeroAllocs' -v
	$(GO) test ./internal/fl/ -run 'TestDeltaEncoderSteadyStateAllocs|TestStreamingFedAvgSteadyStateAllocs' -v
	$(GO) test ./internal/flnet/ -run 'TestPlaneFrameSteadyStateAllocs|TestStatePoolRetainsCohort|TestRoundByteBudget|TestFederationLiveStates' -v
	$(GO) test ./internal/data/ -run TestBatchesBytesPerEpoch -v
	$(GO) test ./internal/core/ -run TestPersonalizedStateIsTheClientsOwn -v

parallel:
	$(GO) test -race ./internal/parallel/
	$(GO) test -race ./internal/tensor/ ./internal/nn/ ./internal/fl/ ./internal/bench/ -run 'BitIdentical|TestFinalizeClientsFirstErrorWins|TestCheckParallelDeterminism'

telemetry:
	$(GO) test -race ./internal/telemetry/
	$(GO) test -race ./internal/flnet/ -run 'TestLogfSerializedUnderRejoinHammer|TestServerHealthSnapshot'
	$(GO) test ./internal/telemetry/ -run TestHotPathAllocFree -v
	$(GO) test . -run 'TestObservabilityEndToEnd|TestTwoServersOwnTheirMetrics' -v
	$(GO) test ./internal/service/ -run TestMetricsFederationSeriesCarryJobLabel -v

chaos:
	$(GO) test -race -timeout 15m ./internal/chaos/
	$(GO) test -race ./internal/checkpoint/ ./internal/faultnet/

soak:
	$(GO) test -race ./internal/fleetsim/
	$(GO) test -race -count=10 ./internal/flnet/ -run TestMemListener
	$(GO) test -race -short ./internal/chaos/ -run 'TestScaleSoak|TestSampledCohortResumeIdentity|TestQuarantinedClientNeverResampled'
	$(GO) test -race ./internal/flnet/ -run 'TestAsyncWithoutStragglersMatchesSync|TestAsyncStaleFoldOracle'

service:
	$(GO) test -race -count=1 ./internal/service/
	$(GO) test -race ./internal/chaos/ -run 'TestPipelinedMatchesSequential|TestPipelinedDrainResumeIdentity'
	$(GO) test -race ./internal/flnet/ -run TestPublishedStateIsNeverWritten

quant:
	$(GO) test -race ./internal/fl/ -run 'TestEncodeDelta|TestDeltaEncoder|TestKthLargestAbsDiff|TestQuantizedStreamingFoldOrderInvariance'
	$(GO) test -race ./internal/defense/ -run TestGC
	$(GO) test -race ./internal/flnet/ -run 'TestQuantized|TestBinary|TestWireNegotiationByHand|TestHelloVersionValidated|TestBroadcastRingRetainsClaimableRounds|TestClientHoldsTwoAnchorBuffers'
	$(GO) test -race ./internal/fleetsim/ -run 'TestWire|TestFleetGoldenDigests'

wirebench:
	$(GO) run ./cmd/dinar-bench -only wire_encode,wire_decode,wire_lossless_encode_global,wire_lossless_decode_global,wire_lossless_encode_update,wire_lossless_decode_update,bytes_per_round,quant_encode_topk,quant_encode_dense -json BENCH_hotpath.json

bench-check:
	$(GO) run ./cmd/dinar-bench -compare -json BENCH_hotpath.json

benchmark-test:
	$(GO) -C benchmark vet ./...
	$(GO) -C benchmark test ./...

nogob:
	@if grep -rn '"encoding/gob"' --include='*.go' .; then echo 'encoding/gob is imported (see above)'; exit 1; fi

oneclient:
	@if grep -rnE 'KindWire|KindHello' --include='*.go' . | grep -v '_test\.go:' | grep -vE '^\./(internal/flnet|benchmark|\.bench_build)/'; then echo 'a second client-side protocol speaker (see above): drive flnet.RunClient instead'; exit 1; fi

oneassembly:
	@if grep -rnE 'data\.(NewFLSplit|PartitionDirichlet)\(' --include='*.go' . | grep -v '_test\.go:' | grep -vE '^\./(internal/fl|internal/data|benchmark|\.bench_build)/'; then echo 'a second hand-written federation assembly (see above): derive it from fl.Config (internal/fl/assembly.go) instead'; exit 1; fi

ownregistry:
	@if grep -rnE 'defaultMetrics|telemetry\.Default\(\)' --include='*.go' . | grep -v '_test\.go:' | grep -vE '^\./(internal/telemetry|\.bench_build)/' | grep -vE '^\./(middleware\.go|internal/service/service\.go):[0-9]+:.*telemetry\.Default\(\)'; then echo 'a process-global metric bundle, or telemetry.Default() outside an exposition (see above): count into the registry the server was handed'; exit 1; fi

exptables:
	@$(GO) run ./cmd/dinar-bench -exp all -quick \
		| sed -e '/^Table 3:/,/^\[table3 completed/d' -e '/^\[.* completed in .*\]$$/d' \
		| diff internal/experiment/testdata/quick_seed1.golden - \
		|| { echo 'a printed table moved (see above); if it was meant to, regenerate the golden with the same pipeline'; exit 1; }

loc:
	@total=0; for d in ./ cmd/*/ internal/*/; do \
		n=$$(cat /dev/null $$(ls $$d*.go | grep -v _test.go) | grep -v '^[[:space:]]*$$' | grep -vc '^[[:space:]]*//'); \
		printf '%6d  %s\n' $$n $$d; total=$$((total + n)); \
	done; printf '%6d  total\n' $$total

check: verify vet race adversary alloc parallel telemetry chaos soak service quant wirebench bench-check benchmark-test nogob oneclient oneassembly ownregistry exptables

bench:
	$(GO) test -run=NONE -bench=. -benchmem ./internal/tensor/ ./internal/nn/

bench-json:
	$(GO) run ./cmd/dinar-bench -json BENCH_hotpath.json

bench-scaling:
	$(GO) run ./cmd/dinar-bench -scaling -json BENCH_hotpath.json

fuzz:
	$(GO) test -run=NONE -fuzz=FuzzFrame -fuzztime=30s ./internal/flnet/
	$(GO) test -run=NONE -fuzz=FuzzHandshake -fuzztime=30s ./internal/flnet/
	$(GO) test -run=NONE -fuzz=FuzzScreen -fuzztime=30s ./internal/fl/
	$(GO) test -run=NONE -fuzz=FuzzEncodeDeltaTopK -fuzztime=30s ./internal/fl/
	$(GO) test -run=NONE -fuzz=FuzzFixFromFloat -fuzztime=30s ./internal/fl/
	$(GO) test -run=NONE -fuzz=FuzzHealthJSON -fuzztime=30s ./internal/telemetry/
	$(GO) test -run=NONE -fuzz=FuzzEnvelope$$ -fuzztime=30s ./internal/checkpoint/
	$(GO) test -run=NONE -fuzz=FuzzEnvelopeCorruption -fuzztime=30s ./internal/checkpoint/
	$(GO) test -run=NONE -fuzz=FuzzSnapshotPayload -fuzztime=30s ./internal/checkpoint/
	$(GO) test -run=NONE -fuzz=FuzzBlockedGEMM -fuzztime=30s ./internal/tensor/
	$(GO) test -run=NONE -fuzz=FuzzJobSpec -fuzztime=30s ./internal/service/
