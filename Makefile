# Tier-1 verification plus the stricter gates (vet, race detector).
#
#   make verify     - tier-1: build + full test suite
#   make vet        - static analysis, also with GOARCH=arm64 (so the
#                     non-amd64 stubs of every kernel keep compiling), and
#                     fmt-check: gofmt -l must list no file (the benchmark's
#                     build directory aside)
#   make race       - full suite under the race detector (slow)
#   make adversary  - Byzantine defense matrix (screen, aggregators,
#                     poisoning suite, networked quarantine) under -race
#   make alloc      - allocation-regression guard: the training hot path,
#                     every optimizer's per-round Reset and its steps, the
#                     reusable quantized-delta encoder, the exact
#                     FedAvg fold, the lossless wire's plane-frame encode
#                     and the quantized wire's section decode must stay
#                     zero-allocation in steady state (a frame decode
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
#                     serial-vs-parallel bit-identity property tests of the
#                     splits the pool keeps (the GEMMs, Conv2D's tiles,
#                     Dense's bias+activation pass, fl.System's client
#                     loops) and the every-kernel-tier ones (tensor, nn, fl,
#                     flnet, bench), under -race
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
#                     the Server.Pipe hammer (piped clients racing Run's
#                     exit, ten times over), the exit bound (Run's Done and
#                     drain exits return within one IOTimeout however many
#                     of 0-8 peers stop reading), and the fleet harness (real
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
#                     process behind one front door), rolling restart with
#                     bit-identical resume, the job-churn leak hammer, the
#                     admin REST validation matrix, front-door rate
#                     limiting and backlog shedding, pause/resume, the
#                     job transition table (every admin operation against
#                     every job state), the manifest's currency (complete
#                     mid-adoption, current when a drain returns, clean
#                     after a failed create), the
#                     pipelined-vs-sequential identity property tests, and the
#                     published-state oracle (no state the server has exposed
#                     is ever written again, while a background checkpoint
#                     reads what the next round shares)
#   make quant      - quantized-wire guards under -race: the linear-time
#                     top-k encoder against its sort oracle and golden
#                     payload digests, the section decoder against
#                     fl.DeltaPayload.Apply and its refusals of a broken
#                     gap stream, and the quantized federations (each
#                     session and the server's round loop own their encoder
#                     scratch; the race detector proves none is shared); the
#                     synchronous anchor ring holds two broadcasts, a peer back
#                     after a gap gets a full state, and a client decodes
#                     into two rotating anchor buffers
#   make bench-pair - perf gate (not part of check): BASE (default HEAD~1)
#                     checked out as a git worktree under .bench_build/
#                     against the working tree; ten pairs, each linking both
#                     sides' dinar-bench with a function order drawn from the
#                     pair's number and running every entry on both back to
#                     back, the change first in five of an entry's ten
#                     (drawn from a fixed seed), every run at GOMAXPROCS=1;
#                     about four and a half minutes; prints both sides'
#                     quartiles, wins and a verdict per entry and metric, and
#                     fails on a regression: worse in 9 of 10 pairs with a
#                     median gap above BASE's IQR and past 5 % (B/op: plus
#                     64 KiB), or a 0-alloc entry that allocates. ONLY=a,b
#                     narrows it to those entries; the worktree is removed
#                     on exit. Round workloads are compared with
#                     benchmark/run.sh -all and -compare
#   make benchmark-test - vet and test the round benchmark, a module of
#                     its own (repro/benchmark) that the root ./... patterns
#                     cannot see but that compiles against internal APIs
#   make nogob      - grep gate: encoding/gob is imported nowhere (the wire
#                     and the checkpoint chain have one serializer, binenc)
#   make oneclient  - grep gate: outside internal/flnet no non-test .go file
#                     handles KindWire or builds a KindHello (the client side
#                     of the protocol has one speaker, flnet.RunClient; the
#                     round benchmark's own module is exempt)
#   make oneacceptor - grep gate: non-test internal/flnet calls s.ln.Accept()
#                     exactly once (one acceptor admits the cohort and every
#                     rejoin for the whole run); no non-test .go file
#                     under internal/ calls SetDeadline( (registration is
#                     bounded by a timer, never by a listener deadline);
#                     ReadHello( is called exactly once in non-test
#                     internal/flnet and once in non-test internal/service,
#                     and non-test internal/service names no prefixConn or
#                     TeeReader (the front door parses a Hello once and hands
#                     it to the job's Server.Admit); no .go file, tests
#                     included, names MemListener, ListenMem or
#                     ErrListenerClosed (in-process clients enter through
#                     Server.Pipe, the acceptor's own admission)
#   make oneconv    - grep gate: non-test .go code calls the convolution's
#                     im2col( gather exactly once (from the tile loop, so no
#                     second Conv2D path gathers its own columns), outside
#                     internal/tensor calls GatherTaps( exactly once (from
#                     im2col, so the vector gather has one caller), and no .go
#                     file names conv2dDirectBudget, GEMMPanel or
#                     forwardDirect (the direct path and its dispatch budget
#                     are gone); and non-test internal/nn calls parallel.
#                     from two functions only, Conv2D's tile fan-out and
#                     Dense's forward (its bias+activation pass): the
#                     memory-bound layers run on the caller
#   make oneserverconfig - grep gate: outside middleware.go, internal/flnet
#                     and internal/bench no non-test .go file writes a
#                     ServerConfig{ literal (a standalone server and a
#                     service job are both configured by
#                     ServerOptions.serverConfig; the round benchmark's own
#                     module is exempt)
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
#   make fuzzlist   - grep gate: every func Fuzz… in a _test.go file is run by
#                     make fuzz, make fuzz names only targets that exist
#                     (each in its own package), and no non-test .go file
#                     imports internal/kerneltest (the kernel harness serves
#                     tests only)
#   make onesweep   - grep gate: in internal/experiment no type but
#                     SweepResult has a Table method, and metrics.NewTable is
#                     called only in its renderer and in the static Table 1
#                     (every other artifact is an entry of experiment.Sweeps:
#                     one runner, one row type, one renderer)
#   make exports    - type-checked gate: every exported top-level name,
#                     exported method and exported struct field under
#                     internal/ is used by some non-test .go file of the
#                     module or of benchmark/ (examples/ included), from a
#                     live declaration: uses inside a dead type's methods,
#                     a dead function or a blank var (var _ I = (*T)(nil))
#                     do not count, so a type and constructor that name only
#                     each other are dead together. A method
#                     also counts when it makes its type satisfy an interface
#                     that non-test code names (a type assertion's anonymous
#                     interface included), as do String() string and
#                     Error() string; a tagged field counts, since a codec
#                     reads it. chaos, faultnet and leakcheck serve tests and
#                     are exempt, and each other test-only name is listed with
#                     its reason in exports_test.go (a type's entry covers its
#                     methods and fields, and what a listed name uses is
#                     kept). Also runs the gate over the planted tree in
#                     testdata/exportgate
#   make exptables  - byte-identity of the evaluation: rerun dinar-bench -exp all
#                     -quick (seed 1, about two minutes) and diff every table
#                     against internal/experiment/testdata/quick_seed1.golden;
#                     the "[… completed in …]" lines and Table 3 (wall clock,
#                     heap) are left out of both sides
#   make loc        - the line counter simplicity PRs quote: the root package,
#                     each cmd/* and internal/* package, and in total, the
#                     non-blank, non-// lines of non-test .go files
#   make check      - everything above but loc, which gates nothing, and
#                     bench-pair, which takes minutes and a base revision
#   make wirebench  - record the wire-protocol entries (binary frame
#                     encode/decode, the lossless flate+delta encode/decode of
#                     a captured FCNN6 broadcast and upload with their frame
#                     sizes, bytes per federation round with the full codec
#                     stack, int8 upload encode at the FCNN6 state size,
#                     top-k and dense) into BENCH_hotpath.json
#   make fuzz       - short fuzz pass over the frame parser and the Hello
#                     parser, the top-k delta encoder against
#                     its sort oracle, the exact accumulator's bit-extracting
#                     conversion against its Frexp oracle (cell and vector,
#                     on every kernel tier), the update
#                     screen, the /healthz
#                     JSON round trip, the checkpoint envelope (CRC +
#                     corruption invariants) and payload decoders, the
#                     blocked-GEMM shape
#                     dispatch (arbitrary shapes vs the naive reference),
#                     the convolution's tap gather (arbitrary tap tables,
#                     out-of-range offsets included, vs the scalar loop on
#                     every kernel tier), the pointwise layer kernels
#                     (BatchNorm normalize and input gradient, ReLU's
#                     select and 2x2 max pooling at arbitrary shapes vs
#                     their scalar loops on every kernel tier), and the
#                     service-mode job-spec decoder/validator
#   make bench      - kernel + per-layer hot-path microbenchmarks
#   make bench-json - rerun the tracked hot-path suite, recording it in
#                     BENCH_hotpath.json (a record no gate reads; the
#                     scaling section is preserved)
#   make bench-scaling - GOMAXPROCS sweep: ns/op, speedup, and scaling
#                     efficiency per CPU count, recorded in the same file;
#                     fails if any parallel path diverges from serial

GO ?= go

.PHONY: verify vet fmt-check race adversary alloc parallel telemetry chaos soak service quant wirebench bench-pair benchmark-test nogob oneclient oneacceptor oneconv oneserverconfig oneassembly ownregistry onesweep fuzzlist exports exptables loc check fuzz bench bench-json bench-scaling

verify:
	$(GO) build ./...
	$(GO) test ./...

vet: fmt-check
	$(GO) vet ./...
	GOARCH=arm64 $(GO) vet ./...

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
	$(GO) test ./internal/flnet/ -run 'TestPlaneFrameSteadyStateAllocs|TestQuantizedDecodeSteadyStateAllocs|TestStatePoolRetainsCohort|TestRoundByteBudget|TestFederationLiveStates' -v
	$(GO) test ./internal/data/ -run TestBatchesBytesPerEpoch -v
	$(GO) test ./internal/core/ -run TestPersonalizedStateIsTheClientsOwn -v

parallel:
	$(GO) test -race ./internal/parallel/
	$(GO) test -race ./internal/tensor/ ./internal/nn/ ./internal/fl/ ./internal/flnet/ ./internal/bench/ -run 'BitIdentical|TestFinalizeClientsFirstErrorWins|TestCheckParallelDeterminism'

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
	$(GO) test -race -count=10 ./internal/flnet/ -run TestPipeRunExitHammer
	$(GO) test -race ./internal/flnet/ -run TestRunExitBoundedByIOTimeout
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

BASE ?= HEAD~1
bench-pair:
	$(GO) run ./cmd/dinar-bench -pair $(BASE) $(if $(ONLY),-only $(ONLY))

benchmark-test:
	$(GO) -C benchmark vet ./...
	$(GO) -C benchmark test ./...

nogob:
	@if grep -rn '"encoding/gob"' --include='*.go' . | grep -v '^\./\.bench_build/'; then echo 'encoding/gob is imported (see above)'; exit 1; fi

oneclient:
	@if grep -rnE 'KindWire|KindHello' --include='*.go' . | grep -v '_test\.go:' | grep -vE '^\./(internal/flnet|benchmark|\.bench_build)/'; then echo 'a second client-side protocol speaker (see above): drive flnet.RunClient instead'; exit 1; fi

oneacceptor:
	@hits=$$(grep -n 's\.ln\.Accept()' internal/flnet/*.go | grep -v '_test\.go:'); if [ $$(printf '%s\n' "$$hits" | grep -c .) -ne 1 ]; then printf '%s\n' "$$hits"; echo 'want exactly one s.ln.Accept() in internal/flnet (see above): admit every client through the one acceptor'; exit 1; fi
	@if grep -rn 'SetDeadline(' --include='*.go' internal | grep -v '_test\.go:'; then echo 'a listener or connection deadline set under internal/ (see above): bound registration with the server timer, IO with SetRead/WriteDeadline'; exit 1; fi
	@for d in flnet service; do hits=$$(grep -n 'ReadHello(' internal/$$d/*.go | grep -v '_test\.go:' | grep -v 'func ReadHello('); if [ $$(printf '%s\n' "$$hits" | grep -c .) -ne 1 ]; then printf '%s\n' "$$hits"; echo "want exactly one ReadHello( call in non-test internal/$$d (see above): parse a Hello once and admit it with Server.Admit"; exit 1; fi; done
	@if grep -nE 'prefixConn|TeeReader' internal/service/*.go | grep -v '_test\.go:'; then echo 'a replayed Hello in internal/service (see above): the front door hands the parsed Hello to the job'"'"'s Server.Admit'; exit 1; fi
	@if grep -rnE 'MemListener|ListenMem|ErrListenerClosed' --include='*.go' . | grep -v '^\./\.bench_build/'; then echo 'a second in-memory network (see above): pipe in-process clients in with Server.Pipe'; exit 1; fi

oneconv:
	@hits=$$(grep -rn 'im2col(' --include='*.go' internal | grep -v '_test\.go:' | grep -v 'func (c \*Conv2D) im2col('); if [ $$(printf '%s\n' "$$hits" | grep -c .) -ne 1 ]; then printf '%s\n' "$$hits"; echo 'want exactly one im2col( call in non-test internal/ (see above): gather columns only in the tile loop'; exit 1; fi
	@hits=$$(grep -rn 'GatherTaps(' --include='*.go' . | grep -v '_test\.go:' | grep -vE '^\./(internal/tensor|\.bench_build)/'); if [ $$(printf '%s\n' "$$hits" | grep -c .) -ne 1 ]; then printf '%s\n' "$$hits"; echo 'want exactly one GatherTaps( call in non-test code outside internal/tensor (see above): gather columns only in im2col'; exit 1; fi
	@if grep -rnE 'conv2dDirectBudget|GEMMPanel|forwardDirect' --include='*.go' . | grep -v '^\./\.bench_build/'; then echo 'the direct convolution path or its budget is back (see above): Conv2D has one tiled path'; exit 1; fi
	@sites=$$(awk '/^[a-z]/ { fn = ($$2 !~ /^\(/) ? $$2 : ($$2 ~ /\)$$/) ? $$3 : $$4; sub(/[[(].*/, "", fn) } \
		/parallel\.[A-Z]/ && !/^[[:space:]]*\/\// { print FILENAME ": " fn }' $$(ls internal/nn/*.go | grep -v _test.go) | sort -u); \
	if [ "$$sites" != "$$(printf 'internal/nn/conv2d.go: fanOut\ninternal/nn/dense.go: Forward')" ]; then printf '%s\n' "$$sites"; echo 'want parallel. called in non-test internal/nn only by Conv2D.fanOut and Dense.Forward (see above): a memory-bound layer runs on the caller'; exit 1; fi

oneserverconfig:
	@if grep -rn 'ServerConfig{' --include='*.go' . | grep -v '_test\.go:' | grep -vE '^\./(middleware\.go|internal/flnet/|internal/bench/|benchmark/|\.bench_build/)'; then echo 'a second flnet.ServerConfig construction (see above): map the settings onto dinar.ServerOptions and call serverConfig'; exit 1; fi

oneassembly:
	@if grep -rnE 'data\.(NewFLSplit|PartitionDirichlet)\(' --include='*.go' . | grep -v '_test\.go:' | grep -vE '^\./(internal/fl|internal/data|benchmark|\.bench_build)/'; then echo 'a second hand-written federation assembly (see above): derive it from fl.Config (internal/fl/assembly.go) instead'; exit 1; fi

ownregistry:
	@if grep -rnE 'defaultMetrics|telemetry\.Default\(\)' --include='*.go' . | grep -v '_test\.go:' | grep -vE '^\./(internal/telemetry|\.bench_build)/' | grep -vE '^\./(middleware\.go|internal/service/service\.go):[0-9]+:.*telemetry\.Default\(\)'; then echo 'a process-global metric bundle, or telemetry.Default() outside an exposition (see above): count into the registry the server was handed'; exit 1; fi

onesweep:
	@awk '/^[a-z]/ { fn = $$0 } \
		/^func \([^)]*\) Table\(\)/ && !/^func \(r \*SweepResult\) Table\(\)/ { print FILENAME ":" FNR ": " $$0; bad = 1 } \
		/metrics\.NewTable\(/ && fn !~ /^func (\(r \*SweepResult\) Table|Table1Table)\(\)/ { print FILENAME ":" FNR ": " $$0; bad = 1 } \
		END { if (bad) { print "a second renderer in internal/experiment (see above): make the artifact an entry of experiment.Sweeps"; exit 1 } }' \
		$$(ls internal/experiment/*.go | grep -v _test.go)

fuzzlist:
	@listed=$$($(MAKE) -s --no-print-directory -n fuzz | sed -n 's#.*-fuzz=\(Fuzz[A-Za-z0-9_]*\).* \(\./[^ ]*[^/]\)/*$$#\2 \1#p'); \
	defined=$$(grep -rn --include='*_test.go' '^func Fuzz[A-Za-z0-9_]*(' . | grep -v '^\./\.bench_build/' | sed 's#^\(.*\)/[^/]*:[0-9]*:func \(Fuzz[A-Za-z0-9_]*\)(.*#\1 \2#'); \
	bad=$$( { printf '%s\n' "$$defined" | grep -vxF "$$listed" | sed 's/^/not run by make fuzz: /'; \
		printf '%s\n' "$$listed" | grep -vxF "$$defined" | sed 's/^/make fuzz names no such target: /'; } ); \
	if [ -n "$$bad" ]; then printf '%s\n' "$$bad"; echo 'run every func Fuzz… in make fuzz, and name only targets that exist'; exit 1; fi
	@if grep -rln '"repro/internal/kerneltest"' --include='*.go' . | grep -v '_test\.go$$' | grep -v '^\./\.bench_build/'; then echo 'a non-test file imports the kernel harness (see above): internal/kerneltest serves tests only'; exit 1; fi

exports:
	$(GO) test . -run 'TestEveryExportHasACaller|TestExportGateFixture'

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

check: verify vet race adversary alloc parallel telemetry chaos soak service quant benchmark-test nogob oneclient oneacceptor oneconv oneserverconfig oneassembly ownregistry onesweep fuzzlist exports exptables

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
	$(GO) test -run=NONE -fuzz=FuzzGatherTaps -fuzztime=30s ./internal/tensor/
	$(GO) test -run=NONE -fuzz=FuzzPointwise -fuzztime=30s ./internal/tensor/
	$(GO) test -run=NONE -fuzz=FuzzJobSpec -fuzztime=30s ./internal/service/
