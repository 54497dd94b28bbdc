GO ?= go

# The CI gate: everything a fresh clone must pass. `test` runs without the
# race detector on purpose: the allocation-budget guards (alloc_test.go)
# skip themselves under -race, so both flavors are needed.
.PHONY: ci
ci: fmt-check vet check-seam build test race race-query race-core bench-smoke bench-e2e-smoke check-examples check-docs

.PHONY: fmt-check
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

.PHONY: vet
vet:
	$(GO) vet ./...

# Static analysis beyond vet. CI pins the tool versions (see
# .github/workflows/ci.yml); locally the steps degrade to a notice when a
# tool is not installed, so `make lint` never needs network access.
.PHONY: lint
lint: fmt-check vet
	@if command -v staticcheck >/dev/null 2>&1; then staticcheck ./...; else echo "staticcheck not installed; skipped (go install honnef.co/go/tools/cmd/staticcheck@v0.6.1)"; fi
	@if command -v govulncheck >/dev/null 2>&1; then govulncheck ./...; else echo "govulncheck not installed; skipped (go install golang.org/x/vuln/cmd/govulncheck@v1.1.4)"; fi

# The internal/link seam: every listener is accepted from, and every framed
# connection read, by internal/link (Listener, ServeFrames, Pipe) — a server
# that grows its own accept or read loop grows its own lifecycle and flush
# rule with it. internal/wire is the codec those calls live in.
#
# The decision path: a miss gathers by completion and a flow-mod is an
# append, so internal/core and the query engine start no goroutine and wait
# on none — a decision runs on the goroutine that delivered its packet-in or
# its second response. A `go` statement or a WaitGroup there is a second
# gather or install path growing back.
#
# One policy engine: identctl links the compiled program and its VM. The
# tree-walking interpreter is internal/pf's test oracle (interp_test.go);
# any of its symbols, or the old switch that ran it beside the VM, in the
# built binary is a second engine growing back.
PF_ORACLE_SYMS = pf\.(\(\*Policy\)\.Evaluate(Interpreted|Compiled)|SetDifferential|differential|\(\*evalCtx\)\.(run|ruleMatches|addrMatches|callFunc|resolveArg|resolveDict))$$
.PHONY: check-seam
check-seam:
	@out="$$(grep -rnE 'Accept\(\)|wire\.ReadFrame(Into)?\(' --include='*.go' internal cmd | grep -vE '^internal/(link|wire)/|_test\.go:')"; \
	if [ -n "$$out" ]; then echo "accept/read loop outside internal/link:"; echo "$$out"; exit 1; fi
	@out="$$(grep -nE '^[[:space:]]*go |WaitGroup' internal/core/*.go internal/query/engine.go | grep -v '_test\.go:')"; \
	if [ -n "$$out" ]; then echo "goroutine or WaitGroup on the decision path:"; echo "$$out"; exit 1; fi
	@tmp="$$(mktemp -d)"; trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) build -o "$$tmp/identctl" ./cmd/identctl || exit 1; \
	out="$$($(GO) tool nm "$$tmp/identctl" | grep -E '$(PF_ORACLE_SYMS)')"; \
	if [ -n "$$out" ]; then echo "a second policy engine linked into identctl:"; echo "$$out"; exit 1; fi

.PHONY: build
build:
	$(GO) build ./...

.PHONY: test
test:
	$(GO) test ./...

# The concurrency suite (internal/core stress tests included) under the
# race detector.
.PHONY: race
race:
	$(GO) test -race ./...

# The query plane is the most concurrency-dense package (pipelined
# connections, async completions, retries from the reader), and the coalescing
# writer under it and under the switch channel hands every byte from one
# goroutine to another; run them repeatedly under the race detector so
# interleavings get more than one roll. The cluster link's client is the
# same link.Pipe as the query plane's, so its tests repeat too. The
# histograms every decision writes are lock-free atomic cells read by
# concurrent scrapes; their conservation tests repeat here with the
# exporter's.
.PHONY: race-query
race-query:
	$(GO) test -race -count=2 ./internal/query/ ./internal/openflow/ ./internal/link/ ./internal/metrics/ ./internal/telemetry/ ./internal/cluster/

# The verdict cache's safety rests on interleavings one run rarely rolls:
# an insert racing a fact update (register-before-publish, the publication
# re-check), a hit racing a teardown (addPaths refused, the hit self-
# cleans). Their tests check conservation laws, so repeat them under the
# race detector instead of trusting one lucky pass. The takeover tests and
# the teardown and install paths those
# handshakes run through (revocation.go, installHops) repeat with them,
# and so does the dependency index under all of it (internal/revoke: a
# record's links are spliced under its key lock, then each fact's, so racing
# registrations and drops are where a lost or stray link would show).
# The handshake tests run once per completion mode (completionModes: inline,
# and deferred — every completion on a goroutine of its own, as identctl's
# connection readers deliver them); the pattern names each of them. So does
# the invariant the query engine relies on to keep no deduplication of its
# own: one query per end per decision, never two outstanding for one
# (host, flow) (TestAsyncDuplicatesParkAndResolve, and the counting
# transport in TestStressConcurrentPipeline). The in-flight fences and the
# re-decision they trigger (TestRedecide*, TestInFlightRevocation*) repeat
# with them, and so does the daemon's half of that ordering: a change
# landing between an answer and its memo is still published, and queries
# racing process and configuration churn leave every memo entry equal to a
# fresh derivation (the daemon's per-process answers included).
#
# The last two lines are the flake gate: tier-1 is deterministic, so the
# tests whose schedules vary most — the failover test over in-process and
# real-TCP switches, the re-decision tests, the stress suite, and the query
# plane's concurrency, pipelining and reconnect tests — run fifty times at
# three GOMAXPROCS settings, and one failure fails the gate. The query
# plane's deadline tests (credential expiry, wedged daemon, idle and request
# deadlines) wait on the wall clock and would triple the gate's time, so
# they run in race-query only.
.PHONY: race-core
race-core:
	$(GO) test -race -count=20 -run 'Stress|Megaflow|Takeover|Revo|Redecide|Install|TearsDown|ClassLease|LeaseFallback|DuplicatesPark' ./internal/core/
	$(GO) test -race -count=20 ./internal/revoke/
	$(GO) test -race -count=20 -run 'ChangeBetweenAnswerAndMemo|ConcurrentAnswers' ./internal/daemon/
	$(GO) test -race -count=50 -cpu 1,2,4 -run 'Failover|Redecide|Stress' ./internal/cluster ./internal/core
	$(GO) test -race -count=50 -cpu 1,2,4 -run 'Pipeline|Concurrent|Race|Racing|CloseWaits|Burst|Reconnect|Redial|Recovery|Restart|SerialGap|Async|Revocation' ./internal/query

# One iteration of every benchmark as a smoke check: catches benchmarks
# that no longer compile or crash without paying for a measurement run.
.PHONY: bench-smoke
bench-smoke:
	$(GO) test -run=NONE -bench=. -benchtime=1x ./...

# The end-to-end benchmark is a module of its own (bench/go.mod), so
# `go vet ./...` and `go test ./...` at the root never compile it. This
# does: a signature bench/ imports cannot change without failing here. Its
# smoke test runs every workload at 1/16 scale for a second and a half.
.PHONY: bench-e2e-smoke
bench-e2e-smoke:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# Full measurement run of the paper's E/M benchmark suite.
.PHONY: bench
bench:
	$(GO) test -run=NONE -bench=. -benchmem .

# Sharded fast-path throughput across shard counts (compare shards=1 to
# shards=16 on a multi-core host).
.PHONY: bench-m7
bench-m7:
	$(GO) test -run=NONE -bench=BenchmarkM7 -benchtime=2s .

# Compare the steady-state benchmarks (M7-M16) against a base ref and
# enforce the allocation budget, exactly as CI's bench-compare job does.
# Requires a clean-enough tree for `git worktree add` of BASE (default
# main). benchstat (golang.org/x/perf) enriches the report when installed;
# the budget gate itself is the in-repo cmd/benchdiff, so no network or
# extra tools are needed to run the check. Besides the text report, the
# run leaves BENCH_<pr>.json in the repo root — the full comparison
# serialized by benchdiff -json, written even when the gate fails; CI
# uploads the same file as the job's artifact. <pr> is the number in
# ISSUE.md's title (BENCH_local.json without one), so each PR's run lands
# in a file of its own, to be committed: the trajectory is those files.
BASE ?= main
BENCH_COUNT ?= 3
BENCH_TIME ?= 20000x
BENCH_SET ?= M7_|M8_|M9_|M10_|M11_|M12_|M13_|M14_|M15_|M16_
PR ?= $(or $(shell sed -n '1s/^\# ISSUE \([0-9][0-9]*\).*/\1/p' ISSUE.md 2>/dev/null),local)
BENCH_OUT ?= BENCH_$(PR).json
.PHONY: bench-compare
bench-compare:
	@tmp=$$(mktemp -d); \
	set -e; \
	git worktree add --detach $$tmp/base $(BASE) >/dev/null; \
	trap 'git worktree remove --force '"$$tmp"'/base >/dev/null 2>&1; rm -rf '"$$tmp" EXIT; \
	echo "== base ($(BASE)) =="; \
	(cd $$tmp/base && $(GO) test -run=NONE -bench='$(BENCH_SET)' -benchmem -count=$(BENCH_COUNT) -benchtime=$(BENCH_TIME) .) | tee $$tmp/base.txt; \
	echo "== head =="; \
	$(GO) test -run=NONE -bench='$(BENCH_SET)' -benchmem -count=$(BENCH_COUNT) -benchtime=$(BENCH_TIME) . | tee $$tmp/head.txt; \
	if command -v benchstat >/dev/null 2>&1; then benchstat $$tmp/base.txt $$tmp/head.txt || true; fi; \
	$(GO) run ./cmd/benchdiff \
		-max-allocs 'BenchmarkM7_ShardedHandleEvent=2' \
		-max-allocs 'BenchmarkM8_AllocProfile=2' \
		-max-allocs 'BenchmarkM9_QueryPlane/hit=2' \
		-max-allocs 'BenchmarkM9_QueryPlane/async=2' \
		-max-allocs 'BenchmarkM10_PolicyEval/compiled=2' \
		-max-allocs 'BenchmarkM11_Revocation/no-subscribers=2' \
		-max-allocs 'BenchmarkM11_Revocation/register-drop=1' \
		-max-allocs 'BenchmarkM12_Megaflow/member-hit=2' \
		-max-allocs 'BenchmarkM13_CredentialedSession/steady=2' \
		-max-allocs 'BenchmarkM14_Cluster/owned-hit=2' \
		-max-allocs 'BenchmarkM15_Trace/off=2' \
		-max-allocs 'BenchmarkM16_ChannelIO=2' \
		-json $(BENCH_OUT) \
		$$tmp/base.txt $$tmp/head.txt

# Documentation gates. The drift tests (internal/telemetry's
# docs_drift_test.go: every test there matches 'Doc|Declared') pin
# docs/metrics.md to the wired telemetry registry, counter, gauge and
# histogram literals in source to the wiring tables and the doc's type
# cells, and docs/operations.md's view table to telemetry.Views; the link
# check walks every relative markdown link in README.md and docs/ and fails
# on targets that do not exist. No external tools.
.PHONY: check-docs
check-docs:
	$(GO) test -run 'Doc|Declared' ./internal/telemetry/
	@fail=0; \
	for f in README.md docs/*.md; do \
		dir=$$(dirname "$$f"); \
		for link in $$(grep -oE '\]\([^)#[:space:]]+' "$$f" | sed 's/](//'); do \
			case "$$link" in http://*|https://*) continue;; esac; \
			if [ ! -e "$$dir/$$link" ]; then echo "$$f: broken link -> $$link"; fail=1; fi; \
		done; \
	done; \
	if [ "$$fail" -ne 0 ]; then exit 1; fi; \
	echo "check-docs: links ok"

# Short bursts of every fuzz target; regression seeds live in testdata/.
# FuzzDispatch's bytes are positional choices the minimizer cannot shorten,
# so its minimization budget is capped (the default is a minute per input).
FUZZTIME ?= 30s
.PHONY: fuzz
fuzz:
	$(GO) test -fuzz=FuzzParseFive -fuzztime=$(FUZZTIME) ./internal/flow/
	$(GO) test -fuzz=FuzzDecodeQuery -fuzztime=$(FUZZTIME) ./internal/wire/
	$(GO) test -fuzz=FuzzDecodeResponse -fuzztime=$(FUZZTIME) ./internal/wire/
	$(GO) test -fuzz=FuzzParsePolicy -fuzztime=$(FUZZTIME) ./internal/pf/
	$(GO) test -fuzz=FuzzDispatch -fuzztime=$(FUZZTIME) -fuzzminimizetime=10x ./internal/pf/
	$(GO) test -fuzz=FuzzDecodeHello -fuzztime=$(FUZZTIME) ./internal/wire/
	$(GO) test -fuzz=FuzzParseCredential -fuzztime=$(FUZZTIME) ./internal/cred/

# Compile every example's .control files through pfcheck (with -explain,
# so the compiler's lowering and key analysis run too): example configs
# cannot silently rot. branch-collab's two files are independent
# per-controller policies, checked one by one exactly as the example
# deploys them; every other example is a §3.4 concatenated directory.
.PHONY: check-examples
check-examples:
	@for d in examples/quickstart examples/skype-policy examples/trust-delegation examples/research-delegation; do \
		echo "pfcheck -explain -dir $$d"; \
		$(GO) run ./cmd/pfcheck -explain -dir $$d >/dev/null || exit 1; \
	done
	@for f in examples/branch-collab/*.control; do \
		echo "pfcheck -explain $$f"; \
		$(GO) run ./cmd/pfcheck -explain $$f >/dev/null || exit 1; \
	done
