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
# One gather: a controller asks every daemon by completion, through
# core.QueryTransport's QueryAsync (or the engine's traced face), and nothing
# selects another way. Config.AsyncQueries is declared only because the
# benchmark module (bench/) still names it; any other Go in this module that
# names it, tests included, is a mode coming back. So is a blocking `.Query(`
# call in internal/core's program code.
#
# Revocation is not a mode: every controller keeps its verdicts revocable.
# Config.Revocation is declared only because bench/ still names it; a
# `Revocation:` field or a `.Revocation` selector in any other Go of this
# module, tests included, is the switch coming back. Prose ("Revocation:"
# opening a comment, "Revocation plane" in a title) is not a field.
#
# Every controller installs what it decides: a verdict is cached as flow
# entries along the path, so only a flow's first packet punts.
# Config.InstallEntries is declared only because bench/ still names it; an
# `InstallEntries:` field or an `.InstallEntries` selector in any other Go
# of this module, tests included, is the no-install mode coming back.
#
# One place a punt's tuple is derived: a switch decodes its frame, in
# process (openflow.Switch) or at the controller's end of the secure channel
# (openflow.ChannelServer), so every controller is handed PacketIn.Tuple. A
# `.Ten(` anywhere else in the program is another receiver re-deriving it.
#
# No unsafe where the decision path shares memory: a connection's reader
# shares one decoded body's sections among every response that repeats it,
# and a dropped revocation record's paths are shared by every record along
# the route. That holds because each is a copy nothing writes again — not a
# view of a read buffer or of a record that is recycled. An `unsafe` import
# in internal/wire, query, core or revoke is a zero-copy alias that a reused
# buffer could change under its reader.
#
# One face for the query plane: the controller asks Config.Transport through
# core.QueryPlane (the traced query and each host's Standing), resolved once
# in core.New, and the engine asks its lower through query.Lower, which has
# every method the engine needs. internal/core's TestQueryPlaneSeam type-checks
# the program code of internal/core and internal/query and fails on any
# assertion of a value to an interface type but New's one fallback to the
# plain adapter (an error's chain walk is exempt). The optional faces that
# seam had — a credential checker, an update-stream probe, the engine's
# credential and update sources — failing by name, tests included, is
# their coming back.
#
# One assembly: a controller over the query plane is built subscribed to
# its daemons' updates (query.Engine.Controller), and the simulator builds,
# subscribes and attaches each of its controllers in one call
# (netsim.Network.Controller). A `core.New(`, `.SetUpdateHandler(`,
# `AttachController(` or `.Transport(` in the program code of the
# experiments or the examples is a controller wired by hand, and a
# `.SetUpdateHandler(` in program code outside internal/query and
# internal/netsim is a subscription made beside the one call — leave either
# out and a controller runs a mode identctl never runs.
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
	@out="$$(grep -rnw 'AsyncQueries' --include='*.go' . | grep -v '^\./bench/' | grep -vE '^\./internal/core/controller\.go:[0-9]+:[[:space:]]*(//.*|AsyncQueries bool)$$')"; \
	if [ -n "$$out" ]; then echo "a gather selected by Config.AsyncQueries:"; echo "$$out"; exit 1; fi
	@out="$$(grep -rnE '(^|[{,(])[[:space:]]*Revocation:|\.Revocation([^[:alnum:]_]|$$)' --include='*.go' . | grep -v '^\./bench/')"; \
	if [ -n "$$out" ]; then echo "revocation selected by Config.Revocation:"; echo "$$out"; exit 1; fi
	@out="$$(grep -rnE '(^|[{,(])[[:space:]]*InstallEntries:|\.InstallEntries([^[:alnum:]_]|$$)' --include='*.go' . | grep -v '^\./bench/')"; \
	if [ -n "$$out" ]; then echo "installs selected by Config.InstallEntries:"; echo "$$out"; exit 1; fi
	@out="$$(grep -nE '\.Query\(' internal/core/*.go | grep -v '_test\.go:')"; \
	if [ -n "$$out" ]; then echo "a blocking query in internal/core:"; echo "$$out"; exit 1; fi
	@out="$$(grep -rnE '\.Ten\(' --include='*.go' internal cmd examples | grep -vE '^internal/(openflow|packet)/|_test\.go:')"; \
	if [ -n "$$out" ]; then echo "a tuple derived outside internal/openflow:"; echo "$$out"; exit 1; fi
	@out="$$(grep -nE '^[[:space:]]*(import[[:space:]]+)?([[:alnum:]_.]+[[:space:]]+)?"unsafe"' internal/wire/*.go internal/query/*.go internal/core/*.go internal/revoke/*.go | grep -v '_test\.go:')"; \
	if [ -n "$$out" ]; then echo "unsafe where the decision path shares memory:"; echo "$$out"; exit 1; fi
	@out="$$($(GO) test -count=1 -run '^TestQueryPlaneSeam$$' ./internal/core/ 2>&1)" || { echo "an optional face asserted on the query plane:"; echo "$$out"; exit 1; }
	@out="$$(grep -rnwE 'CredentialChecker|updateStreams|credSource|updateSource' --include='*.go' . | grep -v '^\./bench/')"; \
	if [ -n "$$out" ]; then echo "a probed query-plane face came back:"; echo "$$out"; exit 1; fi
	@out="$$(grep -rnE 'core\.New\(|\.SetUpdateHandler\(|AttachController\(|\.Transport\(' --include='*.go' internal/experiments examples | grep -v '_test\.go:')"; \
	if [ -n "$$out" ]; then echo "a controller wired by hand:"; echo "$$out"; exit 1; fi
	@out="$$(grep -rn '\.SetUpdateHandler(' --include='*.go' . | grep -v '_test\.go:' | grep -vE '^\./internal/(query|netsim)/')"; \
	if [ -n "$$out" ]; then echo "an update subscription outside the one call:"; echo "$$out"; exit 1; fi
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
# fresh derivation (the daemon's per-process answers included). One memo
# holds flows and listener scopes, so its re-check, rescan and eviction serve
# both kinds: every change kind's update stream (TestAnswersFollowEveryChange,
# listener cases included) and the eviction of either kind past the bound
# repeat with them.
#
# The simulator and the experiments query real daemon.Servers over loopback
# sockets: their decisions finish, and a daemon's pushed updates reach the
# event queue, on the pool's connection readers. Twenty rolls of both
# packages check that every run still replays the same (netsim's
# TestDeterministicReplay, and each experiment's golden table).
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
	$(GO) test -race -count=20 -run 'Stress|Megaflow|Takeover|Revo|Redecide|Install|TearsDown|ClassLease|LeaseFallback|DuplicatesPark|HeldAnswer' ./internal/core/
	$(GO) test -race -count=20 ./internal/revoke/
	$(GO) test -race -count=20 -run 'ChangeBetweenAnswerAndMemo|ConcurrentAnswers|AnswersFollowEveryChange|AnsweredMemoBounded' ./internal/daemon/
	$(GO) test -race -count=20 ./internal/netsim ./internal/experiments
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
		-max-allocs 'BenchmarkM9_QueryPlane/async=0' \
		-max-bytes 'BenchmarkM9_QueryPlane/async=4' \
		-max-allocs 'BenchmarkM9_QueryPlane/daemon-down=0' \
		-max-allocs 'BenchmarkM9_QueryPlane/scoped-miss=0' \
		-max-allocs 'BenchmarkM10_PolicyEval/compiled=2' \
		-max-bytes 'BenchmarkM10_Compile/2000=1600000' \
		-max-allocs 'BenchmarkM11_Revocation/no-subscribers=2' \
		-max-allocs 'BenchmarkM11_Revocation/teardown=8' \
		-max-allocs 'BenchmarkM11_Revocation/update-wire=0' \
		-max-allocs 'BenchmarkM11_Revocation/register-drop=0' \
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
	$(GO) test -fuzz=FuzzDecodeUpdate -fuzztime=$(FUZZTIME) ./internal/wire/
	$(GO) test -fuzz=FuzzParseCredential -fuzztime=$(FUZZTIME) ./internal/cred/
	$(GO) test -fuzz=FuzzDecodeEvent -fuzztime=$(FUZZTIME) ./internal/cluster/
	$(GO) test -fuzz=FuzzChannelPacketIn -fuzztime=$(FUZZTIME) ./internal/openflow/

# Compile every example's .control files through pfcheck (with -explain,
# so the compiler's lowering and key analysis run too): example configs
# cannot silently rot. branch-collab's two files are independent
# per-controller policies, checked one by one exactly as the example
# deploys them; every other example is a §3.4 concatenated directory.
# Then run every example: each decides its flows on the query pool's
# connection readers against real daemons on loopback, and nothing else
# runs them. A non-zero exit, a panic or a run past 120 s fails: an
# example takes a few seconds, so only a hung decision reaches the bound.
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
	@for d in examples/*/; do \
		echo "go run ./$$d"; \
		out="$$(timeout 120 $(GO) run ./$$d 2>&1)"; rc=$$?; \
		if [ $$rc -ne 0 ] || printf '%s\n' "$$out" | grep -q '^panic:'; then \
			printf '%s\n' "$$out"; echo "$$d: exit status $$rc"; exit 1; \
		fi; \
	done
