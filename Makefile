GO ?= go
FUZZTIME ?= 20s
# COVER_MIN gates `make coverage`: total statement coverage must not drop
# below this floor (measured baseline is 81.8%; the floor sits a little
# under it so unrelated churn doesn't flake the gate).
COVER_MIN ?= 80.0

.PHONY: build test race vet fmt docsize bench benchsmoke benchtest benchgate papergate liverepeat obs-smoke check fuzzsmoke coverage

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# fmt fails if any file is not gofmt-clean, printing the offenders.
fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

race:
	$(GO) test -race ./...

# benchtest runs the unit tests of the gateable benchmark, which is its own
# module (benchmark/go.mod) and so is not part of ./... here.
benchtest:
	cd benchmark && $(GO) test ./...

# docsize fails when DESIGN.md or EXPERIMENTS.md is longer than its ceiling
# below, so the docs cannot grow. A change that shortens one lowers its
# ceiling to the new count.
DESIGN_MAX_LINES = 1860
EXPERIMENTS_MAX_LINES = 3058
docsize:
	@for f in DESIGN.md:$(DESIGN_MAX_LINES) EXPERIMENTS.md:$(EXPERIMENTS_MAX_LINES); do \
		n=$$(wc -l < $${f%%:*}); if [ $$n -gt $${f##*:} ]; then \
			echo "$${f%%:*} has $$n lines, at most $${f##*:}"; exit 1; fi; \
	done

# check is the CI gate: formatting, static analysis, the docs' ceilings, the
# full suite under the race detector (the document pool and the tests that
# run look-ups and requests side by side exercise the concurrent paths),
# then the benchmark's tests.
check: fmt vet docsize race benchtest

# liverepeat runs the tests of the live pipeline (front end, dispatcher,
# worker loop, crash recovery) and the daemon's slow-client test ten times
# under the race detector: their outcomes depend on goroutine timing, and it
# took that many repetitions to find the flakes the pipeline's once had.
# 7.9 s of test time on two cores for the pipeline (Go 1.24, linux/amd64; an
# idle loop's Stop or Close ends its long poll at once), 3 s for the daemon.
# The scanner's linear-time test compares two wall-clock timings, so it runs
# ten times too, without the race detector, whose slowdown is not the
# scanner's (about 5 s).
liverepeat:
	$(GO) test -race -count=10 -run 'TestFrontend|TestLivePipelineEndToEnd|TestQueryProcessorCrashRecovery|TestFaultToleranceIndexerCrash|TestConcurrentQueriesOverLiveFleet|TestErrorQueryReportedThroughResponseQueue|TestDriverStepsOverForeignResponse|TestIdleLoopsStopPromptly' ./internal/core/
	$(GO) test -race -count=10 -run 'TestTricklingBodyIsCutOff' ./internal/serve/
	$(GO) test -count=10 -run 'TestManyLookalikeNamesStayLinear' ./internal/xmltree/

# bench regenerates benchall_output.txt (untracked; see .gitignore) from
# the full default-scale evaluation. The file is byte-identical from run to
# run: benchall's one clocked line ("done in …") goes to stderr, so it is
# shown on the terminal but not written to the file.
bench:
	$(GO) run ./cmd/benchall | tee benchall_output.txt

# benchgate runs the gateable benchmark for a short, fixed length and holds
# its deterministic metrics to the checked-in reference: every workload must
# report ok_ops_share 1 and the reference's modeled_ms_per_op and
# index_bytes_per_corpus_byte (cmd/benchgate/reference.json; see the command's
# doc for what is printed and not gated, and for -update).
benchgate:
	bash benchmark/run.sh --seed 42 --seconds 5 --trace 0
	$(GO) run ./cmd/benchgate

# papergate prints the paper's whole evaluation at the default scale and
# diffs it against the checked-in golden: every table and figure, byte for
# byte (about 30 s). The tiny scale is held the same way by the suite
# (cmd/benchall's TestGoldenTiny); `go test ./cmd/benchall -update` rewrites
# both goldens when a change moves a number on purpose.
papergate:
	$(GO) run ./cmd/benchall | diff -u cmd/benchall/testdata/default.golden -

# benchsmoke runs every Go benchmark exactly once — the CI smoke check
# that the benchmark harness itself still works.
benchsmoke:
	$(GO) test -bench . -benchtime 1x -run xxx ./...

# obs-smoke boots a small mutable warehouse, runs one query and a short
# serve-mixed-rw-style write walk, scrapes the Prometheus exporter once over
# HTTP, verifies the payload parses and that the index store's kv.arena.*
# metrics (live and dead bytes, chunks, rewrites) are all non-zero and that
# the query built some, but not all, of the nodes it scanned
# (xmltree.nodes.built < xmltree.nodes.scanned).
obs-smoke:
	$(GO) run ./cmd/xwh -mutable -compact-every 4 -docs 16 -strategy 2LUPI -query '//item[/name{val}]' -obs-smoke

# fuzzsmoke runs every native fuzz target for FUZZTIME of live mutation on
# top of the checked-in seed corpora. `go test -fuzz` accepts only one
# matching target per invocation, so discover and loop: every package of
# the module, every target its tests list, so a new target cannot be missed.
fuzzsmoke:
	@for pkg in $$($(GO) list ./...); do \
		for target in $$($(GO) test -list '^Fuzz' $$pkg | grep '^Fuzz'); do \
			echo "fuzz $$pkg $$target"; \
			$(GO) test $$pkg -run="^$$target$$" -fuzz="^$$target$$" -fuzztime=$(FUZZTIME) || exit 1; \
		done; \
	done

# coverage measures total statement coverage across all packages and fails
# if it drops below COVER_MIN.
coverage:
	$(GO) test -coverprofile=coverage.out -coverpkg=./... ./...
	@total=$$($(GO) tool cover -func=coverage.out | awk '/^total:/ {sub(/%/, "", $$3); print $$3}'); \
	echo "total coverage: $$total% (floor $(COVER_MIN)%)"; \
	awk -v t="$$total" -v m="$(COVER_MIN)" 'BEGIN { exit (t+0 >= m+0) ? 0 : 1 }' || \
		{ echo "coverage $$total% fell below the $(COVER_MIN)% floor"; exit 1; }
