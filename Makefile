GO ?= go
FUZZTIME ?= 20s
# COVER_MIN gates `make coverage`: total statement coverage must not drop
# below this floor (measured baseline is 81.8%; the floor sits a little
# under it so unrelated churn doesn't flake the gate).
COVER_MIN ?= 80.0

.PHONY: build test race vet fmt bench benchsmoke benchtest benchgate liverepeat obs-smoke servesmoke mutatesmoke check fuzzsmoke coverage

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

# check is the CI gate: formatting, static analysis, the full suite under
# the race detector (the parallel query pipeline is enabled by default, so
# every test exercises the concurrent paths), then the benchmark's tests.
check: fmt vet race benchtest

# liverepeat runs the tests of the live pipeline (front end, dispatcher,
# worker loop, crash recovery) ten times under the race detector: their
# outcomes depend on goroutine timing, and it took that many repetitions to
# find the flakes they once had. About 30 s on two cores.
liverepeat:
	$(GO) test -race -count=10 -run 'TestFrontend|TestLivePipelineEndToEnd|TestQueryProcessorCrashRecovery|TestFaultToleranceIndexerCrash|TestConcurrentQueriesOverLiveFleet|TestErrorQueryReportedThroughResponseQueue|TestDriverStepsOverForeignResponse' ./internal/core/

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

# servesmoke stands the query daemon up on a loopback port, drives a short
# seeded closed-loop loadgen burst against it, asserts zero errors plus a
# live serve.admitted counter on /metrics, then drains it with SIGTERM.
servesmoke:
	$(GO) build -o /tmp/xwh_smoke ./cmd/xwh
	$(GO) build -o /tmp/loadgen_smoke ./cmd/loadgen
	/tmp/xwh_smoke serve -corpus paintings -addr 127.0.0.1:18980 -serve-workers 4 & \
		pid=$$!; \
		/tmp/loadgen_smoke -addr http://127.0.0.1:18980 -wait-ready 30s \
			-requests 40 -concurrency 4 -seed 7 -dist zipf -queries paintings \
			-check-metrics; rc=$$?; \
		kill -TERM $$pid 2>/dev/null; wait $$pid; exit $$rc

# mutatesmoke stands a mutable-corpus daemon up on a loopback port, drives
# a seeded mixed read/write loadgen burst (every 3rd request a document
# write, every 4th write a DELETE), asserts zero errors plus live serve
# metrics, then drains it with SIGTERM.
mutatesmoke:
	$(GO) build -o /tmp/xwh_smoke ./cmd/xwh
	$(GO) build -o /tmp/loadgen_smoke ./cmd/loadgen
	/tmp/xwh_smoke serve -mutable -docs 24 -addr 127.0.0.1:18981 -serve-workers 4 & \
		pid=$$!; \
		/tmp/loadgen_smoke -addr http://127.0.0.1:18981 -wait-ready 30s \
			-requests 48 -concurrency 4 -seed 7 -queries xmark \
			-write-every 3 -write-docs 24 -remove-every 4 \
			-check-metrics; rc=$$?; \
		kill -TERM $$pid 2>/dev/null; wait $$pid; exit $$rc

# fuzzsmoke runs every native fuzz target for FUZZTIME of live mutation on
# top of the checked-in seed corpora. `go test -fuzz` accepts only one
# matching target per invocation, so discover and loop.
fuzzsmoke:
	@for pkg in ./internal/cloud/kv ./internal/idblock ./internal/index ./internal/pattern ./internal/serve ./internal/xmltree; do \
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
