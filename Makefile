GO ?= go

.PHONY: build test race vet fmt lint lint-json lint-fast bench bench-cached bench-fanout bench-quick bench-compare alloc-pins bench-identity serve serve-smoke cluster-smoke screeners-smoke check

## build: compile every package
build:
	$(GO) build ./...

## test: tier-1 test suite
test:
	$(GO) test ./...

## race: test suite under the race detector
race:
	$(GO) test -race ./...

## vet: go vet over the module
vet:
	$(GO) vet ./...

## fmt: fail if any file needs gofmt
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

## lint: sdclint determinism & safety pass (see DESIGN.md)
lint:
	$(GO) run ./cmd/sdclint ./...

## lint-json: the same pass with machine-readable output (sorted, stable —
## byte-identical across runs over the same tree)
lint-json:
	$(GO) run ./cmd/sdclint -json ./...

## lint-fast: sdclint over only the packages with changed Go files (working
## tree + last commit); testdata fixtures are excluded — they contain
## deliberate findings
lint-fast:
	@dirs=$$( (git diff --name-only HEAD~1 -- '*.go' 2>/dev/null; \
	           git diff --name-only -- '*.go'; \
	           git ls-files --others --exclude-standard -- '*.go') \
	          | grep -v testdata | xargs -r -n1 dirname | sort -u); \
	pkgs=""; for d in $$dirs; do [ -d "$$d" ] && pkgs="$$pkgs ./$$d"; done; \
	if [ -z "$$pkgs" ]; then echo "lint-fast: no changed Go packages"; exit 0; fi; \
	echo "sdclint$$pkgs"; $(GO) run ./cmd/sdclint $$pkgs

## bench: paper-scale sdcbench run with a timing/allocs JSON report
bench:
	$(GO) run ./cmd/sdcbench -n 1000000 -o bench_report.txt -json

## bench-cached: bench reusing the content-addressed result cache; warm
## reruns serve unchanged entries from .farron-cache and report hit counts
bench-cached:
	$(GO) run ./cmd/sdcbench -n 1000000 -o bench_report.txt -json -cache

## bench-fanout: bench distributed over 4 worker subprocesses; output is
## byte-identical to the serial run, the JSON adds per-worker accounting
bench-fanout:
	$(GO) run ./cmd/sdcbench -n 1000000 -o bench_report.txt -json -fanout 4

## bench-quick: quick-scale bench smoke with a JSON report at a throwaway
## path — the fast schema/regression probe CI runs on every push
bench-quick:
	$(GO) run ./cmd/sdcbench -quick -o /dev/null -jsonpath bench_quick.json

## bench-compare: hot-path micro-benchmarks at BASE (default HEAD~1, via a
## throwaway worktree) vs the working tree, compared with benchstat when
## installed, side by side otherwise
BASE ?= HEAD~1
BENCHES ?= BenchmarkRunnerStep|BenchmarkRunTestcase|BenchmarkScreenCPU|BenchmarkStatsColumnar
bench-compare:
	@rm -rf /tmp/farron-bench-base
	git worktree add -q --detach /tmp/farron-bench-base $(BASE)
	cd /tmp/farron-bench-base && $(GO) test -run '^$$' -bench '$(BENCHES)' -benchmem -count 6 \
		./internal/testkit ./internal/fleet ./internal/stats > /tmp/farron-bench-old.txt 2>/dev/null || \
		$(GO) test -run '^$$' -bench '$(BENCHES)' -benchmem -count 6 \
		./internal/testkit ./internal/fleet > /tmp/farron-bench-old.txt
	$(GO) test -run '^$$' -bench '$(BENCHES)' -benchmem -count 6 \
		./internal/testkit ./internal/fleet ./internal/stats > /tmp/farron-bench-new.txt
	git worktree remove --force /tmp/farron-bench-base
	@if command -v benchstat >/dev/null 2>&1; then \
		benchstat /tmp/farron-bench-old.txt /tmp/farron-bench-new.txt; \
	else \
		echo "benchstat not installed; raw results:"; \
		echo "--- old ($(BASE)) ---"; grep '^Benchmark' /tmp/farron-bench-old.txt; \
		echo "--- new (worktree) ---"; grep '^Benchmark' /tmp/farron-bench-new.txt; \
	fi

## alloc-pins: the allocation regression pins (run twice to shake out
## warm-up effects) — the compiled run path, the per-round screening walk
## and the columnar stats reductions must stay allocation-free, Farron's
## online loop must not allocate more for a longer run, a regular round's
## bytes must not grow with its SDC count, and fleet profile generation
## must not allocate more than its pinned count
alloc-pins:
	$(GO) test -run 'TestRunStepAllocs|TestScreenCPUAllocs|TestStatsColumnarAllocs|TestPlanDetectAllocs|TestOnlineAllocs|TestRegularRoundBytesIndependentOfSDCs|TestFleetFaultyAllocs' \
		-count=2 ./internal/testkit ./internal/fleet ./internal/stats ./internal/core ./internal/defect

## bench-identity: the paper-scale report must regenerate byte-identical to
## the committed bench_report.txt — the guard for every hot-path change
bench-identity:
	$(GO) build -o /tmp/sdcbench ./cmd/sdcbench
	/tmp/sdcbench -n 1000000 -o /tmp/bench_report.txt
	cmp /tmp/bench_report.txt bench_report.txt
	@echo "bench-identity: bench_report.txt regenerates byte-identical"

## serve: run the continuous screening service with its status API on
## :8731, one virtual day per wall second (ctrl-C shuts down cleanly)
serve:
	$(GO) run ./cmd/sdcserve -serve-addr 127.0.0.1:8731 -campaign-period 24h -sim-speed 86400

## serve-smoke: headless determinism check — two sdcserve runs at the same
## seed but different worker budgets must emit byte-identical campaign
## histories
serve-smoke:
	$(GO) build -o /tmp/sdcserve ./cmd/sdcserve
	/tmp/sdcserve -quick -seed 7 -n 20000 -steps 4 -history-out /tmp/sdcserve-h1.json
	/tmp/sdcserve -quick -seed 7 -n 20000 -steps 4 -workers 4 -history-out /tmp/sdcserve-h2.json
	cmp /tmp/sdcserve-h1.json /tmp/sdcserve-h2.json
	@echo "serve-smoke: campaign histories byte-identical"

## cluster-smoke: cluster determinism check — an sdcfleet run distributed
## over two loopback worker daemons must be byte-identical to the serial
## run, and a rerun against the killed daemons must degrade to local
## recompute with the same bytes (daemons are killed before any diff so a
## failing assertion cannot leak processes)
cluster-smoke:
	$(GO) build -o /tmp/sdcfleet ./cmd/sdcfleet
	/tmp/sdcfleet -quick -seed 7 -workers 1 > /tmp/fleet-serial.txt
	/tmp/sdcfleet -serve 127.0.0.1:19401 & echo $$! > /tmp/sdcfleet-d1.pid
	/tmp/sdcfleet -serve 127.0.0.1:19402 & echo $$! > /tmp/sdcfleet-d2.pid
	sleep 1
	/tmp/sdcfleet -quick -seed 7 -hosts 127.0.0.1:19401,127.0.0.1:19402 > /tmp/fleet-cluster.txt
	kill $$(cat /tmp/sdcfleet-d1.pid) $$(cat /tmp/sdcfleet-d2.pid)
	/tmp/sdcfleet -quick -seed 7 -hosts 127.0.0.1:19401,127.0.0.1:19402 > /tmp/fleet-dead.txt 2> /tmp/fleet-dead.log
	diff /tmp/fleet-serial.txt /tmp/fleet-cluster.txt
	diff /tmp/fleet-serial.txt /tmp/fleet-dead.txt
	grep -q recomputing /tmp/fleet-dead.log
	@echo "cluster-smoke: cluster bytes identical; daemon loss degraded to local recompute"

## screeners-smoke: screening-strategy determinism check — every -screener
## strategy double-runs at quick scale and each pair must be byte-identical
## (the evolving-corpus and inline strategies are deterministic too, not
## just the fixed kits)
screeners-smoke:
	$(GO) build -o /tmp/sdcfleet ./cmd/sdcfleet
	@for s in farron baseline silifuzz ithica; do \
		echo "screeners-smoke: $$s"; \
		/tmp/sdcfleet -quick -seed 7 -workers 1 -screener $$s > /tmp/fleet-$$s-a.txt || exit 1; \
		/tmp/sdcfleet -quick -seed 7 -workers 4 -screener $$s > /tmp/fleet-$$s-b.txt || exit 1; \
		cmp /tmp/fleet-$$s-a.txt /tmp/fleet-$$s-b.txt || exit 1; \
	done
	@echo "screeners-smoke: all strategies byte-identical across double runs"

## check: everything CI runs — the one-command tier-1 verify
check: build vet fmt test race lint
