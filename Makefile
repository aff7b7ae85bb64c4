GO ?= go

.PHONY: build test check fmt vet race bench bench-snapshot bench-diff chaos fuzz docs-check resume-smoke cli-golden

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# check is the pre-commit gate: build, vet, formatting, full tests, the
# race-detector pass over the concurrency-heavy packages, the
# checkpoint/resume smoke, the CLI goldens, and the docs-vs-code lint.
check: build vet fmt test race resume-smoke cli-golden docs-check

vet:
	$(GO) vet ./...

fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# The second pass forces multi-core scheduling so the Workers>1 parity
# tests race the sharded generators and handler fan-out for real — for the
# BFS engine, the kernel fan-outs, the chaos x width parity sweep, and the
# kill-everywhere checkpoint/resume sweep.
race:
	$(GO) test -race ./internal/obs/... ./internal/core/... ./internal/algos/...
	GOMAXPROCS=4 $(GO) test -race -run 'Workers|Resume|Checkpoint' ./internal/core/ ./internal/algos/ ./internal/chaos/

bench:
	$(GO) test -bench=. -benchmem .

# docs-check fails when docs and code drift: broken intra-repo markdown
# links, or a cmd/ flag no markdown file mentions.
docs-check:
	$(GO) run ./cmd/docscheck .

# chaos sweeps the fault-injection harness (20 seeded random plans plus
# the targeted fault scenarios) under the race detector. See docs/CHAOS.md.
chaos:
	$(GO) test -race -run TestChaos -v ./internal/chaos/

# fuzz gives each fuzz target a short budget on top of its committed seed
# corpus — a smoke pass, not a soak; raise FUZZTIME for a real session.
FUZZTIME ?= 10s
fuzz:
	$(GO) test -run='^$$' -fuzz='^FuzzEnvelopeRoundTrip$$' -fuzztime=$(FUZZTIME) ./internal/comm/
	$(GO) test -run='^$$' -fuzz='^FuzzCodecRoundTrip$$' -fuzztime=$(FUZZTIME) ./internal/comm/
	$(GO) test -run='^$$' -fuzz=FuzzBitmapWordScan -fuzztime=$(FUZZTIME) ./internal/graph/
	$(GO) test -run='^$$' -fuzz='^FuzzBuildCSR$$' -fuzztime=$(FUZZTIME) ./internal/graph/
	$(GO) test -run='^$$' -fuzz='^FuzzReadEdgesText$$' -fuzztime=$(FUZZTIME) ./internal/graph/
	$(GO) test -run='^$$' -fuzz='^FuzzReadCSR$$' -fuzztime=$(FUZZTIME) ./internal/graph/
	$(GO) test -run='^$$' -fuzz='^FuzzValidate$$' -fuzztime=$(FUZZTIME) ./internal/graph500/
	$(GO) test -run='^$$' -fuzz='^FuzzResume$$' -fuzztime=$(FUZZTIME) ./internal/core/
	$(GO) test -run='^$$' -fuzz=FuzzCheckpointRoundTrip -fuzztime=$(FUZZTIME) ./internal/ckpt/

# resume-smoke drives the full CLI walkthrough of docs/CHAOS.md: kill a
# graph500 run mid-level, resume it from the abort checkpoint, and fail
# unless the resumed result validates.
resume-smoke:
	@dir=$$(mktemp -d) && trap 'rm -rf "$$dir"' EXIT && \
	$(GO) run ./cmd/graph500 -scale 10 -nodes 8 -roots 1 -seed 42 \
		-checkpoint-every 1 -checkpoint "$$dir/smoke.ckpt.json" \
		-chaos-plan 'kill@3:l2:data/forward:0' >/dev/null 2>&1; \
	test -s "$$dir/smoke.ckpt.json" || { echo "resume-smoke: no checkpoint written"; exit 1; } && \
	$(GO) run ./cmd/graph500 -scale 10 -nodes 8 -seed 42 -resume "$$dir/smoke.ckpt.json" \
		| grep -q 'validation: *ok' && echo "resume-smoke: ok"

# cli-golden pins both CLIs' default-flag stdout to the committed goldens
# (swbfs-bench also at -workers 3, which must not change a digit; graph500
# minus its host-timed construction_time line), and checks that
# -cpuprofile covers every graph500 mode, the sssp kernel and -resume
# included, by demanding a non-empty profile from each.
cli-golden:
	@set -e; dir=$$(mktemp -d); trap 'rm -rf "$$dir"' EXIT; \
	$(GO) build -o "$$dir/graph500" ./cmd/graph500; \
	$(GO) build -o "$$dir/swbfs-bench" ./cmd/swbfs-bench; \
	"$$dir/swbfs-bench" -quick all | diff -u cmd/swbfs-bench/testdata/quick-all.golden -; \
	"$$dir/swbfs-bench" -quick -workers 3 all | diff -u cmd/swbfs-bench/testdata/quick-all.golden -; \
	"$$dir/graph500" -scale 10 -nodes 8 -super 4 -roots 4 | grep -v '^construction_time:' \
		| diff -u cmd/graph500/testdata/scale10.golden -; \
	"$$dir/graph500" -scale 9 -nodes 4 -roots 2 -kernel sssp -cpuprofile "$$dir/sssp.pprof" >/dev/null; \
	test -s "$$dir/sssp.pprof" || { echo "cli-golden: -kernel sssp -cpuprofile wrote no profile"; exit 1; }; \
	"$$dir/graph500" -scale 10 -nodes 8 -roots 1 -seed 42 -checkpoint-every 1 -checkpoint "$$dir/c.json" \
		-chaos-plan 'kill@3:l2:data/forward:0' >/dev/null 2>&1 || true; \
	"$$dir/graph500" -scale 10 -nodes 8 -seed 42 -resume "$$dir/c.json" -cpuprofile "$$dir/resume.pprof" >/dev/null 2>&1; \
	test -s "$$dir/resume.pprof" || { echo "cli-golden: -resume -cpuprofile wrote no profile"; exit 1; }; \
	echo "cli-golden: ok"

# bench-snapshot runs the standard sweep and writes the next BENCH_<n>.json
# in the repo root; bench-diff compares the newest two snapshots and fails
# on a GTEPS regression beyond the default threshold. Workflow: snapshot on
# a known-good commit, change code, snapshot again, diff.
bench-snapshot:
	$(GO) run ./cmd/benchtrend

bench-diff:
	$(GO) run ./cmd/benchtrend -compare-latest
