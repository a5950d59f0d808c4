# The tier-1 verification recipe (ROADMAP.md): build, vet, the full test
# suite, and the race detector over the concurrency-heavy packages.  `make
# check` is the one command every change must keep green.

GO ?= go

RACE_PKGS := ./internal/server/... ./internal/core/... ./internal/corpus/... \
	./internal/obs/... ./internal/metrics/... ./internal/cache/... \
	./internal/join/... ./internal/index/... ./internal/ingest/... ./internal/remote/... \
	./internal/httpmw/... ./internal/trie/... ./internal/fanout/... ./cmd/lotusx-server/...

.PHONY: check build vet test race api-check bench-check loc bench profile clean

check: build vet test race api-check bench-check

# The API contract gate: the served route table, response envelopes and
# metrics payloads must match internal/server/testdata/api_contract.golden,
# every serving configuration's Prometheus families must match
# prometheus_families.golden beside it, and docs/OBSERVABILITY.md must list
# exactly those families.  After an intentional change, regenerate with:
#   go test ./internal/server/ -run 'TestAPIContract|TestPrometheusLint' -update
api-check:
	$(GO) test ./internal/server/ -run 'TestAPIContract|TestPrometheusLint|TestObservabilityDocsListEveryFamily'

# benchmark/ is its own module, out of reach of the ./... recipes above: vet
# it and run its smoke tests (-short skips the ones that start live servers).
bench-check:
	cd benchmark && $(GO) vet . && $(GO) test -short .

# Non-test Go lines outside benchmark/, per top-level package and in total:
# the number ROADMAP item 9 (target <= 22,900) is measured with.  CI prints
# it on every PR.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' ! -path './.bench_build/*' -print0 \
		| xargs -0 wc -l \
		| awk '$$2 != "total" { n = split($$2, p, "/"); \
			pkg = n <= 2 ? "." : (n == 3 ? p[2] : p[2] "/" p[3]); \
			lines[pkg] += $$1; total += $$1 } \
			END { for (pkg in lines) printf "%7d %s\n", lines[pkg], pkg | "sort -k2"; \
			close("sort -k2"); printf "%7d total\n", total }'

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race $(RACE_PKGS)

# The experiment suite (E1–E11, E14, E17, A1–A3): prints its tables and
# writes no files.  SCALE sweeps dataset size.  The live-server benchmark is
# benchmark/ (see BENCHMARK.json).
SCALE ?= 1
bench:
	$(GO) run ./cmd/lotusx-bench -scale $(SCALE)

# CPU-profile a live server: serve XMark sharded with the debug listener on,
# drive workload query Q5 at it, and capture /debug/pprof/profile into
# profile.pb.gz.  Inspect with `go tool pprof profile.pb.gz`.
PROFILE_SECONDS ?= 5
profile:
	@mkdir -p bin && $(GO) build -o bin/lotusx-server ./cmd/lotusx-server
	@bin/lotusx-server -dataset xmark -scale $(SCALE) -shards 4 -quiet \
		-addr 127.0.0.1:18080 -debug-addr 127.0.0.1:16060 & \
	SRV=$$!; trap 'kill $$SRV 2>/dev/null' EXIT INT TERM; sleep 1; \
	( while kill -0 $$SRV 2>/dev/null; do \
		curl -s -o /dev/null -X POST -H 'Content-Type: application/json' \
			-d '{"query":"//item[description//text contains \"vintage\"]/name","k":100}' \
			http://127.0.0.1:18080/api/v1/query; \
	done ) & LOAD=$$!; \
	echo "profiling $(PROFILE_SECONDS)s of query load..."; \
	curl -s -o profile.pb.gz \
		"http://127.0.0.1:16060/debug/pprof/profile?seconds=$(PROFILE_SECONDS)"; \
	kill $$LOAD $$SRV 2>/dev/null; trap - EXIT INT TERM; \
	echo "wrote profile.pb.gz — inspect with: go tool pprof profile.pb.gz"

clean:
	$(GO) clean ./...
	rm -rf bin profile.pb.gz
