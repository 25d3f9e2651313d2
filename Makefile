GO ?= go
BENCH_PATTERN ?= .
BENCH_TIME ?= 1s
DATE := $(shell date +%Y%m%d)

.PHONY: all build test bench bench-snapshot bench-check lint vet fmt drevet no-encoding-xml fuzz-smoke cross-arch serve smoke-server chaos-smoke

all: build

build:
	$(GO) build ./...

test:
	$(GO) vet ./...
	$(GO) test -race ./...

# serve runs the validation server on the default port (override with
# ADDR=:9999 make serve).
ADDR ?= :8480
serve:
	$(GO) run ./cmd/dregexd -addr $(ADDR)

# smoke-server builds the real dregexd binary, boots it, registers a
# schema, validates one good and one bad document through the Go client,
# and asserts /v1/stats reports a cache hit (see TestDregexdSmoke); CI
# invokes this on every push.
smoke-server:
	$(GO) test -race -run TestDregexdSmoke -v ./cmd/dregexd

# chaos-smoke runs the fault-injection suite (see cmd/dregexd/chaos_test.go):
# a race-enabled dregexd built with -tags faultinject, every fault point
# armed via DREGEX_FAULTS, hammered by concurrent overload plus hot swaps,
# then SIGTERMed mid-load. Every response must be a correct verdict or a
# well-formed 429/503/500; CI invokes this on every push.
chaos-smoke:
	$(GO) test -race -tags faultinject -run TestDregexdChaos -v ./cmd/dregexd

# fuzz-smoke runs the front-end fuzz targets briefly (seed corpus
# plus a short random exploration); CI invokes this on every push.
FUZZTIME ?= 10s
fuzz-smoke:
	$(GO) test -run xxx -fuzz FuzzScanDecls -fuzztime $(FUZZTIME) ./internal/dtd
	$(GO) test -run xxx -fuzz FuzzXSDContentModel -fuzztime $(FUZZTIME) ./internal/xsd
	$(GO) test -run xxx -fuzz FuzzXMLTok -fuzztime $(FUZZTIME) ./internal/xmltok
	$(GO) test -run xxx -fuzz FuzzLexer -fuzztime $(FUZZTIME) .
	$(GO) test -run xxx -fuzz FuzzCompile -fuzztime $(FUZZTIME) .
	$(GO) test -run xxx -fuzz FuzzValidateDoc -fuzztime $(FUZZTIME) ./internal/validate

# cross-arch runs xmltok's word-at-a-time scan off amd64: the tokenizer
# and validation tests on a 32-bit target, and a vet of the tokenizer for a
# big-endian one. CI invokes this on every push.
cross-arch:
	GOARCH=386 $(GO) test ./internal/xmltok ./internal/validate
	GOARCH=s390x $(GO) vet ./internal/xmltok

# bench runs the Go benchmark sweep and the benchtab experiment tables,
# snapshotting both into BENCH_<date>.json for cross-PR comparison. The
# sweep covers the root package plus the validator hot path (server
# handlers, the xmltok tokenizer and the validation driver); the ladder
# experiment prints the engine sweep Auto's cutoffs are read from.
BENCH_PKGS := . ./internal/server ./internal/xmltok ./internal/validate
bench:
	@mkdir -p .bench_build
	$(GO) test -run xxx -bench '$(BENCH_PATTERN)' -benchtime $(BENCH_TIME) -benchmem $(BENCH_PKGS) \
		| tee .bench_build/dregex_bench.txt
	$(GO) run ./cmd/benchtab -exp e1,e5,e7,e9,ladder | tee .bench_build/dregex_benchtab.txt
	@printf '{\n  "date": "%s",\n  "go": "%s",\n  "bench": %s,\n  "benchtab": %s\n}\n' \
		"$(DATE)" \
		"$$($(GO) version | cut -d' ' -f3)" \
		"$$(python3 -c 'import json,sys;print(json.dumps(open(".bench_build/dregex_bench.txt").read()))' 2>/dev/null || echo '""')" \
		"$$(python3 -c 'import json,sys;print(json.dumps(open(".bench_build/dregex_benchtab.txt").read()))' 2>/dev/null || echo '""')" \
		> BENCH_$(DATE).json
	@echo "wrote BENCH_$(DATE).json"

# bench-snapshot regenerates the committed BENCH_<date>.json snapshot (the
# name PRs are expected to use before committing fresh numbers).
bench-snapshot: bench

# Pinned hot-path benchmarks: the 0/1-alloc steady-state paths, the
# dense-table tier, the validation driver (ValidateWide, ValidateIDs,
# ValidateCounted), and the compile path (CompileSource, MatcherFresh),
# whose allocations must not grow with the expression again. bench-check runs just these, wraps the output in a
# snapshot, and diffs it against the newest committed BENCH_*.json with the
# regression gate: >25% worse on a gated metric (or any movement off a
# pinned zero) fails. CI gates the allocation metrics only — B/op and
# allocs/op are machine-independent, while ns/op across runner generations
# is not; run `make bench-check GATE_UNITS=` locally on the machine that
# wrote the baseline to gate time too. The pinned run turns asynchronous
# preemption off: the runtime allocates a few KB around it, which landed
# as 2-5 B/op on 0-allocs/op benchmarks in about one run in ten, while a
# real allocation on a pinned path still reads as one.
BENCH_PINNED := MatcherFresh|CompileSource|MatcherCached|MatchWordInterned|MatchAllCached|CacheGet|NumericStreamInterned|TableVsKore|ServerValidateE2E|ServerValidateMetrics|ServerValidateLimited|XMLTok|ParseWord|LexerStream|ValidateWide|ValidateIDs|ValidateCounted
BENCH_BASELINE := $(lastword $(sort $(wildcard BENCH_*.json)))
GATE_UNITS ?= B/op,allocs/op
bench-check:
	@test -n "$(BENCH_BASELINE)" || { echo "no committed BENCH_*.json baseline"; exit 1; }
	@mkdir -p .bench_build
	GODEBUG=asyncpreemptoff=1 $(GO) test -run xxx -bench '$(BENCH_PINNED)' -benchtime 0.5s -benchmem $(BENCH_PKGS) \
		| tee .bench_build/dregex_bench_ci.txt
	@printf '{\n  "date": "%s",\n  "go": "%s",\n  "bench": %s\n}\n' \
		"$(DATE)" \
		"$$($(GO) version | cut -d' ' -f3)" \
		"$$(python3 -c 'import json;print(json.dumps(open(".bench_build/dregex_bench_ci.txt").read()))')" \
		> .bench_build/BENCH_ci.json
	$(GO) run ./cmd/benchtab -diff -gate '$(BENCH_PINNED)' -max-regress 25 \
		$(if $(GATE_UNITS),-gate-units '$(GATE_UNITS)') \
		$(BENCH_BASELINE) .bench_build/BENCH_ci.json

lint: fmt vet drevet no-encoding-xml

fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# drevet runs the repo's own analyzers (spanretain, poolpair, cowreg,
# noalloc, tracenil — see internal/analysis) over the whole tree through
# the go vet driver. Any diagnostic fails the build; there is no baseline
# file — fix the code or add a reviewed //dregex:ok waiver.
drevet:
	$(GO) build -o bin/drevet ./cmd/drevet
	$(GO) vet -vettool=$(CURDIR)/bin/drevet ./...

# no-encoding-xml fails when a non-test package — the library, its
# internal packages, the cmds or the examples — links encoding/xml: every
# byte of XML is read by internal/xmltok, and encoding/xml stays only as
# the oracle of tests (FuzzXMLTok, FuzzValidateDoc).
no-encoding-xml:
	@if $(GO) list -deps ./... | grep -qx 'encoding/xml'; then \
		echo "encoding/xml is linked outside tests:"; \
		$(GO) list -f '{{.ImportPath}}{{range .Imports}}{{if eq . "encoding/xml"}} imports encoding/xml{{end}}{{end}}' ./... | grep 'imports encoding/xml'; \
		exit 1; \
	fi
