# Developer entry points. CI runs the same commands (see .github/workflows).

GO ?= go
BENCH ?= BenchmarkDeepBacktrackAllocs
COUNT ?= 6

.PHONY: all build test race bench bench-save benchstat corpus clean

all: build test

build:
	$(GO) build ./...

test:
	$(GO) vet ./...
	$(GO) test ./...

race:
	$(GO) test -race ./...

# go-test benchmarks. `make bench-save OUT=old.txt` before a change and
# `make bench-save OUT=new.txt` after, then `benchstat old.txt new.txt`.
# benchstat is golang.org/x/perf/cmd/benchstat — not vendored here; install
# it separately if you want the statistical comparison, the raw -bench
# output is readable without it.
bench:
	$(GO) test -run xxx -bench '$(BENCH)' -benchmem .

OUT ?= bench.txt
bench-save:
	$(GO) test -run xxx -bench '$(BENCH)' -benchmem -count $(COUNT) . | tee $(OUT)

benchstat:
	@command -v benchstat >/dev/null 2>&1 || { \
		echo "benchstat not installed (golang.org/x/perf/cmd/benchstat)"; exit 1; }
	benchstat old.txt new.txt

corpus:
	$(GO) run testdata/corpus/gen.go

clean:
	rm -f bench.txt old.txt new.txt
