package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path"
	"strings"
)

// shareBuckets are the layers a CPU-profile sample is charged to. Each is
// reported as the metric <bucket>_share, the fraction of the traced phase's
// samples charged to it; together they sum to 1.
var shareBuckets = []string{
	"estelle.self", "efsm.self", "trace.self", "analysis.self",
	"vm.exec", "vm.hash", "vm.heap", "vm.other",
	"batch.self", "obs.self", "serve.self", "checkpoint.self", "net.self", "json.self",
	"runtime.gc", "runtime.malloc", "runtime.other", "bench.self", "other.self",
}

// frame is one (possibly inlined) function of a sample's stack.
type frame struct{ fn, file string }

// profileShares reads a CPU profile and charges each sample to one bucket:
//
//   - bench.self when the sample carries the clientLabel profiler label: the
//     serve-open HTTP client and the transport goroutines it started;
//   - runtime.gc when any frame is a GC worker or assist, or a runtime frame
//     at the leaf end of the stack is in the mgc*/mbitmap/mwbbuf files;
//   - runtime.malloc when such a frame is in the allocator's files;
//   - otherwise the first frame, walking up from the leaf, whose package is a
//     layer (a repro package, net/http, encoding/json, the benchmark itself).
//     Standard-library helpers and other runtime frames (memmove, maps,
//     scheduling, syscalls) are charged to the layer that called them.
//     internal/vm is split by file: exec.go, hash.go, heap.go, the rest; the
//     serve store and journal files count as checkpoint.
//   - runtime.other or other.self when no layer frame is on the stack.
func profileShares(file string) (map[string]float64, error) {
	raw, err := os.ReadFile(file)
	if err != nil {
		return nil, err
	}
	samples, err := decodeProfile(raw)
	if err != nil {
		return nil, err
	}
	counts := map[string]int64{}
	var total int64
	for _, s := range samples {
		b := "bench.self"
		if !s.client {
			b = bucketOf(s.stack)
		}
		counts[b] += s.count
		total += s.count
	}
	shares := make(map[string]float64, len(shareBuckets))
	for _, b := range shareBuckets {
		if total > 0 {
			shares[b] = float64(counts[b]) / float64(total)
		} else {
			shares[b] = 0
		}
	}
	shares["samples"] = float64(total)
	return shares, nil
}

var gcEntry = map[string]bool{
	"runtime.gcBgMarkWorker": true, "runtime.gcAssistAlloc": true, "runtime.gcAssistAlloc1": true,
	"runtime.bgsweep": true, "runtime.bgscavenge": true, "runtime.gcStart": true,
	"runtime.gcMarkDone": true, "runtime.gcMarkTermination": true,
}

var mallocFiles = map[string]bool{
	"malloc.go": true, "mcache.go": true, "mcentral.go": true, "mheap.go": true, "msize.go": true,
	"mpagealloc.go": true, "mpallocbits.go": true, "mfixalloc.go": true, "sizeclasses.go": true,
	"mspanset.go": true, "mem_linux.go": true, "mem.go": true, "arena.go": true,
}

func bucketOf(stack []frame) string {
	for _, f := range stack {
		if gcEntry[f.fn] {
			return "runtime.gc"
		}
	}
	// Runtime frames at the leaf end of the stack (memclr under mallocgc,
	// say) are GC or allocator work when any of them is in those files.
	leafRuntime := len(stack) > 0 && isRuntime(pkgOf(stack[0].fn))
	inLeafRuntime := true
	for _, f := range stack {
		pkg, base := pkgOf(f.fn), path.Base(f.file)
		if isRuntime(pkg) {
			switch {
			case !inLeafRuntime:
			case strings.HasPrefix(base, "mgc") || base == "mbitmap.go" || base == "mwbbuf.go":
				return "runtime.gc"
			case mallocFiles[base]:
				return "runtime.malloc"
			}
			continue
		}
		inLeafRuntime = false
		if b := layerOf(pkg, base); b != "" {
			return b
		}
	}
	if leafRuntime {
		return "runtime.other"
	}
	return "other.self"
}

func isRuntime(pkg string) bool {
	return pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/")
}

// layerOf names the bucket of a layer package, or "" for a helper package.
func layerOf(pkg, file string) string {
	switch {
	case strings.HasPrefix(pkg, "repro/internal/estelle/"):
		return "estelle.self"
	case pkg == "repro/internal/vm":
		switch file {
		case "exec.go":
			return "vm.exec"
		case "hash.go":
			return "vm.hash"
		case "heap.go":
			return "vm.heap"
		}
		return "vm.other"
	case pkg == "repro/internal/serve":
		switch file {
		case "store.go", "journal.go", "lock_unix.go", "lock_other.go":
			return "checkpoint.self"
		}
		return "serve.self"
	case pkg == "repro/internal/checkpoint":
		return "checkpoint.self"
	case pkg == "main" || pkg == "repro/internal/sim" || pkg == "repro/internal/gen" ||
		pkg == "repro/internal/workload" || pkg == "repro/internal/experiments":
		return "bench.self"
	case strings.HasPrefix(pkg, "repro/internal/"):
		name := strings.TrimPrefix(pkg, "repro/internal/")
		switch name {
		case "efsm", "trace", "analysis", "batch", "obs":
			return name + ".self"
		}
		return "other.self"
	case pkg == "encoding/json":
		return "json.self"
	case pkg == "net" || strings.HasPrefix(pkg, "net/") || strings.HasPrefix(pkg, "vendor/golang.org/x/net/") ||
		pkg == "mime" || strings.HasPrefix(pkg, "mime/"):
		return "net.self"
	}
	return ""
}

// pkgOf extracts the package path from a symbol name such as
// "repro/internal/vm.(*Exec).step" or "slices.SortFunc[...]".
func pkgOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i]
	}
	start := strings.LastIndexByte(fn, '/') + 1
	if dot := strings.IndexByte(fn[start:], '.'); dot >= 0 {
		return fn[:start+dot]
	}
	return fn
}

// sample is one decoded profile sample: its stack, leaf first, its count,
// and whether it carries the clientLabel key.
type sample struct {
	stack  []frame
	count  int64
	client bool
}

// decodeProfile decodes the subset of the gzipped profile.proto format that
// CPU profiles use: samples with their labels, locations with (inlined)
// lines, functions and the string table.
func decodeProfile(raw []byte) ([]sample, error) {
	if len(raw) >= 2 && raw[0] == 0x1f && raw[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(raw))
		if err != nil {
			return nil, err
		}
		if raw, err = io.ReadAll(zr); err != nil {
			return nil, err
		}
	}
	type rawSample struct {
		locs      []uint64
		vals      []int64
		labelKeys []int64 // string table indices
	}
	type function struct{ name, file int64 }
	var (
		rawSamples []rawSample
		locLines   = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcs      = map[uint64]function{}
		strs       []string
	)
	err := walkFields(raw, func(field int, wire int, v uint64, b []byte) error {
		switch field {
		case 2: // sample
			var s rawSample
			err := walkFields(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					s.locs = appendPacked(s.locs, w, v, b)
				case 2:
					for _, x := range appendPacked(nil, w, v, b) {
						s.vals = append(s.vals, int64(x))
					}
				case 3: // label
					return walkFields(b, func(f, w int, v uint64, _ []byte) error {
						if f == 1 {
							s.labelKeys = append(s.labelKeys, int64(v))
						}
						return nil
					})
				}
				return nil
			})
			rawSamples = append(rawSamples, s)
			return err
		case 4: // location
			var id uint64
			var lines []uint64
			err := walkFields(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4:
					return walkFields(b, func(f, w int, v uint64, _ []byte) error {
						if f == 1 {
							lines = append(lines, v)
						}
						return nil
					})
				}
				return nil
			})
			locLines[id] = lines
			return err
		case 5: // function
			var id uint64
			var fn function
			err := walkFields(b, func(f, w int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					fn.name = int64(v)
				case 4:
					fn.file = int64(v)
				}
				return nil
			})
			funcs[id] = fn
			return err
		case 6: // string table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i int64) string {
		if i >= 0 && int(i) < len(strs) {
			return strs[i]
		}
		return ""
	}
	out := make([]sample, 0, len(rawSamples))
	for _, rs := range rawSamples {
		if len(rs.vals) == 0 {
			continue
		}
		var stack []frame
		for _, loc := range rs.locs {
			for _, fid := range locLines[loc] {
				fn := funcs[fid]
				stack = append(stack, frame{fn: str(fn.name), file: str(fn.file)})
			}
		}
		client := false
		for _, k := range rs.labelKeys {
			client = client || str(k) == clientLabel
		}
		out = append(out, sample{stack: stack, count: rs.vals[0], client: client})
	}
	return out, nil
}

// appendPacked appends a repeated varint field, packed or not.
func appendPacked(dst []uint64, wire int, v uint64, b []byte) []uint64 {
	if wire == 0 {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

// walkFields calls fn for each top-level field of a protobuf message: varint
// fields get v, length-delimited fields get b.
func walkFields(msg []byte, fn func(field, wire int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errors.New("bad field key")
		}
		msg = msg[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(msg)
			if n <= 0 {
				return errors.New("bad varint")
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errors.New("short fixed64")
			}
			msg = msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errors.New("bad length")
			}
			b = msg[n : n+int(l)]
			msg = msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errors.New("short fixed32")
			}
			msg = msg[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(field, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}
