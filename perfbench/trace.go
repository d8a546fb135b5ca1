package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer's public API. Spans of one
// operation share Op; Parent is the enclosing span's ID (0 = none).
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent,omitempty"`
	Op     int     `json:"op"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_us"`
	End    float64 `json:"end_us"`
}

// tracer keeps spans in memory and accumulates CPU-profile samples by
// layer. A nil *tracer is a valid no-op tracer: the untraced run pays
// one nil check per call.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
	next  int

	prof   bytes.Buffer
	cpu    map[string]float64 // bucket -> CPU seconds
	cpuTot float64
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), cpu: map[string]float64{}}
}

// begin opens a span and returns its ID and the function that closes
// it. Safe for concurrent use.
func (t *tracer) begin(name string, op, parent int) (int, func()) {
	if t == nil {
		return 0, func() {}
	}
	start := time.Now()
	t.mu.Lock()
	t.next++
	id := t.next
	t.mu.Unlock()
	return id, func() { t.add(span{ID: id, Parent: parent, Op: op, Name: name}, start) }
}

// since records a finished span that began at start, for a call whose
// span name is known only from its outcome.
func (t *tracer) since(name string, op int, start time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.next++
	id := t.next
	t.mu.Unlock()
	t.add(span{ID: id, Op: op, Name: name}, start)
}

func (t *tracer) add(s span, start time.Time) {
	s.Start = float64(start.Sub(t.t0).Microseconds())
	s.End = float64(time.Since(t.t0).Microseconds())
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// startProfile begins CPU profiling of a traced stretch.
func (t *tracer) startProfile() error {
	t.prof.Reset()
	return pprof.StartCPUProfile(&t.prof)
}

// stopProfile ends the stretch and adds its samples to the buckets.
func (t *tracer) stopProfile() error {
	pprof.StopCPUProfile()
	b, tot, err := bucketProfile(t.prof.Bytes())
	if err != nil {
		return err
	}
	for k, v := range b {
		t.cpu[k] += v
	}
	t.cpuTot += tot
	return nil
}

// layerBuckets are the layers CPU samples are charged to: the modules
// named in the benchmark's metric map, then go (the Go runtime), http
// (net/http) and other.
var layerBuckets = []string{"sim", "parsim", "fabric", "reach", "netsim", "tcp", "telemetry",
	"distsim", "engine", "mgmt", "cluster", "go", "http", "other"}

// pkgOf returns the package path of a fully qualified Go function name,
// ignoring any generic type arguments.
func pkgOf(fn string) string {
	if i := strings.Index(fn, "["); i >= 0 {
		fn = fn[:i]
	}
	slash := strings.LastIndex(fn, "/") + 1
	if i := strings.Index(fn[slash:], "."); i >= 0 {
		return fn[:slash+i]
	}
	return fn
}

// bucketOf charges one CPU sample, given its stack leaf first. A leaf in
// the Go runtime is go. Otherwise the frame nearest the leaf that is in
// a named module, or in net/http, decides; library code such as sorting,
// DEFLATE or a syscall thus counts toward the layer that called it, and
// unnamed modules (voq, topo, ...) toward the named layer above them.
func bucketOf(stack []string) string {
	if len(stack) == 0 {
		return "other"
	}
	if p := pkgOf(stack[0]); p == "runtime" || strings.HasPrefix(p, "runtime/") ||
		(strings.HasPrefix(p, "internal/runtime/") && p != "internal/runtime/syscall") {
		return "go"
	}
	for _, fn := range stack {
		p := pkgOf(fn)
		if mod, ok := strings.CutPrefix(p, "stardust/internal/"); ok {
			for _, b := range layerBuckets[:11] {
				if b == mod {
					return b
				}
			}
		}
		if p == "net/http" || strings.HasPrefix(p, "net/http/") {
			return "http"
		}
	}
	return "other"
}

// finish turns the spans and profile into per-layer metrics.
func (t *tracer) finish(rep *report) {
	for _, b := range layerBuckets {
		rep.layer[b+".self_cpu_s"] = t.cpu[b]
	}
	rep.layer["profile.cpu_s"] = t.cpuTot
	t.mu.Lock()
	rep.layer["trace.spans"] = float64(len(t.spans))
	t.mu.Unlock()
}

// write stores the spans as JSON under dir/spans.
func (t *tracer) write(dir, workload string, seed int64) error {
	sdir := filepath.Join(dir, "spans")
	if err := os.MkdirAll(sdir, 0o755); err != nil {
		return err
	}
	t.mu.Lock()
	raw, err := json.Marshal(t.spans)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(sdir, fmt.Sprintf("%s-seed%d.json", workload, seed)), raw, 0o644)
}

// bucketProfile decodes a gzipped pprof CPU profile and charges each
// sample's CPU time to a layer by bucketOf. It returns seconds per
// bucket and the profile total; the buckets sum to the total.
func bucketProfile(gz []byte) (map[string]float64, float64, error) {
	if len(gz) == 0 {
		return map[string]float64{}, 0, nil
	}
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, 0, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, 0, err
	}
	type sample struct {
		loc []uint64
		val []int64
	}
	var (
		samples []sample
		strs    []string
		locFns  = map[uint64][]uint64{} // location id -> function ids, innermost first
		fnName  = map[uint64]uint64{}   // function id -> string index
	)
	err = pbFields(raw, func(f int, v uint64, b []byte) error {
		switch f {
		case 2: // sample
			var s sample
			err := pbFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					s.loc = appendVarints(s.loc, v, b)
				case 2:
					for _, x := range appendVarints(nil, v, b) {
						s.val = append(s.val, int64(x))
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location; its lines run from the innermost inlined frame out
			var id uint64
			var fns []uint64
			err := pbFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4:
					return pbFields(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFns[id] = fns
			return err
		case 5: // function
			var id, name uint64
			err := pbFields(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			fnName[id] = name
			return err
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, 0, fmt.Errorf("decoding CPU profile: %w", err)
	}
	out := map[string]float64{}
	var total float64
	var stack []string
	for _, s := range samples {
		if len(s.val) == 0 {
			continue
		}
		sec := float64(s.val[len(s.val)-1]) / 1e9 // the cpu/nanoseconds value
		total += sec
		stack = stack[:0]
		for _, l := range s.loc {
			for _, fn := range locFns[l] {
				if si := fnName[fn]; si < uint64(len(strs)) {
					stack = append(stack, strs[si])
				}
			}
		}
		out[bucketOf(stack)] += sec
	}
	return out, total, nil
}

// appendVarints appends a repeated varint field that arrived either
// unpacked (one value, b nil) or packed (b holds the varints).
func appendVarints(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
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

// pbFields walks a protobuf message, calling fn with each field's
// number and either its varint value or its length-delimited bytes.
func pbFields(b []byte, fn func(field int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return fmt.Errorf("bad field key")
		}
		b = b[n:]
		field, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return fmt.Errorf("bad varint in field %d", field)
			}
			b = b[n:]
			if err := fn(field, v, nil); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return fmt.Errorf("short fixed64 in field %d", field)
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return fmt.Errorf("bad length in field %d", field)
			}
			data := b[n : n+int(l)]
			b = b[n+int(l):]
			if err := fn(field, 0, data); err != nil {
				return err
			}
		case 5:
			if len(b) < 4 {
				return fmt.Errorf("short fixed32 in field %d", field)
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d in field %d", wire, field)
		}
	}
	return nil
}
