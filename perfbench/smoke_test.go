package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"
)

// TestSmoke runs every workload at a tiny size, traced, and checks that
// its outputs verify, that its CPU-profile buckets sum to the profile
// total, and that a second seed changes its work ledger.
func TestSmoke(t *testing.T) {
	for name, fn := range workloads {
		t.Run(name, func(t *testing.T) {
			cfg := config{seed: 1, seconds: 500 * time.Millisecond, trace: true, tiny: true}
			tr := newTracer()
			rep, err := fn(cfg, tr)
			if err != nil {
				t.Fatal(err)
			}
			if rep.attempted == 0 || rep.failed != 0 || len(rep.problems) != 0 {
				t.Fatalf("attempted %d, failed %d: %v", rep.attempted, rep.failed, rep.problems)
			}
			tr.finish(rep)
			var sum float64
			for _, b := range layerBuckets {
				sum += rep.layer[b+".self_cpu_s"]
			}
			total := rep.layer["profile.cpu_s"]
			if total <= 0 || math.Abs(sum-total) > 1e-9*total {
				t.Fatalf("profile buckets sum to %v s, profile total %v s", sum, total)
			}
			if rep.layer["trace.spans"] == 0 {
				t.Fatal("traced run recorded no spans")
			}
			dir := t.TempDir()
			if err := rep.ledger.verify(dir, name, cfg); err != nil {
				t.Fatal(err)
			}
			cfg.seed, cfg.trace = 2, false
			other, err := fn(cfg, nil)
			if err != nil {
				t.Fatal(err)
			}
			if other.ledger.equal(rep.ledger) {
				t.Fatalf("seeds 1 and 2 give the same work ledger %v", rep.ledger)
			}
			if err := other.ledger.verify(dir, name, cfg); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestBucketOf pins how a sample's stack, leaf first, picks its layer.
func TestBucketOf(t *testing.T) {
	for _, c := range []struct {
		stack []string
		want  string
	}{
		{[]string{"stardust/internal/fabric.(*Net).Inject"}, "fabric"},
		{[]string{"slices.pdqsortCmpFunc[go.shape.struct { stardust/internal/sim.at stardust/internal/sim.Time }]",
			"stardust/internal/sim.sortKeys", "stardust/internal/sim.(*Simulator).drain"}, "sim"},
		{[]string{"stardust/internal/voq.(*VOQ).Push", "stardust/internal/netsim.(*Queue).Act"}, "netsim"},
		{[]string{"runtime.mallocgc", "stardust/internal/fabric.(*Net).Inject"}, "go"},
		{[]string{"internal/runtime/maps.(*Map).getWithKeySmall"}, "go"},
		{[]string{"internal/runtime/syscall.Syscall6", "syscall.Write", "net.(*conn).Write",
			"bufio.(*Writer).Flush", "stardust/internal/distsim.(*peerConn).write"}, "distsim"},
		{[]string{"internal/runtime/syscall.Syscall6", "net.(*conn).Write", "net/http.(*response).finishRequest",
			"stardust/internal/mgmt.(*Server).ServeHTTP"}, "http"},
		{[]string{"compress/flate.(*compressor).deflate"}, "other"},
		{nil, "other"},
	} {
		if got := bucketOf(c.stack); got != c.want {
			t.Errorf("bucketOf(%q) = %q, want %q", c.stack, got, c.want)
		}
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json's metric names and units in
// step with the ones this program prints.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program prints %d", kind, len(got), len(want))
		}
		for i, m := range got {
			if m.Name != want[i].name || m.Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), program %s (%s)", kind, i, m.Name, m.Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, perLayer)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(b.Workloads), len(workloads))
	}
	for _, w := range b.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q is not in the program", w.Name)
		}
	}
}
