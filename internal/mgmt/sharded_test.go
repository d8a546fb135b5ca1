package mgmt

import (
	"sync"
	"testing"

	"stardust/internal/sim"
)

// Tests for the sharded management path: the telemetry scrape crossing
// every shard's queues must be synchronized by the parsim window barrier.
//
// The race this guards against: Controller.scrape reads
// Queue.FwdBytes/occupancy of every directed link while, in a sharded
// fabric, those counters are being written by the shard goroutines
// mid-window. A scrape scheduled as an ordinary simulator event on shard
// 0 fails TestShardedScrapeRaceFree under -race the moment the fabric
// spans more than one shard; Attach runs the scrape in barrier context —
// every shard quiescent — so the race is structurally impossible.

func newShardedRun(t *testing.T, shards int, seed int64) *FabricRun {
	t.Helper()
	fr, err := NewFabricRun(FabricRunConfig{
		K:         4,
		Load:      0.4,
		FailEvery: 300 * sim.Microsecond,
		HealAfter: 500 * sim.Microsecond,
		Seed:      seed,
		Shards:    shards,
		Controller: Config{
			ScrapeEvery: 100 * sim.Microsecond,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return fr
}

// TestShardedScrapeRaceFree drives a chaos-laden sharded fabric while a
// reader goroutine hammers the controller's HTTP-facing snapshots. Run
// under -race (the CI race job does) this is the regression test for the
// scrape data race described above.
func TestShardedScrapeRaceFree(t *testing.T) {
	fr := newShardedRun(t, 4, 1)
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			_ = fr.Ctl.Stats()
			_ = fr.Ctl.Telemetry()
			_ = fr.Ctl.Anomalies()
			_, _ = fr.Ctl.LinkSeries(0, 0)
		}
	}()
	for i := 0; i < 20; i++ {
		fr.Advance(200 * sim.Microsecond)
	}
	close(done)
	wg.Wait()

	st := fr.Ctl.Stats()
	if st.Scrapes == 0 {
		t.Fatal("no barrier scrapes happened")
	}
	if st.Injected == 0 || st.Delivered == 0 {
		t.Fatalf("no traffic observed: %+v", st)
	}
	if st.LinkFailures == 0 {
		t.Fatal("chaos never fired")
	}
}

// TestShardedFabricRunDeterministic: with chaos and scrapes quantized to
// window boundaries, the same seed must produce identical management
// statistics at every shard count, one included.
func TestShardedFabricRunDeterministic(t *testing.T) {
	run := func(shards int) FabricStats {
		fr := newShardedRun(t, shards, 7)
		fr.Advance(3 * sim.Millisecond)
		return fr.Ctl.Stats()
	}
	a := run(1)
	for _, shards := range []int{2, 4} {
		if b := run(shards); a != b {
			t.Fatalf("FabricRun diverged across shard counts:\n  1: %+v\n  %d: %+v", a, shards, b)
		}
	}
	if a.LinkFailures == 0 || a.Scrapes == 0 {
		t.Fatalf("degenerate run: %+v", a)
	}
}

// The sharded fabric's reach updates are delivered through the barrier in
// deterministic order; the bus sequence observed by the controller must
// therefore be identical across shard counts.
func TestShardedReachEventsConsistent(t *testing.T) {
	collect := func(shards int) []Event {
		fr := newShardedRun(t, shards, 11)
		fr.Advance(4 * sim.Millisecond)
		var evs []Event
		for _, e := range fr.Ctl.Bus().Since(0, 4096) {
			if e.Kind == EventReachUpdate || e.Kind == EventLinkDown || e.Kind == EventLinkUp {
				evs = append(evs, e)
			}
		}
		return evs
	}
	a, b := collect(2), collect(4)
	if len(a) == 0 {
		t.Fatal("no link/reach events observed")
	}
	if len(a) != len(b) {
		t.Fatalf("event counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Time != b[i].Time || a[i].Kind != b[i].Kind || a[i].Device != b[i].Device || a[i].Detail != b[i].Detail {
			t.Fatalf("event %d differs:\n  2: %+v\n  4: %+v", i, a[i], b[i])
		}
	}
}
