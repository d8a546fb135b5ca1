package main

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"sync"
	"time"

	"stardust/internal/distsim"
	"stardust/internal/sim"
	"stardust/internal/telemetry"
)

// A run repeats its set-up at least a workload's minimum number of times
// and until setupTime is spent; setup_s is the median, so a cheap set-up
// is sampled often enough that one slow repetition does not move it.
const setupTime = 1500 * time.Millisecond

// repeat runs op back to back until the measurement time is spent, and
// at least twice so the work ledger is compared within the run. An
// untraced run times every rep; a traced run alternates untraced and
// traced reps and profiles the traced ones, so the two medians give the
// tracing overhead. op returns the rep's host seconds to a verified
// result; plain and traced hold them per kind.
func repeat(cfg config, tr *tracer, op func(rep int, tr *tracer) (float64, error)) (plain, traced []float64, err error) {
	start := time.Now()
	for i := 0; i < 2 || time.Since(start) < cfg.seconds || (tr != nil && len(traced) == 0); i++ {
		// Each rep starts from a collected heap, so the garbage of earlier
		// reps and set-ups neither slows it nor sets the peak RSS.
		runtime.GC()
		var t *tracer
		if tr != nil && i%2 == 1 {
			t = tr
			if err := t.startProfile(); err != nil {
				return nil, nil, err
			}
		}
		sec, err := op(i, t)
		if t != nil {
			if perr := t.stopProfile(); perr != nil && err == nil {
				err = perr
			}
		}
		if err != nil {
			return nil, nil, err
		}
		if t != nil {
			traced = append(traced, sec)
		} else {
			plain = append(plain, sec)
		}
		fmt.Fprintf(os.Stderr, "perfbench: rep %d (traced %v): %.3f s\n", i, t != nil, sec)
	}
	return plain, traced, nil
}

// goStats samples the Go runtime's allocation and GC CPU counters.
type goStats struct {
	alloc      uint64
	gcCPU, cpu float64
}

func readGoStats() goStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	return goStats{alloc: ms.TotalAlloc, gcCPU: s[0].Value.Float64(), cpu: s[1].Value.Float64()}
}

// record fills the go.* per-layer metrics for the stretch since g.
func (g goStats) record(rep *report, cells float64) {
	now := readGoStats()
	if cells > 0 {
		rep.layer["go.alloc_bytes_per_cell"] = float64(now.alloc-g.alloc) / cells
	}
	if d := now.cpu - g.cpu; d > 0 {
		rep.layer["go.gc_cpu_frac"] = (now.gcCPU - g.gcCPU) / d
	}
}

// timeSetup runs build at least min times and for at least setupTime,
// and stores the median as setup_s.
func timeSetup(rep *report, min int, build func() error) error {
	var secs []float64
	for start := time.Now(); len(secs) < min || time.Since(start) < setupTime; {
		t0 := time.Now()
		if err := build(); err != nil {
			return err
		}
		secs = append(secs, time.Since(t0).Seconds())
	}
	rep.e2e["setup_s"] = median(secs)
	fmt.Fprintf(os.Stderr, "perfbench: %d set-ups, median %.4f s\n", len(secs), rep.e2e["setup_s"])
	return nil
}

// sameLedger checks a rep's counts against the first checked rep's.
func sameLedger(rep *report, l ledger, i int) {
	if len(rep.ledger) == 0 {
		rep.ledger = l
		return
	}
	rep.check(rep.ledger.equal(l), "rep %d work ledger differs from the first rep's (%s)", i, rep.ledger.diff(l))
}

// finishTimes stores result_s and, in a traced run, the overhead.
func finishTimes(rep *report, plain, traced []float64) {
	rep.e2e["result_s"] = median(plain)
	if len(traced) > 0 {
		rep.layer["trace.overhead_s"] = median(traced) - median(plain)
	}
}

// twinSpec is the K=8 fail/heal spec shared by twin_k8 and dist2_k8:
// two shards, half load over the rotating all-to-all matrix, three
// seed-chosen links failed and healed, a telemetry window every 20µs.
func twinSpec(cfg config) distsim.Spec {
	s := distsim.Spec{K: 8, Seed: cfg.seed, Shards: 2, Dur: sim.Millisecond, Load: 0.5, Pattern: "rotate",
		CellBytes: 512, Hotspot: 1, FailN: 3, FailAt: 250 * sim.Microsecond, HealAt: 750 * sim.Microsecond,
		Telem: 20 * sim.Microsecond}
	if cfg.tiny {
		s.K, s.Dur, s.FailAt, s.HealAt = 4, 200*sim.Microsecond, 50*sim.Microsecond, 150*sim.Microsecond
	}
	return s
}

// outcomeLayers fills the simulation per-layer metrics shared by the
// twin and distributed workloads.
func outcomeLayers(rep *report, o distsim.Outcome, stream int) {
	if o.Delivered > 0 {
		rep.layer["sim.events_per_cell"] = float64(o.Events) / float64(o.Delivered)
	}
	var max, sum uint64
	for _, e := range o.ShardEvents {
		sum += e
		if e > max {
			max = e
		}
	}
	if sum > 0 {
		rep.layer["parsim.shard_imbalance"] = float64(max) * float64(len(o.ShardEvents)) / float64(sum)
	}
	rep.layer["fabric.cells_delivered"] = float64(o.Delivered)
	rep.layer["fabric.drops"] = float64(o.Drops)
	rep.layer["reach.unreachable_after_heal"] = float64(o.Unreachable)
	rep.layer["telemetry.stream_bytes"] = float64(stream)
}

func outcomeLedger(o distsim.Outcome, stream int) ledger {
	return ledger{"events": o.Events, "injected": o.Injected, "delivered": o.Delivered, "drops": o.Drops,
		"unreachable": uint64(o.Unreachable), "digest": o.Digest, "stream_bytes": uint64(stream)}
}

func runTwin(cfg config, tr *tracer) (*report, error) {
	rep := newReport()
	spec := twinSpec(cfg)
	var model *distsim.Model
	err := timeSetup(rep, 3, func() error {
		_, end := tr.begin("distsim.NewModel", 0, 0)
		m, err := distsim.NewModel(spec)
		end()
		model = m
		return err
	})
	if err != nil {
		return nil, err
	}
	var analyze, compare, rates []float64
	var last distsim.Outcome
	var lastStream, windows int
	g := readGoStats()
	var cells float64
	plain, traced, err := repeat(cfg, tr, func(i int, tr *tracer) (float64, error) {
		rep.op()
		before := rep.failed
		t0 := time.Now()
		var stream bytes.Buffer
		_, end := tr.begin("distsim.Record", i, 0)
		out, err := distsim.Record(spec, &stream)
		end()
		simSec := time.Since(t0).Seconds()
		if err != nil {
			rep.fail("Record: %v", err)
			return time.Since(t0).Seconds(), nil
		}
		rec := stream.Bytes()
		ta := time.Now()
		_, end = tr.begin("telemetry.Analyze", i, 0)
		findings, err := telemetry.Analyze(bytes.NewReader(rec), nil, telemetry.DefaultAnalyzers()...)
		end()
		aSec := time.Since(ta).Seconds()
		if err != nil {
			rep.fail("Analyze: %v", err)
			return time.Since(t0).Seconds(), nil
		}
		_, end = tr.begin("distsim.Replay", i, 0)
		div, rout, replayed, err := distsim.Replay(rec, distsim.Overrides{})
		end()
		if err != nil {
			rep.fail("Replay: %v", err)
			return time.Since(t0).Seconds(), nil
		}
		tc := time.Now()
		_, end = tr.begin("telemetry.Compare", i, 0)
		div2, err := telemetry.Compare(rec, replayed)
		end()
		cSec := time.Since(tc).Seconds()
		sec := time.Since(t0).Seconds()
		if err != nil {
			rep.fail("Compare: %v", err)
			return sec, nil
		}
		rep.check(div.Zero && div.ByteIdentical && div2.ByteIdentical && bytes.Equal(rec, replayed),
			"replay diverged: %s", div)
		rep.check(rout.Digest == out.Digest, "replay digest %x != recorded %x", rout.Digest, out.Digest)
		rep.check(out.Unreachable == 0, "%d FA pairs unreachable after heal", out.Unreachable)
		l := outcomeLedger(out, len(rec))
		l["windows"] = uint64(div.RecordedWindows)
		l["findings"] = uint64(len(findings))
		sameLedger(rep, l, i)
		if rep.failed == before && tr == nil {
			rates = append(rates, float64(out.Delivered)/simSec)
			analyze = append(analyze, aSec)
			compare = append(compare, cSec)
		}
		cells += float64(out.Delivered)
		last, lastStream, windows = out, len(rec), div.RecordedWindows
		return sec, nil
	})
	if err != nil {
		return nil, err
	}
	finishTimes(rep, plain, traced)
	g.record(rep, cells)
	if len(rates) > 0 {
		rep.e2e["cells_per_s"] = median(rates)
		rep.layer["telemetry.analyze_s"] = median(analyze)
		rep.layer["telemetry.compare_s"] = median(compare)
	}
	outcomeLayers(rep, last, lastStream)
	if windows > 0 {
		rep.layer["telemetry.bytes_per_window"] = float64(lastStream) / float64(windows)
	}
	if cfg.trace {
		// The lock-step window count is read from a set-up replica run
		// outside the measured reps; its digest must match Record's.
		o, err := model.RunLocal()
		rep.check(err == nil && o.Digest == last.Digest, "RunLocal digest %x (err %v) != Record %x", o.Digest, err, last.Digest)
		rep.layer["parsim.windows"] = float64(model.Eng.Now() / model.Eng.Lookahead())
	}
	return rep, nil
}

func runDist(cfg config, tr *tracer) (*report, error) {
	rep := newReport()
	spec := twinSpec(cfg)
	// The in-process twin is the reference the distributed run must
	// reproduce byte for byte.
	var ref bytes.Buffer
	refOut, err := distsim.Record(spec, &ref)
	if err != nil {
		return nil, fmt.Errorf("reference Record: %w", err)
	}
	var setups, rates, barriers []float64
	var last distsim.Outcome
	var snap distsim.CoordStatsSnapshot
	var lastStream int
	g := readGoStats()
	var cells float64
	plain, traced, err := repeat(cfg, tr, func(i int, tr *tracer) (float64, error) {
		rep.op()
		before := rep.failed
		t0 := time.Now()
		lis, err := distsim.Listen("127.0.0.1:0")
		if err != nil {
			return 0, err
		}
		addr := lis.Addr().String()
		serveID, endServe := tr.begin("distsim.Serve", i, 0)
		var wg sync.WaitGroup
		peerErrs := make([]error, 2)
		for p := range peerErrs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				_, end := tr.begin("distsim.RunPeer", i, serveID)
				peerErrs[p] = distsim.RunPeer(addr)
				end()
			}()
		}
		var stream bytes.Buffer
		st := distsim.NewCoordStats()
		var wins []time.Time
		out, err := distsim.Serve(lis, distsim.CoordConfig{Spec: spec, Peers: 2, Stream: &stream, Stats: st,
			OnWindow: func(int) { wins = append(wins, time.Now()) }})
		endServe()
		wg.Wait()
		sec := time.Since(t0).Seconds()
		if err != nil {
			rep.fail("Serve: %v", err)
			return sec, nil
		}
		for p, perr := range peerErrs {
			rep.check(perr == nil, "peer %d: %v", p, perr)
		}
		rep.check(out.Digest == refOut.Digest, "distributed digest %x != twin %x", out.Digest, refOut.Digest)
		rep.check(bytes.Equal(stream.Bytes(), ref.Bytes()), "distributed stream (%d B) differs from twin (%d B)", stream.Len(), ref.Len())
		s := st.Snapshot()
		l := outcomeLedger(out, stream.Len())
		l["windows"], l["mail_frames"], l["mail_entries"] = s.Windows, s.MailFrames, s.MailEntries
		l["raw_bytes"], l["wire_bytes"] = s.RawBytes, s.WireBytes
		sameLedger(rep, l, i)
		if rep.failed == before && tr == nil && len(wins) > 0 {
			setup := wins[0].Sub(t0).Seconds()
			setups = append(setups, setup)
			rates = append(rates, float64(out.Delivered)/(sec-setup))
			for w := 1; w < len(wins); w++ {
				barriers = append(barriers, float64(wins[w].Sub(wins[w-1]).Microseconds()))
			}
		}
		cells += float64(out.Delivered)
		last, snap, lastStream = out, s, stream.Len()
		return sec, nil
	})
	if err != nil {
		return nil, err
	}
	finishTimes(rep, plain, traced)
	g.record(rep, cells)
	if len(rates) > 0 {
		rep.e2e["setup_s"] = median(setups)
		rep.e2e["cells_per_s"] = median(rates)
		rep.layer["distsim.barrier_p50_us"] = quantile(barriers, 0.5)
		rep.layer["distsim.barrier_p99_us"] = quantile(barriers, 0.99)
	}
	outcomeLayers(rep, last, lastStream)
	if w := float64(snap.Windows); w > 0 {
		rep.layer["parsim.windows"] = w
		rep.layer["distsim.wire_bytes_per_window"] = float64(snap.WireBytes) / w
		rep.layer["distsim.raw_bytes_per_window"] = float64(snap.RawBytes) / w
		rep.layer["distsim.mail_frames_per_window"] = float64(snap.MailFrames) / w
		if snap.TelemetryWindows > 0 {
			rep.layer["telemetry.bytes_per_window"] = float64(lastStream) / float64(snap.TelemetryWindows)
		}
	}
	return rep, nil
}
