package experiments

import (
	"testing"

	"stardust/internal/sim"
)

// TestGraphSprayBeatsECMP is the §5.3 claim: per-cell spraying spreads
// each device's bytes over its uplinks at least as evenly as hash-pinned
// per-flow ECMP, and loses no more throughput doing it. Run on the
// paper's Clos and on both non-Clos families with identical traffic.
func TestGraphSprayBeatsECMP(t *testing.T) {
	const k, load, seed = 8, 0.6, 3
	warm, dur := 100*sim.Microsecond, 400*sim.Microsecond
	for _, topoName := range []string{"clos", "sshuffle", "star"} {
		t.Run(topoName, func(t *testing.T) {
			spray, err := GraphLinkLoad(topoName, k, "spray", load, warm, dur, seed)
			if err != nil {
				t.Fatal(err)
			}
			ecmp, err := GraphLinkLoad(topoName, k, "ecmp", load, warm, dur, seed)
			if err != nil {
				t.Fatal(err)
			}
			if spray.Delivered == 0 || ecmp.Delivered == 0 {
				t.Fatalf("no traffic delivered: spray %d, ecmp %d", spray.Delivered, ecmp.Delivered)
			}
			// Identical matrix, so injected counts agree; the comparison is
			// over fates and spread alone.
			if spray.Injected != ecmp.Injected {
				t.Fatalf("traffic matrices diverged: %d vs %d cells injected", spray.Injected, ecmp.Injected)
			}
			if spray.CoVPct > ecmp.CoVPct {
				t.Errorf("spray CoV %.2f%% worse than ecmp %.2f%%", spray.CoVPct, ecmp.CoVPct)
			}
			if spray.Delivered < ecmp.Delivered {
				t.Errorf("spray delivered %d < ecmp %d", spray.Delivered, ecmp.Delivered)
			}
			t.Logf("%s: spray cov=%.2f%% delivered=%d | ecmp cov=%.2f%% delivered=%d",
				spray.Topo, spray.CoVPct, spray.Delivered, ecmp.CoVPct, ecmp.Delivered)
		})
	}
}

// TestGraphLoadDeterminism: same seed, same numbers — the scenario layer
// byte-diffs its output across worker counts, so the experiment must be
// a pure function of its arguments.
func TestGraphLoadDeterminism(t *testing.T) {
	a, err := GraphLinkLoad("sshuffle", 6, "spray", 0.5, 50*sim.Microsecond, 100*sim.Microsecond, 11)
	if err != nil {
		t.Fatal(err)
	}
	b, err := GraphLinkLoad("sshuffle", 6, "spray", 0.5, 50*sim.Microsecond, 100*sim.Microsecond, 11)
	if err != nil {
		t.Fatal(err)
	}
	if *a != *b {
		t.Fatalf("two identical runs diverged:\n%+v\n%+v", a, b)
	}
}
