package scenarios

import (
	"fmt"
	"strconv"
	"strings"
	"testing"

	"stardust/internal/engine"
)

// tinyParams shrinks every scenario to a run of milliseconds: each value
// applies to the scenarios that declare the key and overrides its default.
var tinyParams = engine.Params{
	"k": "4", "dur_ms": "1", "warmup_ms": "1", "dur_us": "30", "warm_us": "5",
	"flows": "2", "n": "2", "response_bytes": "3000", "kb": "1", "rate_kfps": "20",
	"period_us": "30", "cap_kb": "4", "utils": "0.5", "scale": "16",
	"fa": "2", "ports": "2", "fail": "1", "fail_ms": "0", "heal_ms": "1", "bin_ms": "1",
	"hot": "1", "proto": "DCTCP", "shards": "2", "peers": "", "out": "", "in": "",
	"telem_us": "10", "topo": "clos", "mode": "spray", "tc": "true", "check": "false",
}

// fixedKeys are never fuzzed: they fork processes (peers), touch files
// (out, in) or size the run inversely (scale: small values mean the
// paper-size topology).
var fixedKeys = map[string]bool{"peers": true, "out": true, "in": true, "scale": true}

// fuzzValue maps the fuzzer's raw inputs onto a value for a parameter
// whose tiny (or default) value is base. A numeric parameter gets base
// scaled by -7/4..7/4 — zero and negatives included, never much larger
// than tiny, and whole when base is whole, so it never falls back to a
// full-size default — or, for a list parameter, a pair of such values,
// or a malformed value (never empty: empty means the full-size default).
// Other parameters get free text (digit runs cut to one digit below 8,
// so "clos:k=99998" becomes "clos:k=1") or nothing. Every execution thus
// stays well inside the fuzzer's 10 s per-input limit.
func fuzzValue(base string, list bool, shape uint8, num int8, text string) string {
	if len(text) > 12 {
		text = text[:12]
	}
	scale := func(m int) string {
		if b, err := strconv.Atoi(base); err == nil {
			return fmt.Sprint(b * m / 4)
		}
		b, _ := strconv.ParseFloat(base, 64)
		return fmt.Sprint(b * float64(m) / 4)
	}
	m := int(num) % 8
	if _, err := strconv.ParseFloat(base, 64); err == nil {
		switch shape % 3 {
		case 0:
			return scale(m)
		case 1:
			if !list {
				return scale(m)
			}
			return scale(m) + "," + scale(m+1)
		default:
			return "x" + strings.Map(func(r rune) rune {
				if r >= '0' && r <= '9' {
					return -1
				}
				return r
			}, text)
		}
	}
	if shape%2 == 1 {
		return ""
	}
	var b strings.Builder
	prevDigit := false
	for _, r := range text {
		digit := r >= '0' && r <= '9'
		switch {
		case digit && !prevDigit:
			b.WriteByte('0' + byte(r-'0')%8)
		case !digit:
			b.WriteRune(r)
		}
		prevDigit = digit
	}
	return b.String()
}

// FuzzScenarioParams drives every registered scenario (fabric/distscale,
// whose whole point is forking peer processes, aside) with tiny sizes
// and two documented parameters set to random values: each (key, shape,
// num, text) tuple picks and perturbs one, and a second key that lands
// on the first moves to the next documented key, so two distinct keys
// change whenever a scenario documents two. Every instance must end in
// an error or a result — a recovered panic fails.
func FuzzScenarioParams(f *testing.F) {
	var scs []*engine.Scenario
	for _, sc := range engine.List() {
		if sc.Name != "fabric/distscale" {
			scs = append(scs, sc)
		}
	}
	index := func(name string) uint16 {
		for i, sc := range scs {
			if sc.Name == name {
				return uint16(i)
			}
		}
		f.Fatalf("no scenario %s", name)
		return 0
	}
	key := func(sc uint16, k string) uint16 {
		for i, d := range scs[sc].ParamDocs() {
			if d.Key == k {
				return uint16(i)
			}
		}
		f.Fatalf("%s has no param %s", scs[sc].Name, k)
		return 0
	}
	perm := index("htsim/permutation")
	f.Add(perm, key(perm, "proto"), uint8(0), int8(0), "mptcp", key(perm, "fabric"), uint8(0), int8(0), "true")
	graph := index("fabric/graphload")
	f.Add(graph, key(graph, "topo"), uint8(0), int8(0), "clos", key(graph, "k"), uint8(0), int8(4), "")
	coll := index("fabric/collective")
	f.Add(coll, key(coll, "cell"), uint8(0), int8(0), "", key(coll, "load"), uint8(0), int8(2), "")
	f.Add(perm, key(perm, "proto"), uint8(0), int8(0), "Stardust", key(perm, "k"), uint8(0), int8(4), "")
	f.Fuzz(func(t *testing.T, sc, k uint16, shape uint8, num int8, text string,
		k2 uint16, shape2 uint8, num2 int8, text2 string) {
		s := scs[int(sc)%len(scs)]
		params := engine.Params{}
		for key := range s.Defaults {
			if v, ok := tinyParams[key]; ok {
				params[key] = v
			}
		}
		if docs := s.ParamDocs(); len(docs) > 0 {
			perturb := func(i int, shape uint8, num int8, text string) {
				d := docs[i]
				if fixedKeys[d.Key] {
					return
				}
				base := strings.Split(d.Default, ",")[0]
				if v, ok := params[d.Key]; ok {
					base = v
				}
				list := strings.Contains(d.Default, ",") || strings.Contains(d.Desc, "comma list")
				params[d.Key] = fuzzValue(base, list, shape, num, text)
			}
			first, second := int(k)%len(docs), int(k2)%len(docs)
			if second == first {
				second = (first + 1) % len(docs)
			}
			perturb(first, shape, num, text)
			if second != first {
				perturb(second, shape2, num2, text2)
			}
		}
		results, _ := engine.Run(engine.Options{Workers: 1, Seed: 1}, []engine.Job{{Scenario: s.Name, Params: params}})
		for _, r := range results {
			if r.Err != nil && strings.Contains(r.Err.Error(), "scenario panicked") {
				t.Fatalf("%s (%s): %v", s.Name, r.Params, r.Err)
			}
		}
	})
}
