package main

import (
	"bytes"
	"container/heap"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"time"

	"stardust/internal/cluster"
	"stardust/internal/engine"
	"stardust/internal/mgmt"
	_ "stardust/internal/scenarios" // registers the scenarios the queue runs
)

// The serving mix. Rates are totals over both nodes. No record of real
// stardustd traffic exists, so the mix is set against capacity measured
// on the 2-vCPU reference host, not against observed traffic:
//
//   - nominalRPS is a quarter to an eighth of that host's max_rps
//     (8000/s and 16000/s in two traced runs of seed 1), so the nominal
//     figures describe a tier well short of saturation and the ladder
//     has two or three rungs above it before the limit.
//   - submitRPS fresh fabric/parscale k=4 runs of about 85 ms each keep
//     the engine busy about 0.34 s per second, a sixth of the two cores:
//     the engine competes with the reads without starving them. Fresh
//     submissions are 0.2% of requests.
//   - primedKeys spreads ownership over both nodes for every seed
//     (seeds 1-10 split the keys between 10/22 and 16/16). One key, as
//     stardust-loadgen and the CI cluster smoke prime, leaves one node
//     owning nothing.
//   - Every request picks its node uniformly, the random counterpart of
//     stardust-loadgen's round robin over targets, so about half of the
//     hits land on a non-owner. Keys are drawn uniformly: with no
//     popularity data, no key is favoured.
const (
	primedKeys     = 32     // results primed into the cache during set-up
	nominalRPS     = 2000.0 // cache-hit GETs per second at the nominal rate
	submitRPS      = 4.0    // fresh fabric/parscale k=4 submissions per second
	hitLimitMs     = 250.0  // hit_p99_ms limit a ladder rate must meet
	backlogSlackMs = 25.0   // growth in median lateness that marks a growing backlog
	serveSetups    = 20     // set-ups timed per run; each primes every key
	ladderRate     = 2.0    // each ladder rung multiplies the rate by this
	ladderRungs    = 5      // rungs above the nominal rate, at most
	pollEvery      = 5 * time.Millisecond
	resultWait     = 60 * time.Second
)

// nodeURLs are the ring identities of the two nodes. They are fixed, so
// placement — and the ring's ownership skew — is a pure function of the
// seed; the loopback listeners themselves take free ports and the peer
// client dials the listener behind each fixed URL.
var nodeURLs = []string{"http://127.0.0.1:8081", "http://127.0.0.1:8082"}

type tierNode struct {
	url   string
	addr  string // bound listener
	q     *mgmt.RunQueue
	cl    *cluster.Node
	peerT *http.Transport
	load  *http.Client // the load generator's one connection to this node
	srv   *http.Server
	done  chan struct{}
}

// tier is two stardustd nodes in one process: run queue, HTTP server
// and cluster ring each, on loopback.
type tier struct {
	nodes  []*tierNode
	keys   []string // cache keys of the primed requests
	bodies [][]byte // their result bytes
}

// startTier starts both nodes and primes the cache with primed.
func startTier(primed []mgmt.RunRequest) (*tier, error) {
	t := &tier{}
	route := map[string]string{}
	var lis []net.Listener
	closeAll := func() {
		for _, l := range lis[len(t.nodes):] {
			l.Close()
		}
		t.close()
	}
	for _, u := range nodeURLs {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			closeAll()
			return nil, err
		}
		lis = append(lis, l)
		route[u[len("http://"):]] = l.Addr().String()
	}
	dial := func(ctx context.Context, network, addr string) (net.Conn, error) {
		if real, ok := route[addr]; ok {
			addr = real
		}
		var d net.Dialer
		return d.DialContext(ctx, network, addr)
	}
	for i, u := range nodeURLs {
		n := &tierNode{url: u, addr: lis[i].Addr().String(), done: make(chan struct{})}
		n.peerT = &http.Transport{DialContext: dial, MaxIdleConnsPerHost: 16}
		cl, err := cluster.New(cluster.Config{Self: u, Peers: nodeURLs,
			Client: &http.Client{Timeout: 30 * time.Second, Transport: n.peerT}})
		if err != nil {
			closeAll()
			return nil, err
		}
		n.cl = cl
		n.q = mgmt.NewRunQueue(64, 1, 1)
		s := mgmt.NewServer(n.q, nil)
		s.SetCluster(cl)
		n.srv = &http.Server{Handler: s}
		n.load = &http.Client{Timeout: 30 * time.Second, Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
		go func(l net.Listener) {
			n.srv.Serve(l)
			close(n.done)
		}(lis[i])
		t.nodes = append(t.nodes, n)
	}
	// Prime: each result is computed on its ring owner, one at a time, so
	// set-up does the same work however the seed's keys split between
	// the nodes.
	for _, req := range primed {
		key := req.CacheKey()
		owner := t.node(t.nodes[0].cl.Ring().Owner(key))
		job, _, err := owner.q.Submit(req, "prime")
		if err != nil {
			closeAll()
			return nil, fmt.Errorf("priming %s: %w", key, err)
		}
		if j, _ := owner.q.Wait(job.ID, resultWait); j.State != mgmt.JobDone {
			closeAll()
			return nil, fmt.Errorf("priming %s: job %s", key, j.State)
		}
		body, _ := owner.q.ResultByKey(key)
		t.keys = append(t.keys, key)
		t.bodies = append(t.bodies, body)
	}
	return t, nil
}

// node returns the node with ring identity url.
func (t *tier) node(url string) *tierNode {
	for _, n := range t.nodes {
		if n.url == url {
			return n
		}
	}
	return nil
}

func (t *tier) close() {
	for _, n := range t.nodes {
		n.srv.Close()
		<-n.done
		n.q.Shutdown()
		n.peerT.CloseIdleConnections()
		n.load.CloseIdleConnections()
	}
}

// counters sums the nodes' public queue and cluster counters.
type counters struct {
	submitted, rejected, forwards, fetches uint64
}

func (t *tier) counters() counters {
	var c counters
	for _, n := range t.nodes {
		qs, cs := n.q.Stats(), n.cl.Stats()
		c.submitted += qs.Submitted
		c.rejected += qs.Rejected
		c.forwards += cs.Forwards
		c.fetches += cs.PeerFetches
	}
	return c
}

const (
	kindHit = iota
	kindSubmit
	kindPoll
)

// request is one scheduled operation of the open-loop generator.
type request struct {
	due  time.Time
	seq  int
	kind int
	key  int         // primed index (hits)
	sub  *submission // submissions and their result polls
}

// submission tracks one fresh run from its due time to the verified
// result served by the node it was sent to.
type submission struct {
	req    mgmt.RunRequest
	key    string
	due    time.Time
	jobID  string
	served string
	ms     float64 // due -> verified result
	cells  float64
	wait   float64 // queue wait and run time, from the Job timestamps
	run    float64
}

// phaseResult collects one schedule's outcome. firstLate and lastLate
// hold the lateness of the requests due in its first and last quarter.
type phaseResult struct {
	hitMs, lateMs       []float64
	firstLate, lastLate []float64
	subs                []*submission
	attempted           int
	failed              []string
	localHits           int
	hitBytes            int
}

type reqHeap []*request

func (h reqHeap) Len() int { return len(h) }
func (h reqHeap) Less(i, j int) bool {
	if !h[i].due.Equal(h[j].due) {
		return h[i].due.Before(h[j].due)
	}
	return h[i].seq < h[j].seq
}
func (h reqHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *reqHeap) Push(x any)   { *h = append(*h, x.(*request)) }
func (h *reqHeap) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// schedule draws an open-loop schedule: Poisson hits at hitRPS and
// Poisson fresh submissions at submitRPS over d, each on a uniformly
// chosen node. Fresh seeds come from rng, so every schedule of a run
// submits new work.
func schedule(rng *rand.Rand, start time.Time, d time.Duration, hitRPS float64, nprimed int, fresh func() mgmt.RunRequest) [][]*request {
	out := make([][]*request, len(nodeURLs))
	seq := 0
	add := func(rate float64, mk func(due time.Time) *request) {
		for t := rng.ExpFloat64() / rate; t < d.Seconds(); t += rng.ExpFloat64() / rate {
			r := mk(start.Add(time.Duration(t * float64(time.Second))))
			r.seq = seq
			seq++
			n := rng.Intn(len(out))
			out[n] = append(out[n], r)
		}
	}
	add(hitRPS, func(due time.Time) *request { return &request{due: due, kind: kindHit, key: rng.Intn(nprimed)} })
	add(submitRPS, func(due time.Time) *request {
		req := fresh()
		return &request{due: due, kind: kindSubmit, sub: &submission{req: req, key: req.CacheKey(), due: due}}
	})
	return out
}

// run draws a schedule of length d at hitRPS and drives it: one
// goroutine per node sends that node's requests at their due times over
// its single connection, timing each from its due time.
func (t *tier) run(rng *rand.Rand, d time.Duration, hitRPS float64, fresh func() mgmt.RunRequest, tr *tracer) *phaseResult {
	begin := time.Now().Add(20 * time.Millisecond)
	plan := schedule(rng, begin, d, hitRPS, len(t.keys), fresh)
	res := &phaseResult{}
	parts := make([]*phaseResult, len(plan))
	done := make(chan int)
	for i := range plan {
		parts[i] = &phaseResult{}
		go func() {
			t.worker(t.nodes[i], plan[i], begin, d, parts[i], tr)
			done <- i
		}()
	}
	for range plan {
		<-done
	}
	for _, p := range parts {
		res.hitMs = append(res.hitMs, p.hitMs...)
		res.lateMs = append(res.lateMs, p.lateMs...)
		res.firstLate = append(res.firstLate, p.firstLate...)
		res.lastLate = append(res.lastLate, p.lastLate...)
		res.subs = append(res.subs, p.subs...)
		res.attempted += p.attempted
		res.failed = append(res.failed, p.failed...)
		res.localHits += p.localHits
		res.hitBytes += p.hitBytes
	}
	return res
}

func (t *tier) worker(n *tierNode, reqs []*request, begin time.Time, d time.Duration, res *phaseResult, tr *tracer) {
	h := reqHeap(append([]*request(nil), reqs...))
	heap.Init(&h)
	for h.Len() > 0 {
		r := heap.Pop(&h).(*request)
		if d := time.Until(r.due); d > 0 {
			time.Sleep(d)
		}
		start := time.Now()
		if r.kind != kindPoll {
			res.attempted++
			late := ms(start.Sub(r.due))
			res.lateMs = append(res.lateMs, late)
			switch off := r.due.Sub(begin); {
			case off < d/4:
				res.firstLate = append(res.firstLate, late)
			case off >= d-d/4:
				res.lastLate = append(res.lastLate, late)
			}
		}
		switch r.kind {
		case kindHit:
			_, end := tr.begin("http.hit", r.seq, 0)
			status, hdr, body, err := n.get("/api/v1/cache/" + t.keys[r.key])
			end()
			switch {
			case err != nil || status != http.StatusOK:
				res.failed = append(res.failed, fmt.Sprintf("hit %s on %s: status %d, %v", t.keys[r.key][:12], n.url, status, err))
			case !bytes.Equal(body, t.bodies[r.key]):
				res.failed = append(res.failed, fmt.Sprintf("hit %s on %s: body differs from the primed result", t.keys[r.key][:12], n.url))
			default:
				res.hitMs = append(res.hitMs, ms(time.Since(r.due)))
				res.hitBytes += len(body)
				if hdr.Get("X-Stardust-Cache") == "hit" {
					res.localHits++
				}
			}
		case kindSubmit:
			if err := t.submit(n, r, tr); err != nil {
				res.failed = append(res.failed, err.Error())
				continue
			}
			heap.Push(&h, &request{due: time.Now().Add(pollEvery), seq: r.seq, kind: kindPoll, sub: r.sub})
		case kindPoll:
			s := r.sub
			_, end := tr.begin("http.result", r.seq, 0)
			status, _, body, err := n.get("/api/v1/cache/" + s.key)
			end()
			switch {
			case err == nil && status == http.StatusNotFound && time.Since(s.due) < resultWait:
				heap.Push(&h, &request{due: time.Now().Add(pollEvery), seq: r.seq, kind: kindPoll, sub: s})
			case err != nil || status != http.StatusOK:
				res.failed = append(res.failed, fmt.Sprintf("result %s on %s: status %d, %v", s.key[:12], n.url, status, err))
			default:
				s.ms = ms(time.Since(s.due))
				if err := t.verify(s, body); err != nil {
					res.failed = append(res.failed, err.Error())
					continue
				}
				res.subs = append(res.subs, s)
			}
		}
	}
}

// submit posts a fresh run and records which node accepted it.
func (t *tier) submit(n *tierNode, r *request, tr *tracer) error {
	s := r.sub
	body, err := json.Marshal(s.req)
	if err != nil {
		return err
	}
	hr, err := http.NewRequest(http.MethodPost, "http://"+n.addr+"/api/v1/runs", bytes.NewReader(body))
	if err != nil {
		return err
	}
	hr.Header.Set("Content-Type", "application/json")
	hr.Header.Set("X-Stardust-Client", "loadgen")
	start := time.Now()
	resp, err := n.load.Do(hr)
	if err != nil {
		return fmt.Errorf("submit on %s: %w", n.url, err)
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusAccepted {
		return fmt.Errorf("submit %s on %s: status %d, %v", s.key[:12], n.url, resp.StatusCode, err)
	}
	var job mgmt.Job
	if err := json.Unmarshal(out, &job); err != nil || job.Key != s.key {
		return fmt.Errorf("submit %s on %s: bad job %q (%v)", s.key[:12], n.url, out, err)
	}
	s.jobID, s.served = job.ID, n.url
	if by := resp.Header.Get("X-Stardust-Served-By"); by != "" {
		s.served = by
	}
	name := "http.submit"
	if s.served != n.url {
		name = "http.forward"
	}
	tr.since(name, r.seq, start)
	return nil
}

// verify checks a fresh result: the bytes served equal the bytes the
// executing node stored, and the run delivered cells without loss.
func (t *tier) verify(s *submission, body []byte) error {
	owner := t.node(s.served)
	if owner == nil {
		return fmt.Errorf("result %s served by unknown node %q", s.key[:12], s.served)
	}
	stored, ok := owner.q.ResultByKey(s.key)
	if !ok || !bytes.Equal(stored, body) {
		return fmt.Errorf("result %s: served bytes differ from the executing node's", s.key[:12])
	}
	var out []struct {
		Error   string          `json:"error"`
		Metrics []engine.Metric `json:"metrics"`
	}
	if err := json.Unmarshal(body, &out); err != nil || len(out) != 1 || out[0].Error != "" {
		return fmt.Errorf("result %s: bad engine output (%v)", s.key[:12], err)
	}
	var delivered, dropped float64
	for _, m := range out[0].Metrics {
		switch m.Name {
		case "delivered_cells":
			delivered = m.Value
		case "dropped_cells":
			dropped = m.Value
		}
	}
	if delivered <= 0 || dropped != 0 {
		return fmt.Errorf("result %s: %v cells delivered, %v dropped", s.key[:12], delivered, dropped)
	}
	job, ok := owner.q.Get(s.jobID)
	if !ok || job.State != mgmt.JobDone {
		return fmt.Errorf("result %s: job %s not done on %s", s.key[:12], s.jobID, s.served)
	}
	s.cells = delivered
	s.wait = ms(job.Started.Sub(job.Submitted))
	s.run = ms(job.Finished.Sub(job.Started))
	return nil
}

// keepsUp reports whether the tier kept up with a phase: no request
// failed, hit p99 (timed from due times) is within hitLimitMs, and the
// backlog did not grow, that is the generator's median lateness over the
// last quarter is within backlogSlackMs of the first quarter's.
func (p *phaseResult) keepsUp() bool {
	return len(p.failed) == 0 && quantile(p.hitMs, 0.99) <= hitLimitMs &&
		quantile(p.lastLate, 0.5)-quantile(p.firstLate, 0.5) <= backlogSlackMs
}

// merge adds a phase's requests to the report; each failure string is
// one failed request.
func (r *report) merge(p *phaseResult, prefix string) {
	r.attempted += p.attempted
	r.failed += len(p.failed)
	for _, f := range p.failed {
		r.problems = append(r.problems, prefix+f)
	}
}

// get issues one GET over the node's load connection.
func (n *tierNode) get(path string) (int, http.Header, []byte, error) {
	resp, err := n.load.Get("http://" + n.addr + path)
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header, body, err
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// serveRequests draws the run's primed requests and its stream of fresh
// submissions, both from the seed.
func serveRequests(rng *rand.Rand) ([]mgmt.RunRequest, func() mgmt.RunRequest) {
	used := map[int64]bool{}
	seed := func() int64 {
		for {
			s := rng.Int63n(1<<40) + 1
			if !used[s] {
				used[s] = true
				return s
			}
		}
	}
	primed := make([]mgmt.RunRequest, primedKeys)
	for i := range primed {
		primed[i] = mgmt.RunRequest{Scenario: "fabric/parscale", Params: engine.Params{"k": "4", "dur_ms": "1"}, Seed: seed()}
	}
	return primed, func() mgmt.RunRequest {
		return mgmt.RunRequest{Scenario: "fabric/parscale", Params: engine.Params{"k": "4"}, Seed: seed()}
	}
}

func runServe(cfg config, tr *tracer) (*report, error) {
	rep := newReport()
	rng := rand.New(rand.NewSource(cfg.seed))
	primed, fresh := serveRequests(rng)
	var t *tier
	var first [][]byte
	setups := serveSetups
	if cfg.tiny {
		setups = 2
	}
	err := timeSetup(rep, setups, func() error {
		if t != nil {
			t.close()
		}
		var err error
		t, err = startTier(primed)
		if err == nil && first == nil {
			first = t.bodies
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	defer t.close()
	for i := range first {
		rep.check(bytes.Equal(first[i], t.bodies[i]), "primed result %d differs between set-ups", i)
	}

	// Nominal rate: the ledger, the latency figures and result_s.
	c0, g := t.counters(), readGoStats()
	a := t.run(rng, cfg.seconds, nominalRPS, fresh, nil)
	c1 := t.counters()
	rep.merge(a, "")
	var subMs, waits, runs, rates []float64
	var cells float64
	for _, s := range a.subs {
		subMs = append(subMs, s.ms)
		waits = append(waits, s.wait)
		runs = append(runs, s.run)
		rates = append(rates, s.cells/(s.run/1e3))
		cells += s.cells
	}
	g.record(rep, cells)
	rep.e2e["result_s"] = quantile(a.hitMs, 0.5) / 1e3
	if len(rates) > 0 {
		rep.e2e["cells_per_s"] = median(rates)
	}
	rep.layer["hit_p50_ms"] = quantile(a.hitMs, 0.5)
	rep.layer["hit_p99_ms"] = quantile(a.hitMs, 0.99)
	rep.layer["submit_p50_ms"] = quantile(subMs, 0.5)
	rep.layer["loadgen.late_p99_ms"] = quantile(a.lateMs, 0.99)
	rep.layer["mgmt.cache_hits"] = float64(a.localHits)
	rep.layer["mgmt.submitted"] = float64(c1.submitted - c0.submitted)
	rep.layer["mgmt.rejected"] = float64(c1.rejected - c0.rejected)
	rep.layer["mgmt.queue_wait_p50_ms"] = quantile(waits, 0.5)
	rep.layer["mgmt.run_p50_ms"] = quantile(runs, 0.5)
	rep.layer["cluster.forwards"] = float64(c1.forwards - c0.forwards)
	rep.layer["cluster.peer_fetches"] = float64(c1.fetches - c0.fetches)
	for _, share := range t.nodes[0].cl.Ring().Shares() {
		if share > rep.layer["cluster.owner_share_max"] {
			rep.layer["cluster.owner_share_max"] = share
		}
	}
	rep.ledger = ledger{"requests": uint64(a.attempted), "hit_bytes": uint64(a.hitBytes), "local_hits": uint64(a.localHits),
		"submissions": uint64(len(a.subs)), "fresh_cells": uint64(cells), "submitted": c1.submitted - c0.submitted,
		"rejected": c1.rejected - c0.rejected, "forwards": c1.forwards - c0.forwards, "peer_fetches": c1.fetches - c0.fetches}
	if tr == nil {
		return rep, nil
	}

	// The traced pass repeats the nominal mix with fresh seeds, profiled,
	// for the per-layer CPU split and the tracing overhead.
	if err := tr.startProfile(); err != nil {
		return nil, err
	}
	b := t.run(rng, cfg.seconds/4, nominalRPS, fresh, tr)
	if err := tr.stopProfile(); err != nil {
		return nil, err
	}
	rep.merge(b, "traced: ")
	rep.layer["trace.overhead_s"] = (quantile(b.hitMs, 0.5) - quantile(a.hitMs, 0.5)) / 1e3
	if cfg.tiny {
		return rep, nil
	}

	// The ladder: the highest rate the tier keeps up with (see keepsUp).
	rate := nominalRPS
	if !a.keepsUp() {
		return rep, nil
	}
	rep.layer["max_rps"] = rate
	for i := 0; i < ladderRungs; i++ {
		rate *= ladderRate
		l := t.run(rng, cfg.seconds/ladderRungs, rate, fresh, nil)
		rep.merge(l, fmt.Sprintf("ladder %.0f/s: ", rate))
		fmt.Fprintf(os.Stderr, "perfbench: serve_mix ladder %.0f/s: %d hits, hit p50 %.3f ms, p99 %.3f ms, late p99 %.3f ms, median lateness first/last quarter %.3f/%.3f ms\n",
			rate, len(l.hitMs), quantile(l.hitMs, 0.5), quantile(l.hitMs, 0.99), quantile(l.lateMs, 0.99),
			quantile(l.firstLate, 0.5), quantile(l.lastLate, 0.5))
		if !l.keepsUp() {
			break
		}
		rep.layer["max_rps"] = rate
	}
	return rep, nil
}
