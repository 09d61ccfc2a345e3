package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	goruntime "runtime"
	"sync"
	"sync/atomic"
	"time"

	"hypersearch/internal/core"
	"hypersearch/internal/faults"
	"hypersearch/internal/serve"
)

// serveBench drives an in-process serve.Server behind a loopback HTTP
// listener with two closed-loop clients: each POSTs a campaign,
// follows its stream to done, then sends the next. hqserved clients
// wait for their stream, so the arrival process is a closed loop.
// Admission, journal fsync, the cache and JSON streaming are the work
// and simulation is small, so this is where journal or encoding
// changes show, and what must not regress when engines change.
type serveBench struct {
	seed int64

	dir    string
	srv    *serve.Server
	hs     *http.Server
	served chan error
	url    string
	client *http.Client

	// firstRun maps a campaign name to its first BeforeRun time while
	// tracing; nil turns the hook into a no-op.
	firstRun atomic.Pointer[sync.Map]
}

var desProtocols = []string{core.Clean, core.Visibility, core.Cloning, core.Synchronous}

// serveClients is the closed loop's client count, at most nproc.
const serveClients = 2

func newServe(seed int64) *serveBench { return &serveBench{seed: seed} }

// tmpRoot holds the benchmark's scratch files inside the checkout.
const tmpRoot = ".bench_build/tmp"

func (s *serveBench) setup() error {
	if err := os.MkdirAll(tmpRoot, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(tmpRoot, "serve-")
	if err != nil {
		return err
	}
	s.dir = dir
	// The cmd/hqserved defaults: every field zero but the admission
	// bounds, which the daemon's flags default to 12 and 4096.
	srv, err := serve.NewServer(serve.Config{
		JournalPath: filepath.Join(dir, "journal.jsonl"),
		MaxDim:      12,
		MaxRuns:     4096,
		BeforeRun:   s.beforeRun,
	})
	if err != nil {
		return err
	}
	s.srv = srv
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	s.url = "http://" + ln.Addr().String()
	s.hs = &http.Server{Handler: srv.Handler()}
	s.served = make(chan error, 1)
	go func() { s.served <- s.hs.Serve(ln) }()
	s.client = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     serveClients,
		MaxIdleConnsPerHost: serveClients,
		DisableCompression:  true,
	}}
	return nil
}

func (s *serveBench) beforeRun(campaign string, _ serve.RunSpec) {
	if m := s.firstRun.Load(); m != nil {
		m.LoadOrStore(campaign, time.Now())
	}
}

func (s *serveBench) teardown() {
	if s.srv == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	s.client.CloseIdleConnections()
	if err := s.srv.Drain(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: drain:", err)
	}
	if err := s.hs.Shutdown(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: http shutdown:", err)
	}
	if err := <-s.served; !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "perfbench: http serve:", err)
	}
	if err := s.srv.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: journal close:", err)
	}
	os.RemoveAll(s.dir)
	s.srv = nil
}

// prepareTrace restarts on a fresh server and journal, so the traced
// campaigns meet the same cold cache as a measured run.
func (s *serveBench) prepareTrace() error {
	s.teardown()
	return s.setup()
}

// shape is a fresh campaign without its seeds.
type shape struct {
	engine         string
	dimMin, dimMax int
	protocols      []string
	latency        int64
	fault          bool
	seeds          int
}

// catalogue is the fixed multiset of fresh campaign shapes: every
// round of every seed runs each shape once, so every seed asks for the
// same work. About a quarter run on the network engine at d <= 6; the
// DES ones span d 4..9, some under adversarial latency or a
// delay-fault plan; each has 1 to 4 seeds.
var catalogue = func() []shape {
	rng := rand.New(rand.NewSource(1))
	pick := func(all []string) []string {
		var out []string
		for len(out) == 0 {
			for _, p := range all {
				if rng.Intn(2) == 0 {
					out = append(out, p)
				}
			}
		}
		return out
	}
	out := make([]shape, serveRound/2)
	for k := range out {
		sh := shape{seeds: 1 + rng.Intn(4)}
		if k%4 == 0 {
			sh.engine = serve.EngineNetwork
			sh.dimMin = 4 + rng.Intn(3)
			sh.dimMax = sh.dimMin + rng.Intn(7-sh.dimMin)
			sh.protocols = pick([]string{core.Visibility, core.Clean, core.Cloning})
		} else {
			sh.dimMin = 4 + rng.Intn(6)
			sh.dimMax = min(9, sh.dimMin+rng.Intn(3))
			switch k % 4 {
			case 1:
				sh.protocols = pick(desProtocols)
				sh.latency = 13
			case 2:
				// A delay-fault plan crashes the process from a DES
				// goroutine when the synchronous variant runs under it
				// (synchronous.go asserts unit-latency arrivals), so
				// fault-plan campaigns leave that protocol out.
				sh.protocols = pick(desProtocols[:3])
				sh.fault = true
			default:
				sh.protocols = pick(desProtocols)
			}
		}
		out[k] = sh
	}
	return out
}()

// request returns the i-th campaign of a round and the index of the
// campaign it re-submits verbatim (i itself when fresh). Odd indices
// re-submit a seeded choice of an earlier campaign; even ones take the
// catalogue's shapes in a seeded order, with seeded run and plan
// seeds, so no round hits another round's cache entries.
func (s *serveBench) request(round, i int) (*serve.Request, int) {
	rng := rand.New(rand.NewSource(s.seed*1_000_003 + int64(round)*1_000_000_007 + int64(i)))
	if i%2 == 1 {
		return s.request(round, rng.Intn(i))
	}
	f := i / 2
	order := rand.New(rand.NewSource(s.seed*1_000_003 + int64(round)*1_000_000_007 - int64(f/len(catalogue)) - 1))
	sh := catalogue[order.Perm(len(catalogue))[f%len(catalogue)]]
	req := &serve.Request{
		Engine:             sh.engine,
		DimMin:             sh.dimMin,
		DimMax:             sh.dimMax,
		Protocols:          sh.protocols,
		AdversarialLatency: sh.latency,
	}
	if sh.fault {
		req.Faults = &faults.Plan{Name: "spike", Seed: rng.Int63n(1 << 20), Faults: []faults.Fault{
			{Kind: faults.LatencySpike, Target: faults.TargetAny, At: 3, Until: 6, Delay: 4},
		}}
	}
	seen := map[int64]bool{}
	for len(req.Seeds) < sh.seeds {
		if sd := rng.Int63n(1 << 40); !seen[sd] {
			seen[sd] = true
			req.Seeds = append(req.Seeds, sd)
		}
	}
	return req, i
}

// campaign is one client-observed submission.
type campaign struct {
	index, original int
	req             *serve.Request

	post, accepted, firstRec, lastRec, done time.Time
	firstRun                                time.Time // first BeforeRun, traced runs only
	streamBytes                             int
	records                                 []serve.RunRecord // by index, Cached stripped
	simulated                               []bool            // record index -> not served from cache
	problem                                 string
}

// submit runs one campaign to completion over HTTP.
func (s *serveBench) submit(c *campaign) {
	body, err := json.Marshal(c.req)
	if err != nil {
		c.problem = err.Error()
		return
	}
	c.post = time.Now()
	resp, err := s.client.Post(s.url+"/campaigns", "application/json", bytes.NewReader(body))
	if err != nil {
		c.problem = "submit: " + err.Error()
		return
	}
	var snap serve.Snapshot
	err = json.NewDecoder(resp.Body).Decode(&snap)
	resp.Body.Close()
	c.accepted = time.Now()
	if resp.StatusCode != http.StatusAccepted || err != nil {
		c.problem = fmt.Sprintf("submit: status %d (%v)", resp.StatusCode, err)
		return
	}
	resp, err = s.client.Get(s.url + "/campaigns/" + snap.ID + "/stream")
	if err != nil {
		c.problem = "stream: " + err.Error()
		return
	}
	defer resp.Body.Close()
	c.records = make([]serve.RunRecord, snap.Total)
	c.simulated = make([]bool, snap.Total)
	got := make([]bool, snap.Total)
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		c.streamBytes += len(sc.Bytes()) + 1
		var ev serve.StreamEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			c.problem = "stream: " + err.Error()
			return
		}
		switch ev.Type {
		case "run":
			c.lastRec = time.Now()
			if c.firstRec.IsZero() {
				c.firstRec = c.lastRec
			}
			if ev.Run == nil || ev.Index < 0 || ev.Index >= snap.Total || got[ev.Index] {
				c.problem = fmt.Sprintf("stream: bad run event %s", sc.Bytes())
				return
			}
			got[ev.Index] = true
			c.simulated[ev.Index] = !ev.Run.Cached
			ev.Run.Cached = false
			c.records[ev.Index] = *ev.Run
		case "done":
			c.done = time.Now()
			if ev.Status != serve.StatusCompleted {
				c.problem = fmt.Sprintf("campaign %s ended %s: %s", snap.ID, ev.Status, ev.Error)
			}
			for i, ok := range got {
				if !ok && c.problem == "" {
					c.problem = fmt.Sprintf("campaign %s: no record %d", snap.ID, i)
				}
			}
			return
		}
	}
	c.problem = fmt.Sprintf("stream of %s ended before done: %v", snap.ID, sc.Err())
}

// drive runs the closed loop over the first n campaigns of a round's
// mix and returns them in index order with the loop's wall time.
func (s *serveBench) drive(round, n int) ([]*campaign, time.Duration) {
	var (
		next atomic.Int64
		wg   sync.WaitGroup
	)
	cs := make([]*campaign, n)
	start := time.Now()
	for k := 0; k < serveClients; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				req, orig := s.request(round, i)
				req.Name = fmt.Sprintf("b%d", i) // a label: records do not carry it
				c := &campaign{index: i, original: orig, req: req}
				s.submit(c)
				cs[i] = c
			}
		}()
	}
	wg.Wait()
	return cs, time.Since(start)
}

// verify checks re-submissions against their originals byte for byte
// and a seeded sample of campaigns against serve.SerialRecords, then
// counts every campaign in rep.
func (s *serveBench) verify(cs []*campaign, rep *report) {
	canon := func(c *campaign) string {
		b, err := json.Marshal(c.records)
		if err != nil {
			return "unmarshalable: " + err.Error()
		}
		return string(b)
	}
	for _, c := range cs {
		if c.problem != "" || c.original == c.index {
			continue
		}
		if o := cs[c.original]; o.problem == "" && canon(o) != canon(c) {
			c.problem = fmt.Sprintf("campaign %d streamed records that differ from its original %d", c.index, c.original)
		}
	}
	rng := rand.New(rand.NewSource(s.seed))
	for k := 0; k < 3; k++ {
		c := cs[rng.Intn(len(cs))]
		if c.problem != "" {
			continue
		}
		want, err := serve.SerialRecords(c.req)
		if err != nil {
			c.problem = "serial reference: " + err.Error()
			continue
		}
		ref := &campaign{records: want}
		if canon(ref) != canon(c) {
			c.problem = fmt.Sprintf("campaign %d differs from serve.SerialRecords", c.index)
		}
	}
	for _, c := range cs {
		rep.check(c.problem)
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// cacheHitFrac reads the server's cache counters.
func (s *serveBench) cacheHitFrac() float64 {
	st := s.srv.Stats()
	if st.CacheHits+st.CacheMisses == 0 {
		return 0
	}
	return float64(st.CacheHits) / float64(st.CacheHits+st.CacheMisses)
}

// serveRound is the campaigns of one round of the closed loop.
const serveRound = 400

// serveTimedRounds is how many rounds from a fresh server the timings
// cover. The server keeps every campaign's history, so each round costs
// more than the last (about a fifth more CPU by the twentieth): timing
// a fixed span of history, not however many rounds fit, keeps runs on
// faster and slower machines comparable.
const serveTimedRounds = 16

// measure runs rounds of the closed loop on one long-lived server
// until the deadline, at least serveTimedRounds, and checks them all;
// the first serveTimedRounds are timed. Latency percentiles pool every
// timed campaign; rates are medians over timed rounds.
func (s *serveBench) measure(deadline time.Time, rep *report) float64 {
	var lat, ttfr, rates, moveRates, cpu, hits []float64
	for round := 0; round < serveTimedRounds || time.Now().Before(deadline); round++ {
		c0 := cpuNow()
		cs, wall := s.drive(round, serveRound)
		c1 := cpuNow()
		s.verify(cs, rep)
		// Start every round from a collected heap, so the resident
		// high-water does not depend on where collections happened to
		// fall.
		goruntime.GC()
		if round >= serveTimedRounds {
			continue
		}
		cpu = append(cpu, c1-c0)
		if round == serveTimedRounds-1 {
			rep.add("peak_rss_mb", float64(rusage().Maxrss)/1024, "MB")
		}
		var moves int64
		done := 0
		for _, c := range cs {
			if c.problem != "" {
				continue
			}
			done++
			lat = append(lat, ms(c.done.Sub(c.post)))
			ttfr = append(ttfr, ms(c.firstRec.Sub(c.post)))
			for i, r := range c.records {
				if c.simulated[i] {
					moves += r.Result.TotalMoves
				}
			}
		}
		rates = append(rates, float64(done)/wall.Seconds())
		moveRates = append(moveRates, float64(moves)/wall.Seconds())
		hits = append(hits, s.cacheHitFrac())
	}
	rate := median(rates)
	rep.addN("campaigns_per_s", rate, "1/s", len(rates))
	rep.addN("campaign_p50_ms", median(lat), "ms", len(lat))
	rep.addN("campaign_p95_ms", percentile(lat, 0.95), "ms", len(lat))
	rep.addN("ttfr_p50_ms", median(ttfr), "ms", len(ttfr))
	rep.addN("ttfr_p95_ms", percentile(ttfr, 0.95), "ms", len(ttfr))
	rep.addN("sim_moves_per_s", median(moveRates), "1/s", len(moveRates))
	// A serve pass is 100 campaigns of the mix.
	rep.addN("cpu_s", median(cpu)*100/serveRound, "s", len(cpu))
	rep.addN("serve.cache_hit_frac", median(hits), "frac", len(hits))
	return rate
}

// serveTracedCampaigns is the fixed work of the traced phase: enough
// that at least ten samples lie beyond each p95.
const serveTracedCampaigns = 1000

func (s *serveBench) traced(tr *tracer, rep *report) float64 {
	first := &sync.Map{}
	s.firstRun.Store(first)
	cs, wall := s.drive(0, serveTracedCampaigns)
	s.firstRun.Store(nil)
	s.verify(cs, rep)

	var submit, finalize, queue []float64
	var c0 counts
	var bytes int
	var recs []serve.RunRecord
	for _, c := range cs {
		if v, ok := first.Load(c.req.Name); ok {
			c.firstRun = v.(time.Time)
		}
		s.spans(tr, c)
		if c.problem != "" {
			continue
		}
		submit = append(submit, ms(c.accepted.Sub(c.post)))
		finalize = append(finalize, ms(c.done.Sub(c.lastRec)))
		if !c.firstRun.IsZero() {
			queue = append(queue, ms(c.firstRun.Sub(c.post)))
		}
		bytes += c.streamBytes
		for _, r := range c.records {
			c0.add(r.Result)
			recs = append(recs, r)
		}
	}
	c0.report(rep)
	rep.addDist("serve.submit_ms", submit, "ms", true)
	rep.addDist("serve.finalize_ms", finalize, "ms", false)
	rep.add("serve.stream_bytes_per_campaign", float64(bytes)/float64(len(cs)), "B")
	// Queue wait runs from the POST, not the 202: an idle executor
	// usually starts the campaign before the 202 reaches the client.
	rep.addDist("serve.queue_wait_ms", queue, "ms", true)
	st := s.srv.Stats()
	rep.add("serve.cache_hit_frac", s.cacheHitFrac(), "frac")
	rep.add("serve.cache_hits", float64(st.CacheHits), "count")
	rep.add("serve.cache_bytes", float64(st.CacheBytes), "B")
	rep.add("serve.journal_compactions", float64(st.Journal.Compactions), "count")
	if us, err := s.replayJournal(); err != nil {
		rep.check("journal replay: " + err.Error())
	} else {
		rep.addDist("serve.journal_append_us", us, "us", false)
	}
	// Where automatic compaction falls depends on how the two clients'
	// appends interleave; compacted, the journal holds exactly one
	// record per campaign, so this count is exact.
	if _, after, err := s.srv.Compact(); err != nil {
		rep.check("journal compaction: " + err.Error())
	} else {
		rep.add("serve.journal_records", float64(after), "count")
	}
	enc := make([]float64, 0, len(recs))
	for _, r := range recs {
		t := time.Now()
		if _, err := json.Marshal(r); err != nil {
			rep.check("encode: " + err.Error())
		}
		enc = append(enc, float64(time.Since(t))/float64(time.Microsecond))
	}
	rep.addDist("serve.encode_us", enc, "us", false)
	return float64(len(cs)) / wall.Seconds()
}

// spans records one campaign as client-side spans: the whole campaign,
// and under it the submit, queue wait, first record and finalize
// stages.
func (s *serveBench) spans(tr *tracer, c *campaign) {
	if c.done.IsZero() {
		return
	}
	root := tr.nextID.Add(1)
	child := func(name string, from, to time.Time) {
		if from.IsZero() || to.Before(from) {
			return
		}
		tr.record(span{id: tr.nextID.Add(1), parent: root, layer: "serve", name: name,
			start: from.Sub(tr.origin), end: to.Sub(tr.origin)})
	}
	child("submit", c.post, c.accepted)
	child("queue_wait", c.post, c.firstRun)
	child("first_record", c.firstRun, c.firstRec)
	child("finalize", c.lastRec, c.done)
	tr.record(span{id: root, layer: "http", name: "campaign",
		start: c.post.Sub(tr.origin), end: c.done.Sub(tr.origin)})
}

// replayJournal appends the run's journal entries to a scratch journal
// and returns each append's time in microseconds.
func (s *serveBench) replayJournal() ([]float64, error) {
	f, err := os.Open(filepath.Join(s.dir, "journal.jsonl"))
	if err != nil {
		return nil, err
	}
	entries, _, err := serve.ReadEntries(f)
	f.Close()
	if err != nil {
		return nil, err
	}
	j, _, _, err := serve.OpenJournal(filepath.Join(s.dir, "scratch.jsonl"))
	if err != nil {
		return nil, err
	}
	us := make([]float64, 0, len(entries))
	for _, e := range entries {
		t := time.Now()
		if err := j.Append(e); err != nil {
			j.Close()
			return nil, err
		}
		us = append(us, float64(time.Since(t))/float64(time.Microsecond))
	}
	return us, j.Close()
}
