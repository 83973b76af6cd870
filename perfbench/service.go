package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"time"

	"p4assert/internal/core"
	"p4assert/internal/service"
	"p4assert/internal/store"
	"p4assert/internal/vcache"
	"p4assert/internal/whippersnapper"
)

const (
	// serviceClients closed-loop clients share one server.
	serviceClients = 2
	// Every repeatEvery-th request repeats an earlier fresh request.
	repeatEvery = 4
	// thinkMax bounds the seeded think time a client waits before each
	// request. It equals Client.Wait's 100 ms poll interval, so the two
	// clients' poll phases spread over the whole interval instead of
	// locking: locked phases made whole runs settle into one of two
	// write-ahead-log batching regimes, whose throughputs differed by a
	// fifth.
	thinkMax = 100 * time.Millisecond
	// preGenerated schedule entries are made during set-up; a run that
	// needs more generates them in the client, off the latency clock.
	preGenerated = 800
	// scratchDir holds the server's store; it lies inside the checkout
	// the benchmark runs from.
	scratchDir = ".bench_build/tmp"
)

// schedule is the seeded request sequence of a service-mix run. Entry i
// depends on the seed and i alone: fresh pipeline programs, with one
// request in four repeating an earlier fresh request so that the result
// cache serves it.
type schedule struct {
	mu    sync.Mutex
	rng   *rand.Rand
	reqs  []*service.JobRequest
	fresh []*service.JobRequest
	next  int
}

func newSchedule(seed uint64) *schedule {
	s := &schedule{rng: rand.New(rand.NewPCG(seed, 0x5e71ce))}
	for len(s.reqs) < preGenerated {
		s.generate()
	}
	return s
}

// generate appends the next entry. A fresh request is a Whippersnapper
// pipeline of 6 or 7 tables with 2 to 4 actions on the first, one
// assertion, and 2 to 5 seeded rules on the first table, whose distinct
// keys make fresh requests distinct cache keys. These verify in
// about 3 to 15 ms, longer than the write-ahead log's fsync that
// Client.Submit waits for, so a fresh job is still running when the
// client first polls its status.
func (s *schedule) generate() {
	if len(s.reqs)%repeatEvery == repeatEvery-1 {
		s.reqs = append(s.reqs, s.fresh[s.rng.IntN(len(s.fresh))])
		return
	}
	cfg := whippersnapper.Default(6 + s.rng.IntN(2))
	cfg.ActionsFirst = 2 + s.rng.IntN(3)
	cfg.Assertions = 1
	req := &service.JobRequest{
		Filename: fmt.Sprintf("pipeline-%d.p4", len(s.fresh)),
		Source:   whippersnapper.Generate(cfg),
		Rules:    renderRules(s.rng, cfg, 1, 2+s.rng.IntN(4)),
	}
	s.fresh = append(s.fresh, req)
	s.reqs = append(s.reqs, req)
}

// take hands out the next schedule entry.
func (s *schedule) take() *service.JobRequest {
	s.mu.Lock()
	defer s.mu.Unlock()
	for s.next >= len(s.reqs) {
		s.generate()
	}
	req := s.reqs[s.next]
	s.next++
	return req
}

// server is the in-process verification service: a Manager with two
// workers, an in-memory result cache and a write-ahead-logged store with
// fsync on, behind service.Handler on a loopback httptest server.
type server struct {
	dir   string
	st    *store.Store
	cache *vcache.Cache
	mgr   *service.Manager
	srv   *httptest.Server
	sched *schedule
}

func startServer(seed uint64) (*server, error) {
	if err := os.MkdirAll(scratchDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(scratchDir, "service-")
	if err != nil {
		return nil, err
	}
	s := &server{dir: dir, sched: newSchedule(seed)}
	s.st, err = store.Open(filepath.Join(dir, "store"), store.Options{Retain: 24 * time.Hour, MaxFinished: 4096})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	if s.cache, err = vcache.New(vcache.DefaultMaxEntries, ""); err != nil {
		s.st.Close()
		os.RemoveAll(dir)
		return nil, err
	}
	s.mgr = service.New(service.Config{
		Workers:    2,
		QueueDepth: 256,
		Cache:      s.cache,
		JobTimeout: 5 * time.Minute,
		RetainJobs: 4096,
		Store:      s.st,
	})
	s.srv = httptest.NewServer(service.Handler(s.mgr))
	return s, nil
}

// stop shuts the server, manager and store down and removes the store.
func (s *server) stop() {
	s.srv.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.mgr.Shutdown(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: manager shutdown:", err)
	}
	if err := s.st.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: store close:", err)
	}
	os.RemoveAll(s.dir)
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
}

// answer is one completed round trip, kept for the correctness check.
type answer struct {
	req        *service.JobRequest
	comparable []byte
}

// runService measures the service round trip: two closed-loop clients
// with the zero-value Client (as p4verify -remote uses it) against the
// in-process server, each waiting a seeded think time before a request.
func runService(r *run) error {
	s, err := timeSetup(r, 15, func() (*server, error) { return startServer(r.seed) }, (*server).stop)
	if err != nil {
		return err
	}
	defer s.stop()
	clients := make([]*service.Client, serviceClients)
	thinkRNG := make([]*rand.Rand, serviceClients)
	for i := range clients {
		clients[i] = &service.Client{Base: s.srv.URL}
		thinkRNG[i] = rand.New(rand.NewPCG(r.seed, uint64(i)))
	}
	// think waits client c's next think time; it is off the latency clock.
	think := func(c int) { time.Sleep(time.Duration(thinkRNG[c].Int64N(int64(thinkMax)))) }
	ctx := context.Background()
	var mu sync.Mutex
	var answers []answer
	keep := func(req *service.JobRequest, rep *core.Report) error {
		b, err := rep.ComparableJSON()
		if err != nil {
			return err
		}
		mu.Lock()
		answers = append(answers, answer{req, b})
		mu.Unlock()
		return nil
	}
	verify := func(c int, req *service.JobRequest) (time.Duration, error) {
		t0 := time.Now()
		rep, _, err := clients[c].Verify(ctx, *req)
		d := time.Since(t0)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", req.Filename, err)
		}
		return d, keep(req, rep)
	}

	if r.trace {
		traceService(r, s, clients, think, verify, keep)
	} else {
		h := startHeapSampler()
		l := closedLoop(r, serviceClients, r.window, func(c int) (time.Duration, error) {
			think(c)
			return verify(c, s.sched.take())
		})
		h.end(r)
		r.report(l, serviceClients)
	}
	checkAnswers(r, answers)
	r.reportFailures()
	return nil
}

// checkAnswers compares every report the clients received with a local
// core.VerifySource run of the same request.
func checkAnswers(r *run, answers []answer) {
	want := map[*service.JobRequest][]byte{}
	for _, a := range answers {
		exp, ok := want[a.req]
		if !ok {
			opts, err := service.Techniques{}.CoreOptions(a.req.Rules)
			var rep *core.Report
			if err == nil {
				rep, err = core.VerifySource(a.req.Filename, a.req.Source, opts)
			}
			if err == nil {
				exp, err = rep.ComparableJSON()
			}
			if err != nil {
				r.fail(fmt.Errorf("%s: local run: %w", a.req.Filename, err))
				continue
			}
			want[a.req] = exp
		}
		if string(exp) != string(a.comparable) {
			r.fail(fmt.Errorf("%s: service report differs from the local run", a.req.Filename))
		}
	}
	r.note("checked %d service reports against %d local runs", len(answers), len(want))
}

// traceService is the traced pass of service-mix. Each client alternates
// an untraced Client.Verify with a traced round trip that times
// Client.Submit, Client.Wait and Client.RawReport separately and reads
// the job's queue and run times from its JobStatus timestamps.
func traceService(r *run, s *server, clients []*service.Client, think func(int),
	verify func(int, *service.JobRequest) (time.Duration, error), keep func(*service.JobRequest, *core.Report) error) {
	ctx := context.Background()
	var mu sync.Mutex
	// Latencies of the untraced and traced round trips; their medians
	// give the tracing overhead (means would mix cache hits and misses
	// differently on each side).
	var plain, traced []time.Duration
	var submit, queue, runT, slack, report []time.Duration
	tracedTrip := func(c int, req *service.JobRequest) (time.Duration, error) {
		cl := clients[c]
		t0 := time.Now()
		st, err := cl.Submit(ctx, *req)
		tSubmit := time.Now()
		if err == nil {
			st, err = cl.Wait(ctx, st.ID)
		}
		tWait := time.Now()
		if err == nil && st.State != service.StateDone {
			err = fmt.Errorf("job %s %s: %s", st.ID, st.State, st.Error)
		}
		var data []byte
		if err == nil {
			data, err = cl.RawReport(ctx, st.ID)
		}
		tReport := time.Now()
		var rep core.Report
		if err == nil {
			err = json.Unmarshal(data, &rep)
		}
		d := time.Since(t0)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", req.Filename, err)
		}
		if st.StartedAt == nil || st.FinishedAt == nil {
			return 0, fmt.Errorf("%s: done job without start or finish time", req.Filename)
		}
		mu.Lock()
		id := len(submit)
		log := r.spans
		log.add(id, "round_trip", "", t0, t0.Add(d))
		log.add(id, "service.submit", "round_trip", t0, tSubmit)
		log.add(id, "service.wait", "round_trip", tSubmit, tWait)
		log.add(id, "service.queue_wait", "service.wait", st.EnqueuedAt, *st.StartedAt)
		log.add(id, "service.run", "service.wait", *st.StartedAt, *st.FinishedAt)
		log.add(id, "service.report", "round_trip", tWait, tReport)
		submit = append(submit, tSubmit.Sub(t0))
		queue = append(queue, st.StartedAt.Sub(st.EnqueuedAt))
		runT = append(runT, st.FinishedAt.Sub(*st.StartedAt))
		slack = append(slack, tWait.Sub(*st.FinishedAt))
		report = append(report, tReport.Sub(tWait))
		mu.Unlock()
		return d, keep(req, &rep)
	}
	calls := make([]int, len(clients))
	closedLoop(r, len(clients), r.window, func(c int) (time.Duration, error) {
		calls[c]++
		think(c)
		req := s.sched.take()
		trip, lat := verify, &plain
		if calls[c]%2 == 0 {
			trip, lat = tracedTrip, &traced
		}
		d, err := trip(c, req)
		if err == nil {
			mu.Lock()
			*lat = append(*lat, d)
			mu.Unlock()
		}
		return d, err
	})

	stats := s.mgr.Stats()
	cs := s.cache.Stats()
	ss := s.st.Stats()
	vals := map[string]float64{
		"service.submit_s":       median(submit).Seconds(),
		"service.queue_wait_s":   median(queue).Seconds(),
		"service.run_s":          median(runT).Seconds(),
		"service.wait_slack_s":   median(slack).Seconds(),
		"service.report_s":       median(report).Seconds(),
		"service.rejected":       float64(stats.Shed),
		"vcache.hits":            float64(cs.Hits),
		"vcache.misses":          float64(cs.Misses),
		"vcache.hit_ratio":       ratio(float64(cs.Hits), float64(cs.Hits+cs.Misses)),
		"store.appends_per_job":  ratio(float64(ss.Appends), float64(stats.Submitted)),
		"store.snapshots":        float64(ss.Snapshots),
		"trace.throughput_ratio": ratio(median(plain).Seconds(), median(traced).Seconds()),
	}
	r.setLayers(vals)
	r.note("traced pass: %d traced round trips; service times are medians", len(submit))
	r.note("tracing overhead: traced throughput = %.4f x untraced", vals["trace.throughput_ratio"])
}
