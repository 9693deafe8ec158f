package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"sam/internal/core"
	"sam/internal/design"
	"sam/internal/serve"
	"sam/internal/sim"
)

// jobKey is one bench job of the samd-mix key universe: design × query ×
// table seed, a third of them with transient faults attached.
type jobKey struct {
	Design    string
	Query     string
	TableSeed uint64
	FaultRate float64
	FaultSeed uint64
}

// samdInputs is everything the daemon's clients receive: the seeded job
// sequence of one round, as wire bodies, and the keys it draws.
type samdInputs struct {
	Keys       []jobKey
	Seq        []int32  // key index of each job
	Bodies     [][]byte // POST body of each job
	FigureBody []byte
}

// Key-stream shape. Popularity is Zipf: zipfS and zipfV set how much the
// stream repeats itself. They are a measurement choice, not observed
// traffic (no samd caller's key popularity is recorded anywhere): zipfV is
// set so that about 80% of a round's jobs are result-cache hits, and at
// s = 2 hot keys recur within milliseconds (hits and concurrent duplicates)
// while first-time keys keep arriving through the round, so p99 measures
// the miss path. The n-th distinct key of the stream gets the n-th design ×
// query × table seed of a fixed cycle (queries fastest, the first block on
// the small workload's own table seed, which the fig14b figure job also
// uses), so every seed's misses carry the same mix of queries, designs and
// faults; the seed decides the popularity order, the table contents and
// the fault streams.
const (
	roundJobs     = 1024 // jobs per closed-loop round
	zipfS         = 2
	zipfV         = 16
	zipfRanks     = 1 << 20
	scrapeEvery   = 100 // traced run: GET /metrics every this many jobs
	recomputeKeys = 4   // keys recomputed directly after the timed phase
)

// defaultPoll is the clients' status-poll interval, also a measurement
// choice: scripts/samdsmoke.sh polls every 0.5 s, which would put a floor
// of 0.5 s under every job that misses the result cache, round the miss
// path to multiples of it and leave the clients idle most of a round.
// 2 ms keeps the miss path measurable and status polls a real share of
// the daemon's load; -poll-ms changes it.
const defaultPoll = 2 * time.Millisecond

// samdDesigns are the bench-job designs.
var samdDesigns = []string{"baseline", "SAM-sub", "SAM-IO", "SAM-en", "GS-DRAM-ecc", "RC-NVM-bit", "RC-NVM-wd"}

func samdMixInputs(cfg config) *samdInputs {
	rng := rand.New(rand.NewSource(int64(splitmix64(cfg.Seed ^ 0x5a3d))))
	designs, queries, n := samdDesigns, core.Benchmark(), roundJobs
	if cfg.Short {
		designs, queries, n = designs[:4], queries[:4], 64
	}
	combos := len(designs) * len(queries)
	keyOf := func(j int) jobKey {
		block, c := j/combos, j%combos
		k := jobKey{Design: designs[(c/len(queries))%len(designs)], Query: queries[c%len(queries)].Name,
			TableSeed: core.SmallWorkload().Seed}
		if block > 0 {
			k.TableSeed = splitmix64(cfg.Seed + uint64(block))
		}
		if (c+block)%3 == 0 {
			k.FaultRate = 1e-3
			k.FaultSeed = splitmix64(cfg.Seed^uint64(j)*0x9e3779b97f4a7c15)>>1 | 1
		}
		return k
	}
	z := rand.NewZipf(rng, zipfS, zipfV, zipfRanks-1)
	in := &samdInputs{Seq: make([]int32, n), Bodies: make([][]byte, n)}
	index := map[uint64]int32{}
	for i := range in.Seq {
		r := z.Uint64()
		ki, ok := index[r]
		if !ok {
			ki = int32(len(in.Keys))
			index[r] = ki
			in.Keys = append(in.Keys, keyOf(int(ki)))
		}
		in.Seq[i] = ki
		in.Bodies[i] = benchBody(in.Keys[ki])
	}
	if cfg.Short {
		return in // the fig14b job alone simulates 120 cells
	}
	in.FigureBody = mustJSON(serve.SubmitRequest{Kind: serve.KindFigure, Tenant: "fig",
		Workload: &serve.WorkloadReq{Small: true}, Figure: &serve.FigureReq{ID: "fig14b"}})
	return in
}

func benchBody(k jobKey) []byte {
	seed := k.TableSeed
	return mustJSON(serve.SubmitRequest{
		Kind: serve.KindBench, Tenant: "bench",
		Workload: &serve.WorkloadReq{Small: true, Seed: &seed},
		Bench:    &serve.BenchReq{Design: k.Design, Query: k.Query, FaultRate: k.FaultRate, FaultSeed: k.FaultSeed},
	})
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
}

// daemon is an in-process samd behind a loopback listener.
type daemon struct {
	d   *serve.Daemon
	srv *httptest.Server
}

func startDaemon(workers int) *daemon {
	d := serve.NewDaemon(serve.Config{Workers: workers})
	return &daemon{d: d, srv: httptest.NewServer(d.Handler())}
}

// stop drains the daemon (every accepted job terminal, workers exited)
// and closes the listener.
func (dm *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	err := dm.d.Drain(ctx)
	dm.srv.Close()
	return err
}

// jobRecord is one closed-loop job as its client saw it.
type jobRecord struct {
	Key      int // index into samdInputs.Keys; -1 = the figure job
	Pos      int // position in the round's job sequence; -1 = the figure job
	Latency  time.Duration
	Outcome  string // "done", "refused", "failed", "canceled", "error"
	Err      string
	Status   serve.JobStatus
	Instant  bool // POST answered 200: served from the result cache
	Polls    int
	Body     []byte
	BodySum  [32]byte
	SubmitUS float64
	StatusUS []float64
	ResultUS float64
}

// client is one closed-loop caller: submit, poll until terminal, fetch
// the result, and only then submit the next job.
type client struct {
	http *http.Client
	base string
	poll time.Duration
	tr   *tracer // nil when untraced
}

func (c *client) do(method, path string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// runJob drives one job through the HTTP API. group tags its spans.
func (c *client) runJob(key int, body []byte, group uint64) (rec jobRecord) {
	rec.Key = key
	t0 := time.Now()
	defer func() {
		rec.Latency = time.Since(t0)
		c.tr.add("job", group, "", t0, time.Now())
	}()
	ts := time.Now()
	code, resp, err := c.do("POST", "/jobs", body)
	rec.SubmitUS = float64(time.Since(ts)) / 1e3
	c.tr.add("serve.submit", group, "job", ts, time.Now())
	if err != nil {
		rec.Outcome, rec.Err = "error", err.Error()
		return rec
	}
	switch code {
	case http.StatusOK, http.StatusAccepted:
	case http.StatusTooManyRequests, http.StatusServiceUnavailable:
		rec.Outcome, rec.Err = "refused", fmt.Sprintf("HTTP %d: %s", code, bytes.TrimSpace(resp))
		return rec
	default:
		rec.Outcome, rec.Err = "error", fmt.Sprintf("HTTP %d: %s", code, bytes.TrimSpace(resp))
		return rec
	}
	var sub serve.SubmitResponse
	if err := json.Unmarshal(resp, &sub); err != nil {
		rec.Outcome, rec.Err = "error", "submit response: "+err.Error()
		return rec
	}
	rec.Instant = code == http.StatusOK
	st := sub.Job
	for st.State == serve.StateQueued || st.State == serve.StateRunning {
		time.Sleep(c.poll)
		tp := time.Now()
		code, resp, err = c.do("GET", "/jobs/"+st.ID, nil)
		rec.StatusUS = append(rec.StatusUS, float64(time.Since(tp))/1e3)
		c.tr.add("serve.status", group, "job", tp, time.Now())
		rec.Polls++
		if err != nil || code != http.StatusOK {
			rec.Outcome, rec.Err = "error", fmt.Sprintf("status: HTTP %d %v", code, err)
			return rec
		}
		st = serve.JobStatus{}
		if err := json.Unmarshal(resp, &st); err != nil {
			rec.Outcome, rec.Err = "error", "status: "+err.Error()
			return rec
		}
	}
	rec.Status = st
	if st.State != serve.StateDone {
		rec.Outcome, rec.Err = st.State, st.Err
		return rec
	}
	tr := time.Now()
	code, resp, err = c.do("GET", "/jobs/"+st.ID+"/result", nil)
	rec.ResultUS = float64(time.Since(tr)) / 1e3
	c.tr.add("serve.result", group, "job", tr, time.Now())
	if err != nil || code != http.StatusOK {
		rec.Outcome, rec.Err = "error", fmt.Sprintf("result: HTTP %d %v", code, err)
		return rec
	}
	rec.Outcome, rec.Body, rec.BodySum = "done", resp, sha256.Sum256(resp)
	return rec
}

// loopOut is one closed-loop phase.
type loopOut struct {
	Jobs []jobRecord
	// Bodies keeps the first body each key returned; the records drop
	// theirs so that the benchmark's own retention stays out of
	// retained_heap_mib.
	Bodies   map[int][]byte
	Elapsed  time.Duration
	ScrapeMS []float64
	Metrics  map[string]float64 // last /metrics scrape, by exposition name
}

// closedLoop is one round: clients closed-loop callers, polling every
// poll, take the job sequence in order until it is used up. Client 0 first
// submits the fig14b figure job.
func closedLoop(dm *daemon, in *samdInputs, clients int, poll time.Duration, tr *tracer) *loopOut {
	hc := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2 * clients}, Timeout: 5 * time.Minute}
	defer hc.CloseIdleConnections()
	var next atomic.Int64
	var mu sync.Mutex
	out := &loopOut{Bodies: map[int][]byte{}}
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := &client{http: hc, base: dm.srv.URL, poll: poll, tr: tr}
			record := func(rec jobRecord) {
				mu.Lock()
				if _, seen := out.Bodies[rec.Key]; !seen && rec.Outcome == "done" {
					out.Bodies[rec.Key] = rec.Body
				}
				rec.Body = nil
				out.Jobs = append(out.Jobs, rec)
				scrape := tr != nil && len(out.Jobs)%scrapeEvery == 0
				mu.Unlock()
				if scrape {
					ts := time.Now()
					if _, err := scrapeMetrics(c); err == nil {
						mu.Lock()
						out.ScrapeMS = append(out.ScrapeMS, float64(time.Since(ts))/1e6)
						mu.Unlock()
					}
					tr.add("obs.scrape", uint64(rec.Pos), "", ts, time.Now())
				}
			}
			if w == 0 && in.FigureBody != nil {
				rec := c.runJob(-1, in.FigureBody, uint64(len(in.Seq)))
				rec.Pos = -1
				record(rec)
			}
			for {
				i := int(next.Add(1) - 1)
				if i >= len(in.Seq) {
					return
				}
				rec := c.runJob(int(in.Seq[i]), in.Bodies[i], uint64(i))
				rec.Pos = i
				record(rec)
			}
		}(w)
	}
	wg.Wait()
	out.Elapsed = time.Since(start)
	if m, err := scrapeMetrics(&client{http: hc, base: dm.srv.URL}); err == nil {
		out.Metrics = m
	}
	return out
}

// scrapeMetrics GETs /metrics and parses the unlabelled samples.
func scrapeMetrics(c *client) (map[string]float64, error) {
	code, b, err := c.do("GET", "/metrics", nil)
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("/metrics: HTTP %d", code)
	}
	m := map[string]float64{}
	for _, line := range bytes.Split(b, []byte("\n")) {
		if len(line) == 0 || line[0] == '#' || bytes.ContainsRune(line, '{') {
			continue
		}
		var name string
		var v float64
		if _, err := fmt.Sscan(string(line), &name, &v); err == nil {
			m[name] = v
		}
	}
	return m, nil
}

// gateJobs applies the samd-mix output gate: every job must finish, and
// every body of one key must be byte-identical to the first body that key
// returned in any round so far. ref holds those first bodies and gains the
// keys this round computed first. Each round runs on a fresh daemon, so a
// key's later rounds are recomputations checked against the first; inside
// one round, cache hits and dedup followers share one computation and the
// comparison only checks how it was served.
func gateJobs(in *samdInputs, lp *loopOut, ref map[int][]byte, o *outcome) {
	for k, body := range lp.Bodies {
		if _, ok := ref[k]; !ok {
			ref[k] = body
		}
	}
	for _, j := range lp.Jobs {
		o.Attempted++
		if j.Outcome != "done" {
			o.fail(1, "job %s: %s %s", keyName(in, j.Key), j.Outcome, j.Err)
			continue
		}
		if sha256.Sum256(ref[j.Key]) != j.BodySum {
			o.fail(1, "job %s: body differs from the key's first body", keyName(in, j.Key))
		}
	}
}

func keyName(in *samdInputs, k int) string {
	if k < 0 {
		return "fig14b"
	}
	key := in.Keys[k]
	return fmt.Sprintf("%s/%s/seed=%x/fault=%g", key.Design, key.Query, key.TableSeed, key.FaultRate)
}

// keyRun resolves a key to the cell and fault model the daemon runs it
// with (serve's bench-job executor: small workload, table seed override,
// the campaign's default retry budget).
func keyRun(k jobKey) (core.BenchQuery, core.Workload, *sim.FaultModel, error) {
	q, ok := core.BenchQueryByName(k.Query)
	if !ok {
		return q, core.Workload{}, nil, fmt.Errorf("unknown query %s", k.Query)
	}
	w := core.SmallWorkload()
	w.Seed = k.TableSeed
	var fm *sim.FaultModel
	if k.FaultRate > 0 {
		fm = &sim.FaultModel{Rate: k.FaultRate, Seed: k.FaultSeed,
			MaxRetries: core.DefaultReliabilityCampaign().MaxRetries}
	}
	return q, w, fm, nil
}

// recomputeGate re-runs a sample of keys directly through
// core.RunOne/RunOneFaulted and compares with the daemon's bodies.
func recomputeGate(in *samdInputs, bodies map[int][]byte, o *outcome) {
	keys := sampleKeys(in, bodies, recomputeKeys)
	for _, k := range keys {
		key := in.Keys[k]
		kind, _ := core.KindByName(key.Design)
		q, w, fm, err := keyRun(key)
		var r *sim.QueryResult
		if err == nil {
			if fm != nil {
				r, err = core.RunOneFaulted(kind, design.Options{}, w, q, fm)
			} else {
				r, err = core.RunOne(kind, design.Options{}, w, q)
			}
		}
		var b []byte
		if err == nil {
			b, err = sim.EncodeResult(r)
		}
		o.Attempted++
		if err != nil {
			o.fail(1, "recompute %s: %v", keyName(in, k), err)
			continue
		}
		if !bytes.Equal(b, bodies[k]) {
			o.fail(1, "recompute %s: direct result differs from the daemon's body", keyName(in, k))
		}
	}
}

// sampleKeys picks up to n bench keys that finished, half of them with
// faults when available, in universe order (deterministic for a seed).
func sampleKeys(in *samdInputs, bodies map[int][]byte, n int) []int {
	var faulted, clean []int
	for k := range bodies {
		if k < 0 {
			continue
		}
		if in.Keys[k].FaultRate > 0 {
			faulted = append(faulted, k)
		} else {
			clean = append(clean, k)
		}
	}
	sort.Ints(faulted)
	sort.Ints(clean)
	var out []int
	for i := 0; len(out) < n && (i < len(faulted) || i < len(clean)); i++ {
		if i < len(faulted) {
			out = append(out, faulted[i])
		}
		if i < len(clean) && len(out) < n {
			out = append(out, clean[i])
		}
	}
	return out
}

// roundStats is what one round contributes to the end-to-end metrics.
type roundStats struct {
	lat              map[int]float64 // ms by sequence position, completed jobs
	jobsPerSec, mreq float64
	memo             map[string]int
}

func roundMetrics(lp *loopOut) roundStats {
	rs := roundStats{lat: map[int]float64{}, memo: map[string]int{}}
	var reqs uint64
	for _, j := range lp.Jobs {
		if j.Outcome != "done" {
			continue
		}
		rs.lat[j.Pos] = float64(j.Latency) / 1e6
		rs.memo[j.Status.Memo]++
		if j.Key >= 0 && j.Status.Memo == "miss" {
			if r, err := sim.DecodeResult(lp.Bodies[j.Key]); err == nil {
				reqs += r.Stats.MemRequests
			}
		}
	}
	secs := lp.Elapsed.Seconds()
	rs.jobsPerSec = float64(len(rs.lat)) / secs
	rs.mreq = float64(reqs) / secs / 1e6
	return rs
}

func runSamdMix(cfg config) (*outcome, error) {
	in := samdMixInputs(cfg)
	dm := startDaemon(cfg.Workers)
	if setupDone(cfg) {
		return nil, dm.stop()
	}
	o := &outcome{}
	o.Meta = map[string]any{"clients": cfg.Workers, "daemon_workers": cfg.Workers,
		"keys": len(in.Keys), "closed_loop": true, "poll_interval_ms": float64(cfg.Poll) / 1e6}
	if cfg.Trace {
		return o, tracedSamd(cfg, in, dm, o)
	}
	// Rounds of the same job sequence, each on a fresh daemon, until the
	// measurement time is spent: a fixed sequence keeps the miss share of
	// a round fixed, where a time-bounded stream would trade misses for
	// hits as the run got longer.
	var jps, mreq, heap []float64
	lat := map[int][]float64{}
	bodies := map[int][]byte{}
	start := time.Now()
	for r := 0; ; r++ {
		if r > 0 {
			dm = startDaemon(cfg.Workers)
		}
		lp := closedLoop(dm, in, cfg.Workers, cfg.Poll, nil)
		gateJobs(in, lp, bodies, o)
		rs := roundMetrics(lp)
		for pos, l := range rs.lat {
			lat[pos] = append(lat[pos], l)
		}
		jps = append(jps, rs.jobsPerSec)
		mreq = append(mreq, rs.mreq)
		// The daemon's job table and both cache tiers are still live here.
		memoryMetrics(o)
		heap = append(heap, o.Values["retained_heap_mib"])
		if err := dm.stop(); err != nil {
			return nil, fmt.Errorf("drain: %w", err)
		}
		o.Meta["memo_outcomes"] = rs.memo
		if cfg.Short || time.Since(start) >= cfg.Seconds {
			break
		}
	}
	o.set("jobs_per_s", median(jps))
	o.set("sim_mreq_per_s", median(mreq))
	// Every round submits the same sequence, so each position's latency
	// is its median over the rounds; p50 and p99 are taken over positions.
	med := make([]float64, 0, len(lat))
	for _, ls := range lat {
		med = append(med, median(ls))
	}
	o.set("job_p50_ms", quantile(med, 0.5))
	o.set("job_p99_ms", quantile(med, 0.99))
	o.set("retained_heap_mib", median(heap))
	o.set("peak_rss_mib", vmHWM())
	o.Meta["rounds_jobs_per_s"] = jps
	if beyond := len(med) - int(0.99*float64(len(med))+0.999999999); beyond < 10 {
		o.note("only %d positions lie beyond p99 (%d)", beyond, len(med))
	}
	recomputeGate(in, bodies, o)
	return o, nil
}

// replayKeys is how many computed bench keys the traced run replays
// layer by layer.
const replayKeys = 8

// tracedSamd is samd-mix's traced run: an untraced round (the
// tracing-overhead reference and the runtime metrics), then a traced round
// on a fresh daemon — client spans around every HTTP call, a /metrics
// scrape every scrapeEvery jobs — and finally a layer-by-layer replay of a
// sample of the cells the daemon computed.
func tracedSamd(cfg config, in *samdInputs, dm *daemon, o *outcome) error {
	var a *loopOut
	runtimeDelta(o, func() { a = closedLoop(dm, in, cfg.Workers, cfg.Poll, nil) })
	// The traced phase's bodies are gated against the untraced phase's.
	bodies := map[int][]byte{}
	gateJobs(in, a, bodies, o)
	if err := dm.stop(); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	dm = startDaemon(cfg.Workers)
	tr := newTracer()
	b := closedLoop(dm, in, cfg.Workers, cfg.Poll, tr)
	gateJobs(in, b, bodies, o)
	if err := dm.stop(); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	bodiesB := b.Bodies
	o.set("trace.overhead_frac", roundMetrics(a).jobsPerSec/roundMetrics(b).jobsPerSec-1)
	serveMetrics(cfg, in, b, bodiesB, o)

	var cells []*cellTrace
	var cellMS []float64
	for gi, k := range sampleKeys(in, bodiesB, replayKeys) {
		key := in.Keys[k]
		kind, _ := core.KindByName(key.Design)
		q, w, fm, err := keyRun(key)
		if err != nil {
			return err
		}
		ct, err := traceCell(w, simCell{Kind: kind, Query: q, Channels: 1}, fm, tr, uint64(len(b.Jobs)+gi))
		o.Attempted++
		if err != nil {
			o.fail(1, "replay %s: %v", keyName(in, k), err)
			continue
		}
		if enc, err := sim.EncodeResult(ct.Result); err != nil || !bytes.Equal(enc, bodiesB[k]) {
			o.fail(1, "replay %s: traced run differs from the daemon's body", keyName(in, k))
		}
		cells = append(cells, ct)
		cellMS = append(cellMS, float64(ct.Compile+ct.Run)/1e6)
	}
	if len(cells) > 0 {
		layerMetrics(cells, o)
	}
	o.set("core.cell_ms.p50", quantile(cellMS, 0.5))
	o.set("core.cell_ms.p90", quantile(cellMS, 0.9))
	recomputeGate(in, bodiesB, o)
	noteSelfTimes(tr, o)
	o.Meta["spans"] = cfg.SpansPath
	o.Meta["jobs"] = len(a.Jobs) + len(b.Jobs)
	return tr.write(cfg.SpansPath)
}

// serveMetrics derives the serve, memo, obs and fault metrics of the
// traced phase from the clients' records, the final /metrics scrape and
// the computed bodies.
func serveMetrics(cfg config, in *samdInputs, lp *loopOut, bodies map[int][]byte, o *outcome) {
	var submit, status, result, queue, runMS []float64
	var polls, rejected, dedup int
	var runNS float64
	for _, j := range lp.Jobs {
		submit = append(submit, j.SubmitUS)
		status = append(status, j.StatusUS...)
		polls += j.Polls
		switch j.Outcome {
		case "refused":
			rejected++
			continue
		case "done":
			result = append(result, j.ResultUS)
		}
		if j.Status.Memo == "dedup" {
			dedup++
		}
		if !j.Instant && j.Status.Memo != "dedup" {
			queue = append(queue, float64(j.Status.QueueNS)/1e6)
			runMS = append(runMS, float64(j.Status.RunNS)/1e6)
			runNS += float64(j.Status.RunNS)
		}
	}
	o.set("serve.submit_us.p50", quantile(submit, 0.5))
	o.set("serve.submit_us.p99", quantile(submit, 0.99))
	o.set("serve.status_us.p50", quantile(status, 0.5))
	o.set("serve.status_us.p99", quantile(status, 0.99))
	o.set("serve.result_us.p50", quantile(result, 0.5))
	o.set("serve.queue_ms.p50", quantile(queue, 0.5))
	o.set("serve.queue_ms.p99", quantile(queue, 0.99))
	o.set("serve.run_ms.p50", quantile(runMS, 0.5))
	o.set("serve.run_ms.p99", quantile(runMS, 0.99))
	if len(lp.Jobs) > 0 {
		o.set("serve.polls_per_job", float64(polls)/float64(len(lp.Jobs)))
	}
	o.set("serve.rejected", float64(rejected))
	o.set("runner.busy_frac", runNS/(float64(lp.Elapsed)*float64(cfg.Workers)))
	o.set("obs.scrape_ms", quantile(lp.ScrapeMS, 0.5))

	m := lp.Metrics
	ratio := func(hit, miss string) float64 {
		if d := m[hit] + m[miss]; d > 0 {
			return m[hit] / d
		}
		return 0
	}
	o.set("memo.hit_ratio", ratio("sam_memo_hits_total", "sam_memo_misses_total"))
	o.set("memo.bytes", m["sam_memo_bytes"])
	o.set("samd.results.hit_ratio", ratio("sam_samd_results_hits_total", "sam_samd_results_misses_total"))
	o.set("samd.results.dedup", float64(dedup)+m["sam_samd_results_inflight_dedup_total"])

	var fc struct{ bursts, corrected, due, poisoned uint64 }
	for k, body := range bodies {
		if k < 0 || in.Keys[k].FaultRate == 0 {
			continue
		}
		r, err := sim.DecodeResult(body)
		if err != nil || r.Stats.Reliability == nil {
			o.fail(1, "job %s: faulted body carries no reliability block", keyName(in, k))
			continue
		}
		fc.bursts += r.Stats.Reliability.Bursts
		fc.corrected += r.Stats.Reliability.CorrectedBursts
		fc.due += r.Stats.Reliability.DUEs
		fc.poisoned += r.Stats.Controller.Poisoned
	}
	o.set("fault.bursts", float64(fc.bursts))
	o.set("fault.corrected", float64(fc.corrected))
	o.set("fault.due", float64(fc.due))
	o.set("fault.poisoned", float64(fc.poisoned))
}
