package obs_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"sam/internal/core"
	"sam/internal/obs"
	"sam/internal/runner"
	"sam/internal/stats"
)

// parseLog decodes a JSONL event stream.
func parseLog(t *testing.T, data []byte) []obs.Event {
	t.Helper()
	var events []obs.Event
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var e obs.Event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("bad event line %q: %v", sc.Text(), err)
		}
		events = append(events, e)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return events
}

// TestEventLogReconciles is the acceptance test: summing the job-span
// durations and memo attributions out of the JSONL event log reproduces
// the tracker's registry snapshot and the memo cache's counters exactly,
// for a fig12 run at 1 and at 8 workers.
func TestEventLogReconciles(t *testing.T) {
	for _, workers := range []int{1, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			var log bytes.Buffer
			tr := obs.NewTracker(obs.Config{Log: &log})
			cache := core.NewMemo(core.MemoOptions{})
			par := core.Par{Workers: workers, Memo: cache, Observer: tr.Hooks("fig12")}
			fig, err := core.Fig12(context.Background(), core.SmallWorkload(), par)
			if err != nil {
				t.Fatal(err)
			}
			if err := tr.Close(); err != nil {
				t.Fatalf("tracker close: %v", err)
			}
			events := parseLog(t, log.Bytes())

			var enq, started uint64
			finished := map[string]uint64{} // memo outcome -> count (finish events)
			var failed uint64
			var runSum, queueSum, finCount uint64
			startSeen := map[int]bool{}
			var summary *obs.SummaryEvent
			for _, e := range events {
				switch e.Ev {
				case "enqueue":
					enq += uint64(e.Jobs)
				case "start":
					started++
					if startSeen[e.Job] {
						t.Fatalf("job %d started twice", e.Job)
					}
					startSeen[e.Job] = true
				case "finish", "fail":
					if !startSeen[e.Job] {
						t.Fatalf("job %d finished without starting", e.Job)
					}
					delete(startSeen, e.Job)
					runSum += uint64(e.RunNS)
					queueSum += uint64(e.QueueNS)
					finCount++
					if e.Ev == "fail" {
						failed++
					} else {
						finished[e.Memo]++
					}
				case "summary":
					summary = e.Summary
				}
			}
			if len(startSeen) != 0 {
				t.Fatalf("%d jobs started but never finished", len(startSeen))
			}
			if summary == nil {
				t.Fatal("no summary event in log")
			}

			snap := tr.Snapshot()
			wantJobs := len(core.Benchmark()) * (1 + 8) // queries x (baseline + evaluated designs)
			if enq != uint64(wantJobs) {
				t.Fatalf("log enqueued %d jobs, want %d", enq, wantJobs)
			}
			for name, want := range map[string]uint64{
				"obs.jobs.enqueued": enq,
				"obs.jobs.started":  started,
				"obs.jobs.finished": finCount - failed,
				"obs.jobs.failed":   failed,
			} {
				if got := snap.Counters[name]; got != want {
					t.Errorf("%s: registry %d, log %d", name, got, want)
				}
			}
			for outcome, n := range finished {
				if outcome == "" {
					t.Errorf("%d finish events without memo attribution", n)
					continue
				}
				if got := snap.Counters["obs.memo."+outcome]; got != n {
					t.Errorf("obs.memo.%s: registry %d, log %d", outcome, got, n)
				}
			}
			run := snap.Histograms["obs.job.run_ns"]
			if run.Sum != runSum || run.Total != finCount {
				t.Errorf("run_ns histogram (sum %d n %d) != log (sum %d n %d)",
					run.Sum, run.Total, runSum, finCount)
			}
			queue := snap.Histograms["obs.job.queue_ns"]
			if queue.Sum != queueSum || queue.Total != finCount {
				t.Errorf("queue_ns histogram (sum %d n %d) != log (sum %d n %d)",
					queue.Sum, queue.Total, queueSum, finCount)
			}
			// Cold cache: every job's lookup was a miss or a dedup of a
			// concurrent miss; the cache counters must match the per-job
			// attribution exactly.
			ct := cache.Counters()
			if finished["miss"] != ct.Misses || finished["dedup"] != ct.InflightDedup ||
				finished["hit"] != ct.Hits || finished["disk-hit"] != ct.DiskHits {
				t.Errorf("memo attribution (miss %d dedup %d hit %d disk %d) != cache counters %+v",
					finished["miss"], finished["dedup"], finished["hit"], finished["disk-hit"], ct)
			}
			// The summary's counter snapshot is the registry's.
			for name, v := range summary.Counters {
				if snap.Counters[name] != v {
					t.Errorf("summary counter %s = %d, registry %d", name, v, snap.Counters[name])
				}
			}

			// Progress must agree the sweep is complete.
			rep := tr.Progress()
			if len(rep.Sweeps) != 1 || rep.Sweeps[0].Done != wantJobs || rep.Sweeps[0].Running != 0 {
				t.Errorf("progress report incomplete: %+v", rep.Sweeps)
			}

			if workers != 8 {
				return
			}
			// Warm re-run against the same cache under a fresh tracker:
			// every job must attribute as a cache hit, and the figure must
			// be identical to the cold run.
			var log2 bytes.Buffer
			tr2 := obs.NewTracker(obs.Config{Log: &log2})
			par2 := core.Par{Workers: workers, Memo: cache, Observer: tr2.Hooks("fig12")}
			fig2, err := core.Fig12(context.Background(), core.SmallWorkload(), par2)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(fig.Cells, fig2.Cells) {
				t.Error("observed warm re-run changed the figure")
			}
			snap2 := tr2.Snapshot()
			if hits := snap2.Counters["obs.memo.hit"]; hits != uint64(wantJobs) {
				t.Errorf("warm run attributed %d hits, want %d (misses %d)",
					hits, wantJobs, snap2.Counters["obs.memo.miss"])
			}
		})
	}
}

// TestObserverDoesNotPerturbResults pins the one-way contract at the
// driver level: the same sweep with and without an observer produces
// byte-identical figures.
func TestObserverDoesNotPerturbResults(t *testing.T) {
	w := core.SmallWorkload()
	plain, err := core.Fig12(context.Background(), w, core.Par{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.NewTracker(obs.Config{})
	observed, err := core.Fig12(context.Background(), w, core.Par{Workers: 4, Observer: tr.Hooks("fig12")})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain.Cells, observed.Cells) {
		t.Error("attaching the observer changed figure results")
	}
}

// TestConcurrentScrape hammers the tracker from 8 worker goroutines while
// scraping /metrics and /progress — the -race test for the lock
// discipline between job callbacks and HTTP reads.
func TestConcurrentScrape(t *testing.T) {
	tr := obs.NewTracker(obs.Config{Log: io.Discard})
	srv := obs.NewServer(tr)
	srv.AddSource(func() *stats.Snapshot {
		return &stats.Snapshot{Counters: map[string]uint64{"example.source.events": 42}}
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	const workers, jobsPer = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			span := tr.Hooks(fmt.Sprintf("sweep-%d", w)).SweepStarted(jobsPer)
			for i := 0; i < jobsPer; i++ {
				span.JobStarted(i, w)
				span.JobAnnotate(i, "memo", "miss")
				span.JobFinished(i, w, nil)
			}
		}(w)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	client := ts.Client()
	for scraping := true; scraping; {
		select {
		case <-done:
			scraping = false
		default:
		}
		for _, path := range []string{"/metrics", "/progress", "/healthz"} {
			resp, err := client.Get(ts.URL + path)
			if err != nil {
				t.Fatal(err)
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			if path == "/metrics" && !strings.Contains(string(body), "sam_obs_jobs_enqueued_total") {
				t.Fatalf("metrics scrape missing obs families:\n%s", body)
			}
		}
	}
	snap := tr.Snapshot()
	want := uint64(workers * jobsPer)
	if snap.Counters["obs.jobs.finished"] != want || snap.Counters["obs.memo.miss"] != want {
		t.Fatalf("lost updates under concurrency: %v", snap.Counters)
	}
	// Final progress JSON must be complete and well-formed.
	resp, err := client.Get(ts.URL + "/progress")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var rep obs.Report
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, sw := range rep.Sweeps {
		total += sw.Done
	}
	if total != workers*jobsPer {
		t.Fatalf("progress reports %d done, want %d", total, workers*jobsPer)
	}
}

// TestStallWatchdog drives the watchdog with an injected clock: a running
// job beyond max(floor, factor x median) is flagged exactly once, the
// stalled gauge tracks it, and /healthz flips to 503 and back.
func TestStallWatchdog(t *testing.T) {
	now := time.Unix(1000, 0)
	clock := func() time.Time { return now }
	var log bytes.Buffer
	tr := obs.NewTracker(obs.Config{
		Log:         &log,
		Clock:       clock,
		StallFactor: 2,
		StallFloor:  time.Millisecond,
	})
	srv := obs.NewServer(tr)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	span := tr.Hooks("sweep").SweepStarted(3)
	// Complete one job in 10ms -> median 10ms -> threshold 20ms.
	span.JobStarted(0, 0)
	now = now.Add(10 * time.Millisecond)
	span.JobFinished(0, 0, nil)

	span.JobStarted(1, 0)
	now = now.Add(15 * time.Millisecond)
	if n := tr.CheckStalls(); n != 0 {
		t.Fatalf("job under threshold flagged stalled (n=%d)", n)
	}
	now = now.Add(10 * time.Millisecond) // running 25ms > 20ms threshold
	if n := tr.CheckStalls(); n != 1 {
		t.Fatalf("stalled job not flagged (n=%d)", n)
	}
	if n := tr.CheckStalls(); n != 1 {
		t.Fatalf("second check changed the count (n=%d)", n)
	}
	if got := tr.Snapshot().Counters["obs.stalls"]; got != 1 {
		t.Fatalf("obs.stalls = %d, want 1 (stall must log once)", got)
	}
	resp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 503 {
		t.Fatalf("healthz with a stalled job = %d, want 503", resp.StatusCode)
	}
	span.JobFinished(1, 0, nil)
	if n := tr.CheckStalls(); n != 0 {
		t.Fatalf("finished job still counted stalled (n=%d)", n)
	}
	resp, err = ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("healthz after recovery = %d, want 200", resp.StatusCode)
	}
	if !bytes.Contains(log.Bytes(), []byte(`"ev":"stall"`)) {
		t.Error("no stall event in the log")
	}
}

// TestMetricsParse exercises the full merged scrape (tracker + sources +
// derived gauges) through the stats exposition writer and checks the
// required families appear and parse.
func TestMetricsParse(t *testing.T) {
	tr := obs.NewTracker(obs.Config{})
	finish := tr.Single("one")
	finish(nil)
	srv := obs.NewServer(tr)
	srv.AddSource(func() *stats.Snapshot {
		return &stats.Snapshot{Counters: map[string]uint64{"example.source.runs": 3, "example.source.events": 9}}
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	get := func() string {
		resp, err := ts.Client().Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	get() // first scrape establishes the rate baseline
	body := get()
	for _, want := range []string{
		"# TYPE sam_obs_jobs_enqueued_total counter",
		"# TYPE sam_obs_job_run_ns histogram",
		"sam_obs_job_run_ns_bucket{le=\"+Inf\"} 1",
		"# TYPE sam_obs_jobs_inflight gauge",
		"sam_example_source_events_total 9",
		"sam_obs_rate_jobs_per_s",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q:\n%s", want, body)
		}
	}
	// The span bracketed no annotation; counters must still be coherent.
	if !strings.Contains(body, "sam_obs_jobs_finished_total 1") {
		t.Errorf("single span not counted:\n%s", body)
	}
}

// TestRunnerAnnotateNoObserver pins that Annotate without an observed
// context is a safe no-op (the nil-observer fast path).
func TestRunnerAnnotateNoObserver(t *testing.T) {
	runner.Annotate(context.Background(), "memo", "miss")
	_, err := runner.Map(context.Background(), []int{1, 2, 3}, runner.Options{Workers: 2},
		func(ctx context.Context, _ int, v int) (int, error) {
			runner.Annotate(ctx, "memo", "miss")
			return v, nil
		})
	if err != nil {
		t.Fatal(err)
	}
}

// TestLiveSpansScopeWideIndices runs two spans under one label. /progress
// counts come from the scope's counters whether or not a span is still
// live, a stall names the job's scope-wide index, and once every span has
// finished nothing is left counted as running or stalled.
func TestLiveSpansScopeWideIndices(t *testing.T) {
	now := time.Unix(1000, 0)
	var log bytes.Buffer
	tr := obs.NewTracker(obs.Config{
		Log: &log, Clock: func() time.Time { return now },
		StallFactor: 1, StallFloor: time.Millisecond,
	})
	a := tr.Hooks("s").SweepStarted(2)
	b := tr.Hooks("s").SweepStarted(3) // scope-wide jobs 2..4
	a.JobStarted(0, 0)
	a.JobFinished(0, 0, nil)
	a.JobStarted(1, 0)
	a.JobFinished(1, 0, errors.New("boom")) // a's last job: a leaves the live set
	b.JobStarted(2, 1)
	now = now.Add(time.Second)
	if n := tr.CheckStalls(); n != 1 {
		t.Fatalf("CheckStalls = %d, want 1", n)
	}
	check := func(want obs.SweepProgress, stalled int) {
		t.Helper()
		rep := tr.Progress()
		if len(rep.Sweeps) != 1 || rep.Stalled != stalled {
			t.Fatalf("progress = %+v, want one sweep and %d stalled", rep, stalled)
		}
		got := rep.Sweeps[0]
		got.MedianRunNS, got.ETANS = 0, 0
		if got != want {
			t.Fatalf("progress sweep = %+v, want %+v", got, want)
		}
	}
	check(obs.SweepProgress{Sweep: "s", Total: 5, Queued: 2, Running: 1, Done: 1, Failed: 1}, 1)

	var stall *obs.Event
	for _, e := range parseLog(t, log.Bytes()) {
		if e.Ev == "stall" {
			e := e
			stall = &e
		}
	}
	if stall == nil || stall.Job != 4 || stall.Worker != 1 {
		t.Fatalf("stall event = %+v, want scope-wide job 4 on worker 1", stall)
	}

	b.JobFinished(2, 1, nil)
	for i := 0; i < 2; i++ {
		b.JobStarted(i, 0)
		b.JobFinished(i, 0, nil)
	}
	if n := tr.CheckStalls(); n != 0 {
		t.Fatalf("CheckStalls after all finished = %d, want 0", n)
	}
	check(obs.SweepProgress{Sweep: "s", Total: 5, Done: 4, Failed: 1}, 0)
}

// TestCancelledMapClosesSkippedJobs cancels an observed 4-item Map while
// item 1 runs. Items 2 and 3 never start, yet the tracker must not count
// them queued: Map closes them with the context's error, so /progress,
// the queued gauge and the event log all show every job finished.
func TestCancelledMapClosesSkippedJobs(t *testing.T) {
	for _, workers := range []int{1, 2} {
		var log bytes.Buffer
		tr := obs.NewTracker(obs.Config{Log: &log})
		ctx, cancel := context.WithCancel(context.Background())
		_, err := runner.Map(ctx, []int{0, 1, 2, 3}, runner.Options{Workers: workers, Observer: tr.Hooks("cancel")},
			func(_ context.Context, i, _ int) (int, error) {
				if i == 1 {
					cancel()
				}
				return i, nil
			})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: Map error %v, want context.Canceled", workers, err)
		}
		rep := tr.Progress()
		if len(rep.Sweeps) != 1 {
			t.Fatalf("workers=%d: %d sweeps in progress report", workers, len(rep.Sweeps))
		}
		if sp := rep.Sweeps[0]; sp.Queued != 0 || sp.Running != 0 || sp.Done+sp.Failed != 4 || sp.ETANS != 0 {
			t.Errorf("workers=%d: progress after cancel %+v, want every job closed", workers, sp)
		}
		snap := tr.Snapshot()
		if q := snap.Gauges["obs.jobs.queued"].Cur; q != 0 {
			t.Errorf("workers=%d: obs.jobs.queued = %v after cancel", workers, q)
		}
		if s, f := snap.Counters["obs.jobs.started"], snap.Counters["obs.jobs.finished"]+snap.Counters["obs.jobs.failed"]; s != 4 || f != 4 {
			t.Errorf("workers=%d: %d started, %d finished or failed; want 4 and 4", workers, s, f)
		}
		if err := tr.Close(); err != nil {
			t.Fatal(err)
		}
		ends := 0
		for _, ev := range parseLog(t, log.Bytes()) {
			if ev.Ev == "finish" || ev.Ev == "fail" {
				ends++
			}
		}
		if ends != 4 {
			t.Errorf("workers=%d: event log closes %d jobs, want 4", workers, ends)
		}
	}
}
