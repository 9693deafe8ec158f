package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"sam/internal/obs"
)

// serveLocal sends one request straight through the daemon's handler.
func serveLocal(h http.Handler, method, path, body string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
	return rec
}

// liveHeap is the heap in use after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// TestSoakBoundedMemory resubmits one cached bench job 100k times (fewer
// under -race) through the HTTP handler of a daemon whose result cache —
// and so its terminal job table — holds 8 entries. The heap after the
// run stays within a fixed bound of the heap after the first 10k
// submissions, /progress still counts every submission, and an ID whose
// record was dropped answers "job expired" while one never issued
// answers "no such job".
func TestSoakBoundedMemory(t *testing.T) {
	const warm, heapBound = 10_000, 1 << 20
	n := 100_000
	if raceEnabled {
		n = 20_000
	}
	d := NewDaemon(Config{Workers: 1, ResultEntries: 8})
	defer d.Drain(context.Background())
	h := d.Handler()
	body := benchBody("soak", "baseline", "Q1")

	submit := func() JobStatus {
		rec := serveLocal(h, "POST", "/jobs", body)
		if rec.Code != http.StatusOK && rec.Code != http.StatusAccepted {
			t.Fatalf("submit: status %d: %s", rec.Code, rec.Body)
		}
		var sr SubmitResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &sr); err != nil {
			t.Fatal(err)
		}
		return sr.Job
	}
	first := submit()
	for deadline := time.Now().Add(time.Minute); ; time.Sleep(time.Millisecond) {
		var st JobStatus
		rec := serveLocal(h, "GET", "/jobs/"+first.ID, "")
		if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
			t.Fatal(err)
		}
		if st.State == StateDone {
			break
		}
		if st.State != StateQueued && st.State != StateRunning || time.Now().After(deadline) {
			t.Fatalf("first job: %+v", st)
		}
	}

	var base uint64
	for i := 1; i < n; i++ {
		if st := submit(); st.State != StateDone || st.Memo != "hit" {
			t.Fatalf("submission %d not served from the cache: %+v", i, st)
		}
		if i == warm {
			base = liveHeap()
		}
	}
	end := liveHeap()
	t.Logf("live heap after %d submissions: %d bytes; after %d: %d bytes", warm, base, n, end)
	if end > base+heapBound {
		t.Fatalf("heap grew from %d to %d bytes over %d cached submissions (bound +%d)",
			base, end, n-warm, heapBound)
	}

	var rep obs.Report
	if err := json.Unmarshal(serveLocal(h, "GET", "/progress", "").Body.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	counted := false
	for _, s := range rep.Sweeps {
		if s.Sweep == "samd" {
			counted = s.Total == n && s.Done == n
		}
	}
	if !counted {
		t.Fatalf("/progress does not count all %d submissions: %+v", n, rep.Sweeps)
	}

	if got := len(d.sched.List()); got != 8 {
		t.Fatalf("job table lists %d jobs, want the 8 retained", got)
	}
	for _, tc := range []struct{ path, want string }{
		{"/jobs/" + first.ID, "job expired"},
		{"/jobs/" + first.ID + "/result", "job expired"},
		{"/jobs/j-999999999", "no such job"},
		{"/jobs/j-999999999/result", "no such job"},
		{"/jobs/bogus", "no such job"},
	} {
		rec := serveLocal(h, "GET", tc.path, "")
		var e errorResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil {
			t.Fatal(err)
		}
		if rec.Code != http.StatusNotFound || e.Error != tc.want {
			t.Errorf("GET %s = %d %q, want 404 %q", tc.path, rec.Code, e.Error, tc.want)
		}
	}
}
