package serve

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"
)

// fakeClock is the injectable scheduler clock: time moves only when a
// test advances it, so queue-age thresholds are exact, not sleep-raced.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Unix(1_700_000_000, 0)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// benchReq builds a valid bench submission whose content key is unique
// per seed (the fault seed is part of the fingerprint even at rate 0).
func benchReq(tenant, priority string, seed uint64) *SubmitRequest {
	r := &SubmitRequest{
		Kind:     KindBench,
		Tenant:   tenant,
		Priority: priority,
		Bench:    &BenchReq{Design: "baseline", Query: "Q1", FaultSeed: seed},
	}
	if err := r.Validate(); err != nil {
		panic(err)
	}
	return r
}

// waitState polls until the job reaches want (the scheduler publishes
// terminal states via the done channel; non-terminal transitions are
// polled).
func waitState(t *testing.T, s *sched, j *job, want string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if st := s.Status(j); st.State == want {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("job %s never reached state %q (now %q)", j.id, want, s.Status(j).State)
}

// blockingSched builds a single-worker scheduler whose exec parks each
// job on release until the test lets it go, reporting dispatch order on
// started.
func blockingSched(clk *fakeClock, quota, queueCap int) (s *sched, started chan string, release chan struct{}) {
	started = make(chan string, 64)
	release = make(chan struct{})
	cfg := schedConfig{
		Workers:      1,
		QueueCap:     queueCap,
		TenantQuota:  quota,
		MaxQueueWait: time.Minute,
		Clock:        clk.Now,
		Exec: func(ctx context.Context, j *job) (jobResult, string, error) {
			started <- j.id
			select {
			case <-release:
				return jobResult{Body: []byte(j.id)}, "miss", nil
			case <-ctx.Done():
				return jobResult{}, "", ctx.Err()
			}
		},
	}
	return newSched(cfg), started, release
}

func nextStarted(t *testing.T, started chan string) string {
	t.Helper()
	select {
	case id := <-started:
		return id
	case <-time.After(10 * time.Second):
		t.Fatal("no job dispatched within 10s")
		return ""
	}
}

// TestPriorityDispatchAndAging pins the two dispatch rules with an
// injected clock: strict priority (a queued high-priority job is always
// picked before queued normal/low work), and the anti-starvation bound (a
// job queued at least MaxQueueWait is promoted ahead of every class, so a
// flood of high-priority submissions delays low-priority work by a
// bounded wait, never forever).
func TestPriorityDispatchAndAging(t *testing.T) {
	clk := newFakeClock()
	s, started, release := blockingSched(clk, 0, 100)

	a, err := s.Submit(benchReq("t1", PriorityLow, 1), nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := nextStarted(t, started); got != a.id {
		t.Fatalf("first dispatch = %s, want %s", got, a.id)
	}

	// Queue: two more lows, then a high. Strict priority must pick the
	// high next even though the lows are older.
	low2, _ := s.Submit(benchReq("t1", PriorityLow, 2), nil)
	if _, err := s.Submit(benchReq("t1", PriorityLow, 3), nil); err != nil {
		t.Fatal(err)
	}
	high, err := s.Submit(benchReq("t2", PriorityHigh, 4), nil)
	if err != nil {
		t.Fatal(err)
	}
	release <- struct{}{}
	if got := nextStarted(t, started); got != high.id {
		t.Fatalf("post-release dispatch = %s, want high-priority %s", got, high.id)
	}

	// Aging: low2 was enqueued at t0. Let 45s pass, then flood fresh highs,
	// then cross low2 over the 60s MaxQueueWait bound — the aged low must
	// beat the (20s-old) highs.
	clk.Advance(45 * time.Second)
	if _, err := s.Submit(benchReq("t2", PriorityHigh, 5), nil); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(benchReq("t2", PriorityHigh, 6), nil); err != nil {
		t.Fatal(err)
	}
	clk.Advance(20 * time.Second)
	release <- struct{}{}
	if got := nextStarted(t, started); got != low2.id {
		t.Fatalf("aged dispatch = %s, want promoted low-priority %s", got, low2.id)
	}

	// Let everything finish and shut down.
	go func() {
		for {
			select {
			case release <- struct{}{}:
			case <-time.After(time.Second):
				return
			}
		}
	}()
	s.Drain(context.Background())
}

// TestTenantQuota pins 429-class admission: a tenant at its active-job
// cap is refused while other tenants are not, and capacity frees when its
// jobs complete.
func TestTenantQuota(t *testing.T) {
	clk := newFakeClock()
	s, started, release := blockingSched(clk, 2, 100)

	j1, err := s.Submit(benchReq("alice", PriorityNormal, 1), nil)
	if err != nil {
		t.Fatal(err)
	}
	nextStarted(t, started)
	if _, err := s.Submit(benchReq("alice", PriorityNormal, 2), nil); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(benchReq("alice", PriorityNormal, 3), nil); err != ErrQuota {
		t.Fatalf("third active alice job: err = %v, want ErrQuota", err)
	}
	// Another tenant is unaffected.
	if _, err := s.Submit(benchReq("bob", PriorityNormal, 4), nil); err != nil {
		t.Fatalf("bob blocked by alice's quota: %v", err)
	}
	// Completing an alice job frees her slot.
	release <- struct{}{}
	waitState(t, s, j1, StateDone)
	if _, err := s.Submit(benchReq("alice", PriorityNormal, 5), nil); err != nil {
		t.Fatalf("alice refused after a completion freed quota: %v", err)
	}

	go func() {
		for {
			select {
			case release <- struct{}{}:
			case <-time.After(time.Second):
				return
			}
		}
	}()
	s.Drain(context.Background())
}

// TestQueueCap pins the global backpressure bound.
func TestQueueCap(t *testing.T) {
	clk := newFakeClock()
	s, started, release := blockingSched(clk, 0, 1)

	if _, err := s.Submit(benchReq("t1", PriorityNormal, 1), nil); err != nil {
		t.Fatal(err)
	}
	nextStarted(t, started) // running — queue empty again
	if _, err := s.Submit(benchReq("t1", PriorityNormal, 2), nil); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(benchReq("t1", PriorityNormal, 3), nil); err != ErrQueueFull {
		t.Fatalf("over-cap submit: err = %v, want ErrQueueFull", err)
	}
	// A duplicate of queued work attaches as a follower — no queue slot —
	// so dedup still admits at full queue.
	if _, err := s.Submit(benchReq("t1", PriorityNormal, 2), nil); err != nil {
		t.Fatalf("dedup submit refused at full queue: %v", err)
	}

	go func() {
		for {
			select {
			case release <- struct{}{}:
			case <-time.After(time.Second):
				return
			}
		}
	}()
	s.Drain(context.Background())
}

// TestDedupFollowers pins content-addressed dedup: identical submissions
// from different tenants attach to the in-flight leader, run once, and
// all complete with the leader's result attributed "dedup".
func TestDedupFollowers(t *testing.T) {
	clk := newFakeClock()
	s, started, release := blockingSched(clk, 0, 100)

	leader, err := s.Submit(benchReq("alice", PriorityNormal, 7), nil)
	if err != nil {
		t.Fatal(err)
	}
	nextStarted(t, started)
	f1, err := s.Submit(benchReq("bob", PriorityHigh, 7), nil)
	if err != nil {
		t.Fatal(err)
	}
	f2, err := s.Submit(benchReq("carol", PriorityLow, 7), nil)
	if err != nil {
		t.Fatal(err)
	}
	if f1.leaderID != leader.id || f2.leaderID != leader.id {
		t.Fatalf("followers not attached to leader %s: %q %q", leader.id, f1.leaderID, f2.leaderID)
	}

	release <- struct{}{}
	for _, j := range []*job{leader, f1, f2} {
		waitState(t, s, j, StateDone)
	}
	if string(f1.result.Body) != string(leader.result.Body) {
		t.Fatalf("follower result %q != leader result %q", f1.result.Body, leader.result.Body)
	}
	if st := s.Status(f1); st.Memo != "dedup" || st.DedupOf != leader.id {
		t.Fatalf("follower status = %+v, want memo=dedup dedup_of=%s", st, leader.id)
	}
	if st := s.Status(leader); st.Memo != "miss" {
		t.Fatalf("leader memo = %q, want miss", st.Memo)
	}
	if got := len(started); got != 0 {
		t.Fatalf("%d extra dispatches after dedup — followers must not run", got)
	}
	s.Drain(context.Background())
}

// TestDrainGraceful: with a live context, Drain lets queued and running
// work finish; everything ends done, and submissions are refused.
func TestDrainGraceful(t *testing.T) {
	clk := newFakeClock()
	cfg := schedConfig{
		Workers: 2, QueueCap: 100, Clock: clk.Now,
		Exec: func(ctx context.Context, j *job) (jobResult, string, error) {
			return jobResult{Body: []byte(j.id)}, "miss", nil
		},
	}
	s := newSched(cfg)
	var jobs []*job
	for i := 0; i < 8; i++ {
		j, err := s.Submit(benchReq("t1", PriorityNormal, uint64(i)), nil)
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	s.Drain(context.Background())
	for _, j := range jobs {
		if st := s.Status(j); st.State != StateDone {
			t.Fatalf("after graceful drain job %s state = %q, want done", j.id, st.State)
		}
	}
	if _, err := s.Submit(benchReq("t1", PriorityNormal, 99), nil); err != ErrDraining {
		t.Fatalf("submit after drain: err = %v, want ErrDraining", err)
	}
}

// TestDrainForced: with an expired context, Drain cancels queued jobs
// outright and interrupts running ones via their contexts; every accepted
// job still reaches a terminal state before Drain returns.
func TestDrainForced(t *testing.T) {
	clk := newFakeClock()
	s, started, _ := blockingSched(clk, 0, 100)

	running, err := s.Submit(benchReq("t1", PriorityNormal, 1), nil)
	if err != nil {
		t.Fatal(err)
	}
	nextStarted(t, started)
	queued, err := s.Submit(benchReq("t1", PriorityNormal, 2), nil)
	if err != nil {
		t.Fatal(err)
	}
	follower, err := s.Submit(benchReq("t2", PriorityNormal, 2), nil)
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel() // grace already expired: force immediately
	s.Drain(ctx)

	for _, j := range []*job{running, queued, follower} {
		st := s.Status(j)
		if st.State != StateCanceled {
			t.Fatalf("after forced drain job %s state = %q, want canceled", j.id, st.State)
		}
	}
}

// TestStatusListing sanity-checks the polling document fields.
func TestStatusListing(t *testing.T) {
	clk := newFakeClock()
	s, started, release := blockingSched(clk, 0, 100)
	j, err := s.Submit(benchReq("t1", PriorityHigh, 1), nil)
	if err != nil {
		t.Fatal(err)
	}
	nextStarted(t, started)
	st := s.Status(j)
	if st.State != StateRunning || st.Priority != PriorityHigh || st.Kind != KindBench {
		t.Fatalf("running status = %+v", st)
	}
	release <- struct{}{}
	waitState(t, s, j, StateDone)
	if l := s.List(); len(l) != 1 || l[0].ID != j.id {
		t.Fatalf("listing = %+v", l)
	}
	s.Drain(context.Background())
}

// TestListWhileRetiring lists the table while jobs finish and leave it:
// every listing is one snapshot in submission order holding at most
// Retain terminal jobs, and afterwards a dropped ID reports errExpired
// while an ID never issued reports errNoSuchJob. Under -race it also
// checks List's locking against retirement.
func TestListWhileRetiring(t *testing.T) {
	const retain, jobs = 4, 500
	s := newSched(schedConfig{
		Workers: 2, QueueCap: jobs, Retain: retain,
		Exec: func(ctx context.Context, j *job) (jobResult, string, error) {
			return jobResult{Body: []byte(j.id)}, "miss", nil
		},
	})
	stop := make(chan struct{})
	listed := make(chan error, 1)
	go func() {
		for {
			select {
			case <-stop:
				listed <- nil
				return
			default:
			}
			l, terminal := s.List(), 0
			for i, st := range l {
				if i > 0 && st.ID <= l[i-1].ID {
					listed <- fmt.Errorf("listing out of order: %s after %s", st.ID, l[i-1].ID)
					return
				}
				if st.State == StateDone {
					terminal++
				}
			}
			if terminal > retain {
				listed <- fmt.Errorf("listing holds %d terminal jobs, retain %d", terminal, retain)
				return
			}
		}
	}()
	var ids []string
	for i := 0; i < jobs; i++ {
		j, err := s.Submit(benchReq("t1", PriorityNormal, uint64(i)), nil)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, j.id)
	}
	s.Drain(context.Background())
	close(stop)
	if err := <-listed; err != nil {
		t.Fatal(err)
	}
	l := s.List()
	if len(l) != retain || l[retain-1].ID != ids[jobs-1] {
		t.Fatalf("after drain listing = %+v, want the last %d jobs", l, retain)
	}
	// The table keeps the last jobs to finish, not the last submitted: a
	// worker descheduled on j-000001 can finish it after the others. The
	// first ID the listing lacks is the oldest dropped one.
	held := make(map[string]bool, len(l))
	for _, st := range l {
		held[st.ID] = true
	}
	dropped := ids[0]
	for i := 1; held[dropped]; i++ {
		dropped = ids[i]
	}
	if _, err := s.Get(dropped); err != errExpired {
		t.Fatalf("Get(dropped %s) err = %v, want errExpired", dropped, err)
	}
	if j, err := s.Get(ids[jobs-1]); err != nil || j.state != StateDone {
		t.Fatalf("Get(retained %s) = %v, %v", ids[jobs-1], j, err)
	}
	for _, id := range []string{"j-999999", "j-0", "j-1", "j-00001", "bogus"} {
		if _, err := s.Get(id); err != errNoSuchJob {
			t.Fatalf("Get(%q) err = %v, want errNoSuchJob", id, err)
		}
	}
}
