package slo

import (
	"strings"
	"sync"
	"testing"
	"time"

	"lotusx/internal/metrics"
)

// clock is an injectable test clock.
type clock struct {
	mu sync.Mutex
	t  time.Time
}

func newClock() *clock {
	return &clock{t: time.Date(2026, 1, 1, 12, 0, 0, 0, time.UTC)}
}

func (c *clock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *clock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func newTracker(t *testing.T, cfg Config) *Tracker {
	t.Helper()
	tr, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestNewValidates(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
	}{
		{"empty", Config{}},
		{"unnamed", Config{Objectives: []Objective{{Target: 0.99}}}},
		{"duplicate", Config{Objectives: []Objective{
			{Name: "a", Target: 0.99}, {Name: "a", Target: 0.9},
		}}},
		{"target zero", Config{Objectives: []Objective{{Name: "a"}}}},
		{"target one", Config{Objectives: []Objective{{Name: "a", Target: 1}}}},
		{"windows inverted", Config{
			Objectives: []Objective{{Name: "a", Target: 0.99}},
			FastWindow: time.Hour, SlowWindow: time.Minute,
		}},
	}
	for _, tc := range cases {
		if _, err := New(tc.cfg); err == nil {
			t.Errorf("%s: New accepted a bad config", tc.name)
		}
	}
}

func TestAvailabilityBurn(t *testing.T) {
	ck := newClock()
	tr := newTracker(t, Config{
		Objectives: []Objective{{Name: "availability", Target: 0.999}},
		Now:        ck.now,
	})

	// 100 good requests: compliant, no burn.
	for i := 0; i < 100; i++ {
		tr.Observe("query", 200, 5*time.Millisecond)
	}
	st := tr.Snapshot().Objectives[0]
	if st.Compliance != 1 || st.FastBurnRate != 0 || st.Burning {
		t.Fatalf("healthy objective reports %+v", st)
	}

	// Half the next 100 fail: bad ratio 25% over a 0.1% budget is a
	// 250x burn — far past the 14.4 alert line.
	for i := 0; i < 100; i++ {
		status := 200
		if i%2 == 0 {
			status = 500
		}
		tr.Observe("query", status, 5*time.Millisecond)
	}
	st = tr.Snapshot().Objectives[0]
	if !st.Burning {
		t.Fatalf("50%% failures did not flip burning: %+v", st)
	}
	if st.FastBurnRate < 100 {
		t.Fatalf("fast burn %v, want ~250", st.FastBurnRate)
	}
	if st.GoodTotal != 150 || st.BadTotal != 50 {
		t.Fatalf("lifetime counters good=%d bad=%d, want 150/50", st.GoodTotal, st.BadTotal)
	}
	if msg := tr.Burning(); !strings.Contains(msg, "availability burn") {
		t.Fatalf("Burning() = %q", msg)
	}

	// The failures age out of the fast window but stay in the slow one.
	ck.advance(6 * time.Minute)
	st = tr.Snapshot().Objectives[0]
	if st.FastBurnRate != 0 || st.Burning {
		t.Fatalf("fast window did not slide: %+v", st)
	}
	if st.SlowBurnRate == 0 {
		t.Fatal("slow window lost the failures after 6m")
	}
	if tr.Burning() != "" {
		t.Fatalf("Burning() = %q after recovery", tr.Burning())
	}

	// ...and eventually out of the slow window too.
	ck.advance(time.Hour)
	st = tr.Snapshot().Objectives[0]
	if st.SlowBurnRate != 0 || st.Compliance != 1 {
		t.Fatalf("slow window did not slide: %+v", st)
	}
	if st.GoodTotal != 150 || st.BadTotal != 50 {
		t.Fatal("lifetime counters are not monotone across window slides")
	}
}

func TestLatencyObjective(t *testing.T) {
	ck := newClock()
	tr := newTracker(t, Config{
		Objectives: []Objective{{
			Name: "search-p99", Endpoint: "query", Target: 0.99,
			Threshold: 50 * time.Millisecond,
		}},
		Now: ck.now,
	})

	// Only query observations count, and only slow (or 5xx) ones are bad.
	tr.Observe("complete", 200, time.Second) // wrong endpoint: ignored
	tr.Observe("query", 200, 10*time.Millisecond)
	tr.Observe("query", 200, 200*time.Millisecond) // too slow
	tr.Observe("query", 500, time.Millisecond)     // failed

	st := tr.Snapshot().Objectives[0]
	if st.GoodTotal != 1 || st.BadTotal != 2 {
		t.Fatalf("good=%d bad=%d, want 1/2", st.GoodTotal, st.BadTotal)
	}
	if st.ThresholdMS != 50 {
		t.Fatalf("thresholdMs = %v, want 50", st.ThresholdMS)
	}
}

func TestMinEventsFloor(t *testing.T) {
	ck := newClock()
	tr := newTracker(t, Config{
		Objectives: []Objective{{Name: "availability", Target: 0.999}},
		MinEvents:  10,
		Now:        ck.now,
	})
	// 5 failures burn hard but sit under the event floor: not an incident.
	for i := 0; i < 5; i++ {
		tr.Observe("query", 500, time.Millisecond)
	}
	if st := tr.Snapshot().Objectives[0]; st.Burning {
		t.Fatalf("%d events flipped burning below the MinEvents floor", st.GoodTotal+st.BadTotal)
	}
}

func TestIdleSnapshot(t *testing.T) {
	tr := newTracker(t, Config{
		Objectives: []Objective{{Name: "availability", Target: 0.999}},
	})
	st := tr.Snapshot().Objectives[0]
	if st.Compliance != 1 || st.FastBurnRate != 0 || st.SlowBurnRate != 0 || st.Burning {
		t.Fatalf("idle objective reports %+v", st)
	}
}

func TestNilTracker(t *testing.T) {
	var tr *Tracker
	tr.Observe("query", 500, time.Second)
	if s := tr.Snapshot(); len(s.Objectives) != 0 {
		t.Fatal("nil Snapshot non-empty")
	}
	if tr.Burning() != "" {
		t.Fatal("nil Burning non-empty")
	}
	var sb strings.Builder
	metrics.WritePrometheus(&sb, tr.Snapshot())
	if sb.Len() != 0 {
		t.Fatal("nil tracker's snapshot rendered families")
	}
}

func TestWritePrometheus(t *testing.T) {
	ck := newClock()
	tr := newTracker(t, Config{
		Objectives: []Objective{
			{Name: "availability", Target: 0.999},
			{Name: "search-p99", Endpoint: "query", Target: 0.99, Threshold: 50 * time.Millisecond},
		},
		Now: ck.now,
	})
	for i := 0; i < 20; i++ {
		tr.Observe("query", 500, time.Millisecond)
	}
	var sb strings.Builder
	metrics.WritePrometheus(&sb, tr.Snapshot())
	out := sb.String()
	for _, want := range []string{
		"# TYPE lotusx_slo_target gauge",
		"# TYPE lotusx_slo_good_total counter",
		"# TYPE lotusx_slo_bad_total counter",
		"# TYPE lotusx_slo_compliance gauge",
		"# TYPE lotusx_slo_burn_rate gauge",
		"# TYPE lotusx_slo_burning gauge",
		`lotusx_slo_target{objective="availability"} 0.999`,
		`lotusx_slo_bad_total{objective="availability"} 20`,
		`lotusx_slo_burn_rate{objective="availability",window="fast"} 9`,
		`lotusx_slo_burn_rate{objective="availability",window="slow"} 9`,
		`lotusx_slo_burning{objective="availability"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

func TestConcurrentObserve(t *testing.T) {
	tr := newTracker(t, Config{
		Objectives: []Objective{{Name: "availability", Target: 0.99}},
	})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				tr.Observe("query", 200, time.Millisecond)
				tr.Snapshot()
			}
		}()
	}
	wg.Wait()
	if st := tr.Snapshot().Objectives[0]; st.GoodTotal != 1600 {
		t.Fatalf("goodTotal = %d, want 1600", st.GoodTotal)
	}
}
