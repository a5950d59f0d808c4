package remote

import (
	"testing"
	"time"
)

// TestAdaptiveHedgeDelay: with no fixed delay the hedge fires at the p95
// of the recent successful searches, clamped to [hedgeFloor, hedgeCeil],
// and at the floor while no search has succeeded yet.
func TestAdaptiveHedgeDelay(t *testing.T) {
	s := &Shard{}
	if d, ok := s.hedgeDelay(); !ok || d != hedgeFloor {
		t.Fatalf("empty window: delay %v (hedging %v), want %v", d, ok, hedgeFloor)
	}
	s.lat.observe(7 * time.Millisecond)
	if d, _ := s.hedgeDelay(); d != 7*time.Millisecond {
		t.Fatalf("one sample of 7ms: delay %v, want 7ms", d)
	}
	for i := 1; i <= 2*hedgeSamples; i++ {
		s.lat.observe(time.Duration(i) * time.Minute)
	}
	if d, _ := s.hedgeDelay(); d != hedgeCeil {
		t.Fatalf("window of minutes: delay %v, want the %v ceiling", d, hedgeCeil)
	}
	s.lat = latencyRing{}
	for i := 1; i <= 100; i++ {
		s.lat.observe(time.Duration(i) * time.Millisecond)
	}
	// The window holds the last 64 samples, 37..100ms; its p95 is the 61st.
	if d, _ := s.hedgeDelay(); d != 97*time.Millisecond {
		t.Fatalf("window 37..100ms: delay %v, want 97ms", d)
	}
	if d, ok := (&Shard{hedge: -1}).hedgeDelay(); ok {
		t.Fatalf("negative delay hedges at %v, want hedging off", d)
	}
	if d, _ := (&Shard{hedge: 5 * time.Millisecond}).hedgeDelay(); d != 5*time.Millisecond {
		t.Fatalf("fixed 5ms: delay %v", d)
	}
}
