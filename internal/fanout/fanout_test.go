package fanout

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
)

// TestDoFillsSlotsAtEveryWidth: every index runs exactly once and lands in
// its own slot, so the caller can commit in input order whatever order the
// calls finished in — at width 1 (the sequential start-up of old), at the
// usual 2, and at widths beyond n.
func TestDoFillsSlotsAtEveryWidth(t *testing.T) {
	for _, width := range []int{1, 2, 3, 64} {
		const n = 17
		out := make([]int, n)
		var calls atomic.Int64
		err := do(width, n, func(i int) error {
			calls.Add(1)
			out[i] = i * i
			return nil
		})
		if err != nil {
			t.Fatalf("width %d: %v", width, err)
		}
		if calls.Load() != n {
			t.Errorf("width %d: %d calls, want %d", width, calls.Load(), n)
		}
		for i, v := range out {
			if v != i*i {
				t.Errorf("width %d: slot %d = %d, want %d", width, i, v, i*i)
			}
		}
	}
}

// TestDoBoundsConcurrency: never more than width calls in flight, and none
// still running when Do returns.
func TestDoBoundsConcurrency(t *testing.T) {
	const width, n = 3, 40
	var inflight, peak atomic.Int64
	err := do(width, n, func(int) error {
		cur := inflight.Add(1)
		for {
			p := peak.Load()
			if cur <= p || peak.CompareAndSwap(p, cur) {
				break
			}
		}
		for spin := 0; spin < 1000; spin++ {
			_ = fmt.Sprint(spin) // hold the slot long enough for siblings to overlap
		}
		inflight.Add(-1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > width {
		t.Errorf("peak concurrency %d exceeds width %d", p, width)
	}
	if left := inflight.Load(); left != 0 {
		t.Errorf("%d calls still running after Do returned", left)
	}
}

// TestDoReportsTheFailedBuildsOwnError: a failure stops further indices from
// starting, Do still waits for the calls already running, and the error is
// the failing call's own — the lowest failed index when several fail.
func TestDoReportsTheFailedBuildsOwnError(t *testing.T) {
	for _, width := range []int{1, 2, 4} {
		const n = 100
		errAt := func(i int) error { return fmt.Errorf("build %d failed", i) }
		var started atomic.Int64
		err := do(width, n, func(i int) error {
			started.Add(1)
			if i == 3 || i == 5 {
				return errAt(i)
			}
			return nil
		})
		if err == nil || err.Error() != errAt(3).Error() {
			t.Errorf("width %d: err = %v, want %v", width, err, errAt(3))
		}
		// Index 3 fails while at most width-1 siblings run; each of those may
		// start one more index before it sees the flag.
		if s := started.Load(); s > int64(4+2*width) {
			t.Errorf("width %d: %d calls started after an early failure", width, s)
		}
	}
}

func TestDoEmptyAndSingle(t *testing.T) {
	if err := do(4, 0, func(int) error { return errors.New("must not run") }); err != nil {
		t.Errorf("n=0: %v", err)
	}
	want := errors.New("only")
	if err := Do(1, func(int) error { return want }); !errors.Is(err, want) {
		t.Errorf("n=1: err = %v, want %v", err, want)
	}
}
