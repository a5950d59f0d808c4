package corpus

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"time"

	"lotusx/internal/core"
	"lotusx/internal/fanout"
	"lotusx/internal/obs"
)

// The shard call discipline.
//
// Every read that crosses the shard fan-out — search, tag and value
// completion, explain — goes through scatter, and scatter treats every
// shard the same way whatever the operation: breaker gate, "shard" span,
// fault site, time budget, call, one retry, verdict (README.md, "Shard call
// discipline", tabulates the steps and what the degrade and failfast
// policies make of a failed shard).  An operation brings its fault-site
// name, the closure that calls the backend, and whether one such call is
// worth a second core; merging what comes back is its own business.

// Fault-injection sites at the head of every per-shard attempt; the key is
// the shard name.  A firing injection fails (or delays) the attempt as if
// the shard's backend had.
const (
	FaultShardSearch   = "corpus/shard-search"
	FaultShardComplete = "corpus/shard-complete" // completions and explain
)

// ErrShardQuarantined marks a shard skipped because its circuit breaker is
// open (see health.go); under the degrade policy it counts the shard among
// the failed without calling it.  Skips wrap it in a *QuarantineError
// carrying the cooldown remaining (see backend.go).
var ErrShardQuarantined = errors.New("shard quarantined by circuit breaker")

// answer is one shard's part of a scatter.
type answer[T any] struct {
	val T // what the shard answered; zero when it failed or was skipped
	// took runs from the breaker's admission to the verdict, retry and
	// backoff included; 0 for a shard that was never called.
	took time.Duration
}

// scatter calls call on every shard of snap and returns the answers by shard
// index plus the sorted names of the shards that failed or were skipped.
// The error is the failfast cause, the caller's context error, or — when no
// shard answered — the first real shard failure, else the first quarantine
// skip (whose RetryAfter the HTTP layer surfaces).  The context's active
// span, nil when untraced, gets one "shard" child per shard called.
//
// wide runs the calls on up to GOMAXPROCS goroutines, the caller's among
// them; otherwise they run in shard order on the caller's alone.  A twig
// join or a network round trip is worth waking a second core for, a local
// shard's completion (microseconds) is not: going wide there cost 10 % of
// session.shards4's completion median and 23 % of its tail
// (docs/PERFORMANCE.md, "One scatter-gather").
func scatter[T any](ctx context.Context, c *Corpus, snap *Snapshot, site string, wide bool, call func(context.Context, ShardBackend) (T, error)) ([]answer[T], []string, error) {
	n := len(snap.shards)
	parent := obs.FromContext(ctx)
	parent.SetInt("shards", n)
	fctx, cancel := context.WithCancelCause(ctx)
	defer cancel(nil)

	out := make([]answer[T], n)
	errs := make([]error, n)
	visit := func(i int) error {
		if err := fctx.Err(); err != nil {
			return err // no further shard is touched once the fan-out is dying
		}
		out[i], errs[i] = attempt(fctx, c, parent, snap.shards[i], site, call)
		if errs[i] != nil && c.tuning.Policy == PolicyFailFast {
			cancel(errs[i]) // stop sibling shard calls mid-evaluation
			return errs[i]
		}
		if wide {
			// A worker claims its next shard without entering the scheduler;
			// yield, or with every core inside a join the requests beside this
			// one wait out the whole fan-out (docs/PERFORMANCE.md: +19 % on
			// session.shards4's completion tail without this, +2 % with).
			runtime.Gosched()
		}
		return nil
	}
	// visit's error only stops the iteration: failfast reports the first
	// failure in time, the cancel cause; Do would name the lowest index.
	if wide {
		_ = fanout.Do(n, visit)
	} else {
		for i := 0; i < n && visit(i) == nil; i++ {
		}
	}
	// The caller's context may have died before (or while) the shards were
	// called; a degraded answer must never paper over that.
	if fctx.Err() != nil {
		cause := context.Cause(fctx)
		parent.Set("cancelCause", cause.Error())
		return out, nil, cause
	}

	var failed []string // in shard order, which is name order
	var firstFail, firstSkip error
	for i, err := range errs {
		switch err.(type) {
		case nil:
			continue
		case *QuarantineError:
			if firstSkip == nil {
				firstSkip = err
			}
		default:
			if firstFail == nil {
				firstFail = err
			}
		}
		failed = append(failed, snap.shards[i].name)
	}
	if n > 0 && len(failed) == n {
		// Nothing survived: a degraded answer needs at least one shard, so
		// this is an error, not an empty success.
		if firstFail == nil {
			firstFail = firstSkip
		}
		return out, failed, fmt.Errorf("corpus: all %d shard(s) of %s failed: %w", n, c.name, firstFail)
	}
	if len(failed) > 0 {
		parent.Set("partial", "true")
		parent.Set("failedShards", strings.Join(failed, ","))
		core.MarkDegraded(ctx)
	}
	return out, failed, nil
}

// attempt is one shard's turn: gate, span, then up to two tries (so a
// transient failure never surfaces), each preceded by the fault site and run
// under the per-shard time budget — resolved per try, so the retry of a
// deadline-derived budget only gets what remains of the request.  A failure
// comes back as a *ShardError, a breaker skip as a *QuarantineError.
func attempt[T any](fctx context.Context, c *Corpus, parent *obs.Span, sh *shard, site string, call func(context.Context, ShardBackend) (T, error)) (a answer[T], err error) {
	name := sh.name
	ssp := parent.Child("shard")
	ssp.Set("shard", name)
	defer ssp.End()
	if !c.health.allow(name) {
		err = &QuarantineError{Shard: name, RetryAfter: c.health.retryIn(name)}
		ssp.Set("skipped", "breaker-open")
		ssp.SetErr(err)
		return a, err
	}
	start := time.Now()
	be := sh.be()
	tries := 0
	for {
		tries++
		actx, acancel := fctx, context.CancelFunc(func() {})
		if budget := c.shardBudget(fctx); budget > 0 {
			actx, acancel = context.WithTimeout(fctx, budget)
		}
		sctx := obs.ContextWith(actx, ssp)
		if err = c.faults.Fire(sctx, site, name); err == nil {
			a.val, err = call(sctx, be)
		}
		acancel()
		// A dying fan-out cannot be helped by a retry.
		if err == nil || tries == 2 || fctx.Err() != nil || !sleepJittered(fctx, retryBackoff) {
			break
		}
	}
	a.took = time.Since(start)
	if tries > 1 {
		ssp.SetInt("attempts", tries)
	}
	if err == nil {
		c.health.success(name)
		return a, nil
	}
	ssp.SetErr(err)
	// A context casualty with the fan-out context already dead is no verdict
	// on the shard (a failfast sibling or the caller cancelled it mid-call) —
	// release any probe instead of advancing the breaker.
	if isCtxErr(err) && fctx.Err() != nil {
		c.health.release(name)
	} else {
		c.health.failure(name, err)
	}
	return a, &ShardError{Shard: name, Err: err}
}

// shardNetAllowance is the slice of the remaining request deadline reserved
// for everything a shard attempt is not: the merge, response encoding, and —
// for remote shards — the network hop back.  Deducting it from the per-hop
// budget keeps router retries and hedges from overrunning the caller.
const shardNetAllowance = 20 * time.Millisecond

// shardBudget resolves the per-attempt time budget.  A negative configured
// ShardTimeout disables budgets.  When the request carries a deadline, a
// budget is derived from what remains of it — 4/5 of the remainder, further
// capped at remainder-minus-allowance — and a configured positive
// ShardTimeout is clamped by that derivation, so a per-hop timeout can never
// promise a shard more time than the caller has left.
func (c *Corpus) shardBudget(ctx context.Context) time.Duration {
	t := c.tuning.ShardTimeout
	if t < 0 {
		return 0
	}
	var derived time.Duration
	if dl, ok := ctx.Deadline(); ok {
		if rem := time.Until(dl); rem > 0 {
			derived = rem * 4 / 5
			if a := rem - shardNetAllowance; a > 0 && a < derived {
				derived = a
			}
		}
	}
	switch {
	case t == 0:
		return derived
	case derived > 0 && derived < t:
		return derived
	default:
		return t
	}
}

// sleepJittered pauses for base/2 plus up to base of jitter (so concurrent
// retries against one struggling shard don't land in lockstep), returning
// false if ctx died first.
func sleepJittered(ctx context.Context, base time.Duration) bool {
	d := base/2 + time.Duration(rand.Int63n(int64(base)))
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}

// isCtxErr reports whether err is a context cancellation or deadline.
func isCtxErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}
