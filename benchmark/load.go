package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// The load generator.  Closed loop: a GUI user waits for each reply, so a
// client sends its next request only after the previous answer is read, with
// no think time.  Two connections from this one process — the machine has two
// cores, and the generator itself runs at GOMAXPROCS=2.  On an ingest
// workload the second connection is a writer on a fixed schedule instead,
// timed from each write's due instant.

const (
	clients        = 2
	requestTimeout = 5 * time.Second
	minWarmup      = 2 * time.Second
	ingestWrites   = 15
	jobPoll        = 2 * time.Millisecond
	jobTimeout     = 30 * time.Second
)

// Load phases.
const (
	phaseWarm int32 = iota
	phaseMeasure
	phaseStop
)

func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxIdleConns:        2 * clients,
		MaxIdleConnsPerHost: 2 * clients,
		DisableCompression:  true,
	}}
}

// ingestPlan is the writer's schedule: one document per due instant, posted
// as a delta shard of dataset.
type ingestPlan struct {
	dataset string
	docs    [][]byte
	period  time.Duration
}

type loader struct {
	client *http.Client
	base   string
	stream []session
	oracle *oracle
	warmup time.Duration // least warm-up; see run
	window time.Duration
	plan   *ingestPlan // nil on read-only workloads

	phase atomic.Int32
	next  atomic.Int64 // next session index
	done  atomic.Int64 // sessions completed
}

// clientResult is what one reader measured.
type clientResult struct {
	query, complete  samples // seconds, measured window only
	perTemplate      map[string]*samples
	attempted, fails int
	errs             []string
}

// loadResult is the outcome of one run against one server.
type loadResult struct {
	clientResult
	windowS float64 // the measured window as it actually ran

	// The writer's measurements (ingest workloads).
	ingestDone, lateness, queueMS, runMS samples // milliseconds
	jobsDone                             int
}

// run warms up, measures for the window, and returns everything measured.
// scrape, when non-nil, is called at the start and end of the measured
// window.
func (l *loader) run(ctx context.Context, scrape func()) (*loadResult, error) {
	readers := clients
	if l.plan != nil {
		readers = clients - 1
	}
	results := make([]clientResult, readers)
	var wg sync.WaitGroup
	for i := range results {
		wg.Add(1)
		go func() {
			defer wg.Done()
			l.reader(ctx, &results[i])
		}()
	}

	// Warm-up lasts until every distinct twig has been asked once, so that a
	// caching server has seen its whole working set, and at least l.warmup.
	warmStart := time.Now()
	cycle := int64(cycleLen(l.stream))
	for time.Since(warmStart) < l.warmup || l.done.Load() < cycle {
		if ctx.Err() != nil || time.Since(warmStart) > readyTimeout {
			l.phase.Store(phaseStop)
			wg.Wait()
			return nil, fmt.Errorf("warm-up did not finish: %d of %d sessions after %v", l.done.Load(), cycle, time.Since(warmStart))
		}
		time.Sleep(time.Millisecond)
	}

	out := &loadResult{}
	if scrape != nil {
		scrape()
	}
	start := time.Now()
	l.phase.Store(phaseMeasure)
	var writerErr error
	if l.plan != nil {
		wg.Add(1)
		go func() {
			defer wg.Done()
			writerErr = l.writer(ctx, start, out)
		}()
	}
	select {
	case <-time.After(l.window):
	case <-ctx.Done():
	}
	l.phase.Store(phaseStop)
	out.windowS = time.Since(start).Seconds()
	if scrape != nil {
		scrape()
	}
	wg.Wait()
	if writerErr != nil {
		return nil, writerErr
	}

	out.perTemplate = map[string]*samples{}
	for i := range results {
		r := &results[i]
		out.query.v = append(out.query.v, r.query.v...)
		out.complete.v = append(out.complete.v, r.complete.v...)
		for id, s := range r.perTemplate {
			if out.perTemplate[id] == nil {
				out.perTemplate[id] = &samples{}
			}
			out.perTemplate[id].v = append(out.perTemplate[id].v, s.v...)
		}
		out.attempted += r.attempted
		out.fails += r.fails
		out.errs = append(out.errs, r.errs...)
	}
	return out, ctx.Err()
}

// reader plays whole sessions, one after another, until the run stops.
func (l *loader) reader(ctx context.Context, res *clientResult) {
	res.perTemplate = map[string]*samples{}
	chk := newChecker(l.oracle)
	var buf bytes.Buffer
	for {
		s := &l.stream[int(l.next.Add(1)-1)%len(l.stream)]
		for i := range s.Requests {
			r := &s.Requests[i]
			before := l.phase.Load()
			if before == phaseStop || ctx.Err() != nil {
				return
			}
			t0 := time.Now()
			err := l.do(ctx, r, &buf)
			elapsed := time.Since(t0)
			if err == nil {
				err = chk.check(r, buf.Bytes())
			}
			if ctx.Err() != nil {
				return // interrupted, not failed
			}
			res.attempted++
			if err != nil {
				res.fails++
				if len(res.errs) < 5 {
					res.errs = append(res.errs, err.Error())
				}
				continue
			}
			// A latency sample is a request sent and answered inside the
			// measured window.
			if before != phaseMeasure || l.phase.Load() != phaseMeasure {
				continue
			}
			if r.Op == "query" {
				res.query.add(elapsed.Seconds())
				if res.perTemplate[r.Template] == nil {
					res.perTemplate[r.Template] = &samples{}
				}
				res.perTemplate[r.Template].add(elapsed.Seconds())
			} else {
				res.complete.add(elapsed.Seconds())
			}
		}
		l.done.Add(1)
	}
}

// do sends r and reads the whole answer into buf; anything but a 200 is an
// error.
func (l *loader) do(ctx context.Context, r *request, buf *bytes.Buffer) error {
	ctx, cancel := context.WithTimeout(ctx, requestTimeout)
	defer cancel()
	method, body := http.MethodGet, io.Reader(nil)
	if r.Op == "query" {
		method, body = http.MethodPost, strings.NewReader(r.Body)
	}
	req, err := http.NewRequestWithContext(ctx, method, l.base+r.URL, body)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := l.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	buf.Reset()
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: %s: %.200s", r.key(), resp.Status, buf.String())
	}
	return nil
}

// job is the part of the server's job object the writer reads.
type job struct {
	ID      string  `json:"id"`
	State   string  `json:"state"`
	Error   string  `json:"error"`
	QueueMS float64 `json:"queueMs"`
	RunMS   float64 `json:"runMs"`
}

// writer posts one document at each due instant and polls its job until it
// is done.  The schedule is fixed, so the corpus grows the same on both sides
// of any comparison; a write that cannot start on time is timed from its due
// instant all the same, and how late it started is reported.
func (l *loader) writer(ctx context.Context, start time.Time, out *loadResult) error {
	for i, doc := range l.plan.docs {
		due := start.Add(time.Duration(i) * l.plan.period)
		select {
		case <-time.After(time.Until(due)):
		case <-ctx.Done():
			return ctx.Err()
		}
		out.lateness.add(msSince(due))
		u := fmt.Sprintf("%s/api/v1/datasets/%s/shards/delta-%d", l.base, url.PathEscape(l.plan.dataset), i)
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, u, bytes.NewReader(doc))
		if err != nil {
			return err
		}
		req.Header.Set("Content-Type", "application/xml")
		resp, err := l.client.Do(req)
		if err != nil {
			return fmt.Errorf("ingest %d: %w", i, err)
		}
		var env struct {
			Job job `json:"job"`
		}
		err = json.NewDecoder(resp.Body).Decode(&env)
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted || err != nil {
			return fmt.Errorf("ingest %d: %s (%v)", i, resp.Status, err)
		}
		j := env.Job
		for j.State != "done" {
			if j.State == "failed" {
				return fmt.Errorf("ingest %d: job %s failed: %s", i, j.ID, j.Error)
			}
			if msSince(due) > float64(jobTimeout/time.Millisecond) {
				return fmt.Errorf("ingest %d: job %s still %s after %v", i, j.ID, j.State, jobTimeout)
			}
			time.Sleep(jobPoll)
			if err := getJSON(ctx, l.client, l.base+"/api/v1/jobs/"+j.ID, &env); err != nil {
				return fmt.Errorf("ingest %d: %w", i, err)
			}
			j = env.Job
		}
		out.ingestDone.add(msSince(due))
		out.queueMS.add(j.QueueMS)
		out.runMS.add(j.RunMS)
		out.jobsDone++
	}
	return nil
}

// settle waits until no job is queued or running — a compaction may outlive
// the last write — and returns the dataset's node count.
func settle(ctx context.Context, client *http.Client, base, dataset string) (int, error) {
	deadline := time.Now().Add(jobTimeout)
	for {
		var list struct {
			Jobs []job `json:"jobs"`
		}
		if err := getJSON(ctx, client, base+"/api/v1/jobs", &list); err != nil {
			return 0, err
		}
		busy := false
		for _, j := range list.Jobs {
			if j.State == "failed" {
				return 0, fmt.Errorf("job %s failed: %s", j.ID, j.Error)
			}
			busy = busy || j.State != "done"
		}
		if !busy {
			break
		}
		if time.Now().After(deadline) {
			return 0, fmt.Errorf("jobs still running %v after the last write", jobTimeout)
		}
		time.Sleep(jobPoll)
	}
	var stats struct {
		Nodes int `json:"nodes"`
	}
	err := getJSON(ctx, client, base+"/api/v1/stats?dataset="+url.QueryEscape(dataset), &stats)
	return stats.Nodes, err
}
