package metrics

import (
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestHistogramQuantiles(t *testing.T) {
	var h Histogram
	// 90 fast samples (~1ms) and 10 slow ones (~1s).
	for i := 0; i < 90; i++ {
		h.Observe(800 * time.Microsecond)
	}
	for i := 0; i < 10; i++ {
		h.Observe(900 * time.Millisecond)
	}
	s := h.Snapshot()
	if s.Count != 100 {
		t.Fatalf("count = %d", s.Count)
	}
	if s.P50MS > 5 {
		t.Errorf("p50 = %vms, want ~1ms bucket", s.P50MS)
	}
	if s.P99MS < 500 {
		t.Errorf("p99 = %vms, want the ~1s bucket", s.P99MS)
	}
	if m := s.MeanMS; m < 80 || m > 120 {
		t.Errorf("mean = %vms, want ~90ms", m)
	}
}

func TestHistogramEmptyAndOverflow(t *testing.T) {
	var h Histogram
	if s := h.Snapshot(); s.P50MS != 0 || s.MeanMS != 0 {
		t.Fatal("empty histogram must report zeros")
	}
	h.Observe(24 * time.Hour) // far past the last bound: overflow bucket
	h.Observe(-time.Second)   // negative: clamped to 0
	s := h.Snapshot()
	if s.Count != 2 {
		t.Fatalf("count = %d", s.Count)
	}
	if s.P99MS <= 0 {
		t.Fatal("overflow sample lost")
	}
}

func TestEndpointRecord(t *testing.T) {
	var e Endpoint
	e.Record(200, time.Millisecond)
	e.Record(400, time.Millisecond)
	e.Record(429, time.Millisecond)
	e.Record(504, time.Millisecond)
	if e.Requests.Load() != 4 || e.Errors.Load() != 3 || e.Shed.Load() != 1 || e.Timeouts.Load() != 1 {
		t.Fatalf("counters = %d/%d/%d/%d", e.Requests.Load(), e.Errors.Load(), e.Shed.Load(), e.Timeouts.Load())
	}
}

func TestRegistrySnapshotJSON(t *testing.T) {
	r := New()
	r.Endpoint("query").Record(200, 2*time.Millisecond)
	r.Endpoint("query").Record(504, 55*time.Millisecond)
	r.Algorithm("twigstack").Observe(time.Millisecond)
	s := r.Snapshot()
	if s.Endpoints["query"].Requests != 2 || s.Endpoints["query"].Timeouts != 1 {
		t.Fatalf("snapshot = %+v", s.Endpoints["query"])
	}
	if s.Algorithms["twigstack"].Count != 1 {
		t.Fatalf("algorithms = %+v", s.Algorithms)
	}
	if _, err := json.Marshal(s); err != nil {
		t.Fatal(err)
	}
}

func TestRegistryConcurrent(t *testing.T) {
	r := New()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 500; j++ {
				r.Endpoint("query").Record(200, time.Millisecond)
				r.Algorithm("auto").Observe(time.Microsecond)
				r.Snapshot()
			}
		}()
	}
	wg.Wait()
	if got := r.Snapshot().Endpoints["query"].Requests; got != 4000 {
		t.Fatalf("requests = %d, want 4000", got)
	}
}

// TestExportCoherenceUnderLoad hammers Observe from many goroutines while
// concurrently reading Export and Snapshot, asserting the documented
// consistency contract: within one Export, Count always equals the sum of
// the bucket vector (the Prometheus +Inf invariant), and both only grow.
// Run under -race.
func TestExportCoherenceUnderLoad(t *testing.T) {
	r := New()
	h := r.Stage("join:twigstack")
	c := r.Corpus("xmark")
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				// Observe before checking stop so each goroutine lands at
				// least one sample even if the readers finish first.
				h.Observe(300 * time.Microsecond)
				h.Observe(40 * time.Millisecond)
				c.Fanout.Observe(time.Millisecond)
				select {
				case <-stop:
					return
				default:
				}
			}
		}()
	}

	var lastCount int64
	for i := 0; i < 2000; i++ {
		e := h.Export()
		var total int64
		for _, b := range e.Buckets {
			total += b
		}
		if e.Count != total {
			t.Fatalf("Export torn: Count=%d Σbuckets=%d", e.Count, total)
		}
		if e.Count < lastCount {
			t.Fatalf("Count went backwards: %d -> %d", lastCount, e.Count)
		}
		lastCount = e.Count
		if i%100 == 0 {
			s := r.Snapshot()
			if st := s.Stages["join:twigstack"]; st.Count < 0 {
				t.Fatalf("snapshot stage count negative: %+v", st)
			}
		}
	}
	close(stop)
	wg.Wait()

	// Quiescent: everything must line up exactly, sum included.
	e := h.Export()
	var total int64
	for _, b := range e.Buckets {
		total += b
	}
	if e.Count != total || e.Count == 0 {
		t.Fatalf("final export incoherent: Count=%d Σbuckets=%d", e.Count, total)
	}
}

// TestWritePrometheus checks the text exposition: family metadata, the
// cumulative-bucket contract, and that _count agrees with _bucket{le="+Inf"}.
func TestWritePrometheus(t *testing.T) {
	r := New()
	r.Endpoint("query").Record(200, 2*time.Millisecond)
	r.Endpoint("query").Record(429, 55*time.Millisecond)
	r.Algorithm("twigstack").Observe(time.Millisecond)
	r.Stage("parse").Observe(100 * time.Microsecond)
	cm := r.Corpus("xmark")
	cm.SetShards(4)
	cm.Swapped()
	cm.Searches.Add(3)
	cm.Fanout.Observe(9 * time.Millisecond)
	cm.Merge.Observe(time.Millisecond)
	var shard0, shard1 Histogram
	shard0.Observe(8 * time.Millisecond)
	shard1.Observe(6 * time.Millisecond)
	cm.SetShardProvider(func() (map[string]ShardHealth, map[string]LatencySnapshot) {
		return map[string]ShardHealth{"000": {State: "open"}, "001": {State: "closed"}},
			map[string]LatencySnapshot{"000": shard0.Snapshot(), "001": shard1.Snapshot()}
	})

	var buf strings.Builder
	r.WritePrometheus(&buf)
	out := buf.String()

	for _, want := range []string{
		"# TYPE lotusx_uptime_seconds gauge",
		"# TYPE lotusx_endpoint_requests_total counter",
		`lotusx_endpoint_requests_total{endpoint="query"} 2`,
		`lotusx_endpoint_shed_total{endpoint="query"} 1`,
		"# TYPE lotusx_endpoint_latency_seconds histogram",
		`lotusx_endpoint_latency_seconds_count{endpoint="query"} 2`,
		`lotusx_endpoint_latency_seconds_bucket{endpoint="query",le="+Inf"} 2`,
		`lotusx_algorithm_latency_seconds_count{algorithm="twigstack"} 1`,
		`lotusx_stage_latency_seconds_count{stage="parse"} 1`,
		`lotusx_corpus_shards{corpus="xmark"} 4`,
		`lotusx_corpus_swaps_total{corpus="xmark"} 1`,
		`lotusx_corpus_searches_total{corpus="xmark"} 3`,
		`lotusx_corpus_fanout_latency_seconds_count{corpus="xmark"} 1`,
		`lotusx_corpus_quarantined_shards{corpus="xmark"} 1`,
		`lotusx_corpus_shard_latency_seconds_count{corpus="xmark",shard="000"} 1`,
		`lotusx_corpus_shard_latency_seconds_count{corpus="xmark",shard="001"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}

	// Buckets must be cumulative and end exactly at _count on every series.
	var series string
	var prev int64 = -1
	for _, line := range strings.Split(out, "\n") {
		if !strings.Contains(line, "_bucket{") {
			continue
		}
		name := line[:strings.Index(line, ",le=")]
		if name != series {
			series, prev = name, -1
		}
		var v int64
		if _, err := fmt.Sscanf(line[strings.LastIndexByte(line, ' ')+1:], "%d", &v); err != nil {
			t.Fatalf("bad bucket line %q: %v", line, err)
		}
		if v < prev {
			t.Fatalf("bucket not cumulative at %q (%d < %d)", line, v, prev)
		}
		prev = v
	}

	// Deterministic output: a second render (modulo uptime) is identical.
	var buf2 strings.Builder
	r.WritePrometheus(&buf2)
	strip := func(s string) string {
		lines := strings.Split(s, "\n")
		kept := lines[:0]
		for _, l := range lines {
			// Uptime and the process gauges are live runtime readings; the
			// determinism claim is about ordering and rendering, not values.
			if strings.HasPrefix(l, "lotusx_uptime_seconds ") ||
				strings.HasPrefix(l, "lotusx_process_") {
				continue
			}
			kept = append(kept, l)
		}
		return strings.Join(kept, "\n")
	}
	if strip(buf.String()) != strip(buf2.String()) {
		t.Fatal("exposition output is not deterministic")
	}
}

// TestLookupHitAllocatesNothing: every request looks up its endpoint, its
// join algorithm and each traced stage; once a name exists that lookup must
// not allocate.
func TestLookupHitAllocatesNothing(t *testing.T) {
	r := New()
	r.Stage("parse")
	r.Algorithm("twigstack")
	r.Endpoint("query")
	allocs := testing.AllocsPerRun(100, func() {
		r.Stage("parse").Observe(time.Microsecond)
		r.Algorithm("twigstack").Observe(time.Microsecond)
		r.Endpoint("query").Record(200, time.Microsecond)
	})
	if allocs != 0 {
		t.Fatalf("a lookup hit allocates %v times, want 0", allocs)
	}
}
