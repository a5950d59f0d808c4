package server

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"lotusx/internal/core"
	"lotusx/internal/doc"
	"lotusx/internal/metrics"
	"lotusx/internal/slo"
)

// A minimal linter for Prometheus text exposition format 0.0.4, run over
// every serving configuration's /metrics: each family must declare HELP and
// TYPE before its samples, names and labels must be legal, and histogram
// families must be internally coherent (cumulative buckets, +Inf == _count,
// _sum present).

var (
	metricNameRe = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	labelNameRe  = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
	sampleRe     = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{([^}]*)\})?\s+(\S+)$`)
	labelRe      = regexp.MustCompile(`^([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"$`)
)

// histState tracks one histogram series' buckets while linting.
type histState struct {
	buckets map[float64]float64 // le -> cumulative count
	count   float64
	hasCnt  bool
	hasSum  bool
}

// baseFamily strips histogram sample suffixes back to the declared family.
func baseFamily(name string) string {
	for _, suffix := range []string{"_bucket", "_count", "_sum"} {
		if strings.HasSuffix(name, suffix) {
			return strings.TrimSuffix(name, suffix)
		}
	}
	return name
}

// lintExposition checks one exposition body, returning every violation.
func lintExposition(t *testing.T, body string) []string {
	t.Helper()
	var problems []string
	helped := map[string]bool{}
	typed := map[string]string{}
	hists := map[string]*histState{} // family + label signature (minus le)

	sc := bufio.NewScanner(strings.NewReader(body))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			parts := strings.SplitN(strings.TrimPrefix(line, "# HELP "), " ", 2)
			if len(parts) < 2 || parts[1] == "" {
				problems = append(problems, "HELP without text: "+line)
			}
			helped[parts[0]] = true
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(strings.TrimPrefix(line, "# TYPE "))
			if len(parts) != 2 {
				problems = append(problems, "malformed TYPE: "+line)
				continue
			}
			switch parts[1] {
			case "counter", "gauge", "histogram", "summary", "untyped":
			default:
				problems = append(problems, "unknown TYPE "+parts[1]+": "+line)
			}
			typed[parts[0]] = parts[1]
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}

		m := sampleRe.FindStringSubmatch(line)
		if m == nil {
			problems = append(problems, "unparseable sample: "+line)
			continue
		}
		name, labels, valText := m[1], m[3], m[4]
		if !metricNameRe.MatchString(name) {
			problems = append(problems, "illegal metric name: "+name)
		}
		family := baseFamily(name)
		if !helped[family] {
			problems = append(problems, "sample before/without HELP: "+name)
		}
		typ, ok := typed[family]
		if !ok {
			problems = append(problems, "sample before/without TYPE: "+name)
		}
		val, err := strconv.ParseFloat(valText, 64)
		if err != nil {
			problems = append(problems, "bad sample value: "+line)
			continue
		}
		if (typ == "counter" || typ == "histogram") && val < 0 {
			problems = append(problems, "negative "+typ+" sample: "+line)
		}

		var le string
		var sig []string
		if labels != "" {
			for _, pair := range splitLabels(labels) {
				lm := labelRe.FindStringSubmatch(pair)
				if lm == nil {
					problems = append(problems, "malformed label in "+line)
					continue
				}
				if !labelNameRe.MatchString(lm[1]) {
					problems = append(problems, "illegal label name "+lm[1]+" in "+line)
				}
				if lm[1] == "le" {
					le = lm[2]
					continue
				}
				sig = append(sig, pair)
			}
		}
		if typ != "histogram" {
			continue
		}
		key := family + "|" + strings.Join(sig, ",")
		h := hists[key]
		if h == nil {
			h = &histState{buckets: map[float64]float64{}}
			hists[key] = h
		}
		switch {
		case strings.HasSuffix(name, "_bucket"):
			bound, err := parseLE(le)
			if err != nil {
				problems = append(problems, "bad le in "+line)
				continue
			}
			h.buckets[bound] = val
		case strings.HasSuffix(name, "_count"):
			h.count, h.hasCnt = val, true
		case strings.HasSuffix(name, "_sum"):
			h.hasSum = true
		default:
			problems = append(problems, "histogram family has a bare sample: "+line)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}

	for key, h := range hists {
		if !h.hasCnt || !h.hasSum {
			problems = append(problems, fmt.Sprintf("histogram %s missing _count or _sum", key))
			continue
		}
		inf, ok := h.buckets[infBound]
		if !ok {
			problems = append(problems, "histogram "+key+" missing +Inf bucket")
		} else if inf != h.count {
			problems = append(problems, fmt.Sprintf("histogram %s: +Inf bucket %v != count %v", key, inf, h.count))
		}
		prev, first := 0.0, true
		for _, bound := range sortedBounds(h.buckets) {
			c := h.buckets[bound]
			if !first && c < prev {
				problems = append(problems, fmt.Sprintf("histogram %s: bucket le=%v count %v < previous %v (not cumulative)", key, bound, c, prev))
			}
			prev, first = c, false
		}
	}
	return problems
}

var infBound = math.Inf(1)

func parseLE(le string) (float64, error) {
	if le == "+Inf" {
		return infBound, nil
	}
	return strconv.ParseFloat(le, 64)
}

func sortedBounds(buckets map[float64]float64) []float64 {
	bounds := make([]float64, 0, len(buckets))
	for b := range buckets {
		bounds = append(bounds, b)
	}
	for i := range bounds {
		for j := i + 1; j < len(bounds); j++ {
			if bounds[j] < bounds[i] {
				bounds[i], bounds[j] = bounds[j], bounds[i]
			}
		}
	}
	return bounds
}

// splitLabels splits a label body on commas outside quotes.
func splitLabels(s string) []string {
	var parts []string
	depth := false
	start := 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '"':
			if i == 0 || s[i-1] != '\\' {
				depth = !depth
			}
		case ',':
			if !depth {
				parts = append(parts, s[start:i])
				start = i + 1
			}
		}
	}
	if start < len(s) {
		parts = append(parts, s[start:])
	}
	return parts
}

// scrape pulls /metrics off a server after driving some traffic.
func scrape(t *testing.T, ts *httptest.Server) string {
	t.Helper()
	var out struct{ Answers []any }
	postJSON(t, ts.URL+"/api/v1/query", `{"query":"//article/author","k":5}`, &out)
	getJSON(t, ts.URL+"/api/v1/complete?kind=tag&path=%2F%2Farticle&prefix=a", &struct{}{})
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

// TestPrometheusLint lints the exposition of every serving configuration —
// a single engine, a sharded corpus, an admin server with per-client rate
// limiting, and a router-shaped registry carrying remote and SLO families —
// and diffs the families each one declares against
// testdata/prometheus_families.golden.  After an intentional family change,
// regenerate with:
//
//	go test ./internal/server/ -run TestPrometheusLint -update
func TestPrometheusLint(t *testing.T) {
	configs := []struct {
		name  string
		serve func(t *testing.T) *httptest.Server
	}{
		{"engine", func(t *testing.T) *httptest.Server {
			d, err := doc.FromReader("bib", strings.NewReader(bibXML))
			if err != nil {
				t.Fatal(err)
			}
			ts := httptest.NewServer(New(core.FromDocument(d)))
			t.Cleanup(ts.Close)
			return ts
		}},
		{"corpus", func(t *testing.T) *httptest.Server {
			_, ts := shardedServer(t, Config{})
			return ts
		}},
		{"lifecycle", func(t *testing.T) *httptest.Server {
			ts, _ := adminServer(t, Config{RateQPS: 1000, RateBurst: 2000})
			return ts
		}},
		{"router", func(t *testing.T) *httptest.Server {
			reg := metrics.New()
			// Remote RPC families.
			rem := reg.Remote("cluster")
			rem.ObserveReplica("shard-0", 4*time.Millisecond)
			rem.HedgesFired.Add(1)
			rem.HedgeWins.Add(1)
			tracker, err := slo.New(slo.Config{Objectives: []slo.Objective{
				{Name: "availability", Target: 0.999},
				{Name: "search-p99", Endpoint: "query", Target: 0.99, Threshold: 50 * time.Millisecond},
			}})
			if err != nil {
				t.Fatal(err)
			}
			_, ts := shardedServer(t, Config{Metrics: reg, SLO: tracker})
			return ts
		}},
	}
	var golden strings.Builder
	golden.WriteString("# Prometheus families per serving configuration of TestPrometheusLint:\n")
	golden.WriteString("# TYPE, HELP, then one line per series with its label pairs sorted.\n")
	golden.WriteString("# Refresh with: go test ./internal/server/ -run TestPrometheusLint -update\n")
	ran := 0
	for _, cfg := range configs {
		t.Run(cfg.name, func(t *testing.T) {
			body := scrape(t, cfg.serve(t))
			for _, p := range lintExposition(t, body) {
				t.Error(p)
			}
			golden.WriteString("\n## " + cfg.name + "\n" + familyDigest(body))
			ran++
		})
	}
	if ran < len(configs) {
		return // a -run filter picked some configurations: nothing to diff
	}
	checkGolden(t, filepath.Join("testdata", "prometheus_families.golden"), golden.String())
}

// TestObservabilityDocsListEveryFamily: the family table in
// docs/OBSERVABILITY.md names exactly the families of
// prometheus_families.golden — none missing, none stale.
func TestObservabilityDocsListEveryFamily(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("testdata", "prometheus_families.golden"))
	if err != nil {
		t.Fatal(err)
	}
	emitted := map[string]bool{}
	for _, line := range strings.Split(string(golden), "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			emitted[strings.Fields(line)[2]] = true
		}
	}
	doc, err := os.ReadFile(filepath.Join("..", "..", "docs", "OBSERVABILITY.md"))
	if err != nil {
		t.Fatal(err)
	}
	_, table, ok := strings.Cut(string(doc), "\n| family | type | labels |\n")
	if !ok {
		t.Fatal("docs/OBSERVABILITY.md has no family table")
	}
	table, _, _ = strings.Cut(table, "\n\n")
	documented := map[string]bool{}
	for _, name := range regexp.MustCompile("`(lotusx_[a-z0-9_]+)`").FindAllStringSubmatch(table, -1) {
		documented[name[1]] = true
		if !emitted[name[1]] {
			t.Errorf("docs/OBSERVABILITY.md lists %s, which no configuration emits", name[1])
		}
	}
	for _, family := range sortedKeys(emitted) {
		if !documented[family] {
			t.Errorf("docs/OBSERVABILITY.md's family table lacks %s", family)
		}
	}
}

// familyDigest reduces an exposition to what it declares: per family, in
// name order, its TYPE and HELP lines, then one line per series with its
// label pairs sorted and no value.  Histogram samples fold into their
// series (le dropped), and the build-identity label values are masked
// because they name the toolchain that built the test.
func familyDigest(body string) string {
	decl := map[string][]string{}
	series := map[string]map[string]bool{}
	for _, line := range strings.Split(body, "\n") {
		if strings.HasPrefix(line, "# TYPE ") || strings.HasPrefix(line, "# HELP ") {
			name := strings.Fields(line)[2]
			decl[name] = append(decl[name], line)
			continue
		}
		m := sampleRe.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		family := m[1]
		if _, ok := decl[family]; !ok {
			family = baseFamily(family)
		}
		var pairs []string
		for _, pair := range splitLabels(m[3]) {
			name, _, _ := strings.Cut(pair, "=")
			switch name {
			case "le":
				continue
			case "version", "goversion", "module":
				pair = name + `="*"`
			}
			pairs = append(pairs, pair)
		}
		sort.Strings(pairs)
		s := family
		if len(pairs) > 0 {
			s += "{" + strings.Join(pairs, ",") + "}"
		}
		if series[family] == nil {
			series[family] = map[string]bool{}
		}
		series[family][s] = true
	}
	var b strings.Builder
	for _, family := range sortedKeys(decl) {
		lines := decl[family]
		sort.Sort(sort.Reverse(sort.StringSlice(lines))) // TYPE before HELP
		for _, l := range lines {
			b.WriteString(l + "\n")
		}
		for _, s := range sortedKeys(series[family]) {
			b.WriteString(s + "\n")
		}
	}
	return b.String()
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
