package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"lotusx/internal/dataset"
	"lotusx/internal/twig"
)

// newTestRunner builds a runner once for the whole test binary; dataset
// construction dominates and every experiment is read-only.
var sharedRunner *Runner

func runner(t *testing.T) *Runner {
	t.Helper()
	if sharedRunner == nil {
		r, err := NewRunner(Config{Scale: 1, Seed: 42, Out: &bytes.Buffer{}})
		if err != nil {
			t.Fatal(err)
		}
		sharedRunner = r
	}
	return sharedRunner
}

// output redirects the runner's table output for one experiment.
func output(r *Runner) *bytes.Buffer {
	buf := &bytes.Buffer{}
	r.cfg.Out = buf
	return buf
}

func TestRunnerRequiresOut(t *testing.T) {
	if _, err := NewRunner(Config{Scale: 1}); err == nil {
		t.Fatal("nil Out should fail")
	}
}

func TestWorkloadParsesAndCoversDatasets(t *testing.T) {
	seen := make(map[dataset.Kind]bool)
	ordered, pc := 0, 0
	for _, q := range Workload() {
		if _, err := twig.Parse(q.Text); err != nil {
			t.Errorf("%s does not parse: %v", q.ID, err)
		}
		seen[q.Kind] = true
		if q.Ordered {
			ordered++
		}
		if q.PCHeavy {
			pc++
		}
	}
	if len(seen) != 3 || ordered < 2 || pc < 2 {
		t.Fatalf("workload lacks coverage: kinds=%d ordered=%d pc=%d", len(seen), ordered, pc)
	}
}

func TestE1Table(t *testing.T) {
	r := runner(t)
	buf := output(r)
	if err := r.E1IndexBuild(); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"dblp", "xmark", "treebank", "nodes"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("E1 output missing %q:\n%s", want, buf.String())
		}
	}
}

func TestE2AllAlgorithmsAgreeOnWorkload(t *testing.T) {
	r := runner(t)
	buf := output(r)
	// E2 itself fails when any algorithm's match count disagrees with the
	// oracle, so running it IS the cross-check on realistic data.
	if err := r.E2TwigAlgorithms(); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Q12") {
		t.Error("E2 output incomplete")
	}
}

func TestE3TwigStackNeverWorse(t *testing.T) {
	r := runner(t)
	buf := output(r)
	if err := r.E3Intermediate(); err != nil {
		t.Fatal(err)
	}
	// Every ratio in the table must be >= 1 (TwigStack emits no more
	// intermediate solutions than PathStack).
	for _, line := range strings.Split(buf.String(), "\n") {
		fields := strings.Fields(line)
		if len(fields) != 7 || fields[0] == "query" {
			continue
		}
		ratio := fields[6]
		if ratio == "-" {
			continue
		}
		if strings.HasPrefix(ratio, "0.") {
			t.Errorf("TwigStack emitted more path solutions than PathStack: %s", line)
		}
	}
}

func TestE5AndE6Run(t *testing.T) {
	r := runner(t)
	buf := output(r)
	if err := r.E5CompletionLatency(); err != nil {
		t.Fatal(err)
	}
	if err := r.E6CompletionQuality(); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "position-aware") || !strings.Contains(out, "MRR") {
		t.Errorf("completion tables incomplete:\n%s", out)
	}
}

func TestE6PositionAwareBeatsNaive(t *testing.T) {
	r := runner(t)
	probes := completionProbes()
	if len(probes) < 10 {
		t.Fatalf("only %d probes", len(probes))
	}
	var aware, naive metrics
	for _, p := range probes {
		engine := r.Engine(p.kind)
		q, focus, err := probeQuery(p)
		if err != nil {
			t.Fatal(err)
		}
		prefix := p.intended[:1]
		aware.observe(rankOf(p.intended, engine.Completer().SuggestTags(q, focus, p.axis, prefix, 10)))
		naive.observe(rankOf(p.intended, engine.Completer().SuggestTagsNaive(prefix, 10)))
	}
	if aware.mrr() <= naive.mrr() {
		t.Errorf("position-aware MRR %.3f should beat naive %.3f", aware.mrr(), naive.mrr())
	}
}

// TestE6ScoresFeasibleProbesOnly: every probe E6 keeps names a tag that
// occurs at its position, the TreeBank probes whose path the document never
// has (an NP child of //NP, an NN child of //NP/NP) are dropped, and the
// table reports the dropped count beside the scored one.
func TestE6ScoresFeasibleProbesOnly(t *testing.T) {
	r := runner(t)
	kept, dropped, err := r.e6Probes()
	if err != nil {
		t.Fatal(err)
	}
	if len(kept)+len(dropped) != len(completionProbes()) || len(dropped) == 0 {
		t.Fatalf("kept %d, dropped %d of %d probes", len(kept), len(dropped), len(completionProbes()))
	}
	for _, p := range kept {
		q, focus, err := probeQuery(p)
		if err != nil {
			t.Fatal(err)
		}
		if len(r.Engine(p.kind).Completer().ExplainTag(q, focus, p.axis, p.intended, 1)) == 0 {
			t.Errorf("kept infeasible probe %+v", p)
		}
	}
	for _, p := range dropped {
		if p.kind != dataset.TreeBank {
			t.Errorf("dropped probe %+v outside TreeBank", p)
		}
	}
	buf := output(r)
	if err := r.E6CompletionQuality(); err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("%d %d", len(kept), len(dropped))
	for _, line := range strings.Split(buf.String(), "\n") {
		if fields := strings.Fields(line); len(fields) == 9 && fields[0] == "0" {
			if got := strings.Join(fields[7:], " "); got != want {
				t.Errorf("prefix-0 row reports probes/dropped %q, want %q", got, want)
			}
			return
		}
	}
	t.Fatalf("no prefix-0 row in:\n%s", buf.String())
}

func TestE7RankingBeatsBaselines(t *testing.T) {
	r := runner(t)
	buf := output(r)
	if err := r.E7Ranking(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var lotusNDCG, docNDCG float64
	for _, line := range lines {
		fields := strings.Fields(line)
		if len(fields) < 3 {
			continue
		}
		switch fields[0] {
		case "lotusx":
			lotusNDCG = parseFloat(t, fields[1])
		case "doc-order":
			docNDCG = parseFloat(t, fields[1])
		}
	}
	if lotusNDCG <= docNDCG {
		t.Errorf("lotusx nDCG %.3f should beat doc-order %.3f", lotusNDCG, docNDCG)
	}
}

func parseFloat(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("parsing %q: %v", s, err)
	}
	return v
}

func TestE8E9E10Run(t *testing.T) {
	r := runner(t)
	buf := output(r)
	if err := r.E8Ordered(); err != nil {
		t.Fatal(err)
	}
	if err := r.E9Rewrite(); err != nil {
		t.Fatal(err)
	}
	if err := r.E10Session(); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "recovery rate") {
		t.Error("E9 missing recovery rate")
	}
	if !strings.Contains(out, "total ms") {
		t.Error("E10 missing session table")
	}
}

func TestNDCGAndPrecision(t *testing.T) {
	perfect := []float64{3, 2, 1}
	if got := ndcg(perfect, 10); got != 1.0 {
		t.Errorf("perfect ndcg = %f", got)
	}
	worst := []float64{1, 2, 3}
	if got := ndcg(worst, 10); got >= 1.0 || got <= 0 {
		t.Errorf("inverted ndcg = %f", got)
	}
	if got := precisionAt([]float64{3, 1, 2, 1, 1}, 5, 2); got != 0.4 {
		t.Errorf("p@5 = %f", got)
	}
	if got := precisionAt(nil, 5, 2); got != 0 {
		t.Errorf("empty p@5 = %f", got)
	}
}

func TestMetrics(t *testing.T) {
	var m metrics
	m.observe(1)
	m.observe(3)
	m.observe(0) // miss
	if m.successAt1() != 1.0/3 || m.successAt5() != 2.0/3 {
		t.Errorf("metrics = %+v", m)
	}
	wantMRR := (1.0 + 1.0/3) / 3
	if diff := m.mrr() - wantMRR; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("mrr = %f, want %f", m.mrr(), wantMRR)
	}
}

func TestE14DegradeHoldsAvailability(t *testing.T) {
	r := runner(t)
	buf := output(r)
	if err := r.E14FaultTolerance(); err != nil {
		t.Fatal(err)
	}
	// Under injected failures, degrade answers nearly every request (whole
	// or partial — only an all-shards-failed fluke errors) while failfast
	// fails whole requests; with no injection both are perfect.
	rows := 0
	avail := map[string]map[string]float64{"degrade": {}, "failfast": {}}
	for _, line := range strings.Split(buf.String(), "\n") {
		fields := strings.Fields(line)
		if len(fields) != 7 || fields[0] == "fail%" {
			continue
		}
		rows++
		rate, policy, partial, failed := fields[0], fields[1], fields[3], fields[4]
		avail[policy][rate] = parseFloat(t, strings.TrimSuffix(fields[5], "%"))
		switch {
		case rate == "0" && failed != "0":
			t.Errorf("%s with no injection failed %s requests", policy, failed)
		case rate != "0" && policy == "degrade" && partial == "0":
			t.Errorf("degrade at %s%% injected failure answered no partials — injection not biting", rate)
		case rate != "0" && policy == "failfast" && failed == "0":
			t.Errorf("failfast at %s%% injected failure lost no requests — injection not biting", rate)
		}
	}
	if rows != 6 {
		t.Fatalf("E14 printed %d data rows, want 6:\n%s", rows, buf.String())
	}
	for _, rate := range []string{"10", "25"} {
		if avail["degrade"][rate] <= avail["failfast"][rate] {
			t.Errorf("at %s%% injected failure: degrade availability %.1f%% should beat failfast %.1f%%",
				rate, avail["degrade"][rate], avail["failfast"][rate])
		}
		if avail["degrade"][rate] < 95 {
			t.Errorf("degrade availability %.1f%% at %s%% injected failure — degraded answers are not absorbing shard loss", avail["degrade"][rate], rate)
		}
	}
}

func TestRunAllCompletes(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment suite")
	}
	var buf bytes.Buffer
	r, err := NewRunner(Config{Scale: 1, Seed: 42, Out: &buf})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.RunAll(); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.HasPrefix(out, "env: go") {
		t.Errorf("RunAll output does not open with the env line:\n%.200s", out)
	}
	for _, e := range experiments {
		if !strings.Contains(out, "\n=== "+e.id+" — "+e.claim+" ===\n") {
			t.Errorf("RunAll output missing the %s banner", e.id)
		}
	}
}

// TestPercentile pins the ranks E14 and E17 report at their sample sizes:
// the median is the upper middle sample, p99 the ⌈0.99·n⌉-th smallest.
func TestPercentile(t *testing.T) {
	for _, n := range []int{120, 150} {
		lat := make([]time.Duration, n)
		for i := range lat {
			lat[i] = time.Duration(n - i) // reversed: percentile must sort
		}
		if got, want := percentile(lat, 0.5), time.Duration(n/2+1); got != want {
			t.Errorf("n=%d: p50 = %d, want %d", n, got, want)
		}
		if got, want := percentile(lat, 0.99), time.Duration((99*n+99)/100); got != want {
			t.Errorf("n=%d: p99 = %d, want %d", n, got, want)
		}
	}
	if percentile(nil, 0.5) != 0 {
		t.Error("empty sample should give 0")
	}
}

func TestSelectExperiments(t *testing.T) {
	var all []string
	for _, e := range experiments {
		all = append(all, e.id)
	}
	for _, tc := range []struct {
		ids     string
		want    []string
		wantErr bool
	}{
		{ids: "", want: all},
		{ids: "e2, E3", want: []string{"E2", "E3"}},
		{ids: "A3,e17", want: []string{"A3", "E17"}},
		{ids: "E12", wantErr: true},
		{ids: "E2,", wantErr: true},
	} {
		picked, err := selectExperiments(tc.ids)
		if (err != nil) != tc.wantErr {
			t.Errorf("selectExperiments(%q) error = %v, wantErr %v", tc.ids, err, tc.wantErr)
			continue
		}
		var got []string
		for _, e := range picked {
			got = append(got, e.id)
		}
		if !slices.Equal(got, tc.want) {
			t.Errorf("selectExperiments(%q) = %v, want %v", tc.ids, got, tc.want)
		}
	}
}

// TestE1JSONRecord runs one experiment through Run with JSONDir set and
// checks the machine-readable record against the printed table.
func TestE1JSONRecord(t *testing.T) {
	r := runner(t)
	buf := output(r)
	r.cfg.JSONDir = t.TempDir()
	defer func() { r.cfg.JSONDir = "" }()

	if err := r.Run("E1"); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(r.cfg.JSONDir, "BENCH_E1.json"))
	if err != nil {
		t.Fatal(err)
	}
	var rec jsonExperiment
	if err := json.Unmarshal(raw, &rec); err != nil {
		t.Fatalf("BENCH_E1.json does not parse: %v", err)
	}
	if rec.ID != "E1" || len(rec.Tables) != 1 {
		t.Fatalf("unexpected record: %+v", rec)
	}
	if rec.Env.GoVersion == "" || rec.Env.GOMAXPROCS < 1 || rec.Env.NumCPU < 1 {
		t.Errorf("env block incomplete: %+v", rec.Env)
	}
	tab := rec.Tables[0]
	wantCols := []string{"dataset", "XML KB", "nodes", "tags", "guide paths", "parse ms", "index ms", "guide ms"}
	if !slices.Equal(tab.Columns, wantCols) {
		t.Errorf("columns = %q, want %q", tab.Columns, wantCols)
	}
	if len(tab.Rows) != len(dataset.Kinds) {
		t.Fatalf("%d rows, want one per dataset: %v", len(tab.Rows), tab.Rows)
	}
	// E1's cells hold no spaces, so a printed row splits into the same cells.
	printed := map[string][]string{}
	for _, line := range strings.Split(buf.String(), "\n") {
		if fields := strings.Fields(line); len(fields) > 0 {
			printed[fields[0]] = fields
		}
	}
	for i, row := range tab.Rows {
		if row[0] != string(dataset.Kinds[i]) || !slices.Equal(row, printed[row[0]]) {
			t.Errorf("row %d = %q, printed %q", i, row, printed[row[0]])
		}
	}
}

func TestE6ShapeRobustAcrossSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a second dataset generation")
	}
	// The headline claim (position-aware beats naive) must not depend on
	// the workload seed.
	for _, seed := range []int64{7, 1234} {
		r, err := NewRunner(Config{Scale: 1, Seed: seed, Out: &bytes.Buffer{}})
		if err != nil {
			t.Fatal(err)
		}
		var aware, naive metrics
		for _, p := range completionProbes() {
			engine := r.Engine(p.kind)
			q, focus, err := probeQuery(p)
			if err != nil {
				t.Fatal(err)
			}
			prefix := p.intended[:1]
			aware.observe(rankOf(p.intended, engine.Completer().SuggestTags(q, focus, p.axis, prefix, 10)))
			naive.observe(rankOf(p.intended, engine.Completer().SuggestTagsNaive(prefix, 10)))
		}
		if aware.mrr() <= naive.mrr() {
			t.Errorf("seed %d: aware MRR %.3f <= naive %.3f", seed, aware.mrr(), naive.mrr())
		}
	}
}
