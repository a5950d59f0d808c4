// Package slo tracks service-level objectives over the serving surface:
// declared targets ("99.9% of requests succeed", "99% of searches answer
// within 50ms") measured over sliding windows, reported as compliance and
// burn rates.
//
// The burn rate is the standard multi-window alerting signal: the rate at
// which the error budget (1 - target) is being consumed, so burn 1.0 means
// "exactly on budget", burn 14.4 over a 5-minute window means "at this rate
// the whole monthly budget is gone in two days" — the conventional page
// threshold.  Each objective is tracked over two windows at once: a fast
// window (default 5m) that reacts to acute failure, and a slow window
// (default 1h) that smooths the same signal for ticket-grade alerts.
// Observations land in fixed-width ring buckets, so memory per objective is
// constant whatever the traffic.
//
// The package is intentionally self-contained (stdlib only): the metrics
// snapshot embeds its Snapshot as an opaque value and renders its
// Prometheus families from the prom tags on ObjectiveStatus, so the
// layering stays slo <- metrics-consumers, never the reverse.
package slo

import (
	"fmt"
	"strings"
	"sync"
	"time"
)

// Defaults applied by New for zero Config fields.
const (
	DefaultFastWindow = 5 * time.Minute
	DefaultSlowWindow = time.Hour
	// DefaultFastBurnAlert is the fast-window burn rate that flips an
	// objective to burning: 14.4 × budget consumption corresponds to
	// exhausting a 30-day budget in ~2 days — the classic page threshold.
	DefaultFastBurnAlert = 14.4
	// DefaultMinEvents is the fast-window event floor below which an
	// objective never reports burning: one unlucky request in a quiet window
	// is noise, not an incident.
	DefaultMinEvents = 10
)

// Objective declares one service-level objective.
type Objective struct {
	// Name labels the objective in metrics and /readyz ("search-p99",
	// "availability").  Required, unique within a Tracker.
	Name string `json:"name"`
	// Endpoint restricts the objective to one metrics endpoint name
	// ("query", "complete"); "" observes every tracked endpoint.
	Endpoint string `json:"endpoint,omitempty"`
	// Target is the required good-event fraction, in (0, 1) — 0.999 means
	// three nines.
	Target float64 `json:"target"`
	// Threshold, when positive, makes this a latency objective: a request is
	// good when it answered within Threshold and did not fail server-side.
	// Zero makes it an availability objective: bad means a 5xx response.
	Threshold time.Duration `json:"-"`
}

// bad classifies one observation against the objective.
func (o *Objective) bad(status int, d time.Duration) bool {
	if status >= 500 {
		return true
	}
	return o.Threshold > 0 && d > o.Threshold
}

// Config tunes a Tracker.  The zero value of every field but Objectives is
// usable (defaults above).
type Config struct {
	Objectives []Objective
	// FastWindow is the acute window (default 5m): its burn rate drives the
	// burning signal surfaced on /readyz.
	FastWindow time.Duration
	// SlowWindow is the smoothing window (default 1h): compliance and the
	// slow burn rate are computed over it.
	SlowWindow time.Duration
	// FastBurnAlert is the fast-window burn rate at which an objective
	// reports burning (default 14.4).
	FastBurnAlert float64
	// MinEvents is the fast-window event floor for the burning signal
	// (default 10).
	MinEvents int64
	// Now overrides the clock (tests); nil uses time.Now.
	Now func() time.Time
}

// bucket is one fixed-width slice of the sliding windows.  epoch is the
// bucket's absolute index on the width grid; a slot whose epoch fell out of
// the slow window is reset in place on next touch and skipped by sums.
type bucket struct {
	epoch     int64
	good, bad int64
}

// objective is one tracked objective's live state.
type objective struct {
	Objective

	mu sync.Mutex
	// goodTotal/badTotal are lifetime monotone counters — the Prometheus
	// counter pair an external rule engine can window itself.
	goodTotal, badTotal int64
	buckets             []bucket
}

// Tracker tracks a set of objectives.  Safe for concurrent use.
type Tracker struct {
	fast, slow time.Duration
	width      time.Duration
	alert      float64
	minEvents  int64
	now        func() time.Time
	objectives []*objective
}

// New validates the objectives and builds a Tracker.  It errors on an empty
// set, an unnamed or duplicated objective, or a target outside (0, 1).
func New(cfg Config) (*Tracker, error) {
	if len(cfg.Objectives) == 0 {
		return nil, fmt.Errorf("slo: no objectives declared")
	}
	fast := cfg.FastWindow
	if fast <= 0 {
		fast = DefaultFastWindow
	}
	slow := cfg.SlowWindow
	if slow <= 0 {
		slow = DefaultSlowWindow
	}
	if slow < fast {
		return nil, fmt.Errorf("slo: slow window %v shorter than fast window %v", slow, fast)
	}
	width := fast / 30
	if width < time.Second {
		width = time.Second
	}
	n := int(slow/width) + 1
	alert := cfg.FastBurnAlert
	if alert <= 0 {
		alert = DefaultFastBurnAlert
	}
	minEvents := cfg.MinEvents
	if minEvents <= 0 {
		minEvents = DefaultMinEvents
	}
	now := cfg.Now
	if now == nil {
		now = time.Now
	}
	t := &Tracker{fast: fast, slow: slow, width: width, alert: alert, minEvents: minEvents, now: now}
	seen := make(map[string]bool, len(cfg.Objectives))
	for _, ob := range cfg.Objectives {
		if ob.Name == "" {
			return nil, fmt.Errorf("slo: objective needs a name")
		}
		if seen[ob.Name] {
			return nil, fmt.Errorf("slo: duplicate objective %q", ob.Name)
		}
		seen[ob.Name] = true
		if ob.Target <= 0 || ob.Target >= 1 {
			return nil, fmt.Errorf("slo: objective %q target %v: want 0 < target < 1", ob.Name, ob.Target)
		}
		t.objectives = append(t.objectives, &objective{
			Objective: ob,
			buckets:   make([]bucket, n),
		})
	}
	return t, nil
}

// Observe feeds one finished request into every matching objective.
func (t *Tracker) Observe(endpoint string, status int, d time.Duration) {
	if t == nil {
		return
	}
	epoch := t.now().UnixNano() / int64(t.width)
	for _, o := range t.objectives {
		if o.Endpoint != "" && o.Endpoint != endpoint {
			continue
		}
		bad := o.bad(status, d)
		o.mu.Lock()
		b := &o.buckets[int(epoch%int64(len(o.buckets)))]
		if b.epoch != epoch {
			b.epoch, b.good, b.bad = epoch, 0, 0
		}
		if bad {
			b.bad++
			o.badTotal++
		} else {
			b.good++
			o.goodTotal++
		}
		o.mu.Unlock()
	}
}

// windowRates sums one objective's buckets over the trailing window ending
// at epoch.  Caller holds o.mu.
func (t *Tracker) windowRates(o *objective, epoch int64, window time.Duration) (good, bad int64) {
	span := int64(window / t.width)
	if span < 1 {
		span = 1
	}
	for i := range o.buckets {
		b := &o.buckets[i]
		if b.epoch > epoch-span && b.epoch <= epoch {
			good += b.good
			bad += b.bad
		}
	}
	return good, bad
}

// burnRate converts a window's counts to an error-budget burn rate: the
// observed bad fraction over the budget fraction (1 - target).  1.0 means
// consuming exactly the budget; 0 with no events.
func burnRate(good, bad int64, target float64) float64 {
	total := good + bad
	if total == 0 {
		return 0
	}
	return (float64(bad) / float64(total)) / (1 - target)
}

// ObjectiveStatus is the reported state of one objective.  The prom/help
// tags declare its Prometheus families, which the metrics package renders
// (see internal/metrics).
type ObjectiveStatus struct {
	Name        string  `json:"name" prom:",label=objective"`
	Endpoint    string  `json:"endpoint,omitempty"`
	Target      float64 `json:"target" prom:"lotusx_slo_target,gauge" help:"Declared good-event fraction of the objective."`
	ThresholdMS float64 `json:"thresholdMs,omitempty"`
	// GoodTotal/BadTotal are lifetime event counters (monotone).
	GoodTotal int64 `json:"goodTotal" prom:"lotusx_slo_good_total,counter" help:"Lifetime events meeting the objective."`
	BadTotal  int64 `json:"badTotal" prom:"lotusx_slo_bad_total,counter" help:"Lifetime events violating the objective."`
	// Compliance is the good fraction over the slow window; 1 with no events
	// (an idle objective is compliant, not broken).
	Compliance float64 `json:"compliance" prom:"lotusx_slo_compliance,gauge" help:"Good-event fraction over the slow window (1 when idle)."`
	// FastBurnRate/SlowBurnRate are the error-budget burn rates over the two
	// windows (1.0 = consuming exactly the budget).
	FastBurnRate float64 `json:"fastBurnRate"`
	SlowBurnRate float64 `json:"slowBurnRate"`
	// burnRates holds the same two rates keyed by window name, the shape
	// their one labeled family takes.
	burnRates map[string]float64 `prom:"lotusx_slo_burn_rate,gauge,label=window" help:"Error-budget burn rate over the labeled window (1 = on budget)."`
	// Burning reports the page-grade condition: fast-window burn at or above
	// the alert threshold with at least MinEvents observations.
	Burning bool `json:"burning" prom:"lotusx_slo_burning,gauge" help:"1 while the fast window burns at or above the alert threshold."`
}

// Snapshot is the JSON view of the tracker (embedded in /api/v1/metrics).
type Snapshot struct {
	FastWindowSeconds float64           `json:"fastWindowSeconds"`
	SlowWindowSeconds float64           `json:"slowWindowSeconds"`
	FastBurnAlert     float64           `json:"fastBurnAlert"`
	Objectives        []ObjectiveStatus `json:"objectives"`
}

// status materializes one objective's current state.
func (t *Tracker) status(o *objective) ObjectiveStatus {
	epoch := t.now().UnixNano() / int64(t.width)
	o.mu.Lock()
	defer o.mu.Unlock()
	fg, fb := t.windowRates(o, epoch, t.fast)
	sg, sb := t.windowRates(o, epoch, t.slow)
	st := ObjectiveStatus{
		Name:         o.Name,
		Endpoint:     o.Endpoint,
		Target:       o.Target,
		GoodTotal:    o.goodTotal,
		BadTotal:     o.badTotal,
		Compliance:   1,
		FastBurnRate: burnRate(fg, fb, o.Target),
		SlowBurnRate: burnRate(sg, sb, o.Target),
	}
	if o.Threshold > 0 {
		st.ThresholdMS = float64(o.Threshold.Microseconds()) / 1000
	}
	if total := sg + sb; total > 0 {
		st.Compliance = float64(sg) / float64(total)
	}
	st.burnRates = map[string]float64{"fast": st.FastBurnRate, "slow": st.SlowBurnRate}
	st.Burning = fg+fb >= t.minEvents && st.FastBurnRate >= t.alert
	return st
}

// Snapshot reports every objective's current state.
func (t *Tracker) Snapshot() Snapshot {
	if t == nil {
		return Snapshot{}
	}
	s := Snapshot{
		FastWindowSeconds: t.fast.Seconds(),
		SlowWindowSeconds: t.slow.Seconds(),
		FastBurnAlert:     t.alert,
		Objectives:        make([]ObjectiveStatus, 0, len(t.objectives)),
	}
	for _, o := range t.objectives {
		s.Objectives = append(s.Objectives, t.status(o))
	}
	return s
}

// Burning summarizes the objectives currently burning their fast window,
// "" when none is — the string /readyz appends as "ready (slo-burning): ...".
func (t *Tracker) Burning() string {
	if t == nil {
		return ""
	}
	var parts []string
	for _, o := range t.objectives {
		if st := t.status(o); st.Burning {
			parts = append(parts, fmt.Sprintf("%s burn %.1fx", st.Name, st.FastBurnRate))
		}
	}
	return strings.Join(parts, "; ")
}
