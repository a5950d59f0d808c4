package metrics

import (
	"fmt"
	"io"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Prometheus text-format exposition (version 0.0.4), hand-rolled so the
// serving layer scrapes without a client-library dependency.  Nothing here
// names a family: the exposition is a walk over a snapshot value, and every
// family, its type, help text and labels come from the prom/help struct tags
// of the snapshot types (see the package comment).  Latencies are exported
// in seconds (the Prometheus base unit); histogram buckets reuse the fixed
// exponential bounds of Histogram, cumulated per the exposition contract,
// with the overflow bucket folded into +Inf.  Because Export derives the
// sample count from the bucket reads themselves, the
// `_count == _bucket{le="+Inf"}` invariant holds exactly even under
// concurrent load.

// WritePrometheus renders the registry's current snapshot to w.
func (r *Registry) WritePrometheus(w io.Writer) { WritePrometheus(w, r.Snapshot()) }

// WritePrometheus renders every tagged field reachable from v — a Snapshot,
// or any value whose types carry prom tags — to w.  Struct fields are
// visited in declaration order and map keys in sorted order, so the output
// is deterministic; each family's series are gathered under one HELP/TYPE
// header, and a family with no series is not emitted.
func WritePrometheus(w io.Writer, v any) {
	var e exposition
	e.walk(reflect.ValueOf(v), "")
	for _, f := range e.families {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n%s", f.name, f.help, f.name, f.typ, f.series.String())
	}
}

// family is one metric family being rendered: its declaration and its
// series so far.
type family struct {
	name, typ, help string
	series          strings.Builder
}

// exposition collects families in the order the walk first meets them.
type exposition struct {
	families []*family
	byName   map[string]*family
}

// promTag is a field's parsed `prom:"name,type,label=l" help:"..."` tags.
type promTag struct {
	name, typ, label, help string
}

func parsePromTag(f reflect.StructField) (promTag, bool) {
	raw, ok := f.Tag.Lookup("prom")
	if !ok {
		return promTag{}, false
	}
	parts := strings.Split(raw, ",")
	t := promTag{name: parts[0], help: f.Tag.Get("help")}
	for _, p := range parts[1:] {
		if l, ok := strings.CutPrefix(p, "label="); ok {
			t.label = l
		} else {
			t.typ = p
		}
	}
	return t, true
}

// walk renders every tagged field reachable from v; labels holds the label
// pairs the enclosing maps and label fields have set so far.
func (e *exposition) walk(v reflect.Value, labels string) {
	switch v.Kind() {
	case reflect.Pointer:
		if !v.IsNil() {
			e.walk(v.Elem(), labels)
		}
	case reflect.Struct:
		t := v.Type()
		// A string field tagged with only a label names the entity its
		// struct describes: it labels every family of the struct.
		for i := 0; i < t.NumField(); i++ {
			if tag, ok := parsePromTag(t.Field(i)); ok && tag.name == "" && v.Field(i).Kind() == reflect.String {
				labels = withLabel(labels, tag.label, v.Field(i).String())
			}
		}
		for i := 0; i < t.NumField(); i++ {
			f, fv := t.Field(i), v.Field(i)
			tag, ok := parsePromTag(f)
			switch {
			case !ok:
				e.walk(fv, labels)
			case fv.Kind() == reflect.Map:
				keys := fv.MapKeys()
				sort.Slice(keys, func(a, b int) bool { return keys[a].String() < keys[b].String() })
				for _, k := range keys {
					l := withLabel(labels, tag.label, k.String())
					if tag.name == "" {
						e.walk(fv.MapIndex(k), l)
					} else {
						e.sample(tag, l, fv.MapIndex(k))
					}
				}
			case tag.name != "":
				e.sample(tag, labels, fv)
			}
		}
	}
}

// sample appends one series of family tag.name.
func (e *exposition) sample(tag promTag, labels string, v reflect.Value) {
	f := e.byName[tag.name]
	if f == nil {
		if e.byName == nil {
			e.byName = make(map[string]*family)
		}
		f = &family{name: tag.name, typ: tag.typ, help: tag.help}
		e.byName[tag.name] = f
		e.families = append(e.families, f)
	}
	if tag.typ == "histogram" {
		writeHistogram(&f.series, tag.name, labels, v.Interface().(LatencySnapshot).export)
		return
	}
	var val string
	switch v.Kind() {
	case reflect.Bool:
		val = "0"
		if v.Bool() {
			val = "1"
		}
	case reflect.Int, reflect.Int64:
		val = strconv.FormatInt(v.Int(), 10)
	case reflect.Uint32, reflect.Uint64:
		val = strconv.FormatUint(v.Uint(), 10)
	case reflect.Float64:
		val = fmtFloat(v.Float())
	default:
		panic("metrics: prom tag on unsupported field kind " + v.Kind().String())
	}
	fmt.Fprintf(&f.series, "%s%s %s\n", tag.name, braced(labels), val)
}

// withLabel appends one label pair; Go's %q escaping of the value matches
// the exposition format's (backslash, quote and newline escapes are
// identical).
func withLabel(labels, name, value string) string {
	pair := fmt.Sprintf("%s=%q", name, value)
	if labels == "" {
		return pair
	}
	return labels + "," + pair
}

// braced renders a label set as a sample suffix, "" when empty.
func braced(labels string) string {
	if labels == "" {
		return ""
	}
	return "{" + labels + "}"
}

// writeHistogram emits the _bucket/_sum/_count triple of one series.
func writeHistogram(w io.Writer, name, labels string, e Export) {
	le := labels
	if le != "" {
		le += ","
	}
	var cum int64
	// The finite buckets; the final (overflow) bucket folds into +Inf.
	for i := 0; i < bucketCount-1; i++ {
		cum += e.Buckets[i]
		fmt.Fprintf(w, "%s_bucket{%sle=\"%s\"} %d\n", name, le, fmtFloat(bucketBound(i).Seconds()), cum)
	}
	fmt.Fprintf(w, "%s_bucket{%sle=\"+Inf\"} %d\n", name, le, e.Count)
	fmt.Fprintf(w, "%s_sum%s %s\n", name, braced(labels), fmtFloat(time.Duration(e.Sum).Seconds()))
	fmt.Fprintf(w, "%s_count%s %d\n", name, braced(labels), e.Count)
}

// fmtFloat renders a float compactly; %g keeps round values short.
func fmtFloat(f float64) string {
	return fmt.Sprintf("%g", f)
}
