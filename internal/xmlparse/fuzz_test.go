package xmlparse

import (
	"io"
	"strings"
	"testing"
)

// fuzzSeeds seeds FuzzParser and FuzzParserMatchesReference.
var fuzzSeeds = []string{
	"",
	"<a/>",
	"<a><b x='1'>hi</b></a>",
	`<?xml version="1.0"?><!DOCTYPE d [ <!ENTITY x "y"> ]><d/>`,
	"<a>&lt;&#65;&#x42;</a>",
	"<a><![CDATA[<raw>]]></a>",
	"<a><!-- c --><?pi data?></a>",
	"<a><b></a>",     // mismatched
	"<a x=1/>",       // unquoted
	"<a>&bogus;</a>", // unknown entity
	"<",
	"<a ",
	"\xff\xfe<a/>",
	strings.Repeat("<d>", 100) + strings.Repeat("</d>", 100),
	"<a>" + strings.Repeat("&amp;", 50) + "</a>",
}

// FuzzParser checks that arbitrary byte input never makes the parser panic,
// loop, or succeed-then-contradict itself: any input that parses completely
// must re-parse to the same event sequence.  The seed corpus runs on every
// plain `go test`; `go test -fuzz=FuzzParser` explores further.
func FuzzParser(f *testing.F) {
	for _, s := range fuzzSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		events := func(s string) ([]Event, error) {
			p := NewParserString(s)
			var evs []Event
			for {
				ev, err := p.Next()
				if err == io.EOF {
					return evs, nil
				}
				if err != nil {
					return nil, err
				}
				ev.Attrs = append([]Attr(nil), ev.Attrs...)
				evs = append(evs, ev)
				if len(evs) > 1<<16 {
					t.Fatalf("event flood on %q", s)
				}
			}
		}
		evs1, err := events(src)
		if err != nil {
			return // rejection is fine; panics are not (would crash the fuzzer)
		}
		evs2, err := events(src)
		if err != nil {
			t.Fatalf("second parse failed where first succeeded: %v", err)
		}
		if len(evs1) != len(evs2) {
			t.Fatalf("non-deterministic parse: %d vs %d events", len(evs1), len(evs2))
		}
		for i := range evs1 {
			a, b := evs1[i], evs2[i]
			if a.Kind != b.Kind || a.Name != b.Name || a.Value != b.Value {
				t.Fatalf("event %d differs between parses", i)
			}
		}
	})
}
