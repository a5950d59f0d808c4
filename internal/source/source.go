// Package source is the one loader behind every command: it turns the
// command-line description of a dataset — an XML file (-in), a persisted
// index (-index) or a synthetic generator (-dataset with -scale and -seed)
// — into a document, an engine, the engine of one slice, or a backend of N
// shards.
//
// Each form is built at its own cost and no more: an index file is read for
// its document, and a slice or a sharded backend parses the document once
// without building the whole-document engine.
package source

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"

	"lotusx/internal/core"
	"lotusx/internal/corpus"
	"lotusx/internal/dataset"
	"lotusx/internal/doc"
)

// Source names where one dataset comes from.  Exactly one of In, Index and
// Kind is set; Scale and Seed apply to Kind.
type Source struct {
	In    string // XML file
	Index string // persisted index file, written by core.Engine.Save
	Kind  string // synthetic dataset kind: dblp, xmark or treebank
	Scale int
	Seed  int64
}

// Name is the one naming rule: a dataset is served under the base of its
// document's name, so a file's directories never reach a dataset name, a
// corpus directory or a shard label.
func Name(d *doc.Document) string { return filepath.Base(d.Name()) }

// Inputs counts the inputs the source names; a loadable source names one.
func (s Source) Inputs() int {
	return len(slices.DeleteFunc([]string{s.In, s.Index, s.Kind}, func(v string) bool { return v == "" }))
}

// check reports a source naming no input, or more than one.
func (s Source) check() error {
	switch s.Inputs() {
	case 0:
		return fmt.Errorf("one of -in, -index or -dataset is required")
	case 1:
		return nil
	}
	return fmt.Errorf("-in, -index and -dataset are exclusive: name one input")
}

// Document reads, or generates and parses, the source's document without
// indexing it.
func (s Source) Document() (*doc.Document, error) {
	if err := s.check(); err != nil {
		return nil, err
	}
	switch {
	case s.In != "":
		f, err := os.Open(s.In)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return doc.FromReader(s.In, f)
	case s.Index != "":
		f, err := os.Open(s.Index)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return core.LoadDocument(f)
	default:
		return dataset.Build(dataset.Kind(s.Kind), s.Scale, s.Seed)
	}
}

// Engine builds the whole-document engine once.
func (s Source) Engine() (*core.Engine, error) {
	d, err := s.Document()
	if err != nil {
		return nil, err
	}
	return core.FromDocument(d), nil
}

// Slice builds the engine of slice i of n — part i of the record partition
// a corpus of n shards uses.  0/1 is the whole document's engine; otherwise
// the document is only parsed, and no other slice is built.
func (s Source) Slice(i, n int) (*core.Engine, error) {
	if n == 1 {
		return s.Engine()
	}
	d, err := s.Document()
	if err != nil {
		return nil, err
	}
	sd, err := corpus.SplitPart(d, n, i)
	if err != nil {
		return nil, fmt.Errorf("slice %d/%d: %w", i, n, err)
	}
	return core.FromDocument(sd), nil
}

// Backend builds what a command serves over shards parts: the engine when
// shards is 1, else an in-memory corpus named by Name with parallel fan-out.
func (s Source) Backend(shards int) (core.Backend, error) {
	if shards < 1 {
		return nil, fmt.Errorf("bad -shards %d: want >= 1", shards)
	}
	if shards == 1 {
		return s.Engine()
	}
	d, err := s.Document()
	if err != nil {
		return nil, err
	}
	return corpus.FromDocument(Name(d), d, shards, corpus.Config{})
}
