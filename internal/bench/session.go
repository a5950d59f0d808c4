package bench

import (
	"fmt"
	"time"

	"lotusx/internal/core"
	"lotusx/internal/dataset"
	"lotusx/internal/twig"
)

// E10Session reproduces the end-to-end demo claim: an entire interactive
// session — root suggestion, growing the twig with position-aware
// candidates, value completion, evaluation with ranking — stays within
// interactive latency.  The scripted session mirrors the paper's running
// example ("find auctions whose item descriptions mention a term").
func (r *Runner) E10Session() error {
	tw := r.table()
	fmt.Fprintln(tw, "dataset\troot suggest\tgrow x3\tvalue suggest\tsearch\ttotal ms\tanswers")
	for _, kind := range dataset.Kinds {
		engine := r.engines[kind]
		steps, answers, err := scriptedSession(engine, kind)
		if err != nil {
			return fmt.Errorf("%s: %w", kind, err)
		}
		var total time.Duration
		for _, d := range steps {
			total += d
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\t%s\t%d\n",
			kind, ms(steps[0]), ms(steps[1]), ms(steps[2]), ms(steps[3]), ms(total), answers)
	}
	return tw.Flush()
}

// sessionScript describes one scripted interaction per dataset.
type sessionScript struct {
	rootPrefix string
	rootTag    string
	grows      []growStep
	valueOn    int // index into grows of the node that gets a value prefix
	valPrefix  string
}

type growStep struct {
	anchor int // -1 = root handle, else index into previous grows
	axis   twig.Axis
	prefix string
	tag    string
}

func scriptFor(kind dataset.Kind) sessionScript {
	switch kind {
	case dataset.DBLP:
		return sessionScript{
			rootPrefix: "art", rootTag: "article",
			grows: []growStep{
				{-1, twig.Child, "au", "author"},
				{-1, twig.Child, "ti", "title"},
				{-1, twig.Child, "ye", "year"},
			},
			valueOn: 0, valPrefix: "wei",
		}
	case dataset.XMark:
		return sessionScript{
			rootPrefix: "it", rootTag: "item",
			grows: []growStep{
				{-1, twig.Child, "na", "name"},
				{-1, twig.Descendant, "te", "text"},
				{-1, twig.Child, "lo", "location"},
			},
			valueOn: 2, valPrefix: "bo",
		}
	default: // treebank
		return sessionScript{
			rootPrefix: "S", rootTag: "S",
			grows: []growStep{
				{-1, twig.Child, "N", "NP"},
				{-1, twig.Child, "V", "VP"},
				{1, twig.Child, "VB", "VB"},
			},
			valueOn: 2, valPrefix: "b",
		}
	}
}

// scriptedSession runs the script and returns per-phase durations
// [rootSuggest, grows, valueSuggest, search] and the answer count.
func scriptedSession(engine *core.Engine, kind dataset.Kind) ([4]time.Duration, int, error) {
	var steps [4]time.Duration
	script := scriptFor(kind)
	s := engine.NewSession()

	start := time.Now()
	cands, err := s.SuggestTags(-1, twig.Descendant, script.rootPrefix, 8)
	if err != nil {
		return steps, 0, err
	}
	if len(cands) == 0 {
		return steps, 0, fmt.Errorf("no root candidates for %q", script.rootPrefix)
	}
	steps[0] = time.Since(start)
	root, err := s.Root(script.rootTag, twig.Descendant)
	if err != nil {
		return steps, 0, err
	}

	start = time.Now()
	handles := make([]int, len(script.grows))
	for i, g := range script.grows {
		anchor := root
		if g.anchor >= 0 {
			anchor = handles[g.anchor]
		}
		if _, err := s.SuggestTags(anchor, g.axis, g.prefix, 8); err != nil {
			return steps, 0, err
		}
		h, err := s.AddNode(anchor, g.axis, g.tag)
		if err != nil {
			return steps, 0, err
		}
		handles[i] = h
	}
	steps[1] = time.Since(start)

	start = time.Now()
	vals, err := s.SuggestValues(handles[script.valueOn], script.valPrefix, 8)
	if err != nil {
		return steps, 0, err
	}
	if len(vals) > 0 {
		if err := s.SetPredicate(handles[script.valueOn], twig.Contains, vals[0].Text); err != nil {
			return steps, 0, err
		}
	}
	steps[2] = time.Since(start)

	start = time.Now()
	res, err := s.Run(core.SearchOptions{K: 10, Rewrite: true})
	if err != nil {
		return steps, 0, err
	}
	steps[3] = time.Since(start)
	return steps, len(res.Answers), nil
}
