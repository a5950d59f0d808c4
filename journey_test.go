package lotusx_test

import (
	"bytes"
	"strings"
	"testing"

	"lotusx"
	"lotusx/internal/dataset"
)

// TestUserJourney walks the complete story the demo paper tells, end to end
// on a generated corpus: a user who knows nothing about the data discovers
// its vocabulary through position-aware completion, builds a twig without
// writing a query language, reads ranked answers with highlights, mistypes
// and is rescued by rewriting, and finally persists the index for next time.
func TestUserJourney(t *testing.T) {
	// Act 0: the corpus.
	var buf bytes.Buffer
	if err := dataset.Generate(dataset.DBLP, 1, 42, &buf); err != nil {
		t.Fatal(err)
	}
	engine, err := lotusx.FromReader("dblp", &buf)
	if err != nil {
		t.Fatal(err)
	}
	if engine.Stats().Nodes < 10000 {
		t.Fatalf("corpus too small: %+v", engine.Stats())
	}

	// Act 1: discovery.  "What is in here?"  The root suggestion reveals
	// the entry kinds without the user knowing the schema.
	s := engine.NewSession()
	cands, err := s.SuggestTags(lotusx.NewRoot, lotusx.Descendant, "", 30)
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[string]bool{}
	for _, c := range cands {
		kinds[c.Text] = true
	}
	for _, want := range []string{"article", "inproceedings", "book", "author"} {
		if !kinds[want] {
			t.Fatalf("discovery did not surface %q: %v", want, kinds)
		}
	}

	// Act 2: building.  The user picks inproceedings, grows author and
	// title with one-letter prefixes, completion does the rest.
	root, err := s.Root("inproceedings", lotusx.Descendant)
	if err != nil {
		t.Fatal(err)
	}
	aCands, err := s.SuggestTags(root, lotusx.Child, "a", 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(aCands) == 0 || aCands[0].Text != "author" {
		t.Fatalf("a* candidates = %+v", aCands)
	}
	author, err := s.AddNode(root, lotusx.Child, "author")
	if err != nil {
		t.Fatal(err)
	}
	// Value completion: who is in this corpus?
	vals, err := s.SuggestValues(author, "jiaheng", 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(vals) == 0 || !strings.HasPrefix(vals[0].Text, "jiaheng") {
		t.Fatalf("value candidates = %+v", vals)
	}
	if err := s.SetPredicate(author, lotusx.Eq, vals[0].Text); err != nil {
		t.Fatal(err)
	}
	title, err := s.AddNode(root, lotusx.Child, "title")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SetOutput(title); err != nil {
		t.Fatal(err)
	}

	// Act 3: answers, ranked and explained.
	res, err := s.Run(lotusx.SearchOptions{K: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Answers) == 0 {
		t.Fatal("no answers for a frequent author")
	}
	for i := 1; i < len(res.Answers); i++ {
		if res.Answers[i-1].Score < res.Answers[i].Score {
			t.Fatal("answers not score-ordered")
		}
	}
	q, err := s.Query()
	if err != nil {
		t.Fatal(err)
	}
	hs := engine.Highlights(q, res.Answers[0].Scored.Match)
	if len(hs) != 1 || len(hs[0].Spans) == 0 {
		t.Fatalf("highlights = %+v", hs)
	}
	// The XQuery nobody wrote.
	xq, err := s.XQuery()
	if err != nil || !strings.Contains(xq, "for $v0 in doc()//inproceedings") {
		t.Fatalf("xquery = %q (%v)", xq, err)
	}

	// Act 4: the typo.  "inproceedigns" is not a tag; rewriting rescues.
	broken, err := engine.SearchString(`//inproceedigns/title`,
		lotusx.SearchOptions{K: 3, Rewrite: true})
	if err != nil {
		t.Fatal(err)
	}
	if broken.Exact != 0 || len(broken.Answers) == 0 {
		t.Fatalf("rewrite rescue failed: exact=%d answers=%d", broken.Exact, len(broken.Answers))
	}
	if broken.Answers[0].Rewrite == nil ||
		!strings.Contains(broken.Answers[0].Rewrite.Query.String(), "inproceedings") {
		t.Fatalf("unexpected rewrite %+v", broken.Answers[0].Rewrite)
	}

	// Act 5: persistence.  Save, reopen, same answers.
	var saved bytes.Buffer
	if err := engine.Save(&saved); err != nil {
		t.Fatal(err)
	}
	engine2, err := lotusx.Open(&saved)
	if err != nil {
		t.Fatal(err)
	}
	res2, err := engine2.Search(q, lotusx.SearchOptions{K: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.Answers) != len(res.Answers) {
		t.Fatalf("reloaded answers = %d, want %d", len(res2.Answers), len(res.Answers))
	}
	for i := range res.Answers {
		if res.Answers[i].Node != res2.Answers[i].Node {
			t.Fatal("reloaded ranking differs")
		}
	}
}
