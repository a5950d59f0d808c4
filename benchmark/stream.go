package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/url"
	"strconv"

	"lotusx/internal/twig"
)

// The request stream.  Everything the server is asked during a run is
// generated here from the seed, before the server starts; the server
// receives only requests.  The target twigs and the value vocabularies are
// literal data of the benchmark, so a change that claims a gain cannot move
// the workload by editing another package.

// template is one of the 13 workload queries (the Q1..Q13 of
// internal/bench.Workload at the commit that defined this benchmark).
type template struct {
	ID   string
	Kind string // dataset kind: dblp, xmark or treebank
	Text string
}

var templates = []template{
	{"Q1", "dblp", `//article/title`},
	{"Q2", "dblp", `//inproceedings[author][year]/title`},
	{"Q3", "dblp", `//article[author = "wei lu"]/title`},
	{"Q4", "dblp", `//dblp//author`},
	{"Q5", "xmark", `//item[description//text contains "vintage"]/name`},
	{"Q6", "xmark", `//person[profile/age]/name`},
	{"Q7", "xmark", `//open_auction[bidder/increase][seller]`},
	{"Q8", "xmark", `//open_auction[bidder << current]`},
	{"Q9", "treebank", `//S//NP//NN`},
	{"Q10", "treebank", `//S/VP/NP/NN`},
	{"Q11", "treebank", `//S[NP/PP][VP//NN]`},
	{"Q12", "treebank", `//S[NP << VP]`},
	{"Q13", "treebank", `//NP/NP/NN`},
}

// The value vocabularies of the synthetic datasets: every author is a first
// name and a last name, every item description draws from descWords.  The
// substituted terms therefore all occur, and all with the same frequency, so
// the seed changes which twigs are asked but not how much work they are.
var (
	firstNames = []string{"wei", "jiaheng", "chunbin", "mary", "john", "bogdan", "tok", "anna",
		"li", "david", "elena", "marco", "yuki", "priya", "omar", "sofia"}
	lastNames = []string{"lu", "lin", "ling", "cautis", "smith", "zhang", "garcia", "tanaka",
		"mueller", "ivanov", "rossi", "chen", "patel", "kim", "olsen", "silva"}
	descWords = []string{"rare", "excellent", "condition", "shipping", "included", "original",
		"collector", "edition", "antique", "modern", "classic", "handmade", "limited", "signed", "restored"}
)

const (
	authorVariants = 14 // substitutions of Q3's author
	termVariants   = 13 // substitutions of Q5's description term
	completeK      = 8  // candidates asked per keystroke, as the GUI does
	pageK          = 10 // answers per result page
	streamSessions = 200
)

// request is one HTTP request of a session, with the decoded parameters the
// in-process oracle and the traced replay evaluate it from.
type request struct {
	Op       string `json:"op"` // "complete" or "query"
	Template string `json:"template"`
	Dataset  string `json:"dataset"`
	URL      string `json:"url"`            // path and query string
	Body     string `json:"body,omitempty"` // JSON body of a query

	// query
	Query  string `json:"query,omitempty"`
	Offset int    `json:"offset,omitempty"`
	// complete
	Kind   string `json:"kind,omitempty"` // "tag" or "value"
	Path   string `json:"path,omitempty"`
	Axis   string `json:"axis,omitempty"`
	Prefix string `json:"prefix,omitempty"`
}

// key identifies a distinct request: two requests with one key have one
// expected answer.
func (r *request) key() string { return r.URL + " " + r.Body }

// session is what one GUI user does to build and run one twig: a completion
// per keystroke while the twig grows, then the query and its second page.
type session struct {
	Twig     string    `json:"twig"`
	Requests []request `json:"requests"`
}

// twigs returns the distinct target twigs for a seed: the 13 templates plus
// seeded value-term substitutions of the two predicate queries, 40 in all.
func twigs(rng *rand.Rand) []template {
	out := append([]template(nil), templates...)
	seen := map[string]bool{"wei lu": true}
	for len(seen) <= authorVariants {
		name := firstNames[rng.Intn(len(firstNames))] + " " + lastNames[rng.Intn(len(lastNames))]
		if seen[name] {
			continue
		}
		seen[name] = true
		out = append(out, template{"Q3", "dblp", fmt.Sprintf(`//article[author = %q]/title`, name)})
	}
	for _, i := range rng.Perm(len(descWords))[:termVariants] {
		out = append(out, template{"Q5", "xmark",
			fmt.Sprintf(`//item[description//text contains %q]/name`, descWords[i])})
	}
	return out
}

// genStream returns the sessions of a run: the twigs over the given dataset
// kinds, visited in a fresh seeded shuffle per cycle until streamSessions
// sessions exist.  datasets maps a kind to the dataset name the server serves
// it under.
func genStream(seed int64, datasets map[string]string) ([]session, error) {
	rng := rand.New(rand.NewSource(seed))
	var pool []session
	for _, t := range twigs(rng) {
		name, ok := datasets[t.Kind]
		if !ok {
			continue
		}
		s, err := sessionFor(t, name)
		if err != nil {
			return nil, err
		}
		pool = append(pool, s)
	}
	if len(pool) == 0 {
		return nil, fmt.Errorf("no twig targets the datasets %v", datasets)
	}
	stream := make([]session, 0, streamSessions)
	for len(stream) < streamSessions {
		for _, i := range rng.Perm(len(pool)) {
			if len(stream) < streamSessions {
				stream = append(stream, pool[i])
			}
		}
	}
	return stream, nil
}

// chain renders the root-to-n path of a twig node in the XPath subset — the
// partial twig a completion request carries as its position.
func chain(n *twig.Node) string {
	if n == nil {
		return ""
	}
	return chain(n.Parent()) + n.Axis.String() + n.Tag
}

func axisName(a twig.Axis) string {
	if a == twig.Descendant {
		return "descendant"
	}
	return "child"
}

// sessionFor derives a session mechanically from a target twig: per twig
// node in preorder one tag completion per keystroke for the first two
// characters of its tag, at its parent's path and its own axis; per value
// predicate one value completion per keystroke for the first three
// characters; then the query, then its second page.
func sessionFor(t template, dataset string) (session, error) {
	q, err := twig.Parse(t.Text)
	if err != nil {
		return session{}, fmt.Errorf("template %s: %w", t.ID, err)
	}
	s := session{Twig: t.Text}
	complete := func(kind, path, axis, prefix string) {
		v := url.Values{}
		v.Set("dataset", dataset)
		v.Set("kind", kind)
		v.Set("path", path)
		if kind == "tag" {
			v.Set("axis", axis)
		}
		v.Set("prefix", prefix)
		v.Set("k", strconv.Itoa(completeK))
		s.Requests = append(s.Requests, request{
			Op: "complete", Template: t.ID, Dataset: dataset,
			URL:  "/api/v1/complete?" + v.Encode(),
			Kind: kind, Path: path, Axis: axis, Prefix: prefix,
		})
	}
	for _, n := range q.Nodes() {
		for i := 1; i <= 2 && i <= len(n.Tag); i++ {
			complete("tag", chain(n.Parent()), axisName(n.Axis), n.Tag[:i])
		}
		if n.Pred.Op != twig.NoPred {
			for i := 1; i <= 3 && i <= len(n.Pred.Value); i++ {
				complete("value", chain(n), "", n.Pred.Value[:i])
			}
		}
	}
	for _, offset := range []int{0, pageK} {
		// "auto" sends the query through the planner (join.Choose); without
		// it the server always runs TwigStack and a planner change cannot show.
		body, err := json.Marshal(map[string]any{
			"query": t.Text, "k": pageK, "offset": offset, "algorithm": "auto"})
		if err != nil {
			return session{}, err
		}
		s.Requests = append(s.Requests, request{
			Op: "query", Template: t.ID, Dataset: dataset,
			URL:   "/api/v1/query?dataset=" + url.QueryEscape(dataset),
			Body:  string(body),
			Query: t.Text, Offset: offset,
		})
	}
	return s, nil
}

// distinct returns the first request of every key, in stream order.
func distinct(stream []session) []*request {
	seen := map[string]bool{}
	var out []*request
	for i := range stream {
		for j := range stream[i].Requests {
			r := &stream[i].Requests[j]
			if !seen[r.key()] {
				seen[r.key()] = true
				out = append(out, r)
			}
		}
	}
	return out
}

// cycleLen is the number of leading sessions after which every distinct twig
// of the stream has been visited once: warm-up lasts at least that long.
func cycleLen(stream []session) int {
	seen := map[string]bool{}
	for _, s := range stream {
		seen[s.Twig] = true
	}
	first := map[string]bool{}
	for i, s := range stream {
		first[s.Twig] = true
		if len(first) == len(seen) {
			return i + 1
		}
	}
	return len(stream)
}
