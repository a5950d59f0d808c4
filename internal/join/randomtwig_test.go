package join

import (
	"math/rand"
	"testing"

	"lotusx/internal/twig"
)

// randomQuery builds an arbitrary twig over the test vocabulary: random
// shape, axes, wildcards, predicates, output node and (sometimes) an order
// constraint between two leaves.
func randomQuery(rng *rand.Rand) *twig.Query {
	tags := []string{"a", "b", "c", "d", "*"}
	vals := []string{"x", "y", "x y", "z"}
	axes := []twig.Axis{twig.Child, twig.Descendant}

	rootTag := tags[rng.Intn(len(tags)-1)] // root: avoid wildcard half the time
	if rng.Intn(2) == 0 {
		rootTag = "*"
	}
	q := &twig.Query{Root: &twig.Node{Tag: rootTag, Axis: axes[rng.Intn(2)]}}

	var all []*twig.Node
	all = append(all, q.Root)
	n := rng.Intn(5)
	for i := 0; i < n; i++ {
		parent := all[rng.Intn(len(all))]
		c := parent.AddChild(tags[rng.Intn(len(tags))], axes[rng.Intn(2)])
		if rng.Intn(4) == 0 {
			ops := []twig.PredOp{twig.Eq, twig.Contains}
			c.Pred = twig.Pred{Op: ops[rng.Intn(2)], Value: vals[rng.Intn(len(vals))]}
		}
		all = append(all, c)
	}
	// Random output node.
	all[rng.Intn(len(all))].Output = true
	if err := q.Normalize(); err != nil {
		panic(err)
	}
	// Occasionally an order constraint between two distinct nodes.
	if len(all) >= 3 && rng.Intn(3) == 0 {
		i := 1 + rng.Intn(q.Len()-1)
		j := 1 + rng.Intn(q.Len()-1)
		if i != j {
			q.Order = append(q.Order, twig.OrderConstraint{Before: i, After: j})
			if err := q.Normalize(); err != nil {
				panic(err)
			}
		}
	}
	return q
}

// TestRandomTwigsAllAlgorithmsAgree is the strongest equivalence check:
// fully random twigs (not a hand-picked list) against random documents,
// every algorithm against the nested-loop oracle.
func TestRandomTwigsAllAlgorithmsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(424242))
	tags := []string{"a", "b", "c", "d"}
	vals := []string{"x", "y", "x y", "z"}

	trials := 40
	queriesPerDoc := 25
	if testing.Short() {
		trials, queriesPerDoc = 10, 10
	}
	for trial := 0; trial < trials; trial++ {
		src := genWellFormed(rng, tags, vals, 50+rng.Intn(100))
		ix := mustIndex(t, src)
		for qi := 0; qi < queriesPerDoc; qi++ {
			q := randomQuery(rng)
			var ref string
			for _, alg := range Algorithms {
				res, err := Run(ix, q, alg, Options{})
				if err != nil {
					t.Fatalf("trial %d/%d %s on %s: %v", trial, qi, alg, q, err)
				}
				s := matchSetString(res)
				if alg == NestedLoop {
					ref = s
					continue
				}
				if s != ref {
					t.Fatalf("trial %d/%d: %s disagrees with oracle on %s\noracle: %s\ngot:    %s\ndoc: %s",
						trial, qi, alg, q, ref, s, src)
				}
			}
			// Auto must agree as well (it delegates to one of the above).
			res, err := Run(ix, q, Auto, Options{})
			if err != nil {
				t.Fatalf("auto on %s: %v", q, err)
			}
			if matchSetString(res) != ref {
				t.Fatalf("auto disagrees with oracle on %s", q)
			}
		}
	}
}

// TestRandomTwigsMinimizePreservesAnswers extends the equivalence check to
// minimization: for random twigs, the minimized query returns the same
// output-node answers.
func TestRandomTwigsMinimizePreservesAnswers(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	tags := []string{"a", "b", "c"}
	vals := []string{"x", "y"}
	for trial := 0; trial < 25; trial++ {
		src := genWellFormed(rng, tags, vals, 70)
		ix := mustIndex(t, src)
		for qi := 0; qi < 15; qi++ {
			q := randomQuery(rng)
			if len(q.Order) > 0 {
				continue // order constraints are protected, nothing to check
			}
			m := q.Minimize()
			orig, err := Run(ix, q, TwigStack, Options{})
			if err != nil {
				t.Fatal(err)
			}
			mini, err := Run(ix, m, TwigStack, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if nodeSet(orig.OutputNodes(q)) != nodeSet(mini.OutputNodes(m)) {
				t.Fatalf("trial %d/%d: minimization changed answers\n%s -> %s\ndoc: %s",
					trial, qi, q, m, src)
			}
		}
	}
}
