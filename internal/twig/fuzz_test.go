package twig

import "testing"

// FuzzParse: Parse never panics, and every query it accepts renders to text
// that parses back to the same rendering.
func FuzzParse(f *testing.F) {
	for _, seed := range []string{
		`//article[author = "Jiaheng Lu"]/title`,
		`/dblp/book[.//author contains "ling"][year]`,
		`//S[NP << VP]`,
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, input string) {
		q, err := Parse(input)
		if err != nil {
			return
		}
		text := q.String()
		again, err := Parse(text)
		if err != nil {
			t.Fatalf("Parse(%q) = %q, which does not parse: %v", input, text, err)
		}
		if got := again.String(); got != text {
			t.Fatalf("Parse(%q) renders %q, which re-renders %q", input, text, got)
		}
	})
}
