package server

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"lotusx/internal/core"
)

var updateGolden = flag.Bool("update", false, "rewrite the testdata/*.golden files from the live server")

// TestAPIContract diffs the served API surface — route table + envelope
// shapes — against the checked-in golden.  A mismatch means the HTTP
// contract changed: if intentional, regenerate with -update and let the
// golden's diff document the change in review.
func TestAPIContract(t *testing.T) {
	// Admin on so the full surface (jobs API included) is in the table.
	s := NewCatalogConfig(core.NewCatalog(), Config{EnableAdmin: true})
	t.Cleanup(s.Close)
	checkGolden(t, filepath.Join("testdata", "api_contract.golden"), s.ContractDump())
}

// checkGolden diffs got against the golden file at path, rewriting the file
// instead under -update.
func checkGolden(t *testing.T, path, got string) {
	t.Helper()
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (generate with -update): %v", err)
	}
	if got != string(want) {
		t.Fatalf("%s drifted; if the change is intentional, regenerate with:\n  go test ./internal/server/ -run '%s' -update\n\n%s", path, t.Name(), contractDiff(string(want), got))
	}
}

// contractDiff renders a minimal line diff, enough to see what moved.
func contractDiff(want, got string) string {
	wl, gl := strings.Split(want, "\n"), strings.Split(got, "\n")
	inWant := make(map[string]bool, len(wl))
	for _, l := range wl {
		inWant[l] = true
	}
	inGot := make(map[string]bool, len(gl))
	for _, l := range gl {
		inGot[l] = true
	}
	var b strings.Builder
	for _, l := range wl {
		if !inGot[l] {
			b.WriteString("- " + l + "\n")
		}
	}
	for _, l := range gl {
		if !inWant[l] {
			b.WriteString("+ " + l + "\n")
		}
	}
	return b.String()
}
