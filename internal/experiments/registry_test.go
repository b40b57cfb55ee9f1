package experiments

import (
	"strings"
	"testing"
)

// TestRegistryIDs checks that every experiment and claim id is non-empty,
// unique and lower-case, and that every entry is described. The CLI
// lowercases its arguments before lookup, so a mixed-case id could never be
// run.
func TestRegistryIDs(t *testing.T) {
	seen := map[string]bool{}
	check := func(kind, id string) {
		switch {
		case id == "":
			t.Errorf("empty %s id", kind)
		case id != strings.ToLower(id):
			t.Errorf("%s id %q is not lower-case", kind, id)
		case seen[kind+" "+id]:
			t.Errorf("duplicate %s id %q", kind, id)
		}
		seen[kind+" "+id] = true
	}
	for _, e := range Registry() {
		check("experiment", e.ID)
		if e.Desc == "" {
			t.Errorf("experiment %q has no description", e.ID)
		}
		if e.Run == nil {
			t.Errorf("experiment %q has no Run", e.ID)
		}
		if c := e.Claim; c != nil {
			check("claim", c.ID)
			if c.Statement == "" || c.Check == nil {
				t.Errorf("claim %q lacks a statement or a check", c.ID)
			}
		}
	}
}
