package main

import "testing"

// TestAllAnalyzersRegistered pins the multichecker's composition: every
// analyzer the repo ships must be wired in, so adding a package under
// internal/lint/analyzers without registering it here fails loudly
// rather than silently not running.
func TestAllAnalyzersRegistered(t *testing.T) {
	want := []string{
		"walltime",
		"seededrand",
		"maporder",
		"errclass",
		"locksafe",
		"obsspan",
		"jsonrow",
		"lockorder",
		"bufsafe",
		"deadlinebound",
		"goroleak",
	}
	if len(analyzers) != len(want) {
		t.Fatalf("registered %d analyzers, want %d", len(analyzers), len(want))
	}
	seen := map[string]bool{}
	for _, a := range analyzers {
		if a.Name == "" || a.Doc == "" || a.Run == nil {
			t.Errorf("analyzer %q incompletely defined (doc or run missing)", a.Name)
		}
		seen[a.Name] = true
	}
	for _, name := range want {
		if !seen[name] {
			t.Errorf("analyzer %s not registered in the multichecker", name)
		}
	}
}

// TestInterproceduralTierMarked ensures the four summary-backed
// analyzers request the index (and only they do): a missing flag means
// a pass with a nil Summaries and a silently inert analyzer.
func TestInterproceduralTierMarked(t *testing.T) {
	needs := map[string]bool{
		"lockorder":     true,
		"bufsafe":       true,
		"deadlinebound": true,
		"goroleak":      true,
	}
	for _, a := range analyzers {
		if a.NeedsSummaries != needs[a.Name] {
			t.Errorf("%s: NeedsSummaries = %v, want %v", a.Name, a.NeedsSummaries, needs[a.Name])
		}
	}
}

// TestScopeFunctions pins the package scoping of the interprocedural
// tier and of the data-plane jsonrow check.
func TestScopeFunctions(t *testing.T) {
	cases := []struct {
		analyzer, pkg string
		want          bool
	}{
		{"lockorder", "sqpeer/internal/exec", true},
		{"lockorder", "sqpeer/internal/lint/summary", false},
		{"lockorder", "sqpeer/cmd/sqpeer-lint", false},
		{"bufsafe", "sqpeer/internal/rql", true},
		{"goroleak", "sqpeer/internal/network", true},
		{"deadlinebound", "sqpeer/internal/network", false},
		{"deadlinebound", "sqpeer/internal/exec", true},
		{"deadlinebound", "sqpeer/internal/dht", true},
		{"jsonrow", "sqpeer/internal/exec", true},
		{"jsonrow", "sqpeer/internal/channel", true},
		{"jsonrow", "sqpeer/internal/overlay", true},
		{"jsonrow", "sqpeer/internal/harness", false},
	}
	for _, c := range cases {
		accept, ok := scope[c.analyzer]
		if !ok {
			t.Fatalf("no scope entry for %s", c.analyzer)
		}
		if got := accept(c.pkg); got != c.want {
			t.Errorf("scope[%s](%s) = %v, want %v", c.analyzer, c.pkg, got, c.want)
		}
	}
}
