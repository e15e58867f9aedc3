package main

import (
	"os"
	"path/filepath"
	"testing"
)

func TestRunModes(t *testing.T) {
	cases := []struct {
		name string
		mode string
	}{
		{"paper", "paper"},
		{"hybrid", "hybrid"},
		{"adhoc", "adhoc"},
		{"flood", "flood"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if err := run(c.mode, "", 6, 4, "vertical", 3, 2, 6, false, true, ""); err != nil {
				t.Fatalf("run(%s): %v", c.mode, err)
			}
		})
	}
}

func TestRunParseOnlyAndErrors(t *testing.T) {
	if err := run("paper", "", 4, 2, "vertical", 3, 2, 3, true, false, ""); err != nil {
		t.Fatalf("parse-only: %v", err)
	}
	if err := run("paper", "garbage", 4, 2, "vertical", 3, 2, 3, false, false, ""); err == nil {
		t.Error("bad query accepted")
	}
	if err := run("nosuch", "", 4, 2, "vertical", 3, 2, 3, false, false, ""); err == nil {
		t.Error("unknown mode accepted")
	}
	if err := run("paper", "", 4, 2, "diagonal", 3, 2, 3, false, false, ""); err == nil {
		t.Error("unknown distribution accepted")
	}
	if err := run("flood", "", 4, 2, "vertical", 3, 2, 3, false, false, "127.0.0.1:0"); err == nil {
		t.Error("-debug-addr accepted outside paper mode")
	}
}

func TestRunDistributions(t *testing.T) {
	for _, dist := range []string{"vertical", "horizontal", "mixed"} {
		if err := run("hybrid", "", 5, 4, dist, 3, 2, 3, false, false, ""); err != nil {
			t.Fatalf("hybrid/%s: %v", dist, err)
		}
		// The CLI's documented 20-peer ring: under mixed, Q2's and Q3's
		// holders sit 5–9 hops from the initiator, past the TTL.
		if err := run("adhoc", "", 20, 8, dist, 4, 3, 5, false, false, ""); err != nil {
			t.Fatalf("adhoc/%s: %v", dist, err)
		}
	}
}

func TestRunCustomMode(t *testing.T) {
	dir := t.TempDir()
	schemaFile := filepath.Join(dir, "schema.txt")
	if err := os.WriteFile(schemaFile, []byte("schema http://demo#\nclass A\nclass B\nproperty p A -> B\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	dataFile := filepath.Join(dir, "p1.nt")
	if err := os.WriteFile(dataFile, []byte("<http://d#x> <http://demo#p> <http://d#y> .\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	query := `SELECT X FROM {X}d:p{Y} USING NAMESPACE d = &http://demo#&`
	if err := runCustom(schemaFile, dataFile, query, true, ""); err != nil {
		t.Fatalf("runCustom: %v", err)
	}
	// Error paths.
	if err := runCustom(filepath.Join(dir, "nosuch"), dataFile, query, false, ""); err == nil {
		t.Error("missing schema accepted")
	}
	if err := runCustom(schemaFile, "", query, false, ""); err == nil {
		t.Error("missing data accepted")
	}
	if err := runCustom(schemaFile, dataFile, "", false, ""); err == nil {
		t.Error("missing query accepted")
	}
	if err := runCustom(schemaFile, filepath.Join(dir, "ghost.nt"), query, false, ""); err == nil {
		t.Error("missing data file accepted")
	}
}
