package harness_test

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"sqpeer/internal/harness"
)

func TestIDsAreStable(t *testing.T) {
	ids := harness.IDs()
	want := []string{"adapt", "adv", "batch", "churn", "dht", "dist", "fault", "fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "med", "member", "observe", "overload", "recover", "son", "sub", "topn", "trace"}
	if len(ids) != len(want) {
		t.Fatalf("IDs = %v", ids)
	}
	for i := range want {
		if ids[i] != want[i] {
			t.Errorf("IDs[%d] = %s, want %s", i, ids[i], want[i])
		}
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	if _, err := harness.Run("nope"); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

// TestEveryExperimentReproduces runs each experiment individually so a
// failure names the exact experiment.
func TestEveryExperimentReproduces(t *testing.T) {
	if testing.Short() {
		t.Skip("harness experiments skipped in -short mode")
	}
	for _, id := range harness.IDs() {
		id := id
		t.Run(id, func(t *testing.T) {
			r, err := harness.Run(id)
			if err != nil {
				t.Fatal(err)
			}
			if !r.Pass {
				t.Errorf("experiment %s mismatched:\n%s", id, r)
			}
			out := r.String()
			if !strings.Contains(out, strings.ToUpper(id)) {
				t.Errorf("report does not name itself: %s", out)
			}
			if r.Pass && !strings.Contains(out, "REPRODUCED") {
				t.Errorf("passing report not marked REPRODUCED: %s", out)
			}
		})
	}
}

// TestFigure4Deterministic pins FIG-4's report: the base's sorted runs
// give every scan one row order, so the measured Plan 1 byte count —
// which depends on how scan rows split into frames, each with its own
// dictionary — is the same on every run.
func TestFigure4Deterministic(t *testing.T) {
	a, err := harness.Run("fig4")
	if err != nil {
		t.Fatal(err)
	}
	b, err := harness.Run("fig4")
	if err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatalf("fig4 reports differ between runs:\n%s\n---\n%s", a, b)
	}
	if want := "Plan 1+data →  39329 bytes"; !strings.Contains(a.String(), want) {
		t.Errorf("fig4 report lacks %q:\n%s", want, a)
	}
}

func TestReportRendering(t *testing.T) {
	r, err := harness.Run("fig1")
	if err != nil {
		t.Fatal(err)
	}
	out := r.String()
	for _, want := range []string{"=== FIG1", "[OK ]", "--- FIG1: REPRODUCED"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

// TestCaptureTrace covers the `sqpeer-bench -trace` payload: the JSONL
// span listing is byte-stable across captures, the Chrome trace_event
// export parses as JSON, and the critical-path report is non-empty.
func TestCaptureTrace(t *testing.T) {
	a, b := harness.CaptureTrace(), harness.CaptureTrace()
	if len(a.JSONL) == 0 || !bytes.Equal(a.JSONL, b.JSONL) {
		t.Errorf("JSONL not byte-identical across captures (%d vs %d bytes)", len(a.JSONL), len(b.JSONL))
	}
	if !json.Valid(a.ChromeJSON) {
		t.Error("ChromeJSON is not valid JSON")
	}
	if a.Report == "" {
		t.Error("empty critical-path report")
	}
}
