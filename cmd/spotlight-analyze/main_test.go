package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"spotlight/internal/market"
	"spotlight/internal/store"
)

// writeDataDir dumps a tiny synthetic store into a durable data dir.
func writeDataDir(t *testing.T) string {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "store")
	db, err := store.Open(dir, store.PersistOptions{})
	if err != nil {
		t.Fatal(err)
	}
	m := market.SpotID{Zone: "us-east-1d", Type: "c3.2xlarge", Product: market.ProductLinux}
	t0 := time.Date(2015, 9, 1, 0, 0, 0, 0, time.UTC)
	db.AppendSpike(store.SpikeEvent{At: t0, Market: m, Ratio: 2, Probed: true})
	db.AppendProbe(store.ProbeRecord{
		At: t0, Market: m, Kind: store.ProbeOnDemand,
		Trigger: store.TriggerSpike, TriggerMarket: m, Rejected: true, Code: "x",
	})
	db.AppendProbe(store.ProbeRecord{
		At: t0.Add(10 * time.Minute), Market: m, Kind: store.ProbeOnDemand,
		Trigger: store.TriggerRecheck, TriggerMarket: m,
	})
	if err := db.Persister().Close(); err != nil {
		t.Fatal(err)
	}
	return dir
}

func TestAnalyzeAllFigures(t *testing.T) {
	path := writeDataDir(t)
	var sb strings.Builder
	if err := run([]string{"-in", path}, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"loaded", "Fig 5.4", "Fig 5.12", "1 outages"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
}

func TestAnalyzeSingleFigure(t *testing.T) {
	path := writeDataDir(t)
	var sb strings.Builder
	if err := run([]string{"-in", path, "-fig", "5.9"}, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "Fig 5.9") {
		t.Error("missing requested figure")
	}
	if strings.Contains(out, "Fig 5.4") {
		t.Error("printed figures beyond the requested one")
	}
}

func TestAnalyzeErrors(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-in", "/nonexistent/store"}, &sb); err == nil {
		t.Error("missing input accepted")
	}
	path := writeDataDir(t)
	if err := run([]string{"-in", path, "-fig", "99.9"}, &sb); err == nil {
		t.Error("unknown figure accepted")
	}
	// A path that is not a data dir — a typo, or a plain file — must be
	// rejected, not opened (and created) as an empty store.
	typo := filepath.Join(t.TempDir(), "stroe")
	if err := run([]string{"-in", typo}, &sb); err == nil {
		t.Error("nonexistent data dir accepted")
	}
	if _, err := os.Stat(typo); !os.IsNotExist(err) {
		t.Errorf("analyzing %s created it (stat err %v)", typo, err)
	}
	garbage := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(garbage, []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-in", garbage}, &sb); err == nil {
		t.Error("plain file accepted as a data dir")
	}
}

// TestAnalyzeStudyDump is the collect-once / analyze-many round trip:
// spotlight-study -out D prints every figure from its in-memory store and
// copies that store into D/store; spotlight-analyze -in D/store must
// print the same Fig 5.4-5.12 bodies from the reopened copy.
func TestAnalyzeStudyDump(t *testing.T) {
	if testing.Short() {
		t.Skip("study round trip skipped in -short mode")
	}
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go tool not on PATH")
	}
	tmp := t.TempDir()
	study := filepath.Join(tmp, "spotlight-study")
	if out, err := exec.Command(goTool, "build", "-o", study, "spotlight/cmd/spotlight-study").CombinedOutput(); err != nil {
		t.Fatalf("build spotlight-study: %v\n%s", err, out)
	}
	outDir := filepath.Join(tmp, "results")
	studyOut, err := exec.Command(study, "-days", "1", "-trials", "1", "-quiet", "-out", outDir).Output()
	if err != nil {
		t.Fatalf("spotlight-study: %v", err)
	}
	var sb strings.Builder
	if err := run([]string{"-in", filepath.Join(outDir, "store")}, &sb); err != nil {
		t.Fatal(err)
	}
	want, got := figureBodies(string(studyOut)), figureBodies(sb.String())
	for _, id := range []string{"5.4", "5.5", "5.6", "5.7", "5.8", "5.9", "5.10", "5.11", "5.12"} {
		if want[id] == "" {
			t.Errorf("study printed no Fig %s", id)
			continue
		}
		if got[id] != want[id] {
			t.Errorf("Fig %s from the reopened store differs from the study's\n got: %s\nwant: %s", id, got[id], want[id])
		}
	}
	// The dump refuses to overwrite an existing data dir.
	if err := exec.Command(study, "-days", "1", "-quiet", "-out", outDir).Run(); err == nil {
		t.Error("spotlight-study wrote into an existing data dir")
	}
}

var figureHeader = regexp.MustCompile(`(?m)^=== Fig (\S+) — .* ===$`)

// figureBodies splits command output into its "=== Fig <id> — ... ==="
// sections, keyed by figure id.
func figureBodies(out string) map[string]string {
	locs := figureHeader.FindAllStringSubmatchIndex(out, -1)
	bodies := make(map[string]string, len(locs))
	for i, loc := range locs {
		end := len(out)
		if i+1 < len(locs) {
			end = locs[i+1][0]
		}
		bodies[out[loc[2]:loc[3]]] = strings.TrimSpace(out[loc[1]:end])
	}
	return bodies
}
