package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// benchEntries decodes the entries of a bench document into generic maps,
// so the test sees exactly the fields scripts/bench_gate.sh reads.
func benchEntries(t *testing.T, data []byte) []map[string]any {
	t.Helper()
	var doc struct {
		Entries []map[string]any `json:"entries"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("bench output is not JSON: %v\n%s", err, data)
	}
	return doc.Entries
}

// TestBenchOnlyFilter: -only selects and orders the entries, every entry
// carries the fields the bench gate reads, -o tees the document to a
// file, and fig3's fingerprint matches the checked-in trajectory (the
// bench defaults are the settings BENCH_sim.json was taken under).
func TestBenchOnlyFilter(t *testing.T) {
	out := filepath.Join(t.TempDir(), "bench.json")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"bench", "-only", "tab1, fig3", "-iters", "1", "-o", out}, &stdout, &stderr); code != exitOK {
		t.Fatalf("bench = %d, stderr:\n%s", code, stderr.String())
	}
	entries := benchEntries(t, stdout.Bytes())
	if len(entries) != 2 || entries[0]["id"] != "tab1" || entries[1]["id"] != "fig3" {
		t.Fatalf("entries %v, want tab1 then fig3", entries)
	}
	for _, e := range entries {
		for _, field := range []string{"id", "fingerprint", "best_ms"} {
			if _, ok := e[field]; !ok {
				t.Errorf("entry %v lacks %q", e["id"], field)
			}
		}
	}
	teed, err := os.ReadFile(out)
	if err != nil || !bytes.Equal(teed, stdout.Bytes()) {
		t.Fatalf("-o file differs from stdout (err %v)", err)
	}

	checked, err := os.ReadFile(filepath.Join("..", "..", "BENCH_sim.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range benchEntries(t, checked) {
		if e["id"] == "fig3" && e["fingerprint"] != entries[1]["fingerprint"] {
			t.Fatalf("fig3 fingerprint %v, BENCH_sim.json has %v", entries[1]["fingerprint"], e["fingerprint"])
		}
	}
}

// TestBenchExitCodes: an unknown id is a failure (1), a bad iteration
// count a usage error (2).
func TestBenchExitCodes(t *testing.T) {
	for _, c := range []struct {
		args []string
		want int
	}{
		{[]string{"bench", "-only", "nope"}, exitFailures},
		{[]string{"bench", "-only", "tab1,nope"}, exitFailures},
		{[]string{"bench", "-iters", "0"}, exitUsage},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(c.args, &stdout, &stderr); code != c.want {
			t.Errorf("run(%v) = %d, want %d; stderr %s", c.args, code, c.want, stderr.String())
		}
		if stdout.Len() > 0 {
			t.Errorf("run(%v) printed a document:\n%s", c.args, stdout.String())
		}
	}
}
