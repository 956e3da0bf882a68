package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"locksafe/internal/model"
)

func TestDigestIsSeedDeterministic(t *testing.T) {
	for _, w := range workloads {
		a, b := w.generate(1, 0).digest(), w.generate(1, 0).digest()
		if a != b {
			t.Errorf("%s: seed 1 gave digests %s and %s", w.name, a, b)
		}
		if c := w.generate(2, 0).digest(); c == a {
			t.Errorf("%s: seeds 1 and 2 gave the same digest %s", w.name, a)
		}
		if c := w.generate(1, 1).digest(); c == a {
			t.Errorf("%s: runs 0 and 1 of seed 1 gave the same digest %s", w.name, a)
		}
	}
}

func TestGeneratedShapes(t *testing.T) {
	for _, w := range workloads {
		in := w.generate(7, 0)
		if w.txns < 1000 {
			t.Errorf("%s: %d transactions per run leave a p99 fewer than 10 samples beyond it", w.name, w.txns)
		}
		if len(in.streams) != streams || in.txns() != w.txns {
			t.Fatalf("%s: %d streams, %d txns; want %d, %d", w.name, len(in.streams), in.txns(), streams, w.txns)
		}
		kinds := map[string]int{}
		for _, s := range in.streams {
			for _, tx := range s {
				if err := tx.WellFormed(); err != nil {
					t.Fatalf("%s: %s: %v", w.name, tx.Name, err)
				}
				kinds[strings.TrimRight(tx.Name, "0123456789_")]++
				if parts := partitionsOf(tx, w.partitions); parts > 2 && !strings.HasPrefix(tx.Name, "churn") {
					t.Errorf("%s: %s spans %d partitions", w.name, tx.Name, parts)
				}
			}
		}
		share := func(k string) float64 { return float64(kinds[k]) / float64(w.txns) }
		switch w.name {
		case "interactive":
			if share("reader") < 0.4 || share("writer") < 0.4 {
				t.Errorf("interactive mix %v, want about half readers and half writers", kinds)
			}
		case "procedures":
			if share("cross") < 0.05 || share("churn") < 0.05 || share("local") < 0.7 {
				t.Errorf("procedures mix %v, want ~10%% cross, ~10%% churn, the rest local", kinds)
			}
		case "durable":
			if share("cross") < 0.05 || share("cross") > 0.15 || kinds["churn"] != 0 {
				t.Errorf("durable mix %v, want ~10%% cross and no churn", kinds)
			}
		}
	}
}

// partitionsOf counts the partitions a body's entities are homed in.
func partitionsOf(tx model.Txn, n int) int {
	seen := map[int]bool{}
	for _, st := range tx.Steps {
		seen[model.PartitionOf(st.Ent, n)] = true
	}
	return len(seen)
}

// TestResultLineMatchesBenchmarkJSON runs every workload briefly, traced
// and untraced, and checks that each result line carries exactly the
// metrics BENCHMARK.json declares, with their units, and that every run
// passed its correctness gate.
func TestResultLineMatchesBenchmarkJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("drives lockd")
	}
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	want := func(ms []struct{ Name, Unit string }) []string {
		var out []string
		for _, m := range ms {
			out = append(out, m.Name+" "+m.Unit)
		}
		sort.Strings(out)
		return out
	}
	got := func(rep report) []string {
		var out []string
		for _, m := range rep.metrics {
			if m.result {
				out = append(out, m.name+" "+m.unit)
			}
		}
		sort.Strings(out)
		return out
	}
	dir := t.TempDir()
	for _, w := range workloads {
		w.txns = 1000 // the fewest with 10 samples beyond a run's p99
		rep, err := untraced(w, 3, time.Now(), dir)
		if err != nil {
			t.Fatalf("%s untraced: %v", w.name, err)
		}
		if g, e := strings.Join(got(rep), ", "), strings.Join(want(spec.EndToEnd), ", "); g != e {
			t.Errorf("%s end-to-end result metrics\n got %s\nwant %s", w.name, g, e)
		}
		rep, err = traced(w, 3, time.Now(), dir, filepath.Join(dir, "trace.jsonl"))
		if err != nil {
			t.Fatalf("%s traced: %v", w.name, err)
		}
		if g, e := strings.Join(got(rep), ", "), strings.Join(want(spec.PerLayer), ", "); g != e {
			t.Errorf("%s per-layer result metrics\n got %s\nwant %s", w.name, g, e)
		}
		if rep.failed != 0 {
			t.Errorf("%s: %d of %d transactions failed", w.name, rep.failed, rep.attempted)
		}
	}
}
