package experiments

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"time"

	"locksafe/internal/model"
	"locksafe/internal/policy"
	txnruntime "locksafe/internal/runtime"
	"locksafe/internal/workload"
)

// E17Reps is the best-of repetition count per cell; exported so
// lockbench can record the best-of policy in the bench artifact.
const E17Reps = 3

// E17Row is one measured configuration of the partition-scaling study.
type E17Row struct {
	// Workload is "local-heavy" (1 in 16 bodies cross-partition) or
	// "cross-heavy" (every other body cross-partition).
	Workload   string `json:"workload"`
	Partitions int    `json:"partitions"`
	Clients    int    `json:"clients"`
	// Procs is the GOMAXPROCS the cell ran under: partition scaling only
	// pays once the scheduler has cores to spread the partitions over,
	// so the sweep separates "more partitions" from "more parallelism".
	Procs      int     `json:"procs"`
	Throughput float64 `json:"commits_per_sec"`
	Commits    int     `json:"commits"`
	Aborts     int     `json:"aborts"`
}

// E17PartitionScaling measures the partitioned session engine
// in-process: N client goroutines, each opening and running strict
// two-phase transactions over private entities against
// runtime.NewSessionEngine at each partition count. Bodies are
// partition-local or cross-partition in a tunable mix
// (workload.PartitionBodies): partition-local sessions touch exactly
// one partition's gate and sequencer, so disjoint clients on different
// partitions contend on nothing; cross-partition sessions run through
// the cross-partition drain, which quiesces every partition — the
// scaling ceiling this experiment exists to expose. partitions=1, where
// every session is partition-local, is the baseline the speedup column
// is relative to.
//
// Every repetition asserts correctness: all transactions commit, and
// Close verifies the merged committed schedule serializable against the
// engine-wide system. Wall-clock numbers are machine-dependent; the
// GOMAXPROCS sweep (procCounts; nil = {1, 4}) makes the dependence
// explicit: the procs=1 cells are the serialized-scheduler floor, and
// the win from partitioning only appears in the multi-proc cells. The
// default sweep is fixed rather than NumCPU-derived so the measurement
// grid — and benchdiff's row-by-row match against a baseline recorded
// on a different machine — is identical everywhere; on a runner with
// fewer cores than procs the multi-proc cells are oversubscription, not
// parallelism (EXPERIMENTS.md records the caveat). The Report fails
// only on correctness, never on speed.
func E17PartitionScaling(seed int64, partCounts, clientCounts, procCounts []int) ([]E17Row, Report) {
	if len(partCounts) == 0 {
		partCounts = []int{1, 2, 4, 8}
	}
	if len(clientCounts) == 0 {
		clientCounts = []int{8}
	}
	if len(procCounts) == 0 {
		procCounts = []int{1, 4}
	}
	mixes := []struct {
		name   string
		pCross float64
	}{
		{"local-heavy", 1.0 / 16},
		{"cross-heavy", 0.5},
	}
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	var rows []E17Row
	var b strings.Builder
	var failed string
	fmt.Fprintf(&b, "%-12s %-11s %8s %6s %11s %8s %7s\n",
		"workload", "partitions", "clients", "procs", "commits/s", "commits", "aborts")
	for _, mix := range mixes {
		for _, cN := range clientCounts {
			for _, procs := range procCounts {
				runtime.GOMAXPROCS(procs)
				for _, pN := range partCounts {
					row, err := e17Row(seed, mix.name, mix.pCross, pN, cN, procs)
					if err != "" && failed == "" {
						failed = err
					}
					rows = append(rows, row)
					fmt.Fprintf(&b, "%-12s %11d %8d %6d %11.0f %8d %7d\n",
						row.Workload, row.Partitions, row.Clients, row.Procs, row.Throughput, row.Commits, row.Aborts)
				}
			}
		}
	}
	runtime.GOMAXPROCS(prev)
	fmt.Fprintf(&b, "\nShape: local-heavy traffic scales with partitions while cores last —\n")
	fmt.Fprintf(&b, "disjoint sessions on different partitions share no gate, sequencer or\n")
	fmt.Fprintf(&b, "recovery core, only the lock-manager shards. Cross-heavy traffic is\n")
	fmt.Fprintf(&b, "drain-bound: every cross-partition step quiesces all partitions, so\n")
	fmt.Fprintf(&b, "added partitions buy nothing (and cost drain latency) — the measured\n")
	fmt.Fprintf(&b, "honest ceiling of entity partitioning. Correctness (every transaction\n")
	fmt.Fprintf(&b, "commits, the merged schedule verifies serializable) is asserted on\n")
	fmt.Fprintf(&b, "every repetition.\n")
	return rows, Report{ID: "E17", Title: "partitioned engines: commits/s vs partitions x clients", Text: b.String(), Failed: failed}
}

// e17Row measures one cell, best-of E17Reps with correctness asserted
// on every repetition.
func e17Row(seed int64, wl string, pCross float64, partitions, clients, procs int) (E17Row, string) {
	row := E17Row{Workload: wl, Partitions: partitions, Clients: clients, Procs: procs}
	const rounds, perTxn = 40, 8
	for rep := 0; rep < E17Reps; rep++ {
		rng := rand.New(rand.NewSource(seed + int64(rep)))
		bodies, universe := workload.PartitionBodies(rng, clients, perTxn, rounds, partitions, pCross)
		commits, aborts, elapsed, err := e17Run(bodies, universe, partitions)
		if err != nil {
			return row, fmt.Sprintf("e17 %s p=%d c=%d: %v", wl, partitions, clients, err)
		}
		if commits != clients*rounds {
			return row, fmt.Sprintf("e17 %s p=%d c=%d: %d of %d transactions committed", wl, partitions, clients, commits, clients*rounds)
		}
		if tp := float64(commits) / elapsed.Seconds(); tp > row.Throughput {
			row.Throughput = tp
			row.Commits = commits
			row.Aborts = aborts
		}
	}
	return row, ""
}

// e17Run executes one repetition: every client goroutine runs its
// transaction sequence to commit through the session API, then the
// engine is closed, which merges and verifies the committed schedule.
func e17Run(bodies [][]model.Txn, universe []model.Entity, partitions int) (commits, aborts int, elapsed time.Duration, err error) {
	eng := txnruntime.NewSessionEngine(model.NewState(universe...), txnruntime.Config{
		Policy:     policy.TwoPhase{},
		Shards:     16,
		Partitions: partitions,
		Backoff:    50 * time.Microsecond,
		MaxRetries: 500,
	})
	start := make(chan struct{})
	errs := make([]error, len(bodies))
	counts := make([]int, len(bodies))
	var wg sync.WaitGroup
	wg.Add(len(bodies))
	for i := range bodies {
		go func(i int) {
			defer wg.Done()
			<-start
			for _, tx := range bodies[i] {
				s, oerr := eng.OpenSession(tx)
				if oerr != nil {
					errs[i] = oerr
					return
				}
				if rerr := s.Run(); rerr != nil {
					errs[i] = rerr
					return
				}
				counts[i]++
			}
		}(i)
	}
	t0 := time.Now()
	close(start)
	wg.Wait()
	elapsed = time.Since(t0)
	for i, e := range errs {
		if e != nil {
			return 0, 0, 0, fmt.Errorf("client %d: %w", i, e)
		}
		commits += counts[i]
	}
	res, cerr := eng.Close()
	if cerr != nil {
		return 0, 0, 0, fmt.Errorf("close: %w", cerr)
	}
	if res.Metrics.Commits != commits {
		return 0, 0, 0, fmt.Errorf("engine counted %d commits, clients counted %d", res.Metrics.Commits, commits)
	}
	return commits, res.Metrics.Aborts(), elapsed, nil
}
