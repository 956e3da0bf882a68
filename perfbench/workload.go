package main

import (
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"time"

	"locksafe/internal/model"
	"locksafe/internal/policy"
	"locksafe/internal/runtime"
)

// streams is the number of session streams every workload runs: closed
// loops multiplexed as goroutines over conns client connections.
const (
	streams = 8
	conns   = 2
)

// driveMode is how a workload's client drives one transaction.
type driveMode int

const (
	// perStep: Open, one synchronous Step per declared step, Commit;
	// on ErrAborted the client retries from the first step.
	perStep driveMode = iota
	// procedure: Client.Run, one round trip, retries engine-side.
	procedure
	// pipelined: Open, then Session.RunPipelined.
	pipelined
)

// workload is one named traffic family: the engine configuration it
// runs under, how its client drives a transaction, and its generator.
type workload struct {
	name       string
	partitions int
	durable    bool
	mode       driveMode
	// txns is the fixed transaction count of one run; see README.md
	// for why runs are fixed counts and not fixed durations.
	txns int
	gen  func(rng *rand.Rand, perStream int) ([][]model.Txn, []model.Entity)
}

var workloads = []workload{
	{
		name:       "interactive",
		partitions: 1,
		mode:       perStep,
		txns:       1000,
		gen:        genInteractive,
	},
	{
		name:       "procedures",
		partitions: 4,
		mode:       procedure,
		txns:       4000,
		gen:        genProcedures,
	},
	{
		name:       "durable",
		partitions: 2,
		durable:    true,
		mode:       pipelined,
		txns:       1000,
		gen:        genDurable,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// config is the runtime configuration the program under test gets: the
// lockd defaults (2PL, 16 lock shards, 30 s lease, log truncation on)
// plus the workload's partitions and, on durable, a data dir with
// fsync on every WAL append.
func (w workload) config(dataDir string) runtime.Config {
	cfg := runtime.Config{
		Policy:      policy.TwoPhase{},
		Shards:      16,
		Lease:       30 * time.Second,
		TruncateLog: true,
		Partitions:  w.partitions,
	}
	if w.durable {
		cfg.DataDir = dataDir
		cfg.Fsync = true
	}
	return cfg
}

// inputs is one generated instance of a workload: the bodies each
// stream runs in order and the initial entity universe.
type inputs struct {
	streams  [][]model.Txn
	universe []model.Entity
}

// generate builds the inputs of run number `run` of a workload from the
// seed. Each run of one invocation gets its own instance; the same
// (seed, run) always gives the same inputs.
func (w workload) generate(seed int64, run int) inputs {
	rng := rand.New(rand.NewSource(seed*7919 + int64(run)))
	s, u := w.gen(rng, w.txns/streams)
	return inputs{streams: s, universe: u}
}

func (in inputs) txns() int {
	n := 0
	for _, s := range in.streams {
		n += len(s)
	}
	return n
}

// digest is FNV-1a over every stream's declared bodies and the
// universe, in the style of workload.ScenarioRun.Digest.
func (in inputs) digest() string {
	h := fnv.New64a()
	for i, s := range in.streams {
		fmt.Fprintf(h, "stream %d\n", i)
		for _, tx := range s {
			io.WriteString(h, tx.String())
			io.WriteString(h, "\n")
		}
	}
	io.WriteString(h, "universe")
	for _, e := range in.universe {
		io.WriteString(h, " ")
		io.WriteString(h, string(e))
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// twoPhase is the strict two-phase body over ents: lock and write each,
// then release all.
func twoPhase(ents []model.Entity) []model.Step {
	steps := make([]model.Step, 0, 3*len(ents))
	for _, e := range ents {
		steps = append(steps, model.LX(e), model.W(e))
	}
	for _, e := range ents {
		steps = append(steps, model.UX(e))
	}
	return steps
}

// genInteractive: the long-readers shape. Every stream mixes, half and
// half, readers that S-lock a span of 8 of 16 shared entities and read
// it three times (40 steps), and writers that X-lock and write 2 of
// them (6 steps). Locks are taken in pool order, so S/X conflicts wait
// but cannot deadlock.
func genInteractive(rng *rand.Rand, perStream int) ([][]model.Txn, []model.Entity) {
	const poolSize, readSpan, rereads, writeSpan = 16, 8, 3, 2
	pool := make([]model.Entity, poolSize)
	for i := range pool {
		pool[i] = model.Entity(fmt.Sprintf("lr%02d", i))
	}
	out := make([][]model.Txn, streams)
	for s := range out {
		for r := 0; r < perStream; r++ {
			if rng.Intn(2) == 0 {
				start := rng.Intn(poolSize - readSpan + 1)
				span := pool[start : start+readSpan]
				var steps []model.Step
				for _, e := range span {
					steps = append(steps, model.LS(e))
				}
				for k := 0; k < rereads; k++ {
					for _, e := range span {
						steps = append(steps, model.R(e))
					}
				}
				for _, e := range span {
					steps = append(steps, model.US(e))
				}
				out[s] = append(out[s], model.Txn{Name: fmt.Sprintf("reader%d_%d", s, r), Steps: steps})
			} else {
				start := rng.Intn(poolSize - writeSpan + 1)
				out[s] = append(out[s], model.Txn{Name: fmt.Sprintf("writer%d_%d", s, r), Steps: twoPhase(pool[start : start+writeSpan])})
			}
		}
	}
	return out, pool
}

// partitionPools returns stream s's private entities, perPool homed in
// each of the partitions under the engine's entity hash.
func partitionPools(s, perPool, partitions int) [][]model.Entity {
	pools := make([][]model.Entity, partitions)
	filled := 0
	for j := 0; filled < partitions; j++ {
		e := model.Entity(fmt.Sprintf("s%d_%d", s, j))
		p := model.PartitionOf(e, partitions)
		if len(pools[p]) < perPool {
			pools[p] = append(pools[p], e)
			if len(pools[p]) == perPool {
				filled++
			}
		}
	}
	return pools
}

// partitionedBody draws one two-phase body over stream-private
// entities: with probability pCross it spans two partitions, otherwise
// it stays in one.
func partitionedBody(rng *rand.Rand, pools [][]model.Entity, pCross float64) (model.Txn, bool) {
	parts := len(pools)
	if rng.Float64() < pCross {
		p1 := rng.Intn(parts)
		p2 := (p1 + 1 + rng.Intn(parts-1)) % parts
		per := len(pools[p1])
		ents := append(append([]model.Entity(nil), pools[p1][:per/2]...), pools[p2][:per-per/2]...)
		return model.Txn{Steps: twoPhase(ents)}, true
	}
	return model.Txn{Steps: twoPhase(pools[rng.Intn(parts)])}, false
}

// genLocalHeavy builds partition-local bodies with a pCross share of
// spanning ones, plus a pChurn share of churn bodies: each INSERTs,
// writes and DELETEs 4 fresh entities and writes one of 4 shared hot
// entities, so its footprint is global.
func genLocalHeavy(rng *rand.Rand, perStream, partitions int, pCross, pChurn float64) ([][]model.Txn, []model.Entity) {
	const perTxn, hotKeys, batch = 4, 4, 4
	hot := make([]model.Entity, hotKeys)
	for i := range hot {
		hot[i] = model.Entity(fmt.Sprintf("hot%d", i))
	}
	universe := append([]model.Entity(nil), hot...)
	out := make([][]model.Txn, streams)
	for s := range out {
		pools := partitionPools(s, perTxn, partitions)
		for _, p := range pools {
			universe = append(universe, p...)
		}
		for r := 0; r < perStream; r++ {
			if rng.Float64() < pChurn {
				out[s] = append(out[s], churnBody(hot[rng.Intn(hotKeys)], s, r, batch))
				continue
			}
			tx, cross := partitionedBody(rng, pools, pCross)
			kind := "local"
			if cross {
				kind = "cross"
			}
			tx.Name = fmt.Sprintf("%s%d_%d", kind, s, r)
			out[s] = append(out[s], tx)
		}
	}
	return out, universe
}

// churnBody is the paper's dynamic case: fresh entities, named by
// stream and round so no two bodies share one, are inserted, written
// and deleted (net zero, so the body is defined in any interleaving),
// beside one write of a shared hot entity.
func churnBody(hot model.Entity, s, r, batch int) model.Txn {
	steps := []model.Step{model.LX(hot), model.W(hot)}
	fresh := make([]model.Entity, batch)
	for j := range fresh {
		fresh[j] = model.Entity(fmt.Sprintf("n%d_%d_%d", s, r, j))
		steps = append(steps, model.LX(fresh[j]), model.I(fresh[j]))
	}
	for _, e := range fresh {
		steps = append(steps, model.W(e))
	}
	for _, e := range fresh {
		steps = append(steps, model.D(e))
	}
	steps = append(steps, model.UX(hot))
	for _, e := range fresh {
		steps = append(steps, model.UX(e))
	}
	return model.Txn{Name: fmt.Sprintf("churn%d_%d", s, r), Steps: steps}
}

func genProcedures(rng *rand.Rand, perStream int) ([][]model.Txn, []model.Entity) {
	return genLocalHeavy(rng, perStream, 4, 0.10, 0.10)
}

func genDurable(rng *rand.Rand, perStream int) ([][]model.Txn, []model.Entity) {
	return genLocalHeavy(rng, perStream, 2, 0.10, 0)
}
