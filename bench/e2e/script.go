package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
)

// expect is what an ask template asserts about the reply's success flag.
type expect int8

const (
	// anySuccess leaves the flag unasserted: a single-outage lookup of an
	// islanding branch legitimately answers success=false.
	anySuccess expect = iota
	wantSuccess
	wantFailure
)

// ask is one operator question with everything needed to check its reply.
type ask struct {
	Query string `json:"query"`
	// Class names the template; asks of one class cost about the same, so
	// class shares are what must stay equal between seeds.
	Class string `json:"class"`
	// Marker is a substring every correct reply of this template holds.
	Marker string `json:"marker"`
	Want   expect `json:"want"`
	// Golden names a pinned value in golden.json the reply must match.
	Golden string `json:"golden,omitempty"`
}

type opKind string

const (
	opCreate opKind = "create" // POST /sessions into the slot
	opAsk    opKind = "ask"    // POST /ask on the slot's session
	opDelete opKind = "delete" // DELETE /sessions/{id} of the slot
)

// op is one step of a script. A script is the ordered work of the one
// closed-loop client: it sends an op only after the previous one has
// answered.
type op struct {
	Kind opKind `json:"kind"`
	Slot int    `json:"slot"` // which of the client's sessions
	Ask  *ask   `json:"ask,omitempty"`
}

// workload is a traffic mix: how the server is started, the warm-up each
// cold start pays (timed as setup_s), and a generator of rounds. Every
// round of a workload has the same class composition, so per-round rates
// are comparable and any number of rounds can be pooled.
//
// Every workload has one closed-loop client, and the server runs with
// GOMAXPROCS=1 (server.go): client and server take turns, so a run never
// needs two CPUs at once. README, "Noise control", says what happened when
// it did.
type workload struct {
	Name       string
	Why        string
	ServerArgs []string
	// Gateway says the server routes completions through llm/gateway, so
	// the probe's in-process replay must as well.
	Gateway bool
	Warmup  func() []op
	Round   func(rng *rand.Rand) []op
}

const (
	markSolve   = "the AC optimal power flow converged"
	markWhatIf  = "re-solved the ACOPF"
	markStatus  = "Active case "
	markSweep   = "Completed the T-1 sweep on "
	markOutage  = "Outage analysis:"
	markQuality = "Solution quality for "
	markBadCase = "is not a supported test case"
	markHelp    = "I can solve ACOPF cases"
	markSens    = "Load sensitivity on "
)

// Load buses the what-ifs draw from. Every bus here carries at least
// 10 MW, so the largest decrease (6.5 MW) stays positive. From the pristine
// case an increase of up to 4.5 MW or a decrease of up to 6.5 MW at any of
// them converges in the primary interior-point solver within 65-76
// (case118) or 37-47 (case57) iterations, which is what keeps the cost of a
// what-if independent of the seed. Left out on purpose: case118 buses 60
// and 64 and case57 bus 54, where the primary solver fails from +6 MW up
// and solveWithRecovery falls back (1.5-3.5 s instead of 0.3 s); the layer
// probe times that path as opf.recovery_ms instead.
var (
	loadBuses118 = []int{2, 3, 4, 5, 6, 7, 8, 9, 11, 12, 13, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24, 27, 28, 29,
		30, 31, 32, 33, 34, 35, 36, 37, 38, 39, 41, 42, 43, 44, 45, 46, 47, 48, 49, 50, 51, 52, 54, 55, 56, 57, 58, 59,
		61, 62, 63, 66, 67, 69, 72, 73, 74, 75, 76, 77, 78, 79, 80, 82, 83, 84, 85, 86, 89, 90, 91, 92, 94, 95, 96, 98,
		99, 100, 102, 103, 104, 105, 106, 108, 109, 111, 112, 113, 114, 115, 116, 117, 118}
	loadBuses57 = []int{2, 4, 6, 7, 8, 9, 10, 11, 13, 15, 16, 17, 19, 20, 22, 23, 24, 25, 27, 28, 33, 34, 35, 37, 38,
		39, 40, 41, 44, 45, 46, 48, 49, 51, 52, 53, 56, 57}
	// Pristine demand of a few case118 buses, for the absolute form of the
	// what-if ("Set the load ... to X MW"), which skips the status lookup
	// the relative form needs.
	pristineMW118 = []struct {
		bus int
		mw  float64
	}{{5, 158.57}, {11, 97.44}, {17, 122.41}, {28, 91.09}, {32, 103.21}, {49, 234.26},
		{57, 86.62}, {75, 114.38}, {86, 109.89}, {90, 91.52}, {98, 101.97}, {102, 84.59}}
)

const branches57 = 80 // case57 has 80 branches, all in service

func pick(rng *rand.Rand, words ...string) string { return words[rng.Intn(len(words))] }

// tenths draws a value from lo to hi in steps of 0.1.
func tenths(rng *rand.Rand, lo, hi float64) float64 {
	steps := int((hi-lo)*10+0.5) + 1
	return lo + float64(rng.Intn(steps))/10
}

func askOp(slot int, a ask) op { return op{Kind: opAsk, Slot: slot, Ask: &a} }

func solveAsk(caseNum int) ask {
	return ask{
		Query: fmt.Sprintf("Solve IEEE %d", caseNum), Class: "solve", Marker: markSolve,
		Want: wantSuccess, Golden: fmt.Sprintf("cost%d", caseNum),
	}
}

// whatIfBy is the relative what-if: the agent looks the bus up, then
// modifies it and re-solves (two tool calls).
func whatIfBy(rng *rand.Rand, bus int) ask {
	var q string
	if rng.Intn(2) == 0 {
		q = fmt.Sprintf("%s the load at bus %d by %.1f MW", pick(rng, "Increase", "Raise"), bus, tenths(rng, 1, 4.5))
	} else {
		q = fmt.Sprintf("%s the load at bus %d by %.1f MW", pick(rng, "Decrease", "Lower", "Reduce"), bus, tenths(rng, 1, 6.5))
	}
	return ask{Query: q, Class: "whatif_by", Marker: markWhatIf, Want: wantSuccess}
}

// whatIfTo is the absolute what-if on case118 (one tool call).
func whatIfTo(rng *rand.Rand) ask {
	b := pristineMW118[rng.Intn(len(pristineMW118))]
	q := fmt.Sprintf("%s the load at bus %d to %.1f MW", pick(rng, "Set", "Change"), b.bus, b.mw+tenths(rng, -6, 4))
	return ask{Query: q, Class: "whatif_to", Marker: markWhatIf, Want: wantSuccess}
}

func sweepAsk(caseNum int, rng *rand.Rand, golden bool) ask {
	a := ask{
		Query: fmt.Sprintf("Run N-1 contingency analysis on IEEE %d and show the top %d", caseNum, 3+rng.Intn(8)),
		Class: "sweep", Marker: fmt.Sprintf("%scase%d", markSweep, caseNum), Want: wantSuccess,
	}
	if golden {
		a.Golden = fmt.Sprintf("sweep%d", caseNum)
	}
	return a
}

func outageAsk(rng *rand.Rand) ask {
	return ask{
		Query: fmt.Sprintf("Analyze the outage of branch %d", rng.Intn(branches57)),
		Class: "outage", Marker: markOutage, Want: anySuccess,
	}
}

var statusAsk = ask{Query: "What is the current network status?", Class: "status", Marker: markStatus, Want: wantSuccess}

// acopfWhatIf: one operator with two sessions, alternating a pristine solve
// with a single what-if on it, now in one session, now in the other, so the
// engine's OPF contexts go back and forth between them. "Solve IEEE 118"
// reloads the case, so no what-if builds on another: demand pushed up step
// by step drifts into the region where every solve needs the fallback, and
// the cost of an ask would then depend on the order the seed happened to
// draw.
func acopfWhatIf() *workload {
	const pairs = 6 // per round; the last of each session is the absolute form
	return &workload{
		Name: "acopf_whatif",
		Why:  "two sessions re-solve case118 ACOPF what-ifs in turn: opf (IPM + KKT refactorize) is >95% of every ask and the engine's OPF contexts move between the sessions",
		Warmup: func() []op {
			return []op{{Kind: opCreate, Slot: 0}, askOp(0, solveAsk(118)), {Kind: opCreate, Slot: 1}, askOp(1, solveAsk(118))}
		},
		Round: func(rng *rand.Rand) []op {
			var ops []op
			for i := 0; i < pairs; i++ {
				w := whatIfBy(rng, loadBuses118[rng.Intn(len(loadBuses118))])
				if i >= pairs-2 {
					w = whatIfTo(rng)
				}
				ops = append(ops, askOp(i%2, solveAsk(118)), askOp(i%2, w))
			}
			return ops
		},
	}
}

// n1Study: one operator opens a session, runs a full N-1 sweep on case300
// and closes it. A fresh session has an empty contingency cache, so every
// ask is the whole 411-outage sweep.
func n1Study() *workload {
	const studiesPerRound = 10 // ten asks: a round's 90th percentile is its second slowest, not its slowest
	study := func(rng *rand.Rand) []op {
		return []op{{Kind: opCreate}, askOp(0, sweepAsk(300, rng, true)), {Kind: opDelete}}
	}
	return &workload{
		Name: "n1_study",
		Why:  "fresh session per study: every ask is a full 411-outage case300 sweep on engine-shared artifacts (contingency + powerflow + sparse, no opf), with session create/delete beside it",
		Warmup: func() []op {
			return study(rand.New(rand.NewSource(1)))
		},
		Round: func(rng *rand.Rand) []op {
			var ops []op
			for i := 0; i < studiesPerRound; i++ {
				ops = append(ops, study(rng)...)
			}
			return ops
		},
	}
}

// chatLight: one operator over four warm case57 sessions asks things no
// solver has to run for. The class shares are exact in every round.
func chatLight() *workload {
	const (
		slots = 4
		asks  = 5000
	)
	// shares per 20 asks
	classes := []struct {
		n    int
		make func(rng *rand.Rand) ask
	}{
		{6, func(*rand.Rand) ask { return statusAsk }},
		{5, func(rng *rand.Rand) ask {
			return ask{
				Query: fmt.Sprintf("Show the top %d most critical contingencies", 3+rng.Intn(8)),
				Class: "topk", Marker: markSweep + "case57", Want: wantSuccess, Golden: "sweep57",
			}
		}},
		{4, outageAsk},
		{3, func(*rand.Rand) ask {
			return ask{Query: "Assess the quality of the solution", Class: "quality", Marker: markQuality + "case57", Want: wantSuccess}
		}},
		{1, func(*rand.Rand) ask {
			return ask{Query: "Solve IEEE 999", Class: "unsupported", Marker: markBadCase, Want: wantFailure}
		}},
		{1, func(*rand.Rand) ask {
			return ask{Query: "What can you help me with?", Class: "capability", Marker: markHelp, Want: wantSuccess}
		}},
	}
	return &workload{
		Name: "chat_light",
		Why:  "solvers idle: status, cached top-K and outage lookups, quality and refused asks on warm sessions, so HTTP, JSON, session manager, planner, simulated LLM, schema checks and obs publishes are the whole cost",
		Warmup: func() []op {
			rng := rand.New(rand.NewSource(1))
			var ops []op
			for s := 0; s < slots; s++ {
				ops = append(ops, op{Kind: opCreate, Slot: s}, askOp(s, solveAsk(57)), askOp(s, sweepAsk(57, rng, true)))
			}
			return ops
		},
		Round: func(rng *rand.Rand) []op {
			ops := make([]op, 0, asks)
			for len(ops) < asks {
				for _, c := range classes {
					for i := 0; i < c.n; i++ {
						ops = append(ops, askOp(0, c.make(rng)))
					}
				}
			}
			rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
			for i := range ops {
				ops[i].Slot = i % slots
			}
			return ops
		},
	}
}

// gatewayStudy is one 12-ask case57 study in a session of its own. The
// four what-ifs hit four different buses and stay small, so the state never
// leaves the region the primary solver handles; their values come from the
// seed, so each study reaches states no earlier one did and the engine's
// per-state memos (base power flow, sweep pools) miss as they would for
// real operators.
func gatewayStudy(rng *rand.Rand) []op {
	perm := rng.Perm(len(loadBuses57))
	bus := func(i int) int { return loadBuses57[perm[i]] }
	sweep := func() ask {
		return ask{
			Query: fmt.Sprintf("Run N-1 contingency analysis and show the top %d", 3+rng.Intn(8)),
			Class: "sweep", Marker: markSweep + "case57", Want: wantSuccess,
		}
	}
	sensitivity := ask{Query: "Show the load sensitivity price map", Class: "sensitivity", Marker: markSens + "case57", Want: wantSuccess}
	// Two sensitivity maps, not one: with one, the dearest class would be
	// 1/11 of the asks and ask_p90_ms would sit on its edge (90.9%).
	// As composed, the cheap asks end at 41.7% and the what-ifs at 83.3%.
	asks := []ask{
		solveAsk(57),
		whatIfBy(rng, bus(0)),
		sweep(),
		outageAsk(rng),
		sensitivity,
		whatIfBy(rng, bus(1)),
		whatIfBy(rng, bus(2)),
		statusAsk,
		whatIfBy(rng, bus(3)),
		sweep(),
		outageAsk(rng),
		sensitivity,
	}
	ops := []op{{Kind: opCreate}}
	for _, a := range asks {
		ops = append(ops, askOp(0, a))
	}
	return append(ops, op{Kind: opDelete})
}

// gatewayMix: the production-shaped path. Every completion goes through
// the LLM gateway and the session clock is the real one.
func gatewayMix() *workload {
	const studiesPerRound = 4
	return &workload{
		Name: "gateway_mix",
		Why:  "every completion through llm/gateway on the real session clock; create -> 12-ask case57 study (solve, what-ifs, fresh sweeps, lookups, sensitivity maps) -> delete: the write side of session/engine under churn",
		ServerArgs: []string{
			"-gateway", "primary=GPT-o3,backup=GPT-5 Mini",
			"-gateway-strategy", "round-robin", "-gateway-health", "0",
		},
		Gateway: true,
		Warmup: func() []op {
			return gatewayStudy(rand.New(rand.NewSource(1)))
		},
		Round: func(rng *rand.Rand) []op {
			var ops []op
			for i := 0; i < studiesPerRound; i++ {
				ops = append(ops, gatewayStudy(rng)...)
			}
			return ops
		},
	}
}

// workloads lists the benchmark's traffic mixes in report order.
func workloads() []*workload {
	return []*workload{acopfWhatIf(), n1Study(), chatLight(), gatewayMix()}
}

func workloadByName(name string) *workload {
	for _, w := range workloads() {
		if w.Name == name {
			return w
		}
	}
	return nil
}

// roundSeed mixes the run seed, the workload and the round index into one
// generator seed (splitmix64), so round r of a workload is the same ops
// whichever rounds ran before it. Round -1 is the unmeasured warm round.
func roundSeed(seed int64, workload string, round int) int64 {
	x := uint64(seed)
	for _, c := range []byte(workload) {
		x = x*1099511628211 + uint64(c)
	}
	x += uint64(int64(round)+2) * 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return int64(x ^ (x >> 31))
}

func (w *workload) roundOps(seed int64, round int) []op {
	return w.Round(rand.New(rand.NewSource(roundSeed(seed, w.Name, round))))
}

// hashedRounds is how many rounds scriptSHA256 covers. A run replays as
// many rounds as fit its time; the hash pins the warm-up and this prefix.
const hashedRounds = 8

// scriptSHA256 identifies the inputs a seed produces: the same seed gives
// the same digest, byte for byte.
func scriptSHA256(w *workload, seed int64) string {
	h := sha256.New()
	enc := json.NewEncoder(h)
	_ = enc.Encode(w.Warmup()) // writes to a hash cannot fail
	for r := -1; r < hashedRounds; r++ {
		_ = enc.Encode(w.roundOps(seed, r))
	}
	return hex.EncodeToString(h.Sum(nil))
}
