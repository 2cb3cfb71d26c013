package scenario

import (
	"math"
	"math/rand"

	"gridmind/internal/contingency"
	"gridmind/internal/model"
	"gridmind/internal/powerflow"
)

// MCOptions configures a Monte Carlo reliability run.
type MCOptions struct {
	// Samples is the number of scenario draws; zero selects 100.
	Samples int `json:"samples"`
	// Seed fixes the sampling sequence. Sample i derives its own RNG from
	// splitmix64(Seed, i), so the draw a sample sees never depends on
	// worker scheduling — a fixed seed replays bit-identically at any
	// worker count.
	Seed int64 `json:"seed"`
	// BranchOutageProb / GenOutageProb are independent per-element outage
	// probabilities per draw.
	BranchOutageProb float64 `json:"branch_outage_prob"`
	GenOutageProb    float64 `json:"gen_outage_prob"`
	// LoadSigma is the standard deviation of the per-draw uniform demand
	// multiplier (normal around 1, clamped to [0.5, 1.5]); zero means
	// nominal demand every draw.
	LoadSigma float64 `json:"load_sigma"`
	// Cascade configures how each drawn event propagates (trip rule,
	// depth, workers, shared artifacts).
	Cascade Options `json:"-"`
}

func (mo *MCOptions) fill() {
	if mo.Samples <= 0 {
		mo.Samples = 100
	}
	mo.Cascade.fill()
}

// Interval is a Wilson score confidence interval on a probability.
type Interval struct {
	P  float64 `json:"p"`
	Lo float64 `json:"lo"`
	Hi float64 `json:"hi"`
}

// SampleOutcome is the cascade summary of one Monte Carlo draw.
type SampleOutcome struct {
	Sample        int     `json:"sample"`
	Event         Event   `json:"event"`
	Outcome       Outcome `json:"outcome"`
	Depth         int     `json:"depth"`
	LoadShedMW    float64 `json:"load_shed_mw"`
	MaxLoadingPct float64 `json:"max_loading_pct"`
	Overloaded    bool    `json:"overloaded"`
	LossOfLoad    bool    `json:"loss_of_load"`
}

// MCResult aggregates a Monte Carlo reliability run.
type MCResult struct {
	Samples int   `json:"samples"`
	Seed    int64 `json:"seed"`
	// LossOfLoad is the loss-of-load probability (any shed MW in the
	// draw's cascade) with its 95% Wilson interval; Overload the
	// probability of any post-event branch overload; CascadeProb the
	// probability the event propagated beyond the seed stage.
	LossOfLoad  Interval `json:"loss_of_load"`
	Overload    Interval `json:"overload"`
	CascadeProb Interval `json:"cascade"`
	// MeanShedMW is the expected shed per draw (EENS-style, per-draw MW).
	MeanShedMW float64 `json:"mean_shed_mw"`
	// Outcomes holds every draw in sample order (deterministic for a
	// fixed seed regardless of worker count).
	Outcomes []SampleOutcome `json:"outcomes"`
}

// RunMC runs seeded Monte Carlo reliability sampling: each draw takes
// independent branch/generator outages and a demand multiplier, cascades
// it through the scenario engine on pooled zero-clone contexts, and the
// aggregate loss-of-load / overload / cascade probabilities come back
// with Wilson 95% intervals. Parallel across Cascade.Workers; outcome
// order and every drawn event are scheduling-independent.
func RunMC(n *model.Network, base *powerflow.Result, mo MCOptions) (*MCResult, error) {
	if base == nil || !base.Converged || n.SlackBus() < 0 {
		return nil, ErrNoBase
	}
	mo.fill()

	out := &MCResult{
		Samples:  mo.Samples,
		Seed:     mo.Seed,
		Outcomes: make([]SampleOutcome, mo.Samples),
	}
	c := &mo.Cascade
	work := c.Pool.Run(n, c.Workers, mo.Samples, nil, func(w *contingency.Worker, i int) {
		ev := sampleEvent(n, rand.New(rand.NewSource(sampleSeed(mo.Seed, i))), mo)
		r := runCascade(w, viewState{w}, n, base, ev, *c)
		so := SampleOutcome{
			Sample:     i,
			Event:      ev,
			Outcome:    r.Outcome,
			Depth:      r.Depth,
			LoadShedMW: r.LoadShedMW,
			LossOfLoad: r.LoadShedMW > 1e-9,
		}
		for _, sg := range r.Stages {
			if sg.MaxLoadingPct > so.MaxLoadingPct {
				so.MaxLoadingPct = sg.MaxLoadingPct
			}
			if len(sg.Overloads) > 0 {
				so.Overloaded = true
			}
		}
		out.Outcomes[i] = so
	})

	var lol, ovl, casc int
	for _, so := range out.Outcomes {
		if so.LossOfLoad {
			lol++
		}
		if so.Overloaded {
			ovl++
		}
		if so.Depth > 0 {
			casc++
		}
		out.MeanShedMW += so.LoadShedMW
	}
	out.MeanShedMW /= float64(mo.Samples)
	out.LossOfLoad = wilson(lol, mo.Samples)
	out.Overload = wilson(ovl, mo.Samples)
	out.CascadeProb = wilson(casc, mo.Samples)
	recordScenario(mo.Cascade.Metrics, "mc", mo.Samples, 0, work)
	return out, nil
}

// sampleEvent draws one scenario in a fixed order — branches ascending,
// generators ascending, then the demand multiplier — so a sample's event
// is a pure function of its derived seed.
func sampleEvent(n *model.Network, rng *rand.Rand, mo MCOptions) Event {
	var ev Event
	if mo.BranchOutageProb > 0 {
		for k := range n.Branches {
			if n.Branches[k].InService && rng.Float64() < mo.BranchOutageProb {
				ev.Branches = append(ev.Branches, k)
			}
		}
	}
	if mo.GenOutageProb > 0 {
		for g := range n.Gens {
			if n.Gens[g].InService && rng.Float64() < mo.GenOutageProb {
				ev.Gens = append(ev.Gens, g)
			}
		}
	}
	if mo.LoadSigma > 0 {
		ls := 1 + mo.LoadSigma*rng.NormFloat64()
		if ls < 0.5 {
			ls = 0.5
		} else if ls > 1.5 {
			ls = 1.5
		}
		ev.LoadScale = ls
	}
	return ev
}

// sampleSeed derives sample i's private RNG seed from the run seed via a
// splitmix64 step — decorrelated across samples, independent of worker
// scheduling.
func sampleSeed(seed int64, i int) int64 {
	z := uint64(seed) + uint64(i+1)*0x9E3779B97F4A7C15
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return int64(z)
}

// wilson returns the 95% Wilson score interval for k successes in n
// trials — well-behaved at the extreme probabilities reliability studies
// live at, unlike the normal approximation.
func wilson(k, n int) Interval {
	if n == 0 {
		return Interval{}
	}
	const z = 1.959963984540054 // 97.5th normal percentile
	nf := float64(n)
	p := float64(k) / nf
	z2 := z * z
	denom := 1 + z2/nf
	center := p + z2/(2*nf)
	half := z * math.Sqrt(p*(1-p)/nf+z2/(4*nf*nf))
	return Interval{P: p, Lo: (center - half) / denom, Hi: (center + half) / denom}
}
