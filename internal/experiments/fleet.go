package experiments

import (
	"context"
	"fmt"
	"math"
	"net/http/httptest"
	"time"

	"gridmind/internal/contingency"
	"gridmind/internal/engine"
	"gridmind/internal/fleet"
	"gridmind/internal/obs"
)

// This file is the distributed-fleet experiment surface: the scaling
// curve (sharded N-1 sweep wall-clock vs worker count, against the
// single-process reference) and the exact-equality comparison the CI
// fleet smoke job drives against real worker processes.

// FleetConfig configures FleetScaling.
type FleetConfig struct {
	// Cases to sweep; empty selects case300 and case3000.
	Cases []string
	// WorkerCounts are the fleet sizes to measure; empty selects 1, 2, 4.
	WorkerCounts []int
	// ShardsPerWorker is forwarded to the coordinator (0 = its default).
	ShardsPerWorker int
	// ArtifactDir, when set, mounts a persistent artifact store on every
	// worker, so only the first worker to touch a case compiles it.
	ArtifactDir string
}

func (c *FleetConfig) fill() {
	if len(c.Cases) == 0 {
		c.Cases = []string{"case300", "case3000"}
	}
	if len(c.WorkerCounts) == 0 {
		c.WorkerCounts = []int{1, 2, 4}
	}
}

// FleetPoint is one cell of the scaling curve.
type FleetPoint struct {
	Case     string `json:"case"`
	Workers  int    `json:"workers"`
	Outages  int    `json:"outages"`
	Screened int    `json:"screened"`
	// Seconds is the fleet sweep wall clock (dispatch + solve + merge).
	Seconds float64 `json:"seconds"`
	// SingleSeconds is the single-process engine-threaded sweep on the
	// same outage set — the denominator of Speedup.
	SingleSeconds float64 `json:"single_seconds"`
	Speedup       float64 `json:"speedup"`
	// Exact reports that the merged fleet result reproduced the
	// single-process result (structural fields exact, metrics ≤1e-9,
	// ranking identical).
	Exact bool `json:"exact"`
}

// FleetScaling measures sharded N-1 sweeps against in-process worker
// fleets of each configured size. Workers are real HTTP servers with
// fully independent engines — separate processes as far as the protocol,
// serialization and artifact paths are concerned; only the scheduler is
// shared, so on a single-core host the curve reads as protocol overhead,
// not as parallel speedup.
func FleetScaling(ctx context.Context, cfg FleetConfig) ([]FleetPoint, error) {
	cfg.fill()
	var pts []FleetPoint
	for _, cs := range cfg.Cases {
		single, branches, err := localReferenceSweep(cs)
		if err != nil {
			return nil, err
		}
		for _, workers := range cfg.WorkerCounts {
			var store *engine.Store
			if cfg.ArtifactDir != "" {
				if store, err = engine.NewStore(cfg.ArtifactDir); err != nil {
					return nil, err
				}
			}
			srvs := make([]*httptest.Server, workers)
			urls := make([]string, workers)
			for i := range srvs {
				w := fleet.NewWorker(fmt.Sprintf("w%d", i), engine.New(), store, obs.NewRegistry())
				srvs[i] = httptest.NewServer(w.Handler())
				urls[i] = srvs[i].URL
			}
			coord, err := fleet.NewCoordinator(fleet.Config{
				Workers:         urls,
				ShardsPerWorker: cfg.ShardsPerWorker,
			})
			if err != nil {
				return nil, err
			}
			start := time.Now()
			rs, err := coord.SweepN1(ctx, fmt.Sprintf("scaling-%s-%d", cs, workers), cs, branches, fleet.SweepOptions{DCScreen: true})
			elapsed := time.Since(start).Seconds()
			for _, s := range srvs {
				s.Close()
			}
			if err != nil {
				return nil, fmt.Errorf("experiments: fleet sweep %s x%d: %w", cs, workers, err)
			}
			pts = append(pts, FleetPoint{
				Case:          cs,
				Workers:       workers,
				Outages:       len(rs.Outages),
				Screened:      rs.Screened,
				Seconds:       elapsed,
				SingleSeconds: single.seconds,
				Speedup:       single.seconds / elapsed,
				Exact:         resultSetsExact(single.rs, rs) == nil,
			})
		}
	}
	return pts, nil
}

// FleetCompareResult is FleetCompare's verdict.
type FleetCompareResult struct {
	Case     string  `json:"case"`
	Workers  int     `json:"workers"`
	Outages  int     `json:"outages"`
	Screened int     `json:"screened"`
	Seconds  float64 `json:"seconds"`
}

// FleetCompare runs a sharded N-1 sweep against EXTERNAL worker URLs
// (real processes, typically `gridmind-server -worker`) and pins the
// merged result to the single-process reference: any structural
// difference, metric drift past 1e-9 or ranking divergence is an error.
// The CI fleet smoke job is its caller — including the run where one
// worker is configured to die mid-sweep.
func FleetCompare(ctx context.Context, workers []string, caseName string) (*FleetCompareResult, error) {
	single, branches, err := localReferenceSweep(caseName)
	if err != nil {
		return nil, err
	}
	coord, err := fleet.NewCoordinator(fleet.Config{
		Workers:      workers,
		RetryBackoff: 100 * time.Millisecond,
	})
	if err != nil {
		return nil, err
	}
	start := time.Now()
	rs, err := coord.SweepN1(ctx, "fleet-compare-"+caseName, caseName, branches, fleet.SweepOptions{DCScreen: true})
	if err != nil {
		return nil, err
	}
	if err := resultSetsExact(single.rs, rs); err != nil {
		return nil, fmt.Errorf("experiments: fleet result diverges from single-process sweep: %w", err)
	}
	return &FleetCompareResult{
		Case:     caseName,
		Workers:  len(workers),
		Outages:  len(rs.Outages),
		Screened: rs.Screened,
		Seconds:  time.Since(start).Seconds(),
	}, nil
}

// singleSweep carries the single-process reference and its wall clock.
type singleSweep struct {
	rs      *contingency.ResultSet
	seconds float64
}

// localReferenceSweep runs the engine-threaded single-process N-1 sweep —
// the exact configuration a gridmind-server session uses — and returns it
// with the global outage enumeration the coordinator shards.
func localReferenceSweep(caseName string) (*singleSweep, []int, error) {
	eng := engine.New()
	n, err := eng.Pristine(caseName)
	if err != nil {
		return nil, nil, err
	}
	base, err := eng.BasePF(caseName, n)
	if err != nil {
		return nil, nil, err
	}
	opts := contingency.Options{
		DCScreen: true,
		Pool:     eng.SweepPool(caseName),
		Metrics:  eng.Metrics(),
	}
	start := time.Now()
	rs, err := contingency.Analyze(n, base, opts)
	if err != nil {
		return nil, nil, err
	}
	return &singleSweep{rs: rs, seconds: time.Since(start).Seconds()}, n.InServiceBranches(), nil
}

// resultSetsExact pins two sweeps: structural fields exact, float metrics
// within 1e-9, severity ranking identical. nil means they match.
func resultSetsExact(want, got *contingency.ResultSet) error {
	if want.CaseName != got.CaseName || len(want.Outages) != len(got.Outages) || want.Screened != got.Screened {
		return fmt.Errorf("shape differs: case %q/%q, %d/%d outages, %d/%d screened",
			want.CaseName, got.CaseName, len(want.Outages), len(got.Outages), want.Screened, got.Screened)
	}
	if math.Abs(want.BaseMaxLoadingPct-got.BaseMaxLoadingPct) > 1e-9 ||
		math.Abs(want.BaseMinVoltagePU-got.BaseMinVoltagePU) > 1e-9 {
		return fmt.Errorf("base-case metrics differ")
	}
	for k := range want.Outages {
		w, g := &want.Outages[k], &got.Outages[k]
		if w.Branch != g.Branch || w.Converged != g.Converged || w.Islanded != g.Islanded ||
			w.Algorithm != g.Algorithm || len(w.Overloads) != len(g.Overloads) || len(w.VoltViols) != len(g.VoltViols) {
			return fmt.Errorf("outage %d: structural fields differ", k)
		}
		if math.Abs(w.MaxLoadingPct-g.MaxLoadingPct) > 1e-9 ||
			math.Abs(w.MinVoltagePU-g.MinVoltagePU) > 1e-9 ||
			math.Abs(w.LoadShedMW-g.LoadShedMW) > 1e-9 ||
			math.Abs(w.Severity-g.Severity) > 1e-9 {
			return fmt.Errorf("outage %d: metrics differ beyond 1e-9", k)
		}
	}
	wr, gr := want.Rank(contingency.Composite), got.Rank(contingency.Composite)
	for i := range wr {
		if wr[i] != gr[i] {
			return fmt.Errorf("ranking diverges at position %d", i)
		}
	}
	return nil
}
