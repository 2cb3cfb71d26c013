package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"sync/atomic"
	"time"

	"gridmind/internal/contingency"
	"gridmind/internal/obs"
)

// Config wires a Coordinator.
type Config struct {
	// Workers are the base URLs of the fleet ("http://host:port"); at
	// least one is required. A worker that dies mid-sweep only slows the
	// sweep down — its shards are reassigned to the survivors.
	Workers []string
	// ShardsPerWorker sets the shard count to ShardsPerWorker×len(Workers)
	// (capped at the outage count). More shards than workers keeps the
	// fleet load-balanced and bounds the work lost to one worker death.
	// Zero selects 4.
	ShardsPerWorker int
	// Timeout bounds one shard request round trip; an expired shard is
	// retried (the worker memoizes, so a slow-but-alive worker's eventual
	// duplicate is harmless). Zero selects 120s.
	Timeout time.Duration
	// Attempts bounds how often one shard is tried before the sweep
	// fails. Zero selects 2×len(Workers)+1, so a single worker death can
	// never exhaust a shard while any worker survives.
	Attempts int
	// RetryBackoff is the base of the exponential backoff a worker
	// goroutine sleeps after a failed attempt (doubling per consecutive
	// failure, capped at 32×). Zero selects 50ms.
	RetryBackoff time.Duration
	// Client overrides the HTTP client (tests inject httptest clients).
	// Nil uses a fresh client; Timeout above still applies per request
	// via context.
	Client *http.Client
	// Metrics receives fleet counters and latency histograms; nil records
	// nothing.
	Metrics *obs.Registry
}

// Coordinator shards sweeps across a worker fleet and merges the partial
// results deterministically: the merged ResultSet is bit-identical to the
// single-process sweep's no matter how many workers run, in which order
// shards complete, or which retries happened in between.
type Coordinator struct {
	cfg Config

	shardsOK      *obs.Counter
	shardsRetried *obs.Counter
	sweepsOK      *obs.Counter
	sweepsErr     *obs.Counter
	shardLat      *obs.Histogram
	mergeLat      *obs.Histogram
}

// NewCoordinator validates the config and applies defaults.
func NewCoordinator(cfg Config) (*Coordinator, error) {
	if len(cfg.Workers) == 0 {
		return nil, errors.New("fleet: coordinator needs at least one worker URL")
	}
	if cfg.ShardsPerWorker <= 0 {
		cfg.ShardsPerWorker = 4
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 120 * time.Second
	}
	if cfg.Attempts <= 0 {
		cfg.Attempts = 2*len(cfg.Workers) + 1
	}
	if cfg.RetryBackoff <= 0 {
		cfg.RetryBackoff = 50 * time.Millisecond
	}
	if cfg.Client == nil {
		cfg.Client = &http.Client{}
	}
	c := &Coordinator{cfg: cfg}
	if met := cfg.Metrics; met != nil {
		const h = "Shard dispatches by result (retried = failed attempts that were reassigned)."
		c.shardsOK = met.Counter("gridmind_fleet_shards_total", h, "result", "ok")
		c.shardsRetried = met.Counter("gridmind_fleet_shards_total", h, "result", "retried")
		const hs = "Distributed sweeps by result."
		c.sweepsOK = met.Counter("gridmind_fleet_sweeps_total", hs, "result", "ok")
		c.sweepsErr = met.Counter("gridmind_fleet_sweeps_total", hs, "result", "error")
		c.shardLat = met.Histogram("gridmind_fleet_shard_seconds",
			"Round-trip time of one successful shard dispatch.", nil)
		c.mergeLat = met.Histogram("gridmind_fleet_merge_seconds",
			"Time to splice and validate all shard responses into the merged ResultSet.", nil)
	}
	return c, nil
}

// SweepN1 runs a sharded N-1 sweep over the given outage set (branch
// indices; callers enumerate with n.InServiceBranches() to match the
// single-process default). sweepID must be unique per logical sweep — it
// keys idempotent retries, so reusing an ID for a DIFFERENT outage set
// against the same fleet would replay stale shards.
func (c *Coordinator) SweepN1(ctx context.Context, sweepID, caseName string, branches []int, opts SweepOptions) (*contingency.ResultSet, error) {
	if len(branches) == 0 {
		return nil, errors.New("fleet: N-1 sweep needs a non-empty outage set")
	}
	ranges := splitContiguous(len(branches), c.cfg.ShardsPerWorker*len(c.cfg.Workers))
	reqs := make([]ShardRequest, len(ranges))
	for i, rg := range ranges {
		reqs[i] = ShardRequest{
			Version:  ProtocolVersion,
			SweepID:  sweepID,
			Shard:    i,
			Shards:   len(ranges),
			Case:     caseName,
			Kind:     KindN1,
			Branches: branches[rg.Off : rg.Off+rg.Len],
			Opts:     opts,
		}
	}
	return c.run(ctx, caseName, reqs, ranges, len(branches))
}

// run dispatches the shard set and merges the responses.
func (c *Coordinator) run(ctx context.Context, caseName string, reqs []ShardRequest, ranges []shardRange, total int) (*contingency.ResultSet, error) {
	results, err := c.dispatch(ctx, reqs)
	if err != nil {
		c.count(c.sweepsErr)
		return nil, err
	}
	start := time.Now()
	rs, err := mergeShards(caseName, reqs, ranges, results, total)
	if err != nil {
		c.count(c.sweepsErr)
		return nil, err
	}
	if c.mergeLat != nil {
		c.mergeLat.ObserveDuration(time.Since(start))
	}
	c.count(c.sweepsOK)
	return rs, nil
}

// dispatch drives the fleet: one goroutine per worker pulls shards from a
// shared queue; a failed attempt (dead worker, timeout, non-200, bad
// payload) requeues the shard — with exponential backoff on the FAILING
// worker only, so a dead worker backs off while survivors drain the
// queue — until the shard's attempt budget is exhausted.
func (c *Coordinator) dispatch(ctx context.Context, reqs []ShardRequest) ([]*ShardResponse, error) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	// Each shard is held by at most one worker at a time (a failure
	// requeues it exactly once), so the buffer never fills.
	jobs := make(chan int, len(reqs))
	for i := range reqs {
		jobs <- i
	}
	results := make([]*ShardResponse, len(reqs))
	attempts := make([]int32, len(reqs))
	var pending int64 = int64(len(reqs))
	done := make(chan struct{})
	errCh := make(chan error, len(c.cfg.Workers))

	for _, u := range c.cfg.Workers {
		go func(url string) {
			failStreak := 0
			for {
				select {
				case <-done:
					return
				case <-ctx.Done():
					return
				case sh := <-jobs:
					resp, err := c.post(ctx, url, &reqs[sh])
					if err != nil {
						if n := atomic.AddInt32(&attempts[sh], 1); int(n) >= c.cfg.Attempts {
							errCh <- fmt.Errorf("fleet: shard %s failed after %d attempts, last worker %s: %w",
								reqs[sh].Key(), n, url, err)
							return
						}
						c.count(c.shardsRetried)
						jobs <- sh
						failStreak++
						if !c.backoff(ctx, done, failStreak) {
							return
						}
						continue
					}
					failStreak = 0
					results[sh] = resp
					c.count(c.shardsOK)
					if atomic.AddInt64(&pending, -1) == 0 {
						close(done)
						return
					}
				}
			}
		}(u)
	}

	select {
	case <-done:
		return results, nil
	case err := <-errCh:
		return nil, err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// backoff sleeps the failing worker's goroutine; false means shut down.
func (c *Coordinator) backoff(ctx context.Context, done <-chan struct{}, streak int) bool {
	d := c.cfg.RetryBackoff
	if streak > 1 {
		shift := streak - 1
		if shift > 5 {
			shift = 5 // cap at 32× base
		}
		d *= time.Duration(1) << shift
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-done:
		return false
	case <-ctx.Done():
		return false
	}
}

// post sends one shard request and validates the response envelope.
func (c *Coordinator) post(ctx context.Context, workerURL string, req *ShardRequest) (*ShardResponse, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	rctx, cancel := context.WithTimeout(ctx, c.cfg.Timeout)
	defer cancel()
	hreq, err := http.NewRequestWithContext(rctx, http.MethodPost, workerURL+"/shard", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	start := time.Now()
	hresp, err := c.cfg.Client.Do(hreq)
	if err != nil {
		return nil, err
	}
	defer hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(hresp.Body, 512))
		return nil, fmt.Errorf("fleet: worker %s: %s: %s", workerURL, hresp.Status, bytes.TrimSpace(msg))
	}
	var resp ShardResponse
	if err := json.NewDecoder(hresp.Body).Decode(&resp); err != nil {
		return nil, fmt.Errorf("fleet: worker %s: bad response: %w", workerURL, err)
	}
	if resp.Version != ProtocolVersion {
		return nil, fmt.Errorf("fleet: worker %s speaks protocol %d, coordinator speaks %d", workerURL, resp.Version, ProtocolVersion)
	}
	if resp.Key != req.Key() {
		return nil, fmt.Errorf("fleet: worker %s answered shard %s for request %s", workerURL, resp.Key, req.Key())
	}
	if c.shardLat != nil {
		c.shardLat.ObserveDuration(time.Since(start))
	}
	return &resp, nil
}

// mergeShards splices the partial results into the single-process result.
// Placement is by the shard's precomputed offset — never by completion
// order — so the merged Outages slice is bit-identical across runs,
// worker counts and retry histories. Base-case metrics must agree across
// shards (every worker solved the same base power flow); disagreement
// means the fleet is not running the configuration the coordinator thinks
// it is, and the merge refuses rather than guesses.
func mergeShards(caseName string, reqs []ShardRequest, ranges []shardRange, results []*ShardResponse, total int) (*contingency.ResultSet, error) {
	rs := &contingency.ResultSet{
		CaseName: caseName,
		Outages:  make([]contingency.OutageResult, total),
	}
	for i, resp := range results {
		if resp == nil {
			return nil, fmt.Errorf("fleet: shard %d missing from merge", i)
		}
		want := ranges[i].Len
		if len(resp.Outages) != want {
			return nil, fmt.Errorf("fleet: shard %s returned %d outages, want %d",
				reqs[i].Key(), len(resp.Outages), want)
		}
		if resp.CaseName != caseName {
			return nil, fmt.Errorf("fleet: shard %s analyzed %q, want %q", reqs[i].Key(), resp.CaseName, caseName)
		}
		if i == 0 {
			rs.BaseMaxLoadingPct = resp.BaseMaxLoadingPct
			rs.BaseMinVoltagePU = resp.BaseMinVoltagePU
		} else if math.Abs(resp.BaseMaxLoadingPct-rs.BaseMaxLoadingPct) > 1e-9 ||
			math.Abs(resp.BaseMinVoltagePU-rs.BaseMinVoltagePU) > 1e-9 {
			return nil, fmt.Errorf("fleet: shard %s base-case metrics disagree with shard 0 (%v/%v vs %v/%v)",
				reqs[i].Key(), resp.BaseMaxLoadingPct, resp.BaseMinVoltagePU, rs.BaseMaxLoadingPct, rs.BaseMinVoltagePU)
		}
		copy(rs.Outages[ranges[i].Off:], resp.Outages)
		rs.Screened += resp.Screened
	}
	return rs, nil
}

func (c *Coordinator) count(ctr *obs.Counter) {
	if ctr != nil {
		ctr.Inc()
	}
}
